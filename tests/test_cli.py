"""End-to-end command tests through main(argv)."""

from __future__ import annotations

import importlib
import io
import os
import re
import stat
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import graphshare
from graphshare import cli, generators
from graphshare.adversary import GraphShape
from graphshare.cli import (
    EXIT_OK,
    EXIT_PIPE,
    EXIT_SUITE_FAIL,
    EXIT_TIE,
    EXIT_USAGE,
    main,
    run_play,
)
from graphshare.core import Instance, Player, TiePolicy, play_out
from graphshare.generators import gen_cycle7_family
from graphshare.instance_io import format_instance, parse_instance

TRIANGLE = Instance(weights=(1, 2, 4), edges=((0, 1), (1, 2), (0, 2)))
# hill requires a seed and alt refuses one
HILL_SEED = {"alt": [], "hill": ["--seed", "1"]}
EDGE12 = Instance(weights=(1, 2), edges=((0, 1),))


@pytest.fixture
def cycle7_file(tmp_path):
    target = tmp_path / "c7.txt"
    target.write_text(format_instance(gen_cycle7_family(1000)))
    return str(target)


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def write_instance(tmp_path, instance, name="inst.txt"):
    target = tmp_path / name
    target.write_text(format_instance(instance))
    return str(target)


class TestSolveCommand:
    def test_full_report(self, cycle7_file, capsys):
        assert main(["solve", cycle7_file]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value=1069/3095" in out
        assert "policy=forbid" in out
        assert "start.3.value=" in out

    def test_start_filter(self, cycle7_file, capsys):
        assert main(["solve", cycle7_file, "--start", "3"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 3
        assert out[0].startswith("start.3.value=")
        assert out[1].startswith("start.3.line=F3,")
        assert out[2] == "policy=forbid"

    def test_start_lines_are_the_full_reports(self, cycle7_file, capsys):
        # one writer, StartResult.render, serves both outputs
        assert main(["solve", cycle7_file]) == EXIT_OK
        full = capsys.readouterr().out.splitlines()
        for start in range(7):
            assert main(["solve", cycle7_file, "--start", str(start)]) == EXIT_OK
            out = capsys.readouterr().out.splitlines()
            assert out[:2] == full[2 * start : 2 * start + 2]

    def test_bad_start(self, cycle7_file, capsys):
        assert main(["solve", cycle7_file, "--start", "11"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_bad_start_is_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("solved before the start vertex was checked")

        monkeypatch.setattr(cli, "solve", never)
        path = write_instance(tmp_path, TRIANGLE)
        assert main(["solve", path, "--start", "99"]) == EXIT_USAGE
        assert assert_one_line_error(capsys) == "error: start vertex 99 does not exist\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.txt")]) == EXIT_USAGE

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path)]) == EXIT_USAGE
        assert "Is a directory" in assert_one_line_error(capsys)

    def test_binary_file(self, tmp_path, capsys):
        target = tmp_path / "inst.bin"
        target.write_bytes(bytes([0x89, 0x50, 0x4E, 0x47, 0xFF, 0xFE, 0x00]))
        assert main(["solve", str(target)]) == EXIT_USAGE
        assert "can't decode" in assert_one_line_error(capsys)

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        # editors on Windows may start a UTF-8 file with a byte-order mark
        text = b"2 1\n3 4\n0 1\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text)
        assert main(["solve", str(plain)]) == EXIT_OK
        expected = capsys.readouterr()
        assert main(["solve", str(marked)]) == EXIT_OK
        assert capsys.readouterr() == expected

    def test_size_warning_on_stderr(self, tmp_path, capsys):
        inst = Instance(
            weights=tuple(2**v for v in range(17)),
            edges=tuple((i, i + 1) for i in range(16)),
        )
        path = write_instance(tmp_path, inst)
        assert main(["solve", path, "--policy", "first"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "warning: 17 vertices" in captured.err
        assert "value=" in captured.out

    def test_above_the_solver_cap_is_refused_without_a_warning(
        self, tmp_path, capsys
    ):
        inst = Instance(
            weights=tuple(range(1, 20)),
            edges=tuple((i, i + 1) for i in range(18)),
        )
        path = write_instance(tmp_path, inst)
        assert main(["solve", path]) == EXIT_USAGE
        assert (
            assert_one_line_error(capsys)
            == "error: 19 vertices exceed the solver cap of 18\n"
        )

    def test_tie_aborts_with_exit_3(self, tmp_path, capsys):
        inst = Instance(weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3)))
        path = write_instance(tmp_path, inst)
        assert main(["solve", path]) == EXIT_TIE
        assert "tied" in capsys.readouterr().err
        assert main(["solve", path, "--policy", "first"]) == EXIT_OK


class TestGenCommand:
    def test_cycle7_to_stdout(self, capsys):
        assert main(["gen", "--kind", "cycle7:1000"]) == EXIT_OK
        inst = parse_instance(capsys.readouterr().out)
        assert inst.weights == gen_cycle7_family(1000).weights

    def test_edge_kind(self, capsys):
        assert main(["gen", "--kind", "edge:3,4"]) == EXIT_OK
        inst = parse_instance(capsys.readouterr().out)
        assert inst.weights == (3, 4)
        assert inst.edges == ((0, 1),)

    def test_tree_kind_writes_file(self, tmp_path, capsys):
        target = tmp_path / "tree.txt"
        code = main(["gen", "--kind", "tree:6", "--seed", "4", "-o", str(target)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        inst = parse_instance(target.read_text())
        assert inst.vertex_count == 6
        assert len(inst.edges) == 5

    def test_output_is_a_directory(self, tmp_path, capsys):
        code = main(["gen", "--kind", "cycle7:1000", "-o", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "Is a directory" in assert_one_line_error(capsys)

    def test_connected_kind(self, capsys):
        assert main(["gen", "--kind", "connected:6,3", "--seed", "4"]) == EXIT_OK
        inst = parse_instance(capsys.readouterr().out)
        assert inst.vertex_count == 6
        assert len(inst.edges) == 8

    def test_seed_required_for_random_kinds(self, capsys):
        assert main(["gen", "--kind", "tree:6"]) == EXIT_USAGE
        assert main(["gen", "--kind", "connected:6,1"]) == EXIT_USAGE

    @pytest.mark.parametrize("kind", ["tree:65", "connected:65,1"])
    def test_random_kind_above_the_cap_is_never_drawn(self, kind, capsys, monkeypatch):
        def refuse(rng, n):
            raise AssertionError(f"tree of {n} vertices drawn")

        monkeypatch.setattr(generators, "_prufer_edges", refuse)
        assert main(["gen", "--kind", kind, "--seed", "1"]) == EXIT_USAGE
        message = "65 vertices exceed the bitmask encoding cap of 64"
        assert message in assert_one_line_error(capsys)

    @pytest.mark.parametrize("kind", ["cycle7:1000", "edge:3,4"])
    def test_seed_for_a_seedless_kind_is_refused(
        self, kind, tmp_path, capsys, monkeypatch
    ):
        # the instance would not depend on the seed, so nothing is built
        monkeypatch.setattr(cli, "gen_cycle7_family", None)
        monkeypatch.setattr(cli, "Instance", None)
        assert main(["gen", "--kind", kind, "--seed", "5"]) == EXIT_USAGE
        assert "--seed" in assert_one_line_error(capsys)
        target = tmp_path / "inst.txt"
        argv = ["gen", "--kind", kind, "--seed", "5", "-o", str(target)]
        assert main(argv) == EXIT_USAGE
        assert "--seed" in assert_one_line_error(capsys)
        assert not target.exists()

    def test_bad_kinds(self, capsys):
        assert main(["gen", "--kind", "torus:5"]) == EXIT_USAGE
        assert main(["gen", "--kind", "cycle7"]) == EXIT_USAGE
        assert main(["gen", "--kind", "cycle7:10"]) == EXIT_USAGE  # m too small

    @pytest.mark.parametrize(
        "kind, form",
        [
            ("edge:3", "edge:<a>,<b>"),
            ("edge:3,4,5", "edge:<a>,<b>"),
            ("connected:5", "connected:<n>,<extra>"),
            ("tree:5,3", "tree:<n>"),
            ("cycle7:", "cycle7:<M>"),
        ],
    )
    def test_malformed_kind_names_its_form(self, kind, form, capsys):
        # the numbers are parsed before the generator runs, so the
        # message names the expected form, not Python's unpacking error
        seeded = kind.startswith(("tree", "connected"))
        argv = ["gen", "--kind", kind] + (["--seed", "1"] if seeded else [])
        assert main(argv) == EXIT_USAGE
        expected = f"error: bad --kind argument {kind!r}: expected {form}\n"
        assert assert_one_line_error(capsys) == expected


class TestVerifyCommand:
    def test_passing_suite(self, capsys):
        code = main(["verify", "--suite", "edge-family", "--param", "k_max=8"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "suite=edge-family status=PASS cases=8 failures=0" in out

    def test_param_types(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "cycle7-family",
                "--param",
                "m_values=1000,100000",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "cycle7.M100000.value=100069/300095" in out

    def test_trailing_comma_makes_a_one_element_tuple(self, capsys):
        code = main(
            ["verify", "--suite", "cycle7-family", "--param", "m_values=1000,"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "status=PASS cases=1 failures=0" in out
        assert "cycle7.M1000.value=1069/3095" in out

    def test_failing_suite(self, capsys):
        code = main(
            [
                "verify",
                "--suite",
                "tie-tree-search",
                "--seed",
                "2",
                "--param",
                "vertices=5",
                "--param",
                "hill_iters=8",
                "--param",
                "alternate_iters=4",
                "--param",
                "refine_top=1",
            ]
        )
        assert code == EXIT_SUITE_FAIL
        assert "status=FAIL" in capsys.readouterr().out

    def test_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == EXIT_USAGE

    def test_bad_param(self, capsys):
        code = main(["verify", "--suite", "edge-family", "--param", "k_max"])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "param",
        [
            "cases=1/0",
            "cases=a/b",
            "cases=1,x",
            "m_values=,",
            # parsable, but of the wrong type or out of range
            "cases=1,2",
            "cases=1/2",
            "cases=-3",
            "m_values=1000",
            "max_vertices=1",
            "weight_max=3",
            "alternate_iters=0",
            "vertices=0",
            "threshold=1,2",
            # a share outside [0, 1] passes or fails every search
            "threshold=36",
            "stretch=-1/2",
        ],
    )
    def test_unparsable_param_value(self, param, capsys):
        key = param.split("=")[0]
        suite = {
            "m_values": "cycle7-family",
            "alternate_iters": "tie-tree-search",
            "vertices": "tie-tree-search",
            "threshold": "tie-tree-search",
            "stretch": "tie-tree-search",
        }.get(key, "general-third")
        code = main(["verify", "--suite", suite, "--param", param])
        assert code == EXIT_USAGE
        err = assert_one_line_error(capsys)
        assert "cannot parse" in err or repr(key) in err

    def test_repeated_param_key_is_refused(self, capsys, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("a suite ran with a repeated key")

        monkeypatch.setattr(cli, "run_suite", unused)
        argv = ["verify", "--suite", "edge-family"]
        argv += ["--param", "k_max=2", "--param", "k_max=3"]
        assert main(argv) == EXIT_USAGE
        assert assert_one_line_error(capsys) == "error: --param k_max given twice\n"

    def test_unknown_param_key(self, capsys):
        code = main(["verify", "--suite", "edge-family", "--param", "bogus=3"])
        assert code == EXIT_USAGE
        err = assert_one_line_error(capsys)
        assert "bogus" in err


class TestAdversaryCommand:
    def test_alternate_on_edge(self, capsys):
        code = main(["adversary", "--shape", "edge", "--method", "alt"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        block, _, tail = out.partition("value=")
        inst = parse_instance(block)
        assert inst.vertex_count == 2
        lines = ("value=" + tail).splitlines()
        fields = dict(line.split("=", 1) for line in lines)
        assert fields["method"] == "alt"
        assert fields["policy"] == "forbid"
        assert fields["shapes_searched"] == "1"
        assert fields["stop_reason"] in ("converged", "max_iters")
        num, den = fields["value"].split("/")
        assert Fraction(int(num), int(den)) > Fraction(1, 2)

    def test_hill_requires_seed(self, capsys):
        code = main(["adversary", "--shape", "cycle:5", "--method", "hill"])
        assert code == EXIT_USAGE

    def test_hill_on_cycle(self, capsys):
        code = main(
            [
                "adversary",
                "--shape",
                "cycle:5",
                "--method",
                "hill",
                "--seed",
                "1",
                "--iters",
                "30",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "seed=1" in out
        assert "stop_reason=iters" in out

    def test_trace_writes_records_to_stderr_only(self, capsys):
        argv = ["adversary", "--shape", "edge", "--method", "alt"]
        assert main(argv) == EXIT_OK
        plain = capsys.readouterr()
        assert main(argv + ["--trace"]) == EXIT_OK
        traced = capsys.readouterr()
        assert traced.out == plain.out
        assert plain.err == ""
        records = traced.err.splitlines()
        assert records
        pattern = r"trace\.(\d+)\.lp_bound=\d+/\d+ candidate=(\d+/\d+) best=(\d+/\d+)"
        matches = [re.fullmatch(pattern, line) for line in records]
        assert all(matches)
        assert [int(m.group(1)) for m in matches] == list(range(len(records)))
        value = dict(
            line.split("=", 1) for line in plain.out.splitlines() if "=" in line
        )["value"]
        assert matches[-1].group(3) == value

    def test_bad_shape(self, capsys):
        assert main(["adversary", "--shape", "grid:3"]) == EXIT_USAGE

    @pytest.mark.parametrize("shape", ["cycle7:5", "cycle7:", "edge:junk"])
    def test_count_on_a_fixed_shape_is_refused(self, shape, capsys):
        assert main(["adversary", "--shape", shape]) == EXIT_USAGE
        assert repr(shape) in assert_one_line_error(capsys)

    def test_empty_tree_enumeration(self, capsys):
        assert main(["adversary", "--shape", "tree-enum:0"]) == EXIT_USAGE
        assert_one_line_error(capsys)

    def test_seed_for_alt_is_refused(self, capsys):
        # alt reads no seed, so seed=7 would be printed beside a result
        # the seed did not shape
        argv = ["adversary", "--shape", "edge", "--method", "alt", "--seed", "7"]
        assert main(argv) == EXIT_USAGE
        assert "--seed" in assert_one_line_error(capsys)
        # the refusal comes before --iters and before the shape is parsed
        assert main(argv + ["--iters", "0", "--shape", "nope"]) == EXIT_USAGE
        assert "--seed" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("method", ["alt", "hill"])
    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one(self, method, iters, capsys):
        argv = ["adversary", "--shape", "cycle7", "--method", method,
                *HILL_SEED[method], "--iters", iters]
        assert main(argv) == EXIT_USAGE
        assert "--iters must be at least 1" in assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "method, cap",
        [("alt", "alternating search cap of 10"), ("hill", "hill climb cap of 12")],
    )
    def test_tree_enumeration_above_the_cap_fails_fast(self, method, cap, capsys):
        # the token's vertex count meets the cap before any tree is
        # built; enumerating all trees on 40 vertices would not finish
        argv = ["adversary", "--shape", "tree-enum:40", "--method", method,
                *HILL_SEED[method]]
        assert main(argv) == EXIT_USAGE
        assert cap in assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "method, shape, cap",
        [
            ("alt", "cycle:11", "alternating search cap of 10"),
            ("hill", "cycle:13", "hill climb cap of 12"),
        ],
    )
    def test_cycle_above_the_cap_is_never_built(
        self, method, shape, cap, capsys, monkeypatch
    ):
        def refuse(n):
            raise AssertionError(f"cycle of {n} vertices built")

        monkeypatch.setattr(GraphShape, "cycle", refuse)
        argv = ["adversary", "--shape", shape, "--method", method, *HILL_SEED[method]]
        assert main(argv) == EXIT_USAGE
        assert cap in assert_one_line_error(capsys)
        # the other argument checks still come first, as they did when
        # only the search checked its cap
        assert main(argv + ["--iters", "0"]) == EXIT_USAGE
        assert "--iters must be at least 1" in assert_one_line_error(capsys)


class TestPlayCommand:
    def test_scripted_full_game(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, TRIANGLE)
        monkeypatch.setattr("sys.stdin", io.StringIO("9\nx\n2\n"))
        code = main(["play", path, "--human", "first"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "vertex 9 is not takeable now; takeable: 0 1 2" in out
        assert "not a vertex id: 'x'" in out
        assert "engine (S) takes" in out
        assert "final: first[2]=4/7 second[0,1]=3/7" in out
        assert "your share 4/7 matches the optimal 4/7 for your side" in out

    def test_human_second(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, EDGE12)
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
        code = main(["play", path, "--human", "second"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "engine (F) takes 1 (weight 2)" in out
        assert "your share 1/3 matches the optimal 1/3 for your side" in out

    @pytest.mark.parametrize(
        "instance, side, moves",
        [
            (TRIANGLE, Player.FIRST, "2\n"),
            (gen_cycle7_family(1000), Player.SECOND, "4\n5\n0\n"),
        ],
        ids=["human-first", "human-second"],
    )
    def test_one_search_per_game(self, instance, side, moves, monkeypatch):
        # the engine's own play is the optimal share, so no second search
        # is built; the package binds the name solve to the function, so
        # the module is reached by name
        searches = importlib.import_module("graphshare.solve")._Search
        built = []
        init = searches.__init__

        def counted(search, *args):
            built.append(search)
            init(search, *args)

        monkeypatch.setattr(searches, "__init__", counted)
        stdin, stdout = io.StringIO(moves), io.StringIO()
        outcome = run_play(instance, TiePolicy.FORBID, side, stdin, stdout)
        assert outcome is not None
        assert len(built) == 1

    def test_eof_aborts_cleanly(self, tmp_path, capsys, monkeypatch):
        path = write_instance(tmp_path, TRIANGLE)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["play", path, "--human", "first"])
        assert code == EXIT_OK
        assert "input ended; game aborted" in capsys.readouterr().out

    def test_tie_reachable_instance_exits_3(self, tmp_path, capsys, monkeypatch):
        inst = Instance(weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3)))
        path = write_instance(tmp_path, inst)
        monkeypatch.setattr("sys.stdin", io.StringIO("0\n"))
        code = main(["play", path, "--human", "first"])
        assert code == EXIT_TIE

    def test_transcript_replays_to_same_outcome(self):
        # the narrated game must be exactly a play_out of the logged moves
        inst = Instance(weights=(5, 2, 9), edges=((0, 1), (1, 2)))
        stdin = io.StringIO("1\n0\n")
        stdout = io.StringIO()
        outcome = run_play(inst, TiePolicy.FIRST_MOVES, Player.FIRST, stdin, stdout)
        assert outcome is not None
        log = iter(outcome.move_log)

        def scripted(expected_player):
            def strategy(_inst, _state):
                who, vertex = next(log)
                assert who is expected_player
                return vertex

            return strategy

        replay = play_out(
            inst,
            TiePolicy.FIRST_MOVES,
            scripted(Player.FIRST),
            scripted(Player.SECOND),
        )
        assert replay.first_mask == outcome.first_mask
        assert replay.first_value == outcome.first_value


def test_python_dash_m_runs_the_command_line():
    # the package's __main__ hands its arguments to cli.main
    src = str(Path(graphshare.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-m", "graphshare", "verify", "--suite", "nope"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr.startswith("error: unknown suite 'nope'")


class _ClosedPipe:
    """A stdout whose reader has gone, as after ``| head``, with no
    file descriptor."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedPipe:
    def test_a_closed_output_pipe_exits_silently_with_141(
        self, cycle7_file, capsys, monkeypatch
    ):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["solve", str(cycle7_file)]) == EXIT_PIPE == 141
        assert capsys.readouterr().err == ""

    def test_the_closed_pipe_is_pointed_at_devnull(self, cycle7_file, capsys, monkeypatch):
        # a pipe of the test's own, read end closed: the short report
        # waits in the buffer, so main's own flush meets the closed pipe,
        # and the stream's last flush then goes to os.devnull
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        with open(write_fd, "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert main(["solve", str(cycle7_file), "--start", "3"]) == EXIT_PIPE
            assert stat.S_ISCHR(os.fstat(write_fd).st_mode)
        assert capsys.readouterr().err == ""


NO_NETWORKX = """
import sys
from fractions import Fraction

from graphshare import (
    GraphShape, TiePolicy, alternate_optimize, extract_forest,
    gen_random_connected, hill_climb, run_suite, solve,
)
from graphshare.adversary import tree_shapes
from graphshare.solve import value_at_least
from graphshare.verify import SUITE_NAMES

SIZES = {
    "general-third": {"cases": 4, "max_vertices": 6},
    "tree-half": {"cases": 4, "max_vertices": 6},
    "mutual-edge": {"cases": 4, "max_vertices": 6},
    "oracle-equivalence": {"cases": 4, "max_vertices": 5},
    "lead-invariant": {"cases": 4, "max_vertices": 5},
    "cycle7-family": {"m_values": (1000,)},
    "edge-family": {"k_max": 5},
}
instance = gen_random_connected(6, 1, 0, 100)
solve(instance, TiePolicy.FIRST_MOVES)
value_at_least(instance, TiePolicy.FIRST_MOVES, Fraction(1, 3))
extract_forest(instance, TiePolicy.FIRST_MOVES)
for name in SUITE_NAMES:
    if name != "tie-tree-search":
        assert run_suite(name, seed=0, size_params=SIZES[name]).passed
cycle = GraphShape.cycle(5)
hill_climb(cycle, TiePolicy.FORBID, seed=0, iters=4)
alternate_optimize(cycle, TiePolicy.FORBID, max_iters=1)
# the known layouts themselves, as perfbench's adversary-search runs them
alternate_optimize(GraphShape.cycle(7), TiePolicy.FORBID, max_iters=1)
spider = GraphShape(
    9, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (3, 6), (4, 7), (5, 8))
)
hill_climb(spider, TiePolicy.FIRST_MOVES, seed=0, iters=4)
try:
    tree_shapes(0)
except ValueError:
    pass
else:
    raise AssertionError("tree_shapes(0) was not refused")
assert len(list(tree_shapes(1))) == 1
print("networkx" in sys.modules)
"""


def test_only_tree_enumeration_and_known_layouts_import_networkx():
    # importing networkx more than doubles a bare process's peak memory,
    # far past the benchmark's 15% bound on it, so the solver, the
    # decision, the forest, both searches on a shape with no known layout
    # and on the known layouts themselves (the 7-cycle and the reference
    # spider, whose edges match exactly), every suite but tie-tree-search,
    # and tree enumeration's refusal of n < 1 and its one tree on n = 1
    # must not load it
    src = str(Path(graphshare.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
