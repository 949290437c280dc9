"""End-to-end command tests through main(argv)."""

from __future__ import annotations

import io
import re
from fractions import Fraction

import pytest

from graphshare import cli, generators
from graphshare.adversary import GraphShape
from graphshare.cli import (
    EXIT_OK,
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

    def test_bad_kinds(self, capsys):
        assert main(["gen", "--kind", "torus:5"]) == EXIT_USAGE
        assert main(["gen", "--kind", "cycle7"]) == EXIT_USAGE
        assert main(["gen", "--kind", "cycle7:10"]) == EXIT_USAGE  # m too small


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
            # parsable, but of the wrong type or out of range
            "cases=1,2",
            "cases=1/2",
            "cases=-3",
            "m_values=1000",
            "max_vertices=1",
            "weight_max=3",
            "alternate_iters=0",
            "vertices=0",
        ],
    )
    def test_unparsable_param_value(self, param, capsys):
        key = param.split("=")[0]
        suite = {
            "m_values": "cycle7-family",
            "alternate_iters": "tie-tree-search",
            "vertices": "tie-tree-search",
        }.get(key, "general-third")
        code = main(["verify", "--suite", suite, "--param", param])
        assert code == EXIT_USAGE
        err = assert_one_line_error(capsys)
        assert "cannot parse" in err or repr(key) in err

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
        pattern = r"trace\.(\d+)\.lp_bound=\d+/\d+ candidate=(\d+/\d+|-) best=(\d+/\d+)"
        matches = [re.fullmatch(pattern, line) for line in records]
        assert all(matches)
        assert [int(m.group(1)) for m in matches] == list(range(len(records)))
        value = dict(
            line.split("=", 1) for line in plain.out.splitlines() if "=" in line
        )["value"]
        assert matches[-1].group(3) == value

    def test_bad_shape(self, capsys):
        assert main(["adversary", "--shape", "grid:3"]) == EXIT_USAGE

    def test_empty_tree_enumeration(self, capsys):
        assert main(["adversary", "--shape", "tree-enum:0"]) == EXIT_USAGE
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("method", ["alt", "hill"])
    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_iters_below_one(self, method, iters, capsys):
        argv = ["adversary", "--shape", "cycle7", "--method", method,
                "--seed", "1", "--iters", iters]
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
                "--seed", "1"]
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
        argv = ["adversary", "--shape", shape, "--method", method, "--seed", "1"]
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
