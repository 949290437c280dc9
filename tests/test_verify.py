"""Verification suites: pass/fail plumbing, determinism, reproduction."""

from __future__ import annotations

import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import graphshare.verify as verify
from graphshare.core import GraphShareError, Player, TiePolicy
from graphshare.generators import (
    ExhaustedAttemptsError,
    gen_random_connected,
    gen_random_tree,
    resample_on_tie,
    subset_sums_distinct,
)
from graphshare.oracle import LineAudit, audit_lines, brute_value
from graphshare.solve import _Search, principal_line, response_map, solve
from graphshare.verify import (
    SUITE_NAMES,
    UnknownSuiteError,
    escape_dump,
    reproduce_failure,
    run_suite,
    unescape_dump,
)

# reduced sizes so the whole module stays fast; the acceptance tests run
# the full defaults
SMALL = {
    "general-third": {"cases": 40, "max_vertices": 8},
    "tree-half": {"cases": 30, "max_vertices": 8},
    "mutual-edge": {"cases": 25, "max_vertices": 8},
    "lead-invariant": {"cases": 30, "max_vertices": 5},
    "oracle-equivalence": {"cases": 30, "max_vertices": 5},
    "cycle7-family": {"m_values": (1000,)},
    "edge-family": {"k_max": 10},
    "tie-tree-search": {
        "vertices": 6,
        "hill_iters": 8,
        "alternate_iters": 4,
        "refine_top": 1,
        "threshold": Fraction(3, 5),
        "stretch": Fraction(1, 2),
    },
}

SUMMARY_RE = re.compile(
    r"^suite=[a-z0-9-]+ status=(PASS|FAIL) cases=\d+ failures=\d+$"
)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_small_runs_pass(name):
    report = run_suite(name, seed=2, size_params=SMALL[name])
    assert report.passed, report.render()
    assert report.failures == ()
    assert report.cases > 0
    assert SUMMARY_RE.match(report.summary())
    assert report.wall_time >= 0


@pytest.mark.parametrize("name", ["general-third", "cycle7-family", "tie-tree-search"])
def test_render_is_byte_identical_for_a_fixed_seed(name):
    first = run_suite(name, seed=9, size_params=SMALL[name])
    second = run_suite(name, seed=9, size_params=SMALL[name])
    assert first.render() == second.render()
    assert first.render().endswith(first.summary() + "\n")


def test_unknown_suite():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite")


def test_cycle7_records_exact_values():
    report = run_suite("cycle7-family", seed=0, size_params={"m_values": (1000,)})
    records = dict(report.records)
    assert records["cycle7.M1000.value"] == "1069/3095"
    assert records["cycle7.M1000.bound"] == "1069/3095"


def test_tie_tree_search_failure_is_reproducible():
    # five-vertex trees cannot reach the default threshold, so the suite
    # must fail and hand back the best instance it found
    report = run_suite(
        "tie-tree-search",
        seed=2,
        size_params={
            "vertices": 5,
            "hill_iters": 8,
            "alternate_iters": 4,
            "refine_top": 1,
        },
    )
    assert not report.passed
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.case_id == "0000-search"
    inst = reproduce_failure(failure)
    value = solve(inst, TiePolicy.FIRST_MOVES).value
    assert f"best={value.numerator}/{value.denominator}" == failure.actual
    assert value > Fraction(36, 100)
    records = dict(report.records)
    assert records["search.stretch_met"] == "no"
    rendered = report.render()
    assert "failure.0.case=0000-search" in rendered
    assert rendered.endswith(report.summary() + "\n")
    assert "status=FAIL" in report.summary()


def _failing_library(monkeypatch) -> list:
    """Make every corpus claim fail: no floor is decided reached, solve
    reports value 0, the oracle disagrees and no edge is a mutual reply.
    Returns the instances the suites hand to the library, in call order."""
    seen = []
    real_solve = verify.solve

    def zero_solve(instance, policy):
        seen.append(instance)
        return dataclasses.replace(real_solve(instance, policy), value=Fraction(0))

    def self_replies(search, start):
        seen.append(search.instance)
        return (start,)

    def wrong_oracle(instance, policy, start):
        return Fraction(-1)

    monkeypatch.setattr(verify, "value_at_least", lambda *args: False)
    monkeypatch.setattr(verify, "solve", zero_solve)
    monkeypatch.setattr(verify, "brute_value", wrong_oracle)
    monkeypatch.setattr(verify, "_replies", self_replies)
    return seen


GENERAL_THIRD_FAILING = """\
suite=general-third
seed=1
cases=2
failure.0.case=0000-n3
failure.0.instance=3 2\\n44 45 34\\n0 2\\n1 2\\n
failure.0.expected=value >= 15/41 under forbid
failure.0.actual=value=0/1
failure.1.case=0000-n3
failure.1.instance=3 2\\n44 45 34\\n0 2\\n1 2\\n
failure.1.expected=value >= 15/41 under first
failure.1.actual=value=0/1
failure.2.case=0000-n3
failure.2.instance=3 2\\n44 45 34\\n0 2\\n1 2\\n
failure.2.expected=value >= 15/41 under second
failure.2.actual=value=0/1
failure.3.case=0001-n3
failure.3.instance=3 2\\n49 1 39\\n0 1\\n1 2\\n
failure.3.expected=value >= 49/89 under forbid
failure.3.actual=value=0/1
failure.4.case=0001-n3
failure.4.instance=3 2\\n49 1 39\\n0 1\\n1 2\\n
failure.4.expected=value >= 49/89 under first
failure.4.actual=value=0/1
failure.5.case=0001-n3
failure.5.instance=3 2\\n49 1 39\\n0 1\\n1 2\\n
failure.5.expected=value >= 49/89 under second
failure.5.actual=value=0/1
suite=general-third status=FAIL cases=2 failures=6
"""


def test_general_third_failure_render_is_pinned(monkeypatch):
    _failing_library(monkeypatch)
    report = run_suite(
        "general-third",
        seed=1,
        size_params={"cases": 2, "max_vertices": 3, "weight_max": 50},
    )
    assert report.render() == GENERAL_THIRD_FAILING


def test_corpus_suite_failures_name_their_case_and_reproduce_it(monkeypatch):
    seen = _failing_library(monkeypatch)
    sizes = {"cases": 12, "max_vertices": 6}
    rendered = []
    for name in ("general-third", "tree-half", "mutual-edge", "oracle-equivalence"):
        seen.clear()
        report = run_suite(name, seed=3, size_params=sizes)
        rendered.append(report.render())
        corpus = list(dict.fromkeys(seen))
        assert len(corpus) == sizes["cases"]
        assert not report.passed
        ids = [failure.case_id for failure in report.failures]
        assert ids == sorted(ids)
        for failure in report.failures:
            assert re.fullmatch(r"\d{4}-n\d+", failure.case_id)
            instance = reproduce_failure(failure)
            assert instance == corpus[int(failure.case_id[:4])]
            assert failure.case_id.endswith(f"-n{instance.vertex_count}")
        if name == "general-third":
            # three per instance, in policy order
            assert len(report.failures) == 3 * sizes["cases"]
            for index in range(0, len(report.failures), 3):
                triple = report.failures[index : index + 3]
                assert len({failure.case_id for failure in triple}) == 1
                assert [f.expected.rsplit(" ", 1)[1] for f in triple] == [
                    "forbid",
                    "first",
                    "second",
                ]
    text = "".join(rendered)
    assert len(text.splitlines()) == 808
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "46bf036118bd7912824af0164a03a95c1fd5bd76c2c54bf4cfd61cda702b4fc7"
    )


def _failing_audits(instance, policy, start):
    """Two failing audits per start, the same under every policy, as the
    real audits are on a tie-free instance: a lead violation, then a
    tie-free line (First takes everything) that ends w_max or more ahead."""
    violation = (start, Player.SECOND, instance.weights[start], 1)
    everything = tuple((Player.FIRST, v) for v in range(instance.vertex_count))
    return [
        LineAudit(((Player.FIRST, start),), violation, (1,), False),
        LineAudit(everything, None, (), False),
    ]


LEAD_INVARIANT_FAILING = """\
suite=lead-invariant
seed=1
cases=1
failure.0.case=0000-n2
failure.0.instance=2 1\\n39 44\\n0 1\\n
failure.0.expected=strict leader's lead < leader's last vertex weight
failure.0.actual=policy=forbid start=0 step=0 leader=S lead=39 last_weight=1
failure.1.case=0000-n2
failure.1.instance=2 1\\n39 44\\n0 1\\n
failure.1.expected=final lead < max weight on tie-free lines
failure.1.actual=policy=forbid start=0 final_lead=83 w_max=44
failure.2.case=0000-n2
failure.2.instance=2 1\\n39 44\\n0 1\\n
failure.2.expected=strict leader's lead < leader's last vertex weight
failure.2.actual=policy=forbid start=1 step=1 leader=S lead=44 last_weight=1
failure.3.case=0000-n2
failure.3.instance=2 1\\n39 44\\n0 1\\n
failure.3.expected=final lead < max weight on tie-free lines
failure.3.actual=policy=forbid start=1 final_lead=83 w_max=44
failure.4.case=0000-n2
failure.4.instance=2 1\\n39 44\\n0 1\\n
failure.4.expected=strict leader's lead < leader's last vertex weight
failure.4.actual=policy=first start=0 step=0 leader=S lead=39 last_weight=1
failure.5.case=0000-n2
failure.5.instance=2 1\\n39 44\\n0 1\\n
failure.5.expected=final lead < max weight on tie-free lines
failure.5.actual=policy=first start=0 final_lead=83 w_max=44
failure.6.case=0000-n2
failure.6.instance=2 1\\n39 44\\n0 1\\n
failure.6.expected=strict leader's lead < leader's last vertex weight
failure.6.actual=policy=first start=1 step=1 leader=S lead=44 last_weight=1
failure.7.case=0000-n2
failure.7.instance=2 1\\n39 44\\n0 1\\n
failure.7.expected=final lead < max weight on tie-free lines
failure.7.actual=policy=first start=1 final_lead=83 w_max=44
failure.8.case=0000-n2
failure.8.instance=2 1\\n39 44\\n0 1\\n
failure.8.expected=strict leader's lead < leader's last vertex weight
failure.8.actual=policy=second start=0 step=0 leader=S lead=39 last_weight=1
failure.9.case=0000-n2
failure.9.instance=2 1\\n39 44\\n0 1\\n
failure.9.expected=final lead < max weight on tie-free lines
failure.9.actual=policy=second start=0 final_lead=83 w_max=44
failure.10.case=0000-n2
failure.10.instance=2 1\\n39 44\\n0 1\\n
failure.10.expected=strict leader's lead < leader's last vertex weight
failure.10.actual=policy=second start=1 step=1 leader=S lead=44 last_weight=1
failure.11.case=0000-n2
failure.11.instance=2 1\\n39 44\\n0 1\\n
failure.11.expected=final lead < max weight on tie-free lines
failure.11.actual=policy=second start=1 final_lead=83 w_max=44
suite=lead-invariant status=FAIL cases=1 failures=12
"""


def test_lead_invariant_failure_render_is_pinned(monkeypatch):
    # policy outside, then start, then audit order
    monkeypatch.setattr(verify, "audit_lines", _failing_audits)
    report = run_suite(
        "lead-invariant",
        seed=1,
        size_params={"cases": 1, "max_vertices": 2, "weight_max": 50},
    )
    assert report.render() == LEAD_INVARIANT_FAILING


MUTUAL_EDGE_LINES_FAILING = """\
suite=mutual-edge
seed=1
cases=2
failure.0.case=0000-n4
failure.0.instance=4 3\\n35 32 22 24\\n0 3\\n1 2\\n2 3\\n
failure.0.expected=w(F|open 0) = w(S|open 3) on mutual edge 0-3
failure.0.actual=w(F|open 0)=35, w(S|open 3)=67
failure.1.case=0001-n3
failure.1.instance=3 2\\n49 1 39\\n0 1\\n1 2\\n
failure.1.expected=w(F|open 0) = w(S|open 1) on mutual edge 0-1
failure.1.actual=w(F|open 0)=49, w(S|open 1)=88
suite=mutual-edge status=FAIL cases=2 failures=2
"""


def test_mutual_edge_split_failure_render_is_pinned(monkeypatch):
    # lines that stop one move short no longer split the total exactly
    real_line_from = _Search.line_from

    def short_line(search, *state):
        return real_line_from(search, *state)[:-1]

    monkeypatch.setattr(_Search, "line_from", short_line)
    report = run_suite(
        "mutual-edge",
        seed=1,
        size_params={"cases": 2, "max_vertices": 4, "weight_max": 50},
    )
    assert report.render() == MUTUAL_EDGE_LINES_FAILING


def test_mutual_edge_builds_one_search_per_instance(monkeypatch):
    built = []
    real_init = _Search.__init__

    def counted(search, instance, policy):
        built.append((instance, policy))
        real_init(search, instance, policy)

    draws = _record_calls(monkeypatch, "resample_on_tie")
    monkeypatch.setattr(_Search, "__init__", counted)
    sizes = {"cases": 20, "max_vertices": 9}
    report = run_suite("mutual-edge", seed=2, size_params=sizes)
    assert report.passed, report.render()
    accepted = [instance for _args, (instance, _rejected) in draws]
    assert len(accepted) == sizes["cases"]
    # weights to 10^9 pass the distinct-sums screen, which builds no search
    assert built == [(instance, TiePolicy.FORBID) for instance in accepted]


def _tie_free_tree(n: int, seed: int, weight_max: int):
    draw = lambda k: gen_random_tree(n, seed + k, weight_max)
    return resample_on_tie(draw)[0]


@given(
    n=st.integers(2, 9),
    seed=st.integers(0, 2**32),
    weight_max=st.sampled_from((60, 10**9)),
)
@settings(max_examples=60, deadline=None)
@example(n=3, seed=6, weight_max=60).via("first edge: reply(a) == b only")
@example(n=4, seed=1, weight_max=10**9).via("first edge: reply(a) != b")
def test_lazy_mutual_edge_scan_matches_the_public_views(n, seed, weight_max):
    try:
        instance = _tie_free_tree(n, seed, weight_max)
    except ExhaustedAttemptsError:
        assume(False)
    # the reference: the full reply map, the first mutual edge in edge
    # order, and each end's principal line in a search of its own
    replies = response_map(instance, TiePolicy.FORBID)
    needed = []
    for a, b in instance.edges:
        needed.append(a)
        if replies[a] == b:
            needed.append(b)
            if replies[b] == a:
                break
    else:
        raise AssertionError(f"no mutual reply edge: replies={replies}")
    edge = (a, b)

    def first_weight(line):
        return sum(instance.weights[v] for who, v in line if who is Player.FIRST)

    expected_weights = [
        first_weight(principal_line(instance, TiePolicy.FORBID, v)) for v in edge
    ]
    asked = []
    lines = []
    real_replies = verify._replies
    real_first_weight = verify._first_weight

    def recorded_replies(search, start):
        found = real_replies(search, start)
        asked.append((start, found[0]))
        return found

    def recorded_first_weight(instance, line):
        weight = real_first_weight(instance, line)
        lines.append((line[0], weight))
        return weight

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_replies", recorded_replies)
        patch.setattr(verify, "_first_weight", recorded_first_weight)
        assert list(verify._check_mutual_edge(instance)) == []
    # each reply is solved once, in the order the scan first needs it
    assert asked == [(v, replies[v]) for v in dict.fromkeys(needed)]
    assert lines == [
        ((Player.FIRST, v), weight) for v, weight in zip(edge, expected_weights)
    ]


def test_mutual_edge_examples_scan_past_the_first_edge():
    # the property's explicit examples reach the second edge of the scan
    for n, seed, weight_max in ((3, 6, 60), (4, 1, 10**9)):
        instance = _tie_free_tree(n, seed, weight_max)
        replies = response_map(instance, TiePolicy.FORBID)
        a, b = instance.edges[0]
        assert not (replies[a] == b and replies[b] == a)


@given(
    n=st.integers(2, 6),
    tree=st.booleans(),
    seed=st.integers(0, 2**32),
    spread=st.integers(1, 4),
    extra=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
@example(n=6, tree=True, seed=1, spread=2, extra=0).via("search-accepted tree")
@example(n=6, tree=False, seed=25, spread=2, extra=2).via("search-accepted graph")
def test_oracle_is_policy_blind_on_resampled_draws(n, tree, seed, spread, extra):
    # weights up to 4n make about half the accepted draws fail the
    # distinct-sums screen and pass the forbid search instead
    weight_max = spread * n
    extra = min(extra, n * (n - 1) // 2 - (n - 1))
    if tree:
        draw = lambda k: gen_random_tree(n, seed + k, weight_max)
    else:
        draw = lambda k: gen_random_connected(n, extra, seed + k, weight_max)
    try:
        instance, _rejected = resample_on_tie(draw)
    except ExhaustedAttemptsError:
        assume(False)
    for start in range(n):
        values = [brute_value(instance, policy, start) for policy in TiePolicy]
        assert values[1:] == values[:-1]
        audits = [audit_lines(instance, policy, start) for policy in TiePolicy]
        assert audits[1:] == audits[:-1]
        assert not any(audit.skipped or audit.tie_steps for audit in audits[0])


def test_search_accepted_examples_fail_the_screen():
    # the property's explicit examples reach the forbid-search path
    for draw in (
        lambda k: gen_random_tree(6, 1 + k, 12),
        lambda k: gen_random_connected(6, 2, 25 + k, 12),
    ):
        instance, _rejected = resample_on_tie(draw)
        assert not subset_sums_distinct(instance.weights)


def _record_calls(monkeypatch, name) -> list:
    """Rebind ``verify.<name>`` to record each call's arguments and result."""
    calls = []
    real = getattr(verify, name)

    def recorded(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(verify, name, recorded)
    return calls


@pytest.mark.parametrize(
    "name, oracle",
    [("oracle-equivalence", "brute_value"), ("lead-invariant", "audit_lines")],
)
def test_oracle_runs_once_per_start_of_each_accepted_instance(
    monkeypatch, name, oracle
):
    draws = _record_calls(monkeypatch, "resample_on_tie")
    oracle_calls = _record_calls(monkeypatch, oracle)
    solve_calls = _record_calls(monkeypatch, "solve")
    report = run_suite(name, seed=4, size_params={"cases": 12, "max_vertices": 5})
    assert report.passed, report.render()
    accepted = [instance for _args, (instance, _rejected) in draws]
    assert len(accepted) == 12
    assert [args for args, _result in oracle_calls] == [
        (instance, TiePolicy.FORBID, start)
        for instance in accepted
        for start in range(instance.vertex_count)
    ]
    # solve, the code under test, still runs under every policy
    solves = [(instance, policy) for instance in accepted for policy in TiePolicy]
    assert [args for args, _result in solve_calls] == (
        solves if name == "oracle-equivalence" else []
    )


@pytest.mark.parametrize("seed", [0, 5, 13])
@pytest.mark.parametrize(
    "name, sizes",
    [
        ("general-third", {"cases": 60, "max_vertices": 10}),
        ("tree-half", {"cases": 40, "max_vertices": 10}),
    ],
)
def test_floor_decision_renders_as_the_solve_path(monkeypatch, name, seed, sizes):
    # a decision that never reaches the floor sends every case to solve
    decided = run_suite(name, seed=seed, size_params=sizes).render()
    monkeypatch.setattr(verify, "value_at_least", lambda *args: False)
    assert run_suite(name, seed=seed, size_params=sizes).render() == decided


def test_tie_tree_search_rejects_vertices_above_the_cap_up_front():
    # enumerating every tree on 40 vertices before the check would not finish
    with pytest.raises(GraphShareError, match="at most 10"):
        run_suite("tie-tree-search", size_params={"vertices": 40})


CORPUS_CAPS = {
    "general-third": 18,
    "tree-half": 18,
    "mutual-edge": 18,
    "oracle-equivalence": 10,
    "lead-invariant": 8,
}


@pytest.mark.parametrize("name, cap", sorted(CORPUS_CAPS.items()))
def test_corpus_suites_refuse_max_vertices_above_the_cap_before_any_draw(
    monkeypatch, name, cap
):
    def never(*args, **kwargs):
        raise AssertionError("the library was called before the cap check")

    monkeypatch.setattr(verify, "solve", never)
    monkeypatch.setattr(verify, "value_at_least", never)
    monkeypatch.setattr(verify, "resample_on_tie", never)
    message = rf"'max_vertices' of suite '{name}' must be at most {cap}, .* cap;"
    with pytest.raises(GraphShareError, match=rf"{message} got {cap + 1}$"):
        run_suite(name, size_params={"max_vertices": cap + 1})


@pytest.mark.parametrize(
    "name, sizes",
    [
        ("lead-invariant", {"max_vertices": 8, "cases": 3}),
        ("oracle-equivalence", {"max_vertices": 10, "cases": 2}),
    ],
)
def test_corpus_suites_run_at_the_cap(name, sizes):
    report = run_suite(name, seed=0, size_params=sizes)
    assert report.passed, report.render()
    assert report.cases == sizes["cases"]


def test_general_third_records_nothing_but_passes_floor():
    report = run_suite(
        "general-third", seed=4, size_params={"cases": 20, "max_vertices": 7}
    )
    assert report.passed
    assert report.cases == 20


def test_run_suites_script_quick_passes_every_suite():
    root = Path(__file__).resolve().parent.parent
    # the script must find the package from a bare checkout
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_suites.py"), "--quick"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    summaries = [line for line in done.stdout.splitlines() if SUMMARY_RE.match(line)]
    assert len(summaries) == len(SUITE_NAMES)
    for name, line in zip(SUITE_NAMES, summaries):
        assert re.fullmatch(rf"suite={name} status=PASS cases=\d+ failures=0", line)


@pytest.mark.parametrize(
    "text, expected",
    [("\\t", "\\t"), ("a\\", "a\\"), ("\\\\n", "\\n"), ("\\n\\\\", "\n\\")],
)
def test_unescape_keeps_every_backslash_that_is_no_escape(text, expected):
    assert unescape_dump(text) == expected


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
def test_escape_round_trip(text):
    assert unescape_dump(escape_dump(text)) == text
    assert "\n" not in escape_dump(text)
