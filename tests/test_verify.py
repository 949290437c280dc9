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
from hypothesis import given
from hypothesis import strategies as st

import graphshare.verify as verify
from graphshare.core import GraphShareError, TiePolicy
from graphshare.solve import solve
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
    """Make every corpus claim fail: solve reports value 0, the oracle
    disagrees and no edge is a mutual reply.  Returns the instances the
    suites hand to the library, in call order."""
    seen = []
    real_solve = verify.solve

    def zero_solve(instance, policy):
        seen.append(instance)
        return dataclasses.replace(real_solve(instance, policy), value=Fraction(0))

    def self_replies(instance, policy):
        seen.append(instance)
        return {v: v for v in range(instance.vertex_count)}

    def wrong_oracle(instance, policy, start):
        return Fraction(-1)

    monkeypatch.setattr(verify, "solve", zero_solve)
    monkeypatch.setattr(verify, "brute_value", wrong_oracle)
    monkeypatch.setattr(verify, "response_map", self_replies)
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
    paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
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
