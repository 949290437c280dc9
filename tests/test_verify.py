"""Verification suites: pass/fail plumbing, determinism, reproduction."""

from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_tie_tree_search_rejects_vertices_above_the_cap_up_front():
    # enumerating every tree on 40 vertices before the check would not finish
    with pytest.raises(GraphShareError, match="at most 10"):
        run_suite("tie-tree-search", size_params={"vertices": 40})


def test_general_third_records_nothing_but_passes_floor():
    report = run_suite(
        "general-third", seed=4, size_params={"cases": 20, "max_vertices": 7}
    )
    assert report.passed
    assert report.cases == 20


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
def test_escape_round_trip(text):
    assert unescape_dump(escape_dump(text)) == text
    assert "\n" not in escape_dump(text)
