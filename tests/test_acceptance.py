"""Acceptance gate: the full-size checks behind every release claim.

Each test exercises one numbered criterion at its stated size, seed, and
time budget, and contributes one PASS/FAIL line to the "acceptance
summary" section conftest prints after the run.  The last criterion
repeats everything with identical seeds and insists on byte-identical
reports.
"""

from __future__ import annotations

import time
from fractions import Fraction

from graphshare.adversary import GraphShape, alternate_optimize, hill_climb
from graphshare.core import TiePolicy
from graphshare.verify import run_suite

# (suite, seed) per criterion; criterion 10 replays all of them
SUITE_RUNS = {
    1: ("oracle-equivalence", 3),
    2: ("general-third", 11),
    3: ("tree-half", 7),
    4: ("mutual-edge", 7),
    5: ("cycle7-family", 1),
    6: ("edge-family", 0),
    7: ("lead-invariant", 3),
    9: ("tie-tree-search", 5),
}

_LINES: list[str] = []
_REPORTS: dict[tuple[str, int], object] = {}
_ADVERSARY: dict[str, object] = {}


def _suite(number: int):
    name, seed = SUITE_RUNS[number]
    key = (name, seed)
    if key not in _REPORTS:
        _REPORTS[key] = run_suite(name, seed=seed)
    return _REPORTS[key]


def _adversary_runs():
    if not _ADVERSARY:
        shape = GraphShape.cycle(7)
        started = time.perf_counter()
        _ADVERSARY["alt"] = alternate_optimize(shape, TiePolicy.FORBID)
        _ADVERSARY["hill"] = hill_climb(shape, TiePolicy.FORBID, seed=0, iters=2000)
        _ADVERSARY["time"] = time.perf_counter() - started
    return _ADVERSARY["alt"], _ADVERSARY["hill"], _ADVERSARY["time"]


def _record(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _LINES.append(f"criterion {number:02d} {name}: {status} ({detail})")


def _suite_detail(report) -> str:
    return (
        f"cases={report.cases} failures={len(report.failures)} "
        f"[{report.wall_time:.1f}s]"
    )


def test_criterion_01_solver_matches_oracle():
    report = _suite(1)
    ok = report.passed and report.cases >= 200 and report.wall_time < 120
    _record(1, "solver-vs-oracle", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_02_general_floor():
    report = _suite(2)
    ok = report.passed and report.cases >= 1000 and report.wall_time < 300
    _record(2, "general-third-floor", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_03_tree_half():
    report = _suite(3)
    ok = report.passed and report.cases >= 500 and report.wall_time < 120
    _record(3, "tree-half-floor", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_04_mutual_edge():
    report = _suite(4)
    ok = report.passed and report.cases >= 500 and report.wall_time < 120
    _record(4, "mutual-edge-complement", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_05_cycle7_values():
    report = _suite(5)
    records = dict(report.records)
    exact = (
        records.get("cycle7.M1000.value") == "1069/3095"
        and records.get("cycle7.M100000.value") == "100069/300095"
    )
    ok = report.passed and exact and report.wall_time < 10
    _record(5, "cycle7-family-values", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_06_edge_family():
    report = _suite(6)
    ok = report.passed and report.cases >= 50 and report.wall_time < 1
    _record(6, "edge-family-closed-form", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_07_line_audits():
    report = _suite(7)
    ok = report.passed and report.wall_time < 180
    _record(7, "exhaustive-line-audits", ok, _suite_detail(report))
    assert ok, report.render()


def test_criterion_08_cycle7_adversary():
    alt, hill, elapsed = _adversary_runs()
    ok = (
        alt.value <= Fraction(35, 100)
        and hill.value <= Fraction(36, 100)
        and elapsed < 600
    )
    _record(
        8,
        "cycle7-adversary",
        ok,
        f"alt={float(alt.value):.6f} hill={float(hill.value):.6f} "
        f"[{elapsed:.1f}s]",
    )
    assert ok, (alt.value, hill.value, elapsed)


def test_criterion_09_tree_tie_search():
    report = _suite(9)
    records = dict(report.records)
    best = Fraction(records["search.best_value"])
    mandatory = best < Fraction(40, 100)
    ok = report.passed and mandatory and report.wall_time < 900
    _record(
        9,
        "tie-tree-search",
        ok,
        f"best={float(best):.6f} stretch_met={records['search.stretch_met']} "
        f"[{report.wall_time:.1f}s]",
    )
    assert ok, report.render()


def test_criterion_10_reproducibility():
    mismatches = []
    for number in sorted(SUITE_RUNS):
        name, seed = SUITE_RUNS[number]
        first = _suite(number).render()
        again = run_suite(name, seed=seed).render()
        if first != again:
            mismatches.append(name)
    alt, hill, _ = _adversary_runs()
    shape = GraphShape.cycle(7)
    alt_again = alternate_optimize(shape, TiePolicy.FORBID)
    hill_again = hill_climb(shape, TiePolicy.FORBID, seed=0, iters=2000)

    def fingerprint(result):
        return (
            result.value,
            result.instance.weights,
            result.stop_reason,
            len(result.trace),
        )

    if fingerprint(alt_again) != fingerprint(alt):
        mismatches.append("adversary-alt")
    if fingerprint(hill_again) != fingerprint(hill):
        mismatches.append("adversary-hill")
    ok = not mismatches
    _record(
        10,
        "reproducibility",
        ok,
        f"suites={len(SUITE_RUNS)} adversary=2"
        + ("" if ok else f" mismatches={','.join(mismatches)}"),
    )
    assert ok, mismatches
