"""Exact simplex: known optima, degeneracy, the drive-out and dropped-row
paths, and a tiny independent vertex-enumeration oracle for random
two-variable programs."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphshare.simplex import LPInfeasibleError, LPUnboundedError, solve_lp


class TestKnownPrograms:
    def test_box(self):
        x, value = solve_lp([-1, -1], [[1, 0], [0, 1]], [3, 2], [], [])
        assert x == [Fraction(3), Fraction(2)]
        assert value == Fraction(-5)

    def test_diet_style(self):
        # min 2x + 3y  s.t.  -x - y <= -4  (i.e. x + y >= 4)
        x, value = solve_lp([2, 3], [[-1, -1]], [-4], [], [])
        assert value == Fraction(8)
        assert x == [Fraction(4), Fraction(0)]

    def test_equality_and_bound_mix(self):
        # min -x - 2y  s.t.  x + y = 5,  y <= 3
        x, value = solve_lp([-1, -2], [[0, 1]], [3], [[1, 1]], [5])
        assert x == [Fraction(2), Fraction(3)]
        assert value == Fraction(-8)

    def test_fractional_optimum(self):
        # min -x - y  s.t.  2x + y <= 3,  x + 2y <= 3
        x, value = solve_lp([-1, -1], [[2, 1], [1, 2]], [3, 3], [], [])
        assert x == [Fraction(1), Fraction(1)]
        assert value == Fraction(-2)
        # -2x - y is constant along the edge 2x + y = 3, so only pin the
        # value and feasibility of the reported point
        y, v2 = solve_lp([-2, -1], [[2, 1], [1, 2]], [3, 3], [], [])
        assert v2 == Fraction(-3)
        assert 2 * y[0] + y[1] <= 3 and y[0] + 2 * y[1] <= 3
        assert -2 * y[0] - y[1] == v2

    def test_infeasible(self):
        with pytest.raises(LPInfeasibleError):
            solve_lp([1], [[1]], [1], [[1]], [5])
        with pytest.raises(LPInfeasibleError):
            solve_lp([0, 0], [[1, 1], [-1, -1]], [1, -3], [], [])

    def test_unbounded(self):
        with pytest.raises(LPUnboundedError):
            solve_lp([-1], [], [], [], [])
        with pytest.raises(LPUnboundedError):
            solve_lp([-1, 0], [[0, 1]], [1], [], [])

    def test_beale_degenerate_cycle_terminates(self):
        # classic cycling example for naive pivoting; Bland's rule must
        # reach the optimum -1/20
        objective = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
        a_ub = [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ]
        b_ub = [0, 0, 1]
        x, value = solve_lp(objective, a_ub, b_ub, [], [])
        assert value == Fraction(-1, 20)

    def test_negative_drive_out_pivot(self):
        # -x - y = 0 leaves its artificial basic at zero after phase one;
        # driving it out pivots on the -1 under x, and z must still
        # enter in phase two
        x, value = solve_lp([0, 0, -1], [[0, 0, 1]], [1], [[-1, -1, 0]], [0])
        assert x == [Fraction(0), Fraction(0), Fraction(1)]
        assert value == Fraction(-1)

    def test_proportional_equalities_drop_a_row(self):
        # the second row is twice the first, so its artificial stays
        # basic on an all-zero row and the row is dropped
        x, value = solve_lp([1, 2], [], [], [[1, 1], [2, 2]], [2, 4])
        assert x == [Fraction(2), Fraction(0)]
        assert value == Fraction(2)
        x, value = solve_lp(
            [Fraction(1, 3), 1], [[0, 1]], [5], [[-2, -3], [Fraction(2, 3), 1]], [-6, 2]
        )
        assert x == [Fraction(3), Fraction(0)]
        assert value == Fraction(1)

    def test_zero_variable_count(self):
        x, value = solve_lp([], [], [], [], [])
        assert x == []
        assert value == Fraction(0)


def _oracle_2var(objective, a_ub, b_ub):
    """Minimize over {x >= 0, a_ub x <= b_ub} by enumerating candidate
    vertices: pairwise constraint intersections plus axis intersections."""
    rows = [list(map(Fraction, r)) for r in a_ub] + [
        [Fraction(-1), Fraction(0)],
        [Fraction(0), Fraction(-1)],
    ]
    rhs = [Fraction(b) for b in b_ub] + [Fraction(0), Fraction(0)]
    candidates = []
    for (i, j) in combinations(range(len(rows)), 2):
        a1, b1 = rows[i], rhs[i]
        a2, b2 = rows[j], rhs[j]
        det = a1[0] * a2[1] - a1[1] * a2[0]
        if det == 0:
            continue
        px = (b1 * a2[1] - b2 * a1[1]) / det
        py = (a1[0] * b2 - a2[0] * b1) / det
        if all(r[0] * px + r[1] * py <= b for r, b in zip(rows, rhs)):
            candidates.append((px, py))
    if not candidates:
        return None
    c = list(map(Fraction, objective))
    return min(c[0] * px + c[1] * py for px, py in candidates)


def _coefficients(bound):
    """Integers, and fractions with denominators up to 10^9, so one row
    can need a large common scale."""
    return st.one_of(
        st.integers(min_value=-bound, max_value=bound),
        st.fractions(min_value=-bound, max_value=bound, max_denominator=10**9),
    )


@given(
    objective=st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=9),
            st.fractions(min_value=1, max_value=9, max_denominator=10**9),
        ),
        min_size=2,
        max_size=2,
    ),
    rows=st.lists(
        st.tuples(_coefficients(5), _coefficients(5), _coefficients(10)),
        min_size=1,
        max_size=5,
    ),
)
@settings(max_examples=150, deadline=None)
def test_matches_vertex_enumeration_oracle(objective, rows):
    # positive objective over x >= 0 rules out unboundedness, so the
    # outcomes are exactly: infeasible, or the oracle's vertex minimum
    a_ub = [[a, b] for a, b, _ in rows]
    b_ub = [c for _, _, c in rows]
    expected = _oracle_2var(objective, a_ub, b_ub)
    if expected is None:
        # no vertex satisfied every row; for bounded-below programs over
        # x >= 0 with a nonempty feasible region some vertex is optimal,
        # so the region must be empty
        with pytest.raises(LPInfeasibleError):
            solve_lp(objective, a_ub, b_ub, [], [])
        return
    x, value = solve_lp(objective, a_ub, b_ub, [], [])
    assert value == expected
    assert all(v >= 0 for v in x)
    for row, bound in zip(a_ub, b_ub):
        assert row[0] * x[0] + row[1] * x[1] <= bound
