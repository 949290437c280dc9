"""Exact simplex: known optima, degeneracy, the drive-out and dropped-row
paths, and a tiny independent vertex-enumeration oracle for random
two-variable programs."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
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


def _bland_reference(objective, a_ub, b_ub, a_eq, b_eq):
    """Two-phase Bland simplex over a plain Fraction tableau, with
    solve_lp's set-up: slack then artificial columns, a row with a negative
    right side negated, leftover artificials driven out on their first
    nonzero column or their rows dropped."""
    nvars, n_ub = len(objective), len(a_ub)
    ncols = nvars + n_ub
    rows, basis = [], []
    for i, (a, b) in enumerate(zip([*a_ub, *a_eq], [*b_ub, *b_eq])):
        row = [Fraction(v) for v in a] + [Fraction(int(i == k)) for k in range(n_ub)]
        row = [-v for v in row] + [-Fraction(b)] if b < 0 else row + [Fraction(b)]
        basis.append(nvars + i if i < n_ub and row[nvars + i] > 0 else None)
        rows.append(row)
    arts = [i for i, b in enumerate(basis) if b is None]
    for k, i in enumerate(arts):
        basis[i] = ncols + k
    for i, row in enumerate(rows):
        row[-1:-1] = [Fraction(int(basis[i] == ncols + k)) for k in range(len(arts))]
    width = ncols + len(arts) + 1
    phase_one = [Fraction(int(ncols <= j < width - 1)) for j in range(width)]
    for i in arts:
        phase_one = [a - r for a, r in zip(phase_one, rows[i])]
    costs = [phase_one, [Fraction(v) for v in objective] + [Fraction(0)] * (width - nvars)]

    def pivot(r, c):
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for table in (rows, costs):
            for i, row in enumerate(table):
                f = row[c]
                if row is not rows[r] and f:
                    table[i] = [a - f * b for a, b in zip(row, rows[r])]
        basis[r] = c

    def optimize():
        while (c := next((j for j, v in enumerate(costs[0][:-1]) if v < 0), None)) is not None:
            ratios = [(row[-1] / row[c], basis[i], i) for i, row in enumerate(rows) if row[c] > 0]
            if not ratios:
                raise LPUnboundedError("reference")
            pivot(min(ratios)[2], c)

    optimize()
    if costs[0][-1] < 0:
        raise LPInfeasibleError("reference")
    del costs[0]
    drop = set()
    for i in range(len(rows)):
        if basis[i] >= ncols:
            c = next((j for j in range(ncols) if rows[i][j]), None)
            if c is None:
                drop.add(i)
            else:
                pivot(i, c)
    rows = [row[:ncols] + row[-1:] for i, row in enumerate(rows) if i not in drop]
    basis = [b for i, b in enumerate(basis) if i not in drop]
    costs = [costs[0][:ncols] + costs[0][-1:]]
    optimize()
    x = [Fraction(0)] * nvars
    for row, b in zip(rows, basis):
        if b < nvars:
            x[b] = row[-1]
    return x, -costs[0][-1]


_right_side = st.builds(
    lambda micro, margin, sevenths: (
        Fraction(micro, 10**6) - Fraction(margin, 10**9) + Fraction(sevenths, 7)
    ),
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=0, max_value=1),
    st.sampled_from([0, 0, 1, -1]),
)
_weight_row = st.lists(
    st.sampled_from([-1, 0, 0, 1, Fraction(1, 2), Fraction(-2, 3)]), min_size=5, max_size=5
)


@given(
    ub=st.lists(
        st.tuples(_weight_row, st.sampled_from([0, -1]), _right_side), min_size=1, max_size=8
    ),
    eq=st.lists(st.tuples(_weight_row, _right_side), max_size=1),
)
# a weighted phase-one sum (a scale per row) moves the first example's
# point, and ties to the greater basic index the second's
@example(ub=[([1, Fraction(1, 2), -1, 1, Fraction(-2, 3)], -1, Fraction(-1000007, 7000000))], eq=[])
@example(
    ub=[
        (
            [1, Fraction(-2, 3), 0, Fraction(-2, 3), Fraction(-2, 3)],
            -1,
            Fraction(1000006993, 7000000000),
        ),
        ([1, Fraction(1, 2), -1, 1, -1], 0, Fraction(1000006993, 7000000000)),
    ],
    eq=[],
)
@settings(max_examples=300, deadline=None)
def test_point_matches_fraction_reference(ub, eq):
    # lp_minimize-shaped programs: minimize t over weights summing to a
    # constant, right sides over 7, 10^6 and 10^9.  Many points are
    # optimal, so the point shows whether the integer tableau, which
    # scales coefficients and right sides apart, took Bland's pivots
    args = (
        [0] * 5 + [1],
        [row + [t] for row, t, _ in ub],
        [b for _, _, b in ub],
        [[1] * 5 + [0]] + [row + [0] for row, _ in eq],
        [1 - Fraction(5, 10**6)] + [b for _, b in eq],
    )
    try:
        expected = _bland_reference(*args)
    except LPInfeasibleError:
        with pytest.raises(LPInfeasibleError):
            solve_lp(*args)
        return
    assert solve_lp(*args) == expected
