"""Two-phase simplex, exact, over a sparse integer tableau.

Minimizes c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.  The
data may be fractions; the results are exact Fractions, so the optimum
is certificate-quality.  Bland's rule guarantees termination.  Intended
for the small tableaus produced by the weight-minimization row
generation; nothing here is tuned for large problems.

The tableau is fraction-free (Edmonds 1967; Bareiss 1968): every entry
is an integer numerator over one shared positive denominator ``d``.
Pivoting on ``p = T[r][c]`` keeps row ``r``, replaces every other row by
``(p*T[i][j] - T[i][c]*T[r][j]) // d`` and then sets ``d = p``.  Each
entry stays a minor of the starting integer tableau, so the division is
exact, and nothing reduces a fraction inside the pivot loop.

Each row is a sparse dict ``{column: numerator}`` holding only nonzero
entries, with the right side under the key ``-1``.  The weight LP's
rows are mostly zero, so a pivot touches only nonzero entries: a row
with ``T[i][c] == 0`` is only rescaled by ``p/d``, and left alone when
``p == d``; any other row changes at the pivot row's columns and is
rescaled elsewhere.

The pivots are the ones Bland's rule takes over the rationals.  The
entering column is the first with a negative reduced cost and the
leaving row the least ratio ``rhs/coeff``, ties to the least basic
index; with ``d > 0`` a sign test reads the numerator, and two ratios
compare by cross-multiplying their numerators.  Three details keep it
so:

- One scale per variable class.  The coefficients are multiplied by
  ``L_A``, the lcm of their denominators, and every right side by
  ``L_A*L_b``, where ``L_b`` is the lcm of the right sides'
  denominators; slack and artificial columns keep coefficient 1.  That
  substitutes ``x' = L_b*x`` and scales every slack and artificial
  variable by the same ``L_A*L_b``; ``x`` and the objective are divided
  by ``L_b`` at the end.  Scaling a variable by ``c > 0`` keeps the sign
  of its reduced cost and multiplies every ratio in its column by ``c``,
  so the entering column, the least-ratio row and the tie-break stay
  the same, and the phase-one objective stays a uniform sum.  The
  coefficients stay small however fine the right sides are: for the
  weight LP they are 0 and +-1 while ``L_b`` is 10^9, and its entries
  stay near 36 bits, where scaling whole rows by 10^9 grows them to
  about 335.  A row-by-row scale would reweight the phase-one objective
  and change its pivots.
- One table.  The cost rows are its last rows, below the constraints,
  and every pivot updates them with the rest: the phase-two row from
  the start, and the phase-one row between them during phase one.
  Recomputing the phase-two row after phase one as ``f*row/d`` need
  not give integers.
- ``d`` stays positive: every pivot is on a positive entry.  Driving a
  leftover artificial out of the basis may meet a negative entry (say,
  an equality row with zero right side and negative coefficients); its
  row is negated first.  Phase one ended feasible, so that row's right
  side is 0 and stays 0, and the table after the pivot is exactly the
  one that pivoting on the negative entry and then negating every row
  would give.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import GraphShareError


class LPInfeasibleError(GraphShareError):
    """No point satisfies all constraints."""


class LPUnboundedError(GraphShareError):
    """The objective decreases without bound over the feasible region."""


# a row's right side is held under this key, below every column
_RHS = -1


def _pivot(table, basis, pivot_row, pivot_col, d):
    """Pivot on table[pivot_row][pivot_col], a positive entry; return the
    new denominator.

    Every row is updated, the cost rows below the constraints included,
    and an update reads only nonzero entries.
    """
    prow = table[pivot_row]
    p = prow[pivot_col]
    for i, row in enumerate(table):
        if row is prow:
            continue
        f = row.get(pivot_col)
        if f:
            old = row.get
            if p != d:
                # exact off the pivot row's columns; those are set below
                row = table[i] = {
                    j: p * a // d for j, a in row.items() if j not in prow
                }
            for j, b in prow.items():
                a = (p * old(j, 0) - f * b) // d
                if a:
                    row[j] = a
                else:
                    row.pop(j, None)
        elif p != d:
            table[i] = {j: p * a // d for j, a in row.items()}
    basis[pivot_row] = pivot_col
    return p


def _optimize(table, basis, d):
    """Run Bland-rule pivots until no column improves the cost row
    ``table[len(basis)]``; return d.  The ratio test reads the
    constraint rows above it."""
    m = len(basis)
    while True:
        cost = table[m]
        pivot_col = min(
            (j for j, a in cost.items() if a < 0 and j != _RHS), default=None
        )
        if pivot_col is None:
            return d
        pivot_row = -1
        for i, row in enumerate(table[:m]):
            coeff = row.get(pivot_col, 0)
            if coeff > 0:
                row_rhs = row.get(_RHS, 0)
                if pivot_row < 0:
                    pivot_row, best_rhs, best_coeff = i, row_rhs, coeff
                    continue
                lhs = row_rhs * best_coeff
                rhs = best_rhs * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = i, row_rhs, coeff
        if pivot_row < 0:
            raise LPUnboundedError("no blocking row for an improving column")
        d = _pivot(table, basis, pivot_row, pivot_col, d)


def _scaled(values, scale):
    return [v.numerator * (scale // v.denominator) for v in values]


def _over_lcm(values):
    """(numerators, d) with ``values[k] == numerators[k]/d`` for Fractions
    ``values``, ``d`` the lcm of their denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return _scaled(values, d), d


def solve_lp(objective, a_ub, b_ub, a_eq, b_eq):
    """Exact minimum of objective.x over the given system, x >= 0.

    Returns (x, objective value) with every entry a Fraction.  Raises
    LPInfeasibleError or LPUnboundedError as appropriate.
    """
    nvars = len(objective)
    c = [Fraction(v) for v in objective]
    data = [
        [Fraction(v) for v in row] + [Fraction(rhs)]
        for row, rhs in zip([*a_ub, *a_eq], [*b_ub, *b_eq])
    ]
    n_ub = len(a_ub)
    ncols = nvars + n_ub  # structural then one slack per inequality
    coeff_scale = math.lcm(*(v.denominator for row in data for v in row[:-1]))
    rhs_scale = math.lcm(*(row[-1].denominator for row in data))
    # each row starts with one basic column at coefficient 1: its slack,
    # or an artificial for an equality or for an inequality whose
    # negative right side negates its slack
    art_rows = [i for i, row in enumerate(data) if i >= n_ub or row[-1] < 0]
    n_art = len(art_rows)
    basis = [nvars + i for i in range(len(data))]
    for k, i in enumerate(art_rows):
        basis[i] = ncols + k
    table: list[dict[int, int]] = []
    for i, values in enumerate(data):
        row = dict(enumerate(_scaled(values[:-1], coeff_scale)))
        row[_RHS] = _scaled(values[-1:], coeff_scale * rhs_scale)[0]
        if i < n_ub:
            row[nvars + i] = 1
        if row[_RHS] < 0:
            row = {j: -a for j, a in row.items()}
        row[basis[i]] = 1
        table.append({j: a for j, a in row.items() if a})

    # the basic columns start at cost 0, so c is already the reduced cost
    cost, cost_scale = _over_lcm(c)
    table.append({j: a for j, a in enumerate(cost) if a})
    d = 1
    if n_art:
        phase_one = dict.fromkeys(range(ncols, ncols + n_art), 1)
        for i in art_rows:
            for j, a in table[i].items():
                phase_one[j] = phase_one.get(j, 0) - a
        table.insert(len(basis), {j: a for j, a in phase_one.items() if a})
        d = _optimize(table, basis, d)
        if table.pop(len(basis)).get(_RHS, 0) < 0:
            raise LPInfeasibleError("phase one ended with positive infeasibility")
        # drive leftover artificials out of the basis, in ascending rows
        for i, b in enumerate(basis):
            if b >= ncols:
                pivot_col = min(
                    (j for j in table[i] if 0 <= j < ncols), default=None
                )
                if pivot_col is not None:
                    if table[i][pivot_col] < 0:
                        table[i] = {j: -a for j, a in table[i].items()}
                    d = _pivot(table, basis, i, pivot_col, d)
        # an artificial still basic has a row of zeros outside the
        # artificial columns, so the row goes; the cost row stays, and
        # no artificial column is kept, so none may enter again
        keep = [i for i, b in enumerate(basis) if b < ncols]
        basis = [basis[i] for i in keep]
        table = [
            {j: a for j, a in table[i].items() if j < ncols} for i in [*keep, -1]
        ]

    d = _optimize(table, basis, d)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(table[i].get(_RHS, 0), d * rhs_scale)
    return x, Fraction(-table[-1].get(_RHS, 0), d * cost_scale * rhs_scale)
