"""Dense two-phase simplex, exact, over an integer tableau.

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
- The phase-two cost row is carried through phase one as one more
  tableau row.  Recomputing it afterwards as ``f*row/d`` need not be
  an integer.
- ``d`` stays positive.  Driving a leftover artificial out of the basis
  may pivot on a negative entry (say, an equality row with zero right
  side and negative coefficients); every row and ``d`` are then negated.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import GraphShareError


class LPInfeasibleError(GraphShareError):
    """No point satisfies all constraints."""


class LPUnboundedError(GraphShareError):
    """The objective decreases without bound over the feasible region."""


def _pivot(rows, costs, basis, pivot_row, pivot_col, d):
    """Pivot on rows[pivot_row][pivot_col]; return the new denominator."""
    prow = rows[pivot_row]
    p = prow[pivot_col]
    for table in (rows, costs):
        for i, row in enumerate(table):
            if row is prow:
                continue
            f = row[pivot_col]
            if f:
                table[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
            elif p != d:
                table[i] = [p * a // d for a in row]
    basis[pivot_row] = pivot_col
    if p > 0:
        return p
    for table in (rows, costs):
        for i, row in enumerate(table):
            table[i] = [-a for a in row]
    return -p


def _optimize(rows, costs, basis, d):
    """Run Bland-rule pivots until no column improves costs[0]; return d."""
    cost = costs[0]
    while True:
        pivot_col = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
        if pivot_col is None:
            return d
        pivot_row = -1
        for i, row in enumerate(rows):
            coeff = row[pivot_col]
            if coeff > 0:
                if pivot_row < 0:
                    pivot_row, best_rhs, best_coeff = i, row[-1], coeff
                    continue
                lhs = row[-1] * best_coeff
                rhs = best_rhs * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = i, row[-1], coeff
        if pivot_row < 0:
            raise LPUnboundedError("no blocking row for an improving column")
        d = _pivot(rows, costs, basis, pivot_row, pivot_col, d)
        cost = costs[0]


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
    rows: list[list[int]] = []
    needs_artificial: list[bool] = []
    for i, values in enumerate(data):
        row = _scaled(values[:-1], coeff_scale) + [0] * n_ub
        row += _scaled(values[-1:], coeff_scale * rhs_scale)
        if i < n_ub:
            row[nvars + i] = 1
        if row[-1] < 0:
            row = [-v for v in row]
        # an inequality's slack starts basic unless negation flipped it
        needs_artificial.append(i >= n_ub or row[nvars + i] < 0)
        rows.append(row)
    n_art = sum(needs_artificial)
    basis: list[int] = []
    art_col = ncols
    for i, row in enumerate(rows):
        rhs = row.pop()
        row.extend([0] * n_art)
        row.append(rhs)
        if needs_artificial[i]:
            row[art_col] = 1
            basis.append(art_col)
            art_col += 1
        else:
            basis.append(nvars + i)

    # the basic columns start at cost 0, so c is already the reduced cost
    cost, cost_scale = _over_lcm(c)
    cost += [0] * (n_ub + n_art + 1)
    d = 1
    if n_art:
        phase_one = [0] * ncols + [1] * n_art + [0]
        for i, b in enumerate(basis):
            if b >= ncols:
                phase_one = [a - r for a, r in zip(phase_one, rows[i])]
        costs = [phase_one, cost]
        d = _optimize(rows, costs, basis, d)
        if -costs[0][-1] > 0:
            raise LPInfeasibleError("phase one ended with positive infeasibility")
        # drive leftover artificials out of the basis or drop their rows
        del costs[0]
        drop: list[int] = []
        for i in range(len(rows)):
            if basis[i] >= ncols:
                pivot_col = next((j for j in range(ncols) if rows[i][j]), None)
                if pivot_col is None:
                    drop.append(i)
                else:
                    d = _pivot(rows, costs, basis, i, pivot_col, d)
        for i in reversed(drop):
            rows.pop(i)
            basis.pop(i)
        # no artificial is basic any more, and none may enter again
        rows = [row[:ncols] + row[-1:] for row in rows]
        cost = costs[0][:ncols] + costs[0][-1:]

    costs = [cost]
    d = _optimize(rows, costs, basis, d)
    x = [Fraction(0)] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(rows[i][-1], d * rhs_scale)
    return x, Fraction(-costs[0][-1], d * cost_scale * rhs_scale)
