"""Independent brute-force checks for the solver and the lead invariant.

This module deliberately shares only the rule definitions with the
solver: valuation here recurses over frozensets without memoization and
recomputes totals from scratch, so a bug would have to be introduced
twice to go unnoticed.

The line audits replay complete legal play sequences (not just optimal
ones) and check the lead invariant: whenever one player strictly leads,
the lead stays below the weight of that player's most recently taken
vertex.  A move made from exactly tied totals (the opening, or a
policy-resolved tie) momentarily puts its maker ahead by exactly the
taken weight; those steps are the only permitted equalities, and the
audit flags anything beyond them as a violation.  A consequence checked
downstream: on a tie-free line of a multi-vertex instance the final gap
is strictly below the maximum vertex weight, so First keeps more than
(W - w_max) / (2 W) whenever Second finishes ahead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
)

BRUTE_VERTEX_CAP = VertexCap(10, "brute-force oracle")
AUDIT_EXHAUSTIVE_CAP = VertexCap(8, "exhaustive audit")

# An enum member lookup costs about ten global lookups on CPython 3.11;
# the per-step loops below read these bindings instead.
_FIRST, _SECOND = Player.FIRST, Player.SECOND
_FORBID, _FIRST_MOVES = TiePolicy.FORBID, TiePolicy.FIRST_MOVES


def _adjacency(instance: Instance) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(instance.vertex_count)}
    for u, v in instance.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_value(instance: Instance, policy: TiePolicy, start: int) -> Fraction:
    """Final First share after opening at ``start``, by plain exhaustive
    recursion over every legal continuation."""
    n = instance.vertex_count
    BRUTE_VERTEX_CAP.check(n)
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} does not exist")
    adj = _adjacency(instance)
    weights = instance.weights
    forbid = policy is _FORBID
    first_on_tie = policy is _FIRST_MOVES

    def rec(first: frozenset[int], second: frozenset[int]) -> int:
        f = sum(weights[v] for v in first)
        s = sum(weights[v] for v in second)
        taken = first | second
        if forbid and f == s:
            raise TieEncounteredError(
                sum(1 << v for v in first), sum(1 << v for v in second)
            )
        if len(taken) == n:
            return f
        if f < s:
            first_moves = True
        elif f > s:
            first_moves = False
        else:
            first_moves = first_on_tie
        frontier = {u for v in taken for u in adj[v]} - taken
        if first_moves:
            return max(rec(first | {v}, second) for v in frontier)
        return min(rec(first, second | {v}) for v in frontier)

    return Fraction(rec(frozenset({start}), frozenset()), instance.total_weight)


@dataclass(frozen=True)
class LineAudit:
    """Audit of one play line.

    ``max_lead_violation`` is None when the line is clean, otherwise the
    worst offending step as (step index, leader, lead, weight of the
    leader's last vertex).  ``tie_steps`` lists post-opening steps whose
    move was made from exactly tied totals (empty means tie-free).
    ``skipped`` marks a line abandoned at a tie under the forbid policy;
    ``line`` then holds the prefix up to the tie.
    """

    line: tuple[tuple[Player, int], ...]
    max_lead_violation: tuple[int, Player, int, int] | None
    tie_steps: tuple[int, ...]
    skipped: bool


def _audit_one(
    instance: Instance, line: tuple[tuple[Player, int], ...], skipped: bool
) -> LineAudit:
    weights = instance.weights
    f = s = 0
    last_f = last_s = None
    tie_steps = []
    worst = None
    worst_excess = None
    for step, (who, v) in enumerate(line):
        tie_origin = f == s
        if tie_origin and step > 0:
            tie_steps.append(step)
        if who is _FIRST:
            f += weights[v]
            last_f = v
        else:
            s += weights[v]
            last_s = v
        if f == s:
            continue
        if f > s:
            leader, lead, last_w = _FIRST, f - s, weights[last_f]
        else:
            leader, lead, last_w = _SECOND, s - f, weights[last_s]
        if lead < last_w:
            continue
        if lead == last_w and tie_origin and who is leader:
            continue
        excess = lead - last_w
        if worst is None or excess > worst_excess:
            worst = (step, leader, lead, last_w)
            worst_excess = excess
    return LineAudit(
        line=line,
        max_lead_violation=worst,
        tie_steps=tuple(tie_steps),
        skipped=skipped,
    )


def audit_lines(
    instance: Instance, policy: TiePolicy, start: int
) -> list[LineAudit]:
    """Audit every legal play line opened at ``start``.

    The enumeration is exhaustive, so it is only allowed up to
    ``AUDIT_EXHAUSTIVE_CAP`` vertices.  Under the forbid policy a line
    reaching tied totals is reported with ``skipped=True`` rather than
    counted as a violation.
    """
    n = instance.vertex_count
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} does not exist")
    AUDIT_EXHAUSTIVE_CAP.check(n)
    adj = _adjacency(instance)
    weights = instance.weights
    forbid = policy is _FORBID
    on_tie = _FIRST if policy is _FIRST_MOVES else _SECOND
    audits: list[LineAudit] = []
    prefix: list[tuple[Player, int]] = [(_FIRST, start)]

    def walk(first: frozenset[int], second: frozenset[int]) -> None:
        f = sum(weights[v] for v in first)
        s = sum(weights[v] for v in second)
        taken = first | second
        if len(taken) == n:
            if forbid and f == s:
                audits.append(_audit_one(instance, tuple(prefix), skipped=True))
            else:
                audits.append(_audit_one(instance, tuple(prefix), skipped=False))
            return
        if f == s and forbid:
            audits.append(_audit_one(instance, tuple(prefix), skipped=True))
            return
        if f < s:
            who = _FIRST
        elif f > s:
            who = _SECOND
        else:
            who = on_tie
        frontier = sorted({u for v in taken for u in adj[v]} - taken)
        for v in frontier:
            prefix.append((who, v))
            if who is _FIRST:
                walk(first | {v}, second)
            else:
                walk(first, second | {v})
            prefix.pop()

    walk(frozenset({start}), frozenset())
    return audits
