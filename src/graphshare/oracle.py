"""Independent brute-force checks for the solver and the lead invariant.

This module deliberately shares only the rule definitions with the
solver: one plain walk, ``_walk``, recurses over every legal line
without memoization, over frozensets, and recomputes both totals from
scratch at every state; it calls nothing in ``solve``, not even the
engine's mover rule, so a bug would have to be introduced twice to go
unnoticed.  The walk has two readers: ``brute_value`` takes First's
minimax total, and ``audit_lines`` audits each line where play stops.

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
from typing import Callable

from .core import (
    FIRST,
    SECOND,
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
    check_policy,
)

BRUTE_VERTEX_CAP = VertexCap(10, "brute-force oracle")
AUDIT_EXHAUSTIVE_CAP = VertexCap(8, "exhaustive audit")


def _adjacency(instance: Instance) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(instance.vertex_count)}
    for u, v in instance.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _walk(
    instance: Instance, policy: TiePolicy, start: int, cap: VertexCap, stop: Callable
) -> int:
    """First's minimax total over every legal line opened at ``start``.

    Refuses a policy that is not a ``TiePolicy``, then more than ``cap``
    vertices, then a start that does not exist.  Wherever play stops (a
    tie under the forbid policy, a tied final split included, or every
    vertex taken) it calls ``stop(line, first, second, tied)`` with the
    line so far, a list it reuses.  Elsewhere the smaller total moves,
    the policy naming the mover on equal totals, over the frontier in
    increasing vertex id.
    """
    check_policy(policy)
    n = instance.vertex_count
    cap.check(n)
    if not 0 <= start < n:
        raise ValueError(f"start vertex {start} does not exist")
    adj = _adjacency(instance)
    weights = instance.weights
    forbid = policy is TiePolicy.FORBID
    on_tie = FIRST if policy is TiePolicy.FIRST_MOVES else SECOND
    line = [(FIRST, start)]

    def rec(first: frozenset[int], second: frozenset[int]) -> int:
        f = sum(weights[v] for v in first)
        s = sum(weights[v] for v in second)
        taken = first | second
        tied = forbid and f == s
        if tied or len(taken) == n:
            stop(line, first, second, tied)
            return f
        who = FIRST if f < s else SECOND if f > s else on_tie
        totals = []
        for v in sorted({u for v in taken for u in adj[v]} - taken):
            line.append((who, v))
            totals.append(
                rec(first | {v}, second) if who is FIRST else rec(first, second | {v})
            )
            line.pop()
        return max(totals) if who is FIRST else min(totals)

    return rec(frozenset({start}), frozenset())


def brute_value(instance: Instance, policy: TiePolicy, start: int) -> Fraction:
    """Final First share after opening at ``start``, by plain exhaustive
    recursion over every legal continuation."""

    def stop(line, first, second, tied):
        if tied:
            raise TieEncounteredError(
                sum(1 << v for v in first), sum(1 << v for v in second)
            )

    total = _walk(instance, policy, start, BRUTE_VERTEX_CAP, stop)
    return Fraction(total, instance.total_weight)


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
        if who is FIRST:
            f += weights[v]
            last_f = v
        else:
            s += weights[v]
            last_s = v
        if f == s:
            continue
        if f > s:
            leader, lead, last_w = FIRST, f - s, weights[last_f]
        else:
            leader, lead, last_w = SECOND, s - f, weights[last_s]
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
    audits: list[LineAudit] = []

    def stop(line, first, second, tied):
        audits.append(_audit_one(instance, tuple(line), skipped=tied))

    _walk(instance, policy, start, AUDIT_EXHAUSTIVE_CAP, stop)
    return audits
