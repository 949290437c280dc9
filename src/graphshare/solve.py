"""Exact memoized solver for the sharing game.

First maximizes the final weight they hold, Second minimizes it; the
game is zero-sum, so one number per state settles both sides.  The
player with the smaller total moves, so what is still to come depends
only on the taken set and the signed gap ``f - s``, and that pair fixes
both totals: the value search memoizes First's final total under the
pair, packed into one int, which merges states that split the same
taken set differently (see ``_Search`` for the width rule).  All values
are exact: the search works in integer weight and converts to a
fraction of the total at the edges.

The value search expands every child of every reached state until one
player holds half the total.  That player never moves again, since the
other's total stays the smaller one, so the other takes the rest and the
state is decided without a search.  Tie detection under the forbid
policy stays exact: in a decided subtree the totals can meet only at
the final split, which ties exactly when the holder has exactly half,
and the search raises with that split's masks, the first tie a full
expansion would meet there.  So solving raises TieEncounteredError iff
equal totals occur at any reachable nonempty state, including an
exactly tied final split.

One engine, ``_Search``, serves every view, and all of them share one
memo per search; no other module builds a search state, and outside
``_expander``'s loop only ``_Search.child`` does.  It has one search
loop, ``_expander``'s: ``best``, the value search, runs it exactly, and
``value_at_least``, the decision "does First finish with at least T?"
for checks that only compare the value with a floor, runs it in the
null window ``(T - 1, T)`` of MTD(f) (Plaat et al. 1996) over a table
of its own, so most states are skipped, and with them some ties (see
``value_at_least``).

As the value search searches a state it records the state's canonical
move, the lowest-id move whose child keeps the value, and ``canonical``
reads it back with its child state.  Canonical play (``line``,
``principal_line``, ``canonical_strategy``) and Second's states in the
adversary's scenario forest (``ForestNode``) read that record and
expand no other move.  Second's canonical reply to an opening is the
second move of the opening's canonical line, which is where
``response_map`` reads it.  ``moves`` lists the legal moves of the
player its caller names, with child states, lowest vertex id first;
``optimal_responses`` keeps Second's replies that keep the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    FIRST,
    GameState,
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
    bits,
    check_int,
    check_policy,
    mover_at,
    validate_state,
)

SOLVE_VERTEX_CAP = VertexCap(18, "solver")
SOLVE_WARN_VERTICES = 16
_BITS = tuple(1 << i for i in range(2 * SOLVE_VERTEX_CAP))


@dataclass(frozen=True)
class ForestNode:
    """One annotated state: both holdings, who moves there, and whether
    the totals were exactly tied when play reached it.  Terminal nodes
    carry mover None and are never tied."""

    first_mask: int
    second_mask: int
    mover: Player | None
    tied: bool

    @property
    def terminal(self) -> bool:
        return self.mover is None


class _Search:
    """One solve call's worth of search state (memo is never shared
    across calls), and the only code outside the oracle that decides
    who moves or builds a child state.

    A search state is the tuple ``(fm, sm, f, s, reach, key)``: both
    holding masks, their totals, the union of the taken vertices'
    neighbor masks and the memo key (below).  Outside ``_expander``,
    ``child`` builds every state: ``state`` and ``opening`` fold it from
    the empty state, and ``moves`` and ``canonical`` call it per child.
    ``best`` first decides a state where one player holds ``half``,
    ``ceil(total / 2)``, or more: the other player takes the rest, so
    First ends with ``f`` or with ``total - s``.  Those states are never
    stored, so ``memo`` holds First's final total for undecided states
    only, and ``canon``, under the same keys, each one's canonical move.
    ``best`` hands a memo miss to ``expand``, which ``__init__`` builds
    once over those tables with ``_expander``; the floor decision
    ``value_at_least`` builds another over a fresh table.  Per opening,
    ``line`` reads canonical play and ``forest`` the scenario forest,
    First's states by ``moves`` and Second's by ``canonical``.

    Play from a state depends only on the taken set and the gap
    ``d = f - s``, so the one-int gap key ``d * 2**n + taken`` merges
    states that split one taken set differently with equal totals.
    That key is used only while it fits one 30-bit CPython digit,
    ``total_weight < 2**(30 - n)``, decided once per search.  Heavier
    weights seldom repeat a gap, so there the key would merge little and
    cost a multi-digit int; such searches keep the finer pair key
    ``fm * 2**n + sm``.  ``__init__`` makes that choice once, as each
    vertex's key delta, which a child adds to its parent's key: taking
    ``v`` adds ``(w[v] << n) + (1 << v)`` to the gap key for First and
    ``(1 << v) - (w[v] << n)`` for Second, and ``1 << (v + n)`` or
    ``1 << v`` to the pair key.

    Either key fixes ``f`` and ``s``: the pair key names both holdings,
    and the gap key gives ``f + s = w(taken)`` and ``f - s = d``.  So
    states that share a key share their totals and their final total.
    With the taken set, the totals fix the legal moves, the mover and
    every child's key, so those states share their canonical move too.

    Construction refuses a policy that is not a ``TiePolicy`` with
    TypeError and an instance above ``SOLVE_VERTEX_CAP``, so every view
    fails before any search.
    """

    def __init__(self, instance: Instance, policy: TiePolicy):
        check_policy(policy)
        SOLVE_VERTEX_CAP.check(instance.vertex_count)
        self.instance = instance
        self.policy = policy
        self.weights = instance.weights
        self.nbr = instance.neighbor_masks
        self.full = instance.full_mask
        self.shift = instance.vertex_count
        self.total = instance.total_weight
        self.half = (self.total + 1) // 2
        self.gap_key = self.total.bit_length() + self.shift <= 30
        self.forbid = policy is TiePolicy.FORBID
        self.memo: dict[int, int] = {}
        self.canon: dict[int, int] = {}
        # each move's memo-key delta, see above; built with plain loops
        # and slices, since it is a fixed cost of every search
        n = self.shift
        if self.gap_key:
            self.first_delta = first = []
            self.second_delta = second = []
            for v, w in enumerate(self.weights):
                first.append((w << n) + (1 << v))
                second.append((1 << v) - (w << n))
        else:
            self.first_delta = _BITS[n : 2 * n]
            self.second_delta = _BITS[:n]
        self.expand = _expander(self, self.memo, self.canon, -1, self.total + 1)

    def state(self, fm: int, sm: int) -> tuple[int, int, int, int, int, int]:
        """The search state of the holdings ``fm`` and ``sm``."""
        state = (0, 0, 0, 0, 0, 0)
        for mask, first in ((fm, True), (sm, False)):
            for v in bits(mask):
                state = self.child(*state, v, first)
        return state

    def child(
        self, fm: int, sm: int, f: int, s: int, reach: int, key: int, v: int, first: bool
    ) -> tuple[int, int, int, int, int, int]:
        """The search state after First (``first``) or Second takes ``v``."""
        w = self.weights[v]
        reach |= self.nbr[v]
        if first:
            return fm | 1 << v, sm, f + w, s, reach, key + self.first_delta[v]
        return fm, sm | 1 << v, f, s + w, reach, key + self.second_delta[v]

    def best(self, fm: int, sm: int, f: int, s: int, reach: int, key: int) -> int:
        """Final First total under optimal play from the state."""
        # a half-holder never moves again: the other player takes the rest
        if f >= self.half:
            if self.forbid and 2 * f == self.total:
                raise TieEncounteredError(fm, self.full & ~fm)
            return f
        if s >= self.half:
            if self.forbid and 2 * s == self.total:
                raise TieEncounteredError(self.full & ~sm, sm)
            return self.total - s
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        expand = self.expand
        return expand(expand, fm, sm, f, s, reach, key)

    def moves(self, fm: int, sm: int, f: int, s: int, reach: int, key: int, first: bool):
        """``(vertex, child state)`` for each legal move of First
        (``first``) or Second at an opened, nonterminal state, lowest
        vertex id first.  The caller names the mover."""
        m = reach & ~(fm | sm)
        child = self.child
        return [(v, child(fm, sm, f, s, reach, key, v, first)) for v in bits(m)]

    def canonical(self, fm: int, sm: int, f: int, s: int, reach: int, key: int):
        """``(mover, (vertex, child state))`` of the canonical move at a
        nonterminal state: the lowest-id move whose child keeps the
        state's value, for either mover.  ``best`` recorded it when it
        searched the state, so call ``best`` on the state first (a memo
        hit on any state below a searched one).  At a decided state
        every move keeps the value, so it is the lowest-id legal move."""
        if f >= self.half or s >= self.half:
            m = reach & ~(fm | sm)
            v = (m & -m).bit_length() - 1
        else:
            v = self.canon[key]
        who = mover_at(fm, sm, f, s, self.policy)
        return who, (v, self.child(fm, sm, f, s, reach, key, v, who is FIRST))

    def opening(self, v: int) -> tuple[int, int, int, int, int, int]:
        """The search state after First opens at ``v``."""
        if not 0 <= v < self.shift:
            raise ValueError(f"start vertex {v} does not exist")
        return self.child(0, 0, 0, 0, 0, 0, v, True)

    def line(self, start: int) -> tuple[tuple[Player, int], ...]:
        """Canonical play after First opens at ``start``, the opening
        included, to the end of the game."""
        state = self.opening(start)
        self.best(*state)
        log = [(FIRST, start)]
        while (state[0] | state[1]) != self.full:
            who, (v, state) = self.canonical(*state)
            log.append((who, v))
        return tuple(log)

    def forest(self) -> tuple[ForestNode, ...]:
        """The scenario forest's nodes, where First tries every legal move
        and Second plays its canonical reply: each reached state once, in
        depth-first order, openings and successors in vertex order."""
        nodes: dict[tuple[int, int], ForestNode] = {}
        stack = [self.opening(v) for v in reversed(range(self.shift))]
        while stack:
            state = stack.pop()
            fm, sm, f, s, _reach, _key = state
            if (fm, sm) in nodes:
                continue
            if fm | sm == self.full:
                nodes[fm, sm] = ForestNode(fm, sm, None, False)
                continue
            who = mover_at(fm, sm, f, s, self.policy)
            if who is FIRST:
                found = self.moves(*state, True)
            else:
                self.best(*state)
                found = (self.canonical(*state)[1],)
            nodes[fm, sm] = ForestNode(fm, sm, who, f == s)
            # reversed, so the lowest vertex is popped first
            stack.extend(child for _v, child in reversed(found))
        return tuple(nodes.values())


def _expander(search: _Search, memo, canon, lo: int, hi: int):
    """A search's ``expand``: the value of an undecided state missing
    from ``memo``, whose key is ``key``.  The mover tries each legal
    move and keeps the best child, which it stores under ``key`` in
    ``memo`` with its move in ``canon``.  Each child is screened in the
    loop, first decided, then a memo hit, so only a miss recurses.  The
    loop builds each child inline, the one copy of ``_Search.child``,
    which ``test_screened_search_stores_what_plain_recursion_stored``
    and ``test_optimal_moves_are_the_value_keeping_moves`` pin to the
    closed form.

    One window ``(lo, hi)`` sets the search: clamped to ``[lo, hi]``,
    each stored value equals the state's value.  So First is decided
    once holding ``half`` or ``hi`` (``cut_f``) and Second once holding
    ``half`` or ``total - lo`` (``cut_s``), and a mover's loop stops at
    the first child that leaves the window on its side.  ``best`` uses
    ``(-1, total + 1)``, which holds every value, so every value is
    exact; ``value_at_least`` uses ``(T - 1, T)`` for its target ``T``,
    and its docstring says which ties that leaves unseen.  Under forbid
    a cut raises on a tied final split only when the half rule decides
    it, not when the window does.

    The mover loops go in increasing vertex id and keep a move only on
    a strict gain, so with no early stop the stored move is the
    lowest-id one that keeps the value, the canonical move.

    It closes over those tables and the window, never over the search,
    so the loop reads them without attribute loads.  It is called as
    ``expand(expand, ...)`` and recurses through that first parameter: a
    closure cell that held the function would make a cycle, which keeps
    every table alive until the cyclic collector runs.  The search
    refers to the function and the function never to the search, so a
    finished search is freed by reference counting."""
    total, full = search.total, search.full
    cut_f, cut_s = min(search.half, hi), min(search.half, total - lo)
    weights, nbr = search.weights, search.nbr
    forbid, policy = search.forbid, search.policy
    first_delta, second_delta = search.first_delta, search.second_delta
    get = memo.get

    def expand(expand, fm: int, sm: int, f: int, s: int, reach: int, key: int) -> int:
        taken = fm | sm
        m = full if taken == 0 else reach & ~taken
        d = f - s
        # a zero gap means equal totals, which mover_at settles
        if d < 0 or (d == 0 and mover_at(fm, sm, f, s, policy) is FIRST):
            best_val = -1
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                c = f + weights[v]
                if c >= cut_f:
                    if forbid and 2 * c == total and c < hi:
                        raise TieEncounteredError(fm | low, full & ~(fm | low))
                    r = c
                else:
                    child = key + first_delta[v]
                    r = get(child)
                    if r is None:
                        r = expand(expand, fm | low, sm, c, s, reach | nbr[v], child)
                if r > best_val:
                    best_val = r
                    pick = v
                    if r >= hi:
                        break
        else:
            best_val = total  # no final total exceeds the total
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                c = s + weights[v]
                if c >= cut_s:
                    if forbid and 2 * c == total and total - c > lo:
                        raise TieEncounteredError(full & ~(sm | low), sm | low)
                    r = total - c
                else:
                    child = key + second_delta[v]
                    r = get(child)
                    if r is None:
                        r = expand(expand, fm, sm | low, f, c, reach | nbr[v], child)
                if r < best_val:
                    best_val = r
                    pick = v
                    if r <= lo:
                        break
        memo[key] = best_val
        canon[key] = pick
        return best_val

    return expand


@dataclass(frozen=True)
class StartResult:
    start: int
    value: Fraction
    line: tuple[tuple[Player, int], ...]

    def render(self) -> str:
        """The opening's value and canonical line, one line each."""
        value, line = format_fraction(self.value), format_line(self.line)
        return f"start.{self.start}.value={value}\nstart.{self.start}.line={line}\n"


@dataclass(frozen=True)
class SolveReport:
    """Per-opening values and canonical lines, plus the game value.

    ``value`` is the best per-opening value; ``best_start`` is the lowest
    vertex id attaining it.  ``state_count`` is the number of final
    totals the value search memoized, a search-size diagnostic.  It
    counts only undecided states, where neither player holds half the
    total: distinct (taken set, gap) pairs when the total weight is below
    ``2**(30 - n)``, distinct holding pairs otherwise, so it shrinks on
    small weights where many splits of one taken set share a gap.
    """

    per_start: tuple[StartResult, ...]
    value: Fraction
    best_start: int
    policy: TiePolicy
    state_count: int

    def render(self) -> str:
        return "".join(entry.render() for entry in self.per_start) + (
            f"value={format_fraction(self.value)}\n"
            f"best_start={self.best_start}\n"
            f"policy={self.policy.value}\n"
            f"state_count={self.state_count}\n"
        )


def format_fraction(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def format_line(line: tuple[tuple[Player, int], ...]) -> str:
    return ",".join(f"{who.value}{v}" for who, v in line)


def value_from(instance: Instance, policy: TiePolicy, state: GameState) -> Fraction:
    """Exact game value (final First share) from an arbitrary valid state."""
    search = _Search(instance, policy)
    validate_state(instance, state)
    raw = search.best(*search.state(state.first_mask, state.second_mask))
    return Fraction(raw, instance.total_weight)


def value_at_least(
    instance: Instance, policy: TiePolicy, share: int | Fraction
) -> bool:
    """Whether the game value is at least ``share``: First finishes with
    ``T = ceil(share * total)`` or more under optimal play.  Decided by
    the value search from the empty state in the null window
    ``(T - 1, T)``, so each value it stores, in a table of its own, is
    at least ``T`` iff the state's value is, and it visits far fewer
    states than ``solve``.  Under forbid it raises TieEncounteredError
    on every tied state it expands and on a tied final split that half
    the total decides, but not on one that the target decides: the
    window skips states, so a tie that ``solve`` would meet can go
    unseen, and its answer stands for all three policies only where no
    tie is reachable.  A ``T`` outside ``1..total`` is answered without
    a search, since above the total an opening holding exactly half
    would raise instead.  ``share`` must be an int or a ``Fraction``: a
    float would be decided at a rounded product and ``True`` at share 1,
    so both raise TypeError."""
    if not isinstance(share, Fraction):
        check_int(share, "share", "an int or a Fraction")
    search = _Search(instance, policy)
    target = math.ceil(share * search.total)
    if target <= 0:
        return True
    if target > search.total:
        return False
    expand = _expander(search, {}, {}, target - 1, target)
    return expand(expand, 0, 0, 0, 0, 0, 0) >= target


def solve(instance: Instance, policy: TiePolicy = TiePolicy.FORBID) -> SolveReport:
    """Evaluate every opening and report values, canonical lines, and the
    game value; openings share one memo table."""
    search = _Search(instance, policy)
    per_start = []
    best_raw = -1
    for start in range(instance.vertex_count):
        raw = search.best(*search.opening(start))
        value = Fraction(raw, search.total)
        per_start.append(StartResult(start=start, value=value, line=search.line(start)))
        if raw > best_raw:
            best_raw = raw
            best_start = start
    return SolveReport(
        per_start=tuple(per_start),
        value=per_start[best_start].value,
        best_start=best_start,
        policy=policy,
        state_count=len(search.memo),
    )


def principal_line(
    instance: Instance, policy: TiePolicy, start: int
) -> tuple[tuple[Player, int], ...]:
    """Canonical optimal play after opening at ``start``: both players
    pick the lowest-id move among their value-optimal options."""
    return _Search(instance, policy).line(start)


def optimal_responses(
    instance: Instance, policy: TiePolicy, start: int
) -> tuple[int, ...]:
    """All of Second's value-optimal first replies to opening ``start``,
    in increasing vertex id: the moves whose child keeps the opening's
    value, since the game is zero-sum.  Needs at least two vertices."""
    search = _Search(instance, policy)
    if instance.vertex_count < 2:
        raise ValueError("responses need at least two vertices")
    opening = search.opening(start)
    keep = search.best(*opening)
    found = search.moves(*opening, False)  # Second holds nothing, so replies
    return tuple(v for v, child in found if search.best(*child) == keep)


def canonical_strategy(instance: Instance, policy: TiePolicy):
    """A ``Strategy`` that plays the canonical optimal move in any state.

    Handles the opening as well (empty state).  Both players break value
    ties toward the lowest vertex id, so two canonical strategies facing
    each other reproduce ``principal_line``.  An invalid state (see
    ``core.validate_state``) or a finished game raises ValueError.
    """
    search = _Search(instance, policy)

    def strategy(_instance: Instance, state: GameState) -> int:
        validate_state(instance, state)
        if state.taken_mask == instance.full_mask:
            raise ValueError("no legal move, the game is over")
        here = search.state(state.first_mask, state.second_mask)
        search.best(*here)
        return search.canonical(*here)[1][0]

    return strategy


def response_map(instance: Instance, policy: TiePolicy) -> dict[int, int]:
    """Second's canonical reply to every opening: the second move of the
    opening's canonical line.  Needs at least two vertices."""
    search = _Search(instance, policy)
    if instance.vertex_count < 2:
        raise ValueError("responses need at least two vertices")
    return {start: search.line(start)[1][1] for start in range(instance.vertex_count)}
