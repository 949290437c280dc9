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

One engine, ``_Search``, serves every view through two searches:
``best``, the value search, and ``reaches``, the zero-window decision
"does First finish with at least T?", which stops at the first decisive
move and so skips most states.  ``best`` screens each child inside its
parent's move loop, decided first, then by a memo read under a key
built from the parent's key plus a per-vertex delta, so only a memo
miss recurses.  As it searches a state it also records the state's
canonical move, the lowest-id move whose child keeps the value, and
``canonical`` reads it back with its child state.
Canonical play (``line``, ``canonical_strategy``, ``response_map``) and
Second's reply in the adversary's scenario forest (``ForestNode``) read
that record and expand no other move.  Every other child state comes
from ``moves``, the mover's legal moves with their child states, lowest
vertex id first; ``optimal`` keeps those whose child keeps the state's
value, for ``replies``, all of Second's value-optimal replies.  All of
these share one memo per search; no other module builds a search state.
``value_at_least`` is the view over ``reaches``, for checks that only
compare the value with a floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    FIRST,
    SECOND,
    GameState,
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
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

    A search state is the tuple ``(fm, sm, f, s, reach)``: both holding
    masks, their totals and the union of the taken vertices' neighbor
    masks.  Two searches expand it: ``best``, the value search, and
    ``reaches``, the decision against a target weight.  They are the hot
    loops, so each writes out its own move loop and lets the sign of the
    gap ``f - s`` name the mover, asking ``core.mover_at`` only at a zero
    gap.  ``best`` screens the state it is given and hands a memo miss
    to ``expand``, whose loop screens each child the same way and
    recurses into ``expand`` only on a miss.  ``expand`` records each
    stored state's canonical move in ``canon``, under the memo key, and
    ``canonical`` returns it with the mover and the child state.
    Everywhere else one expander, ``moves``, builds the children: it
    takes the mover from ``core.mover_at`` and lists every legal move
    with its child state.  ``optimal`` keeps each move whose child keeps
    the state's value.  ``state`` and ``opening`` build a state, and per
    opening ``line``, ``replies`` and ``forest`` read canonical play,
    Second's replies and the scenario forest, which expands First's
    states by ``moves`` and Second's by ``canonical``.

    ``best`` takes the search state like every other method and first
    decides a state where one player holds ``half``, ``ceil(total / 2)``,
    or more: the other player takes the rest, so First ends with ``f``
    or with ``total - s``.  Those states are never stored, so the memo
    holds only undecided states.  It memoizes First's final total, and
    ``canon`` holds, under the same keys, the lowest-id move that keeps
    it: the mover loops go in increasing vertex id and keep a move only
    on a strict gain.  Play from a state depends only on the taken set
    and the gap ``d = f - s``, so the one-int key ``(d << n) | taken``
    merges states that split one taken set differently with equal
    totals.  That key is used only while it fits one 30-bit CPython
    digit, ``total_weight < 2**(30 - n)``, decided once per search.
    Heavier weights seldom repeat a gap, so there the key would merge
    little and cost a multi-digit int; such searches keep the finer pair
    key ``(fm << n) | sm``.  A child's key is its parent's plus the
    moved vertex's delta, kept per search in ``first_delta`` and
    ``second_delta``: ``(d << n) | taken == d * 2**n + taken`` for
    either sign of ``d``, so taking ``v`` adds ``(w[v] << n) + (1 << v)``
    to the gap key for First and ``(1 << v) - (w[v] << n)`` for Second,
    and ``1 << (v + n)`` or ``1 << v`` to the pair key.

    Either key fixes ``f`` and ``s``: the pair key names both holdings,
    and the gap key gives ``f + s = w(taken)`` and ``f - s = d``.  So
    states that share a key share their totals and their final total.
    With the taken set, the totals fix the legal moves, the mover and
    every child's key, so those states share their canonical move too.
    ``reaches``, which stores a bool per state under the same key, may
    prune a state by its totals before the memo is read.

    Construction refuses an instance above ``SOLVE_VERTEX_CAP``, so
    every view fails before any search.
    """

    def __init__(self, instance: Instance, policy: TiePolicy):
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

    def state(self, fm: int, sm: int) -> tuple[int, int, int, int, int]:
        """The search state of the holdings ``fm`` and ``sm``."""
        weight_of = self.instance.weight_of
        return fm, sm, weight_of(fm), weight_of(sm), self.instance.reach_mask(fm | sm)

    def best(self, fm: int, sm: int, f: int, s: int, reach: int) -> int:
        """Final First total under optimal play from (fm, sm)."""
        # a half-holder never moves again: the other player takes the rest
        if f >= self.half:
            if self.forbid and 2 * f == self.total:
                raise TieEncounteredError(fm, self.full & ~fm)
            return f
        if s >= self.half:
            if self.forbid and 2 * s == self.total:
                raise TieEncounteredError(self.full & ~sm, sm)
            return self.total - s
        if self.gap_key:
            key = ((f - s) << self.shift) | fm | sm
        else:
            key = (fm << self.shift) | sm
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        return self.expand(fm, sm, f, s, reach, key)

    def expand(self, fm: int, sm: int, f: int, s: int, reach: int, key: int) -> int:
        """``best`` at an undecided state missing from the memo, whose
        key is ``key``: the mover tries each legal move and keeps the
        best child, which it stores under ``key`` with its move.  Each
        child is screened in the loop as ``best`` would screen it, first
        decided, then a memo hit, so only a miss recurses; its key is
        ``key`` plus the moved vertex's delta."""
        half = self.half
        weights = self.weights
        nbr = self.nbr
        get = self.memo.get
        taken = fm | sm
        m = self.full if taken == 0 else reach & ~taken
        d = f - s
        # a zero gap means equal totals, which mover_at settles
        if d < 0 or (d == 0 and mover_at(fm, sm, f, s, self.policy) is FIRST):
            delta = self.first_delta
            best_val = -1
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                c = f + weights[v]
                if c >= half:
                    if self.forbid and 2 * c == self.total:
                        raise TieEncounteredError(fm | low, self.full & ~(fm | low))
                    r = c
                else:
                    child = key + delta[v]
                    r = get(child)
                    if r is None:
                        r = self.expand(fm | low, sm, c, s, reach | nbr[v], child)
                if r > best_val:
                    best_val = r
                    pick = v
        else:
            delta = self.second_delta
            total = self.total
            best_val = total  # no final total exceeds the total
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                c = s + weights[v]
                if c >= half:
                    if self.forbid and 2 * c == total:
                        raise TieEncounteredError(self.full & ~(sm | low), sm | low)
                    r = total - c
                else:
                    child = key + delta[v]
                    r = get(child)
                    if r is None:
                        r = self.expand(fm, sm | low, f, c, reach | nbr[v], child)
                if r < best_val:
                    best_val = r
                    pick = v
        self.memo[key] = best_val
        self.canon[key] = pick
        return best_val

    def reaches(self, target: int) -> bool:
        """Whether First finishes with at least ``target`` weight under
        optimal play: a zero-window search from the empty state.

        A state answers yes once ``f >= target`` and no once
        ``s > total - target``; otherwise First needs one child that
        answers yes and Second one that answers no.  Moves are tried
        heaviest first, lowest vertex id among equal weights, and the
        first decisive child ends the state.  Verdicts hold for this
        target only, so each call fills a fresh ``verdicts`` table, under
        ``best``'s key.  Each state's mover comes from
        ``core.mover_at`` before it is pruned, so under forbid a tied
        state the search visits raises TieEncounteredError, a tied final
        split too; but pruning skips states, so a tie that ``solve``
        would meet can go unseen.
        """
        weights = self.weights
        nbr = self.nbr
        full = self.full
        shift = self.shift
        gap_key = self.gap_key
        policy = self.policy
        give_up = self.total - target
        order = sorted(range(shift), key=lambda v: -weights[v])
        moves = tuple((1 << v, weights[v], nbr[v]) for v in order)
        verdicts = self.verdicts = {}

        def wins(fm: int, sm: int, f: int, s: int, reach: int) -> bool:
            if f == s:
                first_moves = mover_at(fm, sm, f, s, policy) is FIRST
            else:
                first_moves = f < s
            if f >= target:
                return True
            if s > give_up:
                return False
            taken = fm | sm
            key = ((f - s) << shift) | taken if gap_key else (fm << shift) | sm
            hit = verdicts.get(key)
            if hit is not None:
                return hit
            m = full if taken == 0 else reach & ~taken
            verdict = not first_moves
            for bit, w, adj in moves:
                if m & bit:
                    if first_moves:
                        if wins(fm | bit, sm, f + w, s, reach | adj):
                            verdict = True
                            break
                    elif not wins(fm, sm | bit, f, s + w, reach | adj):
                        verdict = False
                        break
            verdicts[key] = verdict
            return verdict

        return wins(0, 0, 0, 0, 0)

    def moves(self, fm: int, sm: int, f: int, s: int, reach: int):
        """``(mover, moves)`` at a nonterminal state: the mover from
        ``core.mover_at``, and ``(vertex, child state)`` for each of its
        legal moves, lowest vertex id first."""
        who = mover_at(fm, sm, f, s, self.policy)
        first_moves = who is FIRST
        taken = fm | sm
        m = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        found = []
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if first_moves:
                child = (fm | low, sm, f + weights[v], s, reach | nbr[v])
            else:
                child = (fm, sm | low, f, s + weights[v], reach | nbr[v])
            found.append((v, child))
        return who, found

    def optimal(self, fm: int, sm: int, f: int, s: int, reach: int):
        """``moves`` narrowed to the mover's value-optimal moves, lowest
        vertex id first, the canonical one for both sides.  The game is
        zero-sum, so a move is optimal exactly when its child keeps the
        state's value."""
        who, legal = self.moves(fm, sm, f, s, reach)
        keep = self.best(fm, sm, f, s, reach)
        return who, [move for move in legal if self.best(*move[1]) == keep]

    def canonical(self, fm: int, sm: int, f: int, s: int, reach: int):
        """``(mover, (vertex, child state))`` of the canonical move at a
        nonterminal state: the lowest-id move whose child keeps the
        state's value, for either mover.  ``best`` recorded it when it
        searched the state, so call ``best`` on the state first (a memo
        hit on any state below a searched one).  At a decided state
        every move keeps the value, so it is the lowest-id legal move."""
        taken = fm | sm
        if f >= self.half or s >= self.half:
            m = reach & ~taken
            v = (m & -m).bit_length() - 1
        elif self.gap_key:
            v = self.canon[((f - s) << self.shift) | taken]
        else:
            v = self.canon[(fm << self.shift) | sm]
        low = 1 << v
        w = self.weights[v]
        reach |= self.nbr[v]
        if f < s or (f == s and mover_at(fm, sm, f, s, self.policy) is FIRST):
            return FIRST, (v, (fm | low, sm, f + w, s, reach))
        return SECOND, (v, (fm, sm | low, f, s + w, reach))

    def opening(self, v: int) -> tuple[int, int, int, int, int]:
        """The search state after First opens at ``v``."""
        if not 0 <= v < self.shift:
            raise ValueError(f"start vertex {v} does not exist")
        return 1 << v, 0, self.weights[v], 0, self.nbr[v]

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

    def replies(self, start: int) -> tuple[int, ...]:
        """Second's value-optimal replies to the opening ``start``, in
        increasing vertex id."""
        if self.shift < 2:
            raise ValueError("responses need at least two vertices")
        _who, found = self.optimal(*self.opening(start))
        return tuple(v for v, _child in found)

    def forest(self) -> tuple[ForestNode, ...]:
        """The scenario forest's nodes, where First tries every legal move
        and Second plays its canonical reply: each reached state once, in
        depth-first order, openings and successors in vertex order."""
        nodes: dict[tuple[int, int], ForestNode] = {}
        stack = [self.opening(v) for v in reversed(range(self.shift))]
        while stack:
            state = stack.pop()
            fm, sm, f, s, _reach = state
            if (fm, sm) in nodes:
                continue
            if fm | sm == self.full:
                nodes[fm, sm] = ForestNode(fm, sm, None, False)
                continue
            if mover_at(fm, sm, f, s, self.policy) is FIRST:
                who, found = self.moves(*state)
            else:
                self.best(*state)
                who, move = self.canonical(*state)
                found = (move,)
            nodes[fm, sm] = ForestNode(fm, sm, who, f == s)
            # reversed, so the lowest vertex is popped first
            stack.extend(child for _v, child in reversed(found))
        return tuple(nodes.values())


@dataclass(frozen=True)
class StartResult:
    start: int
    value: Fraction
    line: tuple[tuple[Player, int], ...]


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
        lines = []
        for entry in self.per_start:
            lines.append(f"start.{entry.start}.value={format_fraction(entry.value)}")
            lines.append(f"start.{entry.start}.line={format_line(entry.line)}")
        lines.append(f"value={format_fraction(self.value)}")
        lines.append(f"best_start={self.best_start}")
        lines.append(f"policy={self.policy.value}")
        lines.append(f"state_count={self.state_count}")
        return "\n".join(lines) + "\n"


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
    ``ceil(share * total)`` or more under optimal play.  Decided by
    ``_Search.reaches``, which visits far fewer states than ``solve``;
    under forbid it raises on every tied state it visits, so its answer
    stands for all three policies only where no tie is reachable.
    ``share`` must be an int or a ``Fraction``: a float would be decided
    at a rounded product, so it raises TypeError."""
    if not isinstance(share, (int, Fraction)):
        raise TypeError(f"share {share!r} is not an int or a Fraction")
    search = _Search(instance, policy)
    return search.reaches(math.ceil(share * instance.total_weight))


def solve(instance: Instance, policy: TiePolicy = TiePolicy.FORBID) -> SolveReport:
    """Evaluate every opening and report values, canonical lines, and the
    game value; openings share one memo table."""
    search = _Search(instance, policy)
    total = instance.total_weight
    per_start = []
    best_raw = -1
    for start in range(instance.vertex_count):
        raw = search.best(*search.opening(start))
        value = Fraction(raw, total)
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
    in increasing vertex id."""
    return _Search(instance, policy).replies(start)


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
    """Second's canonical reply to every opening: the lowest-id vertex
    among the value-optimal responses.  Needs at least two vertices."""
    search = _Search(instance, policy)
    if instance.vertex_count < 2:
        raise ValueError("responses need at least two vertices")
    table = {}
    for start in range(instance.vertex_count):
        opening = search.opening(start)
        search.best(*opening)
        table[start] = search.canonical(*opening)[1][0]
    return table
