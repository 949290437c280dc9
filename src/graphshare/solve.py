"""Exact memoized solver for the sharing game.

First maximizes the final weight they hold, Second minimizes it; the
game is zero-sum, so one number per state settles both sides.  The
player with the smaller total moves, so what is still to come depends
only on the taken set and the signed gap ``f - s``: the value search
memoizes the weight First still collects under that pair, packed into
one int, which merges states that split the same taken set differently
(see ``_Search`` for the width rule).  All values are exact: the search
works in integer weight and converts to a fraction of the total at the
edges.

The search expands every child of every reached state, which also makes
tie detection exact under the forbid policy: solving raises
TieEncounteredError iff equal totals occur at any reachable nonempty
state, including an exactly tied final split.

One engine, ``_Search``, serves every view: its two expanders are
``gain`` (the value search; ``best`` adds the current total) and
``optimal`` (the mover and its value-optimal moves, lowest vertex id
first).  Lines, replies, the
canonical strategy and the adversary's scenario forest are thin views
over them and over one shared memo per call.
"""

from __future__ import annotations

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


class _Search:
    """One solve call's worth of search state (memo is never shared
    across calls), and the only code outside the oracle that decides
    who moves or builds a child state.

    A search state is the tuple ``(fm, sm, f, s, reach)``: both holding
    masks, their totals and the union of the taken vertices' neighbor
    masks.  Two expanders read it: ``gain``, the value search, and
    ``optimal``, the mover with its value-optimal moves.  ``branches``
    picks the moves the scenario forest follows, and every view in this
    module and ``adversary.extract_forest`` is built on these.  The
    sign of the gap ``f - s`` names the mover; a zero gap goes to
    ``core.mover_at``.

    ``gain`` memoizes First's future gain, which depends only on the
    taken set and the gap ``d``, under the one-int key
    ``(d << n) | taken``: states that split one taken set differently
    with equal totals share an entry.  That key is used only while it
    fits one 30-bit CPython digit, ``total_weight < 2**(30 - n)``,
    decided once per search.  Heavier weights seldom repeat a gap, so
    there the key would merge little and cost a multi-digit int; such
    searches keep the finer pair key ``(fm << n) | sm`` with the same
    stored values.

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
        self.gap_key = self.total.bit_length() + self.shift <= 30
        self.forbid = policy is TiePolicy.FORBID
        self.memo: dict[int, int] = {}

    def state(self, fm: int, sm: int) -> tuple[int, int, int, int, int]:
        """The search state of the holdings ``fm`` and ``sm``."""
        weight_of = self.instance.weight_of
        return fm, sm, weight_of(fm), weight_of(sm), self.instance.reach_mask(fm | sm)

    def best(self, fm: int, sm: int, f: int, s: int, reach: int) -> int:
        """Final First total under optimal play from (fm, sm)."""
        return f + self.gain(fm, sm, f - s, reach)

    def gain(self, fm: int, sm: int, d: int, reach: int) -> int:
        """Weight First still collects under optimal play from (fm, sm),
        where ``d`` is the gap ``f - s``."""
        taken = fm | sm
        if taken == self.full:
            if self.forbid and d == 0:
                raise TieEncounteredError(fm, sm)
            return 0
        if self.gap_key:
            key = (d << self.shift) | taken
        else:
            key = (fm << self.shift) | sm
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        m = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        # a zero gap means equal totals, which mover_at settles
        if d < 0 or (d == 0 and mover_at(fm, sm, 0, 0, self.policy) is FIRST):
            best_val = -1
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                w = weights[v]
                r = w + self.gain(fm | low, sm, d + w, reach | nbr[v])
                if r > best_val:
                    best_val = r
        else:
            best_val = self.total  # no future gain exceeds the total
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                w = weights[v]
                r = self.gain(fm, sm | low, d - w, reach | nbr[v])
                if r < best_val:
                    best_val = r
        memo[key] = best_val
        return best_val

    def optimal(self, fm: int, sm: int, f: int, s: int, reach: int):
        """``(mover, moves)`` at a nonterminal state: ``moves`` holds
        ``(vertex, child state)`` for each of the mover's value-optimal
        moves, lowest vertex id first, the canonical one for both sides."""
        taken = fm | sm
        if f < s:
            first_moves = True
        elif f > s:
            first_moves = False
        else:
            first_moves = mover_at(fm, sm, f, s, self.policy) is FIRST
        m = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        d = f - s
        found = None
        if first_moves:
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                w = weights[v]
                r = w + self.gain(fm | low, sm, d + w, reach | nbr[v])
                if found is None or r > best_val:
                    best_val = r
                    found = []
                elif r != best_val:
                    continue
                found.append((v, (fm | low, sm, f + w, s, reach | nbr[v])))
            return FIRST, found
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            w = weights[v]
            r = self.gain(fm, sm | low, d - w, reach | nbr[v])
            if found is None or r < best_val:
                best_val = r
                found = []
            elif r != best_val:
                continue
            found.append((v, (fm, sm | low, f, s + w, reach | nbr[v])))
        return SECOND, found

    def branches(self, fm: int, sm: int, f: int, s: int, reach: int):
        """``(mover, tied, moves)`` for the scenario forest: ``moves``
        holds ``(vertex, child state)`` for every legal move of First, or
        Second's canonical reply alone.  At the empty state: the openings."""
        who = mover_at(fm, sm, f, s, self.policy)
        if who is SECOND:
            return who, f == s, self.optimal(fm, sm, f, s, reach)[1][:1]
        taken = fm | sm
        m = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        found = []
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            found.append((v, (fm | low, sm, f + weights[v], s, reach | nbr[v])))
        return who, f == s, found

    def line_from(self, fm: int, sm: int, f: int, s: int, reach: int):
        """Canonical play from a state to the end of the game."""
        log: list[tuple[Player, int]] = []
        while (fm | sm) != self.full:
            who, found = self.optimal(fm, sm, f, s, reach)
            v, (fm, sm, f, s, reach) = found[0]
            log.append((who, v))
        return tuple(log)


@dataclass(frozen=True)
class StartResult:
    start: int
    value: Fraction
    line: tuple[tuple[Player, int], ...]


@dataclass(frozen=True)
class SolveReport:
    """Per-opening values and canonical lines, plus the game value.

    ``value`` is the best per-opening value; ``best_start`` is the lowest
    vertex id attaining it.  ``state_count`` is the number of memo
    entries, a search-size diagnostic: distinct (taken set, gap) pairs
    when the total weight is below ``2**(30 - n)``, distinct holding
    pairs otherwise, so it shrinks on small weights where many splits
    of one taken set share a gap.
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


def solve(instance: Instance, policy: TiePolicy = TiePolicy.FORBID) -> SolveReport:
    """Evaluate every opening and report values, canonical lines, and the
    game value; openings share one memo table."""
    search = _Search(instance, policy)
    total = instance.total_weight
    per_start = []
    best_value = None
    best_start = -1
    _first, _tied, openings = search.branches(0, 0, 0, 0, 0)
    for start, opening in openings:
        value = Fraction(search.best(*opening), total)
        line = ((FIRST, start),) + search.line_from(*opening)
        per_start.append(StartResult(start=start, value=value, line=line))
        if best_value is None or value > best_value:
            best_value = value
            best_start = start
    return SolveReport(
        per_start=tuple(per_start),
        value=best_value,
        best_start=best_start,
        policy=policy,
        state_count=len(search.memo),
    )


def principal_line(
    instance: Instance, policy: TiePolicy, start: int
) -> tuple[tuple[Player, int], ...]:
    """Canonical optimal play after opening at ``start``: both players
    pick the lowest-id move among their value-optimal options."""
    search = _Search(instance, policy)
    if not 0 <= start < instance.vertex_count:
        raise ValueError(f"start vertex {start} does not exist")
    return ((Player.FIRST, start),) + search.line_from(*search.state(1 << start, 0))


def _replies(search: _Search, start: int) -> tuple[int, ...]:
    _who, found = search.optimal(*search.state(1 << start, 0))
    return tuple(v for v, _child in found)


def optimal_responses(
    instance: Instance, policy: TiePolicy, start: int
) -> tuple[int, ...]:
    """All of Second's value-optimal first replies to opening ``start``,
    in increasing vertex id."""
    search = _Search(instance, policy)
    if instance.vertex_count < 2:
        raise ValueError("responses need at least two vertices")
    if not 0 <= start < instance.vertex_count:
        raise ValueError(f"start vertex {start} does not exist")
    return _replies(search, start)


def canonical_strategy(instance: Instance, policy: TiePolicy):
    """A ``Strategy`` that plays the canonical optimal move in any state.

    Handles the opening as well (empty state).  Both players break value
    ties toward the lowest vertex id, so two canonical strategies facing
    each other reproduce ``principal_line``.
    """
    search = _Search(instance, policy)

    def strategy(_instance: Instance, state: GameState) -> int:
        _who, found = search.optimal(*search.state(state.first_mask, state.second_mask))
        return found[0][0]

    return strategy


def response_map(instance: Instance, policy: TiePolicy) -> dict[int, int]:
    """Second's canonical reply to every opening: the lowest-id vertex
    among the value-optimal responses.  Needs at least two vertices."""
    search = _Search(instance, policy)
    if instance.vertex_count < 2:
        raise ValueError("response map needs at least two vertices")
    return {
        start: _replies(search, start)[0] for start in range(instance.vertex_count)
    }
