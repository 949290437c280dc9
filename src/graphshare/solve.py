"""Exact memoized solver for the sharing game.

First maximizes the final weight they hold, Second minimizes it; the
game is zero-sum, so one number per state settles both sides.  States
are memoized on the pair of holding bitmasks (the mover is re-derived
from the totals, never stored).  All values are exact: the search works
in integer weight and converts to a fraction of the total at the edges.

The search expands every child of every reached state, which also makes
tie detection exact under the forbid policy: solving raises
TieEncounteredError iff equal totals occur at any reachable nonempty
state, including an exactly tied final split.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    GameState,
    Instance,
    InstanceTooLargeError,
    Player,
    TiePolicy,
    TieEncounteredError,
    validate_state,
)

SOLVE_VERTEX_CAP = 18
SOLVE_WARN_VERTICES = 16


def _check_size(instance: Instance) -> None:
    if instance.vertex_count > SOLVE_VERTEX_CAP:
        raise InstanceTooLargeError(
            f"{instance.vertex_count} vertices exceed the solver cap of "
            f"{SOLVE_VERTEX_CAP}"
        )


class _Search:
    """One solve call's worth of search state (memo is never shared
    across calls)."""

    def __init__(self, instance: Instance, policy: TiePolicy):
        self.instance = instance
        self.policy = policy
        self.weights = instance.weights
        self.nbr = instance.neighbor_masks
        self.full = instance.full_mask
        self.shift = instance.vertex_count
        self.forbid = policy is TiePolicy.FORBID
        self.first_on_tie = policy is TiePolicy.FIRST_MOVES
        self.memo: dict[int, int] = {}

    def best(self, fm: int, sm: int, f: int, s: int, reach: int) -> int:
        """Final First total under optimal play from (fm, sm)."""
        taken = fm | sm
        if taken == self.full:
            if self.forbid and f == s:
                raise TieEncounteredError(fm, sm)
            return f
        key = (fm << self.shift) | sm
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        if f < s:
            first_moves = True
        elif f > s:
            first_moves = False
        elif taken == 0:
            first_moves = True
        elif self.forbid:
            raise TieEncounteredError(fm, sm)
        else:
            first_moves = self.first_on_tie
        moves = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        best_val = -1 if first_moves else None
        m = moves
        if first_moves:
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                r = self.best(fm | low, sm, f + weights[v], s, reach | nbr[v])
                if r > best_val:
                    best_val = r
        else:
            while m:
                low = m & -m
                m ^= low
                v = low.bit_length() - 1
                r = self.best(fm, sm | low, f, s + weights[v], reach | nbr[v])
                if best_val is None or r < best_val:
                    best_val = r
        memo[key] = best_val
        return best_val

    def value_of_state(self, state: GameState) -> int:
        f = self.instance.weight_of(state.first_mask)
        s = self.instance.weight_of(state.second_mask)
        reach = self.instance.reach_mask(state.taken_mask)
        return self.best(state.first_mask, state.second_mask, f, s, reach)

    def canonical_move(self, fm: int, sm: int, f: int, s: int, reach: int):
        """Lowest-id move achieving the mover's optimal value.

        Returns (mover, vertex, child search args).  Both players break
        value ties the same way, keeping lines start-symmetric.
        """
        taken = fm | sm
        if f < s:
            first_moves = True
        elif f > s:
            first_moves = False
        elif taken == 0:
            first_moves = True
        elif self.forbid:
            raise TieEncounteredError(fm, sm)
        else:
            first_moves = self.first_on_tie
        moves = self.full if taken == 0 else reach & ~taken
        weights = self.weights
        nbr = self.nbr
        best_val = None
        best_v = -1
        m = moves
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if first_moves:
                r = self.best(fm | low, sm, f + weights[v], s, reach | nbr[v])
                better = best_val is None or r > best_val
            else:
                r = self.best(fm, sm | low, f, s + weights[v], reach | nbr[v])
                better = best_val is None or r < best_val
            if better:
                best_val = r
                best_v = v
        low = 1 << best_v
        if first_moves:
            args = (fm | low, sm, f + weights[best_v], s, reach | nbr[best_v])
            return Player.FIRST, best_v, args
        args = (fm, sm | low, f, s + weights[best_v], reach | nbr[best_v])
        return Player.SECOND, best_v, args

    def line_from(self, fm: int, sm: int, f: int, s: int, reach: int):
        log: list[tuple[Player, int]] = []
        while (fm | sm) != self.full:
            who, v, (fm, sm, f, s, reach) = self.canonical_move(fm, sm, f, s, reach)
            log.append((who, v))
        return tuple(log)

    def opening_args(self, start: int):
        bit = 1 << start
        return (bit, 0, self.weights[start], 0, self.nbr[start])


@dataclass(frozen=True)
class StartResult:
    start: int
    value: Fraction
    line: tuple[tuple[Player, int], ...]


@dataclass(frozen=True)
class SolveReport:
    """Per-opening values and canonical lines, plus the game value.

    ``value`` is the best per-opening value; ``best_start`` is the lowest
    vertex id attaining it.  ``state_count`` is the number of memoized
    states, a search-size diagnostic.
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
    _check_size(instance)
    validate_state(instance, state)
    search = _Search(instance, policy)
    return Fraction(search.value_of_state(state), instance.total_weight)


def solve(instance: Instance, policy: TiePolicy = TiePolicy.FORBID) -> SolveReport:
    """Evaluate every opening and report values, canonical lines, and the
    game value; openings share one memo table."""
    _check_size(instance)
    search = _Search(instance, policy)
    total = instance.total_weight
    per_start = []
    best_value = None
    best_start = -1
    for start in range(instance.vertex_count):
        args = search.opening_args(start)
        raw = search.best(*args)
        line = ((Player.FIRST, start),) + search.line_from(*args)
        value = Fraction(raw, total)
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
    _check_size(instance)
    if not 0 <= start < instance.vertex_count:
        raise ValueError(f"start vertex {start} does not exist")
    search = _Search(instance, policy)
    args = search.opening_args(start)
    return ((Player.FIRST, start),) + search.line_from(*args)


def _replies(search: _Search, instance: Instance, start: int) -> tuple[int, ...]:
    bit = 1 << start
    f = instance.weights[start]
    reach = instance.neighbor_masks[start]
    nbr = instance.neighbor_masks
    best_val = None
    replies: list[int] = []
    m = reach
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        r = search.best(bit, low, f, instance.weights[v], reach | nbr[v])
        if best_val is None or r < best_val:
            best_val = r
            replies = [v]
        elif r == best_val:
            replies.append(v)
    return tuple(replies)


def optimal_responses(
    instance: Instance, policy: TiePolicy, start: int
) -> tuple[int, ...]:
    """All of Second's value-optimal first replies to opening ``start``,
    in increasing vertex id."""
    _check_size(instance)
    if instance.vertex_count < 2:
        raise ValueError("responses need at least two vertices")
    if not 0 <= start < instance.vertex_count:
        raise ValueError(f"start vertex {start} does not exist")
    return _replies(_Search(instance, policy), instance, start)


def canonical_strategy(instance: Instance, policy: TiePolicy):
    """A ``Strategy`` that plays the canonical optimal move in any state.

    Handles the opening as well (empty state).  Both players break value
    ties toward the lowest vertex id, so two canonical strategies facing
    each other reproduce ``principal_line``.
    """
    _check_size(instance)
    search = _Search(instance, policy)

    def strategy(_instance: Instance, state: GameState) -> int:
        f, s = state.totals(instance)
        reach = instance.reach_mask(state.taken_mask)
        _who, vertex, _args = search.canonical_move(
            state.first_mask, state.second_mask, f, s, reach
        )
        return vertex

    return strategy


def response_map(instance: Instance, policy: TiePolicy) -> dict[int, int]:
    """Second's canonical reply to every opening: the lowest-id vertex
    among the value-optimal responses.  Needs at least two vertices."""
    _check_size(instance)
    if instance.vertex_count < 2:
        raise ValueError("response map needs at least two vertices")
    search = _Search(instance, policy)
    return {
        start: _replies(search, instance, start)[0]
        for start in range(instance.vertex_count)
    }
