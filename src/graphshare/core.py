"""Rules of the concurrent sharing game on vertex-weighted graphs.

Two players split the vertices of a connected graph with positive integer
weights.  First opens by taking any vertex.  After that, whichever player
has collected the smaller total weight takes one vertex that is not yet
taken and is adjacent to some taken vertex, so the taken region grows
connectedly.  When the totals are equal a tie policy decides who moves
(or the game is declared invalid).  The game ends once every vertex is
taken; each player keeps the total weight of the vertices they took.

Vertex sets are encoded as bitmasks (vertex ``v`` is bit ``1 << v``),
which caps instances at 64 vertices.  Every vertex limit of the package
is a ``VertexCap``, and ``VertexCap.check`` is its one refusal.  All
arithmetic is exact: weights are integers and reported values are
fractions of the total weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator


class GraphShareError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(GraphShareError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(GraphShareError):
    """The same unordered vertex pair appears twice in the edge list."""


class NonPositiveWeightError(GraphShareError):
    """A vertex weight is zero or negative."""


class DisconnectedGraphError(GraphShareError):
    """The graph is not connected."""


class InstanceTooLargeError(GraphShareError):
    """The instance exceeds a size cap (encoding or search limit)."""


class VertexCap(int):
    """A vertex limit that names the code it guards.  It compares,
    adds and formats as its ``int``; ``check`` refuses a larger count
    before that code does any work."""

    what: str

    def __new__(cls, limit: int, what: str) -> "VertexCap":
        cap = super().__new__(cls, limit)
        cap.what = what
        return cap

    def check(self, n: int) -> None:
        """Raise InstanceTooLargeError when ``n`` vertices exceed the cap."""
        if n > self:
            raise InstanceTooLargeError(
                f"{n} vertices exceed the {self.what} cap of {int(self)}"
            )


MAX_VERTICES = VertexCap(64, "bitmask encoding")


class IllegalMoveError(GraphShareError):
    """A move violates the rules at the current state."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TieEncounteredError(GraphShareError):
    """Totals tied where the forbid policy requires strict inequality."""

    def __init__(self, first_mask: int, second_mask: int):
        super().__init__(
            f"totals tied at state first={first_mask:#x} second={second_mask:#x}"
        )
        self.first_mask = first_mask
        self.second_mask = second_mask


class Player(Enum):
    FIRST = "F"
    SECOND = "S"

    def __str__(self) -> str:
        return "First" if self is Player.FIRST else "Second"


class TiePolicy(Enum):
    """What happens when both players have equal totals mid-game."""

    FORBID = "forbid"
    FIRST_MOVES = "first"
    SECOND_MOVES = "second"

    @classmethod
    def from_token(cls, token: str) -> "TiePolicy":
        for policy in cls:
            if policy.value == token:
                return policy
        raise ValueError(f"unknown tie policy {token!r}")

    def __str__(self) -> str:
        return self.value


# An enum member lookup costs about ten global lookups on CPython 3.11;
# the mover rule and the search read these bindings instead.
FIRST, SECOND = Player.FIRST, Player.SECOND
_FORBID, _FIRST_MOVES = TiePolicy.FORBID, TiePolicy.FIRST_MOVES


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class Instance:
    """A connected graph with positive integer vertex weights.

    ``weights[v]`` is the weight of vertex ``v``; vertices are the ids
    ``0 .. len(weights) - 1``.  ``edges`` holds unordered pairs, stored
    as ``(min, max)``.  Construction validates everything and derives
    per-vertex neighbor bitmasks used by the rules and search code.
    """

    weights: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    neighbor_masks: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False
    )
    total_weight: int = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        weights = tuple(int(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        n = len(weights)
        if n < 1:
            raise ValueError("instance needs at least one vertex")
        MAX_VERTICES.check(n)
        for v, w in enumerate(weights):
            if w <= 0:
                raise NonPositiveWeightError(f"vertex {v} has weight {w}")
        normalized: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for u, v in self.edges:
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) references a missing vertex")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise DuplicateEdgeError(f"duplicate edge {pair}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(normalized))
        masks = [0] * n
        for u, v in normalized:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "neighbor_masks", tuple(masks))
        object.__setattr__(self, "total_weight", sum(weights))
        if not self.is_connected_mask(self.full_mask):
            raise DisconnectedGraphError("graph is not connected")

    @property
    def vertex_count(self) -> int:
        return len(self.weights)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.weights)) - 1

    def weight_of(self, mask: int) -> int:
        weights = self.weights
        return sum(weights[v] for v in bits(mask))

    def reach_mask(self, mask: int) -> int:
        """Union of neighbor masks over the vertices of ``mask``."""
        nbr = self.neighbor_masks
        out = 0
        for v in bits(mask):
            out |= nbr[v]
        return out

    def is_connected_mask(self, mask: int) -> bool:
        """True when ``mask`` is empty or induces a connected subgraph."""
        if mask == 0:
            return True
        nbr = self.neighbor_masks
        region = mask & -mask
        while True:
            grown = region
            for v in bits(region):
                grown |= nbr[v] & mask
            if grown == region:
                return region == mask
            region = grown


@dataclass(frozen=True)
class GameState:
    """Who holds what: two disjoint vertex bitmasks, First's and Second's.

    The player to move is never stored; it is re-derived from the totals
    and the tie policy, so states cannot drift out of sync with the rules.
    """

    first_mask: int = 0
    second_mask: int = 0

    @property
    def taken_mask(self) -> int:
        return self.first_mask | self.second_mask

    def totals(self, instance: Instance) -> tuple[int, int]:
        return (
            instance.weight_of(self.first_mask),
            instance.weight_of(self.second_mask),
        )


@dataclass(frozen=True)
class Outcome:
    """Result of a completed play: final holdings and the move log."""

    first_mask: int
    second_mask: int
    first_value: Fraction
    move_log: tuple[tuple[Player, int], ...]

    @property
    def first_set(self) -> frozenset[int]:
        return mask_to_set(self.first_mask)

    @property
    def second_set(self) -> frozenset[int]:
        return mask_to_set(self.second_mask)


Strategy = Callable[[Instance, GameState], int]


def validate_state(instance: Instance, state: GameState) -> None:
    """Raise ValueError when ``state`` breaks a structural invariant."""
    full = instance.full_mask
    if state.first_mask & ~full or state.second_mask & ~full:
        raise ValueError("state references vertices outside the instance")
    if state.first_mask & state.second_mask:
        raise ValueError("a vertex is held by both players")
    taken = state.taken_mask
    if taken and not state.first_mask:
        raise ValueError("Second holds vertices before First opened")
    if not instance.is_connected_mask(taken):
        raise ValueError("taken region is not connected")


def mover_at(
    first_mask: int, second_mask: int, f: int, s: int, policy: TiePolicy
) -> Player:
    """The game's one mover rule: who takes the next vertex, given both
    holdings and their totals ``f`` (First's) and ``s`` (Second's).

    The player with the strictly smaller total moves.  On equal totals
    the empty state belongs to First, the forbid policy raises
    TieEncounteredError, and otherwise the policy names the mover.
    """
    if f < s:
        return FIRST
    if f > s:
        return SECOND
    if not first_mask | second_mask:
        return FIRST
    if policy is _FORBID:
        raise TieEncounteredError(first_mask, second_mask)
    return FIRST if policy is _FIRST_MOVES else SECOND


def mover(instance: Instance, state: GameState, policy: TiePolicy) -> Player:
    """Which player takes the next vertex at ``state`` (see ``mover_at``)."""
    f, s = state.totals(instance)
    return mover_at(state.first_mask, state.second_mask, f, s, policy)


def legal_move_mask(instance: Instance, state: GameState) -> int:
    """Bitmask of takeable vertices: everything at the opening, then the
    untaken neighbors of the taken region."""
    taken = state.taken_mask
    if taken == 0:
        return instance.full_mask
    return instance.reach_mask(taken) & ~taken


def legal_moves(instance: Instance, state: GameState) -> set[int]:
    return set(bits(legal_move_mask(instance, state)))


def apply(
    instance: Instance, state: GameState, move: int, policy: TiePolicy
) -> GameState:
    """Give ``move`` to the player whose turn it is and return the new state."""
    if not isinstance(move, int) or not 0 <= move < instance.vertex_count:
        raise IllegalMoveError(f"vertex {move!r} does not exist")
    bit = 1 << move
    if not legal_move_mask(instance, state) & bit:
        raise IllegalMoveError(f"vertex {move} is not takeable now")
    who = mover(instance, state, policy)
    if who is Player.FIRST:
        return GameState(state.first_mask | bit, state.second_mask)
    return GameState(state.first_mask, state.second_mask | bit)


def play_out(
    instance: Instance,
    policy: TiePolicy,
    strategy_first: Strategy,
    strategy_second: Strategy,
) -> Outcome:
    """Referee a full game between two strategies.

    Every move is validated; a strategy returning an illegal move raises
    IllegalMoveError carrying the step index.  Tie detection follows the
    policy via ``mover``.
    """
    state = GameState()
    full = instance.full_mask
    log: list[tuple[Player, int]] = []
    while state.taken_mask != full:
        who = mover(instance, state, policy)
        strategy = strategy_first if who is Player.FIRST else strategy_second
        move = strategy(instance, state)
        legal = legal_move_mask(instance, state)
        if not isinstance(move, int) or move < 0 or not legal & (1 << move):
            raise IllegalMoveError(
                f"{who} returned illegal move {move!r} at step {len(log)}",
                step=len(log),
            )
        bit = 1 << move
        if who is Player.FIRST:
            state = GameState(state.first_mask | bit, state.second_mask)
        else:
            state = GameState(state.first_mask, state.second_mask | bit)
        log.append((who, move))
    f = instance.weight_of(state.first_mask)
    return Outcome(
        first_mask=state.first_mask,
        second_mask=state.second_mask,
        first_value=Fraction(f, instance.total_weight),
        move_log=tuple(log),
    )
