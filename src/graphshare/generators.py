"""Instance generators: the hard 7-cycle family, seeded random trees and
connected graphs, and a resampling wrapper that rejects tied instances.

Everything randomized is deterministic in its arguments: the same seed
always yields byte-identical instances.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from .core import MAX_VERTICES, GraphShareError, Instance, TiePolicy, TieEncounteredError
from .solve import solve

CYCLE7_MIN_M = 96
RESAMPLE_ATTEMPTS = 50


class MTooSmallError(GraphShareError):
    """The 7-cycle family parameter is below the validated range."""


class ExhaustedAttemptsError(GraphShareError):
    """Every resampling attempt produced an instance with a reachable tie."""


def gen_cycle7_family(m: int) -> Instance:
    """The 7-cycle family that pins the general guarantee near one third.

    Weights around the cycle are (m, m+15, 17, 7, 12, m+26, 18), total
    3m + 95.  For m >= 96 no two vertex sets that can face each other in
    play have equal weight, so play is tie-free, and First cannot secure
    more than m + 69 of the total.  Smaller m is rejected.
    """
    if m < CYCLE7_MIN_M:
        raise MTooSmallError(f"m={m} is below the validated minimum {CYCLE7_MIN_M}")
    weights = (m, m + 15, 17, 7, 12, m + 26, 18)
    edges = tuple((v, (v + 1) % 7) for v in range(7))
    return Instance(weights=weights, edges=edges)


def _prufer_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniform random labeled tree on n vertices via a Prufer sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _check_weight_args(n: int, weight_max: int) -> None:
    """Refuse a vertex count the encoding cannot hold before anything is
    drawn: a connected graph's candidate edges alone are O(n^2)."""
    if n < 1:
        raise ValueError(f"vertex count {n} must be positive")
    MAX_VERTICES.check(n)
    if weight_max < n:
        raise ValueError(f"weight_max {weight_max} must be at least n={n}")


def gen_random_tree(n: int, seed: int, weight_max: int) -> Instance:
    """Seeded uniform labeled tree with weights drawn from [1, weight_max]."""
    return gen_random_connected(n, 0, seed, weight_max)


def gen_random_connected(
    n: int, extra_edges: int, seed: int, weight_max: int
) -> Instance:
    """Seeded connected graph: a random spanning tree plus ``extra_edges``
    distinct non-tree edges sampled uniformly."""
    _check_weight_args(n, weight_max)
    cap = n * (n - 1) // 2 - (n - 1)
    if not 0 <= extra_edges <= cap:
        raise ValueError(f"extra_edges {extra_edges} outside [0, {cap}] for n={n}")
    rng = random.Random(seed)
    edges = _prufer_edges(rng, n)
    if extra_edges:
        tree = set(edges)
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in tree
        ]
        edges = edges + sorted(rng.sample(candidates, extra_edges))
    weights = tuple(rng.randint(1, weight_max) for _ in range(n))
    return Instance(weights=weights, edges=tuple(edges))


def subset_sums_distinct(weights: tuple[int, ...]) -> bool:
    """True when all 2^n subset sums of ``weights`` differ.

    The sums are built one weight at a time, and the first collision
    ends the check: ``seen`` then holds fewer sums than were made.

    Two distinct subsets with equal sums leave two disjoint nonempty
    subsets with equal sums once their common part is removed, and a
    tied state is exactly such a pair; so distinct sums rule out a tie
    at any state of play, whatever the graph.
    """
    sums = [0]
    seen = {0}
    for w in weights:
        shifted = [x + w for x in sums]
        sums += shifted
        seen.update(shifted)
        if len(seen) != len(sums):
            return False
    return True


def resample_on_tie(generator_call: Callable[[int], Instance]) -> tuple[Instance, int]:
    """Draw instances until one solves tie-free under the forbid policy.

    ``generator_call(k)`` must produce the k-th attempt's instance (vary
    the seed with k).  Returns the accepted instance and the number of
    rejected draws; raises ExhaustedAttemptsError when all
    ``RESAMPLE_ATTEMPTS`` attempts tie.

    A draw whose subset sums are all distinct cannot reach a tie, so it
    is accepted by that screen without a search.  Only a draw whose sums
    collide is solved under forbid, which raises iff a tie is reachable
    on its graph.
    """
    for attempt in range(RESAMPLE_ATTEMPTS):
        candidate = generator_call(attempt)
        if subset_sums_distinct(candidate.weights):
            return candidate, attempt
        try:
            solve(candidate, TiePolicy.FORBID)
        except TieEncounteredError:
            continue
        return candidate, attempt
    raise ExhaustedAttemptsError(
        f"no tie-free instance in {RESAMPLE_ATTEMPTS} attempts"
    )
