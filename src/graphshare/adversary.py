"""Adversarial weight search: drive a graph shape toward its worst case.

The pipeline mirrors how the hard examples were found in the first
place.  Freeze Second's optimal replies on a current instance into an
annotated scenario forest, write linear constraints on the weights that
keep those annotations consistent, minimize First's best reachable leaf
total by LP, and certify the rounded candidate with the exact solver.
Alternating these steps descends toward tight instances; a seeded hill
climb over integer weights provides an LP-free baseline.

A forest node is one reachable state, both holdings with its mover and
tie mark, held once in depth-first order; each node is one LP row, so
that order fixes the LP's pivots and every search trace.

The LP bound t only caps First's guarantee for plays consistent with the
annotations, so a candidate's value is always re-certified exactly and
the LP number is never reported as a game value.

Under a tie-resolving policy the forest marks nodes reached at exactly
equal totals; those become equality constraints, which lets the LP
engineer the forced-move ties that push tree values below one half.

The LP's weight floor ``EPSILON_FLOOR`` and strict-inequality slack
``MARGIN`` are fixed constants.  A candidate that a forbidden tie blocks
is certified through its tie-free lift at ``LIFT_FINENESS``, whose
relative perturbation stays below the weight floor.  The lift's subset
sums all differ, so no state of its play ties: every certified
candidate has an exact value, under every policy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .core import (
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
    bits,
    check_int,
)
from .generators import gen_cycle7_family
from .simplex import _over_lcm, solve_lp
from .solve import ForestNode, _Search, solve

ALTERNATE_VERTEX_CAP = VertexCap(10, "alternating search")
HILL_VERTEX_CAP = VertexCap(12, "hill climb")
EPSILON_FLOOR = Fraction(1, 10**6)
MARGIN = Fraction(1, 10**9)
LIFT_FINENESS = round(1 / EPSILON_FLOOR)
IMPROVEMENT_EPS = Fraction(1, 10**9)


@dataclass(frozen=True)
class GraphShape:
    """An unweighted connected graph: what the search assigns weights to."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def _unit(self) -> Instance:
        # the shape at unit weights: built, and so validated, once
        return Instance(weights=(1,) * self.vertex_count, edges=self.edges)

    def instance(self, weights) -> Instance:
        """The shape with ``weights``; only the weights are checked, since
        the edges and connectivity were checked once for the shape."""
        return self._unit.with_weights(weights)

    @classmethod
    def cycle(cls, n: int) -> "GraphShape":
        check_int(n, "n")
        if n < 3:
            raise ValueError("a cycle needs at least three vertices")
        return cls(n, tuple((v, (v + 1) % n) for v in range(n)))

    @classmethod
    def single_edge(cls) -> "GraphShape":
        return cls(2, ((0, 1),))


def tree_shapes(n: int):
    """All trees on n vertices up to isomorphism, in a fixed order,
    built lazily.  Rejects n < 1 at the call.  The count grows
    exponentially in n, so callers check their vertex cap first.  Only
    n >= 2 loads networkx."""
    check_int(n, "n")
    if n < 1:
        raise ValueError(f"a tree needs at least 1 vertex, got {n}")
    if n == 1:
        # networkx 3.0 refuses orders below 2
        return iter([GraphShape(1, ())])
    import networkx as nx

    return (
        GraphShape(n, tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges())))
        for g in nx.nonisomorphic_trees(n)
    )


@dataclass(frozen=True)
class AnnotatedScenarioForest:
    """The states reachable over all openings when Second plays only its
    canonical optimal reply and First tries every legal move, each held
    once as a node, in ``_Search.forest``'s depth-first order: openings
    and a node's successors in vertex order, a state reached again in
    its first place.  That order is ``lp_minimize``'s row order, so it
    fixes the LP's pivots and every search trace."""

    vertex_count: int
    policy: TiePolicy
    _nodes: tuple[ForestNode, ...]

    def nodes(self) -> tuple[ForestNode, ...]:
        """Every node, in the forest's order."""
        return self._nodes


def extract_forest(instance: Instance, policy: TiePolicy) -> AnnotatedScenarioForest:
    """Freeze Second's canonical optimal replies on ``instance`` into an
    annotated forest over all openings."""
    ALTERNATE_VERTEX_CAP.check(instance.vertex_count)
    return AnnotatedScenarioForest(
        instance.vertex_count, policy, _Search(instance, policy).forest()
    )


# Known-hard weight layouts as (reference edges, reference weights).
# The seven-cycle carries the 7-cycle family at M=1000.  The gated-spider
# tree has center 0, two pendant leaves 1-2 on the center, and three legs
# 0-3-6, 0-4-7, 0-5-8 whose middle vertices gate heavy tips.  Under a
# tie-resolving policy its near-tied supports force the opener to commit
# first at every simultaneous finish; the closer then hovers just behind
# and collects two of the three heavy tips, so the value falls toward
# 1/3 as the tip scale (1000 here) grows.
_CYCLE7 = gen_cycle7_family(1000)
_KNOWN_LAYOUTS = (
    (_CYCLE7.edges, _CYCLE7.weights),
    (
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (3, 6), (4, 7), (5, 8)),
        (3, 3, 3, 8, 1, 2, 1030, 1002, 1002),
    ),
)


def _known_seeds(shape: GraphShape) -> list[tuple[int, ...]]:
    """Known-hard weight layouts for shapes isomorphic to a reference.

    The search ladder starts from these when the shape matches: the
    seven-cycle admits a three-heavy layout whose scenario the LP then
    re-optimizes to its exact vertex, and the nine-vertex gated spider
    admits a forced-tie layout that tie-resolving policies punish.
    Generic exploration does not reach those scenarios (their basins
    are measure-zero slivers), and the whole point of the alternation
    is to rederive optimal weights from a good scenario, so the ladder
    plants the scenario and the LP does the numeric work."""
    seeds: list[tuple[int, ...]] = []
    n = shape.vertex_count
    shape_edges = {frozenset(e) for e in shape.edges}
    for edges, weights in _KNOWN_LAYOUTS:
        if n != len(weights) or len(shape.edges) != len(edges):
            continue
        # the layout itself, which the matcher maps by the identity; this
        # spares the networkx import and its memory
        if shape_edges == {frozenset(e) for e in edges}:
            seeds.append(weights)
            continue
        import networkx as nx
        from networkx.algorithms.isomorphism import GraphMatcher

        # Vertices enter in id order, so the matcher lays a cycle out from
        # vertex 0 toward its smaller neighbour whatever the edge order.
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(shape.edges)
        matcher = GraphMatcher(graph, nx.Graph(edges))
        if matcher.is_isomorphic():
            seeds.append(tuple(weights[matcher.mapping[v]] for v in range(n)))
    return seeds


def _bump_starts(n: int) -> list[tuple[int, ...]]:
    """Near-equal weight vectors, one slightly heavier vertex.

    Equal weights maximize the number of exactly tied partial sums, so
    these starts steer tie-resolving searches toward positions where the
    forced-move rule binds."""
    starts = []
    for pos in range(n):
        w = [13] * n
        w[pos] = 16
        starts.append(tuple(w))
    return starts


def _start_ladder(shape: GraphShape, policy: TiePolicy) -> list[tuple[int, ...]]:
    """Deterministic opening weight vectors for the alternating search."""
    n = shape.vertex_count
    ladder = _known_seeds(shape)
    ladder.append(tuple(1 << v for v in range(n)))
    if policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES):
        ladder.extend(_bump_starts(n))
    return ladder


def _mask_coeffs(n: int, plus: int, minus: int, extra: int = 0):
    """Row +1 on ``plus``, -1 on ``minus`` (disjoint masks), ``extra`` on t."""
    row = [0] * n + [extra]
    for v in bits(plus | minus):
        row[v] = 1 if plus >> v & 1 else -1
    return row


def lp_minimize(forest: AnnotatedScenarioForest):
    """Minimize the max leaf First-total consistent with the annotations.

    Variables are the vertex weights (normalized to sum 1, floored at
    ``EPSILON_FLOOR``) and the bound t.  Mover annotations become strict
    inequalities with ``MARGIN`` slack, except on the side a tie policy
    hands the move to, where slack 0 is enough; tied nodes become exact
    equalities.  Each forest node is one state, so each gives one row.
    Returns (weights as exact fractions, t).

    Solved by row generation over an exact rational simplex: only
    violated constraints enter the working LP, and the returned point is
    feasible for the full system, hence exactly optimal.  Active rows
    hold exactly at each LP point, so the check scans every row and
    finds only rows outside the working LP violated.  The rows are
    checked in integers: every right side is put over one denominator
    once, the point over its own each round, and a row's excess scaled
    by both, which orders the violated rows as their rational excess
    does.
    """
    n = forest.vertex_count
    eps = EPSILON_FLOOR
    # First needs strict slack except when ties hand First the move anyway.
    first_slack = Fraction(0) if forest.policy is TiePolicy.FIRST_MOVES else MARGIN
    second_slack = Fraction(0) if forest.policy is TiePolicy.SECOND_MOVES else MARGIN
    # variables: x_v = w_v - eps for each vertex, then t
    a_eq = [[1] * n + [0]]
    b_eq = [1 - n * eps]
    ub_rows: list[tuple[list, Fraction]] = []
    for node in forest.nodes():
        fm, sm = node.first_mask, node.second_mask
        f_count = fm.bit_count()
        if node.terminal:
            ub_rows.append((_mask_coeffs(n, fm, 0, -1), -f_count * eps))
            continue
        balance = (sm.bit_count() - f_count) * eps
        if node.tied:
            a_eq.append(_mask_coeffs(n, fm, sm))
            b_eq.append(balance)
        elif node.mover is Player.FIRST:
            ub_rows.append((_mask_coeffs(n, fm, sm), balance - first_slack))
        else:
            ub_rows.append((_mask_coeffs(n, sm, fm), -balance - second_slack))
    objective = [0] * n + [1]
    rhs_nums, rhs_den = _over_lcm([rhs for _, rhs in ub_rows])
    # no active row shows a positive excess, so none enters twice, and
    # ``active`` keeps the order rows entered in, which fixes the pivots
    active: list[int] = []
    while True:
        a_ub = [ub_rows[i][0] for i in active]
        b_ub = [ub_rows[i][1] for i in active]
        x, _ = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
        x_nums, x_den = _over_lcm(x)
        # excess = (lhs - rhs) * x_den * rhs_den: one positive scale for all
        violated = []
        for i, (row, _) in enumerate(ub_rows):
            lhs = sum(c * v for c, v in zip(row, x_nums) if c)
            excess = lhs * rhs_den - rhs_nums[i] * x_den
            if excess > 0:
                violated.append((excess, i))
        if not violated:
            weights = tuple(x[v] + eps for v in range(n))
            return weights, x[n]
        violated.sort(key=lambda item: (-item[0], item[1]))
        active.extend(i for _, i in violated[:12])


def _integerize(weight_fractions) -> tuple[int, ...]:
    ints, _ = _over_lcm(weight_fractions)
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lp_bound: Fraction
    candidate_value: Fraction
    best_value: Fraction


@dataclass(frozen=True)
class AdversaryResult:
    instance: Instance
    value: Fraction
    trace: tuple[IterationRecord, ...]
    stop_reason: str


def _certified(instance: Instance, policy: TiePolicy) -> Fraction | None:
    """The exact value, or None when a forbidden tie blocks play."""
    try:
        return solve(instance, policy).value
    except TieEncounteredError:
        return None


def _tie_free_lift(weights: tuple[int, ...]) -> tuple[int, ...]:
    """Scale by LIFT_FINENESS * 2^n and add 2^v: all subset sums become
    distinct, so no state of play can tie.

    Two subsets with equal base sums differ in their added powers of
    two; unequal base sums differ by at least the scale, which exceeds
    any difference of the added parts.  Each added part is below
    1/LIFT_FINENESS of its scaled weight, so the relative perturbation
    stays under the weight floor."""
    scale = LIFT_FINENESS << len(weights)
    return tuple(w * scale + (1 << v) for v, w in enumerate(weights))


def _certify_candidate(
    shape: GraphShape, weights: tuple[int, ...], policy: TiePolicy
) -> tuple[Instance, Fraction]:
    """The candidate instance and its exact value.  Only a forbidden tie
    can block the solve; the tie-free lift is certified instead, and
    since the lift cannot tie, the value is always defined."""
    instance = shape.instance(weights)
    value = _certified(instance, policy)
    if value is None:
        instance = shape.instance(_tie_free_lift(weights))
        value = _certified(instance, policy)
    return instance, value


def alternate_optimize(
    shape: GraphShape,
    policy: TiePolicy,
    max_iters: int = 40,
) -> AdversaryResult:
    """Alternate exact solving, forest extraction, and LP minimization.

    Runs one extract/minimize/certify chain per ladder start (known-hard
    seeds for recognized shapes, then neutral patterns), sharing a
    budget of ``max_iters`` LP iterations, one trace record each, and
    the node sets of the forests seen.  A chain ends on a repeated
    forest or a stalled best.  The search ends with stop reason
    ``"converged"`` when the ladder runs out and ``"max_iters"`` when
    the budget does.  Each ladder start is certified before the budget
    is tested, so the result can come from a start that no record
    shows, below the last record's ``best_value``.  Deterministic in its
    inputs, and the reported value is always the exact solver's, never
    the LP bound.
    """
    ALTERNATE_VERTEX_CAP.check(shape.vertex_count)
    check_int(max_iters, "max_iters")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    ladder = _start_ladder(shape, policy)
    best_instance = None
    best_value = None
    seen_signatures: set[frozenset] = set()
    trace: list[IterationRecord] = []
    stop_reason = "converged"
    for start in ladder:
        current, value = _certify_candidate(shape, start, policy)
        if best_value is None or value < best_value:
            best_instance, best_value = current, value
        chain_start = len(trace)
        while len(trace) < max_iters:
            forest = extract_forest(current, policy)
            signature = frozenset(forest.nodes())
            if signature in seen_signatures:
                break
            seen_signatures.add(signature)
            lp_weights, lp_bound = lp_minimize(forest)
            current, value = _certify_candidate(
                shape, _integerize(lp_weights), policy
            )
            stalled = value >= best_value - IMPROVEMENT_EPS
            if value < best_value:
                best_instance, best_value = current, value
            trace.append(
                IterationRecord(
                    iteration=len(trace),
                    lp_bound=lp_bound,
                    candidate_value=value,
                    best_value=best_value,
                )
            )
            # a chain's first candidate may certify worse than its seed
            # and still be worth extracting from; later stalls end it
            if stalled and len(trace) > chain_start + 1:
                break
        else:
            stop_reason = "max_iters"
            break
    return AdversaryResult(
        instance=best_instance,
        value=best_value,
        trace=tuple(trace),
        stop_reason=stop_reason,
    )


def hill_climb(
    shape: GraphShape,
    policy: TiePolicy,
    seed: int,
    iters: int = 2000,
) -> AdversaryResult:
    """Seeded greedy descent over integer weight vectors.

    Starts from the best of the deterministic base layouts (the same
    ladder the alternating search uses, plus a seeded random vector) and
    proposes single-coordinate changes: mixed-scale steps and, under
    tie-resolving policies, copying another coordinate's value with a
    small offset to manufacture exactly tied sums.  A proposal is
    accepted only when the exact solver certifies a strictly smaller
    value; forbidden-tie proposals are rejected.  A weight vector that a
    forbidden tie blocked is remembered, so each is certified once and
    a repeat is rejected without a solve.  After a long stall the walk
    restarts from a perturbed copy of the incumbent.  Deterministic in
    (shape, policy, seed, iters).
    """
    check_int(seed, "seed")
    n = shape.vertex_count
    HILL_VERTEX_CAP.check(n)
    check_int(iters, "iters")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    rng = random.Random(seed)
    tie_seeking = policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)

    bases = _start_ladder(shape, policy)
    bases.append(tuple(rng.randint(1, max(4, 4 * n)) for _ in range(n)))
    # min keeps the first of equally valued bases
    best_instance, best_value = min(
        (_certify_candidate(shape, base, policy) for base in bases),
        key=lambda found: found[1],
    )
    best_weights = best_instance.weights
    weights, value = best_weights, best_value
    trace = [
        IterationRecord(
            iteration=0, lp_bound=value, candidate_value=value, best_value=value
        )
    ]
    # a tied vector is never accepted, so one certify per vector will do
    tied: set[tuple[int, ...]] = set()

    def certified(candidate: tuple[int, ...]) -> Fraction | None:
        if candidate in tied:
            return None
        value = _certified(shape.instance(candidate), policy)
        if value is None:
            tied.add(candidate)
        return value

    stalled = 0
    for iteration in range(1, iters + 1):
        v = rng.randrange(n)
        current = weights[v]
        if tie_seeking and rng.random() < 0.4:
            updated = weights[rng.randrange(n)] + rng.choice((-1, 0, 1))
        else:
            step = rng.choice(
                (1, 2, 4, 8, max(1, current // 8), max(1, current // 2), current)
            )
            updated = current + (step if rng.random() < 0.5 else -step)
        if updated < 1 or updated == current:
            continue
        candidate = weights[:v] + (updated,) + weights[v + 1 :]
        candidate_value = certified(candidate)
        if candidate_value is not None and candidate_value < value:
            weights, value = candidate, candidate_value
            stalled = 0
            if value < best_value:
                best_weights, best_value = weights, value
                trace.append(
                    IterationRecord(
                        iteration=iteration,
                        lp_bound=value,
                        candidate_value=value,
                        best_value=best_value,
                    )
                )
        else:
            stalled += 1
            if stalled >= 400:
                stalled = 0
                shaken = list(best_weights)
                for _ in range(2):
                    u = rng.randrange(n)
                    shaken[u] = max(1, shaken[u] + rng.randint(-3, 3))
                shaken_value = certified(tuple(shaken))
                if shaken_value is not None:
                    weights, value = tuple(shaken), shaken_value
    return AdversaryResult(
        instance=shape.instance(best_weights),
        value=best_value,
        trace=tuple(trace),
        stop_reason="iters",
    )
