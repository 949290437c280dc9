"""Adversarial weight search: drive a graph shape toward its worst case.

The pipeline mirrors how the hard examples were found in the first
place.  Freeze Second's optimal replies on a current instance into an
annotated scenario forest, write linear constraints on the weights that
keep those annotations consistent, minimize First's best reachable leaf
total by LP, and certify the rounded candidate with the exact solver.
Alternating these steps descends toward tight instances; a seeded hill
climb over integer weights provides an LP-free baseline.

The LP bound t only caps First's guarantee for plays consistent with the
annotations, so a candidate's value is always re-certified exactly and
the LP number is never reported as a game value.

Under a tie-resolving policy the forest marks nodes reached at exactly
equal totals; those become equality constraints, which lets the LP
engineer the forced-move ties that push tree values below one half.

The LP's weight floor ``EPSILON_FLOOR`` and strict-inequality slack
``MARGIN`` are fixed constants.  A candidate that a forbidden tie blocks
is certified through its tie-free lift at ``LIFT_FINENESS``, whose
relative perturbation stays below the weight floor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Instance,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
    bits,
)
from .generators import gen_cycle7_family
from .simplex import solve_lp
from .solve import _Search, solve

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

    def instance(self, weights) -> Instance:
        return Instance(weights=tuple(weights), edges=self.edges)

    @classmethod
    def cycle(cls, n: int) -> "GraphShape":
        if n < 3:
            raise ValueError("a cycle needs at least three vertices")
        return cls(n, tuple((v, (v + 1) % n) for v in range(n)))

    @classmethod
    def single_edge(cls) -> "GraphShape":
        return cls(2, ((0, 1),))

    @classmethod
    def from_instance(cls, instance: Instance) -> "GraphShape":
        return cls(instance.vertex_count, instance.edges)


def tree_shapes(n: int):
    """All trees on n vertices up to isomorphism, in a fixed order,
    built lazily.  Rejects n < 1 at the call.  The count grows
    exponentially in n, so callers check their vertex cap first."""
    import networkx as nx

    if n < 1:
        raise ValueError(f"a tree needs at least 1 vertex, got {n}")
    if n == 1:
        return iter([GraphShape(1, ())])
    if n == 2:
        return iter([GraphShape.single_edge()])
    return (
        GraphShape(n, tuple(sorted((min(u, v), max(u, v)) for u, v in g.edges())))
        for g in nx.nonisomorphic_trees(n)
    )


@dataclass(frozen=True)
class ForestNode:
    """One annotated state: who moves there and whether the totals were
    exactly tied when play reached it.  Terminal nodes carry mover None.
    Second nodes have exactly one child (the canonical optimal reply);
    First nodes branch on every legal move."""

    first_mask: int
    second_mask: int
    mover: Player | None
    tied: bool
    children: tuple["ForestNode", ...]

    @property
    def terminal(self) -> bool:
        return self.mover is None


@dataclass(frozen=True)
class AnnotatedScenarioForest:
    """Per-opening scenario trees with shared subtrees.

    Equal states reached along different prefixes are represented by one
    node object, so the structure is a rooted DAG per opening; the
    out-degree invariants hold at every node.
    """

    vertex_count: int
    policy: TiePolicy
    roots: tuple[tuple[int, ForestNode], ...]

    def nodes(self):
        """Every distinct node, roots first, children in construction
        order; deterministic."""
        seen: set[int] = set()
        stack = [root for _, root in reversed(self.roots)]
        while stack:
            node = stack.pop()
            key = id(node)
            if key in seen:
                continue
            seen.add(key)
            yield node
            stack.extend(reversed(node.children))

    def signature(self) -> frozenset:
        return frozenset(
            (node.first_mask, node.second_mask, node.mover, node.tied)
            for node in self.nodes()
        )


def extract_forest(instance: Instance, policy: TiePolicy) -> AnnotatedScenarioForest:
    """Freeze Second's canonical optimal replies on ``instance`` into an
    annotated forest over all openings."""
    ALTERNATE_VERTEX_CAP.check(instance.vertex_count)
    search = _Search(instance, policy)
    memo: dict[tuple[int, int], ForestNode] = {}

    def build(fm: int, sm: int, f: int, s: int, reach: int) -> ForestNode:
        key = (fm, sm)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if fm | sm == search.full:
            node = ForestNode(fm, sm, None, False, ())
        else:
            who, tied, found = search.branches(fm, sm, f, s, reach)
            children = tuple([build(*child) for _v, child in found])
            node = ForestNode(fm, sm, who, tied, children)
        memo[key] = node
        return node

    _first, _tied, openings = search.branches(0, 0, 0, 0, 0)
    roots = [(start, build(*opening)) for start, opening in openings]
    return AnnotatedScenarioForest(
        vertex_count=instance.vertex_count, policy=policy, roots=tuple(roots)
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
    for edges, weights in _KNOWN_LAYOUTS:
        if n != len(weights) or len(shape.edges) != len(edges):
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
    feasible for the full system, hence exactly optimal.
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
    active: list[int] = []
    active_set: set[int] = set()
    while True:
        a_ub = [ub_rows[i][0] for i in active]
        b_ub = [ub_rows[i][1] for i in active]
        x, _ = solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
        violated = []
        for i, (row, rhs) in enumerate(ub_rows):
            if i in active_set:
                continue
            lhs = sum(c * v for c, v in zip(row, x) if c)
            if lhs > rhs:
                violated.append((lhs - rhs, i))
        if not violated:
            weights = tuple(x[v] + eps for v in range(n))
            return weights, x[n]
        violated.sort(key=lambda item: (-item[0], item[1]))
        for _, i in violated[:12]:
            active.append(i)
            active_set.add(i)


def _integerize(weight_fractions) -> tuple[int, ...]:
    denom = math.lcm(*(f.denominator for f in weight_fractions))
    ints = [int(f * denom) for f in weight_fractions]
    g = math.gcd(*ints)
    return tuple(v // g for v in ints)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    lp_bound: Fraction
    candidate_value: Fraction | None
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


def _tie_free_lift(weights: tuple[int, ...], fineness: int = 1) -> tuple[int, ...]:
    """Scale by fineness * 2^n and add 2^v: all subset sums become
    distinct.

    Two subsets with equal base sums differ in their added powers of
    two; unequal base sums differ by at least the scale, which exceeds
    any difference of the added parts.  Larger fineness shrinks the
    relative size of the perturbation."""
    n = len(weights)
    scale = max(1, fineness) << n
    return tuple(w * scale + (1 << v) for v, w in enumerate(weights))


def _certify_candidate(shape: GraphShape, weights: tuple[int, ...], policy: TiePolicy):
    """The candidate instance and its exact value; when a forbidden tie
    blocks play, its tie-free lift at ``LIFT_FINENESS`` instead."""
    instance = shape.instance(weights)
    value = _certified(instance, policy)
    if value is None:
        instance = shape.instance(_tie_free_lift(weights, LIFT_FINENESS))
        value = _certified(instance, policy)
    return instance, value


def alternate_optimize(
    shape: GraphShape,
    policy: TiePolicy,
    max_iters: int = 40,
    initial_weights: tuple[int, ...] | None = None,
) -> AdversaryResult:
    """Alternate exact solving, forest extraction, and LP minimization.

    Runs one extract/minimize/certify chain per ladder start (an
    optional caller-provided warm start, known-hard seeds for recognized
    shapes, then neutral patterns), sharing a global iteration budget
    and forest-signature memory.  A chain ends on a repeated forest or a
    stalled best; the search ends when the budget or the ladder runs
    out.  Deterministic in its inputs, and the reported value is always
    the exact solver's, never the LP bound.
    """
    ALTERNATE_VERTEX_CAP.check(shape.vertex_count)
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    ladder = _start_ladder(shape, policy)
    if initial_weights is not None:
        ladder.insert(0, tuple(initial_weights))
    best_instance = None
    best_value = None
    seen_signatures: set[frozenset] = set()
    trace: list[IterationRecord] = []
    stop_reason = "converged"
    iteration = 0
    for start in ladder:
        current, start_value = _certify_candidate(shape, start, policy)
        if start_value is None:
            continue
        if best_value is None or start_value < best_value:
            best_instance = current
            best_value = start_value
        past_first_candidate = False
        while True:
            if iteration >= max_iters:
                stop_reason = "max_iters"
                break
            forest = extract_forest(current, policy)
            signature = forest.signature()
            if signature in seen_signatures:
                break
            seen_signatures.add(signature)
            lp_weights, lp_bound = lp_minimize(forest)
            candidate_weights = _integerize(lp_weights)
            candidate, candidate_value = _certify_candidate(
                shape, candidate_weights, policy
            )
            improvement = Fraction(0)
            if candidate_value is not None and candidate_value < best_value:
                improvement = best_value - candidate_value
                best_instance = candidate
                best_value = candidate_value
            trace.append(
                IterationRecord(
                    iteration=iteration,
                    lp_bound=lp_bound,
                    candidate_value=candidate_value,
                    best_value=best_value,
                )
            )
            iteration += 1
            if candidate_value is None:
                break
            # a chain's first candidate may certify worse than its seed
            # and still be worth extracting from; later stalls end it
            if past_first_candidate and improvement <= IMPROVEMENT_EPS:
                break
            past_first_candidate = True
            current = candidate
        if stop_reason == "max_iters":
            break
    if best_value is None:
        raise TieEncounteredError(0, 0)
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
    value; forbidden-tie proposals are rejected.  After a long stall the
    walk restarts from a perturbed copy of the incumbent.  Deterministic
    in (shape, policy, seed, iters).
    """
    n = shape.vertex_count
    HILL_VERTEX_CAP.check(n)
    rng = random.Random(seed)
    tie_seeking = policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)

    def certify(w):
        return _certified(shape.instance(w), policy)

    bases = _start_ladder(shape, policy)
    bases.append(tuple(rng.randint(1, max(4, 4 * n)) for _ in range(n)))
    best_weights, best_value = None, None
    for base in bases:
        instance, value = _certify_candidate(shape, base, policy)
        if value is not None and (best_value is None or value < best_value):
            best_weights, best_value = instance.weights, value
    weights, value = best_weights, best_value
    trace = [
        IterationRecord(
            iteration=0, lp_bound=value, candidate_value=value, best_value=value
        )
    ]
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
        candidate_value = certify(candidate)
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
                shaken_value = certify(tuple(shaken))
                if shaken_value is not None:
                    weights, value = tuple(shaken), shaken_value
    return AdversaryResult(
        instance=shape.instance(best_weights),
        value=best_value,
        trace=tuple(trace),
        stop_reason="iters",
    )
