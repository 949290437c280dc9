"""Adversarial weight search: forests, the LP, and both optimizers."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphshare import adversary, simplex
from graphshare.adversary import (
    ALTERNATE_VERTEX_CAP,
    EPSILON_FLOOR,
    HILL_VERTEX_CAP,
    LIFT_FINENESS,
    MARGIN,
    AdversaryResult,
    GraphShape,
    IterationRecord,
    _certify_candidate,
    _known_seeds,
    _tie_free_lift,
    alternate_optimize,
    extract_forest,
    hill_climb,
    lp_minimize,
    tree_shapes,
)
from graphshare.core import (
    GameState,
    Instance,
    InstanceTooLargeError,
    Player,
    TieEncounteredError,
    TiePolicy,
    apply,
    bits,
    legal_moves,
    mover,
)
from graphshare.generators import gen_cycle7_family, subset_sums_distinct
from graphshare.solve import solve, value_from

from conftest import instances

SPIDER = GraphShape(
    9, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (3, 6), (4, 7), (5, 8))
)
SPIDER_SEED = (3, 3, 3, 8, 1, 2, 1030, 1002, 1002)


class TestGraphShape:
    def test_cycle(self):
        shape = GraphShape.cycle(5)
        assert shape.vertex_count == 5
        assert len(shape.edges) == 5
        with pytest.raises(ValueError):
            GraphShape.cycle(2)

    def test_round_trip_through_instance(self):
        inst = gen_cycle7_family(1000)
        shape = GraphShape(inst.vertex_count, inst.edges)
        assert shape.instance(inst.weights) == inst

    def test_tree_shape_counts(self):
        assert len(list(tree_shapes(1))) == 1
        assert len(list(tree_shapes(2))) == 1
        assert len(list(tree_shapes(4))) == 2
        assert len(list(tree_shapes(7))) == 11

    def test_tree_shapes_are_deterministic(self):
        assert list(tree_shapes(6)) == list(tree_shapes(6))


class TestExtractForest:
    def test_size_cap(self):
        shape = GraphShape.cycle(ALTERNATE_VERTEX_CAP + 1)
        with pytest.raises(InstanceTooLargeError):
            extract_forest(shape.instance([1] * (ALTERNATE_VERTEX_CAP + 1)), TiePolicy.FIRST_MOVES)

    def test_forbid_raises_on_tied_instance(self):
        inst = Instance(weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3)))
        with pytest.raises(TieEncounteredError):
            extract_forest(inst, TiePolicy.FORBID)

    @given(inst=instances(max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_node_invariants(self, inst):
        policy = TiePolicy.FIRST_MOVES
        forest = extract_forest(inst, policy)
        assert forest.vertex_count == inst.vertex_count
        nodes = forest.nodes()
        full = inst.full_mask
        for node in nodes:
            state = GameState(node.first_mask, node.second_mask)
            assert node.first_mask & node.second_mask == 0
            f, s = state.totals(inst)
            if node.terminal:
                assert state.taken_mask == full
                assert not node.tied
                continue
            assert node.tied == (f == s)
            if f < s:
                assert node.mover is Player.FIRST
            elif f > s:
                assert node.mover is Player.SECOND
            else:
                assert node.mover is Player.FIRST  # first-moves policy
        # the reference order: a depth-first walk from the openings over
        # each First state's every extension and each Second state's
        # canonical reply, the lowest-id value-keeping move, with openings
        # and successors in vertex order; a state reached again keeps its
        # first place
        expected = {}
        stack = [GameState(1 << v, 0) for v in reversed(range(inst.vertex_count))]
        while stack:
            state = stack.pop()
            key = (state.first_mask, state.second_mask)
            if key in expected:
                continue
            expected[key] = None
            if state.taken_mask == full:
                continue
            moves = sorted(legal_moves(inst, state))
            if mover(inst, state, policy) is Player.SECOND:
                value = value_from(inst, policy, state)
                moves = [
                    next(
                        v
                        for v in moves
                        if value_from(inst, policy, apply(inst, state, v, policy))
                        == value
                    )
                ]
            stack.extend(apply(inst, state, v, policy) for v in reversed(moves))
        assert [(node.first_mask, node.second_mask) for node in nodes] == list(expected)

    def test_signature_is_reproducible(self):
        inst = gen_cycle7_family(1000)
        a = extract_forest(inst, TiePolicy.FORBID)
        b = extract_forest(inst, TiePolicy.FORBID)
        assert a.signature() == b.signature()


def assert_rows_hold(forest, weights, bound):
    """Every node's row holds at the LP's point: a leaf's First total is
    at most the bound, a tied node is an equality, and a mover keeps its
    side strictly behind by MARGIN, or by 0 where the policy hands it the
    move at a tie."""
    assert sum(weights) == 1
    assert all(w >= EPSILON_FLOOR for w in weights)
    first_slack = 0 if forest.policy is TiePolicy.FIRST_MOVES else MARGIN
    second_slack = 0 if forest.policy is TiePolicy.SECOND_MOVES else MARGIN
    for node in forest.nodes():
        f = sum(weights[v] for v in bits(node.first_mask))
        s = sum(weights[v] for v in bits(node.second_mask))
        if node.terminal:
            assert f <= bound
        elif node.tied:
            assert f == s
        elif node.mover is Player.FIRST:
            assert f + first_slack <= s
        else:
            assert s + second_slack <= f


class TestLPMinimize:
    @pytest.mark.parametrize(
        "instance, policy",
        [
            (gen_cycle7_family(1000), TiePolicy.FORBID),
            (SPIDER.instance(SPIDER_SEED), TiePolicy.FIRST_MOVES),
        ],
        ids=["cycle7-forbid", "spider-first"],
    )
    def test_point_satisfies_every_row(self, instance, policy):
        forest = extract_forest(instance, policy)
        assert_rows_hold(forest, *lp_minimize(forest))

    @pytest.mark.parametrize(
        "instance, policy, calls, pivots",
        [
            (gen_cycle7_family(1000), TiePolicy.FORBID, 4, 94),
            (SPIDER.instance(SPIDER_SEED), TiePolicy.FIRST_MOVES, 4, 107),
        ],
        ids=["cycle7-forbid", "spider-first"],
    )
    def test_pivot_counts_pinned(self, instance, policy, calls, pivots, monkeypatch):
        # Bland's rule fixes every pivot, so a changed count means a
        # changed pivot sequence, which may land on another degenerate
        # vertex and move the pinned traces
        counts = {"solve_lp": 0, "_pivot": 0}

        def count(module, name):
            wrapped = getattr(module, name)

            def call(*args):
                counts[name] += 1
                return wrapped(*args)

            monkeypatch.setattr(module, name, call)

        count(adversary, "solve_lp")
        count(simplex, "_pivot")
        lp_minimize(extract_forest(instance, policy))
        assert counts == {"solve_lp": calls, "_pivot": pivots}

    @given(inst=instances(max_n=6), policy=st.sampled_from(list(TiePolicy)))
    @settings(max_examples=40, deadline=None)
    def test_point_satisfies_every_row_on_random_forests(self, inst, policy):
        try:
            forest = extract_forest(inst, policy)
        except TieEncounteredError:
            assume(False)
        assert_rows_hold(forest, *lp_minimize(forest))

    def test_tableau_entries_stay_small(self, monkeypatch):
        # only the right sides carry MARGIN's 10^9, so the fraction-free
        # minors stay near 36 bits; a 10^9 scale on the 0/+-1
        # coefficients would take them past 300
        pivot = simplex._pivot
        sizes = []

        def measured(table, basis, pivot_row, pivot_col, d):
            new_d = pivot(table, basis, pivot_row, pivot_col, d)
            entries = [a for row in table for a in row]
            sizes.append(max(abs(a).bit_length() for a in [*entries, d, new_d]))
            return new_d

        monkeypatch.setattr(simplex, "_pivot", measured)
        forest = extract_forest(SPIDER.instance(SPIDER_SEED), TiePolicy.FIRST_MOVES)
        assert_rows_hold(forest, *lp_minimize(forest))
        assert sizes and max(sizes) <= 64

    def test_single_edge_closed_form(self):
        forest = extract_forest(
            Instance(weights=(1, 2), edges=((0, 1),)), TiePolicy.FORBID
        )
        weights, bound = lp_minimize(forest)
        assert bound == Fraction(1, 2)
        assert sum(weights) == 1

    def test_cycle7_forest_bound(self):
        inst = gen_cycle7_family(1000)
        forest = extract_forest(inst, TiePolicy.FORBID)
        weights, bound = lp_minimize(forest)
        assert sum(weights) == 1
        assert all(w >= Fraction(1, 10**6) for w in weights)
        assert bound <= Fraction(1069, 3095) + Fraction(1, 10**6)


class TestTieFreeLift:
    @pytest.mark.parametrize(
        "base",
        [
            (1,) * 8,
            (5, 5, 5, 5, 3, 3, 3, 3),
            (7, 7, 14, 14, 21, 21, 28, 28),
        ],
    )
    @pytest.mark.parametrize("fineness", [1, 1000])
    def test_all_subset_sums_distinct(self, base, fineness, monkeypatch):
        # distinctness needs only a fineness of 1, not LIFT_FINENESS's margin
        monkeypatch.setattr(adversary, "LIFT_FINENESS", fineness)
        lifted = _tie_free_lift(base)
        scale = fineness << len(base)
        assert lifted == tuple(w * scale + (1 << v) for v, w in enumerate(base))
        sums = set()
        n = len(lifted)
        for r in range(n + 1):
            for combo in combinations(range(n), r):
                sums.add(sum(lifted[v] for v in combo))
        assert len(sums) == 2**n

    def test_relative_perturbation_shrinks_with_fineness(self):
        base = (1, 20, 30, 1)
        lifted = _tie_free_lift(base)
        scale = LIFT_FINENESS << 4
        for v, w in enumerate(base):
            assert lifted[v] == w * scale + (1 << v)
            assert Fraction(lifted[v] - w * scale, w * scale) < EPSILON_FLOOR

    @given(
        inst=instances(max_n=7, weight_max=4),
        policy=st.sampled_from(list(TiePolicy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_certified_candidate_always_has_its_exact_value(self, inst, policy):
        shape = GraphShape(inst.vertex_count, inst.edges)
        certified, value = _certify_candidate(shape, inst.weights, policy)
        assert isinstance(value, Fraction)
        assert value == solve(certified, policy).value
        assert certified.edges == inst.edges
        lifted = _tie_free_lift(inst.weights)
        assert certified.weights in (inst.weights, lifted)
        assert subset_sums_distinct(lifted)
        if certified.weights != inst.weights:
            # only a forbidden tie sends a candidate to its lift
            assert policy is TiePolicy.FORBID
            with pytest.raises(TieEncounteredError):
                solve(inst, policy)


class TestAlternateOptimize:
    def test_cycle7_forbid_beats_point_35(self):
        result = alternate_optimize(
            GraphShape.cycle(7), TiePolicy.FORBID, max_iters=12
        )
        assert result.value <= Fraction(35, 100)
        assert result.value >= Fraction(1, 3)
        # reported value is the exact solver's, not the LP bound
        assert solve(result.instance, TiePolicy.FORBID).value == result.value
        assert result.stop_reason in ("converged", "max_iters")
        best_so_far = None
        for record in result.trace:
            if best_so_far is not None:
                assert record.best_value <= best_so_far
            best_so_far = record.best_value

    def test_spider_seed_value_is_exact(self):
        inst = SPIDER.instance(SPIDER_SEED)
        report = solve(inst, TiePolicy.FIRST_MOVES)
        assert report.value == Fraction(1044, 3054)

    def test_spider_first_moves_beats_point_35(self):
        result = alternate_optimize(
            SPIDER, TiePolicy.FIRST_MOVES, max_iters=4
        )
        assert result.value <= Fraction(35, 100)
        assert solve(result.instance, TiePolicy.FIRST_MOVES).value == result.value

    def test_relabeled_cycles_get_the_family_seed(self):
        assert _known_seeds(GraphShape.cycle(7)) == [
            gen_cycle7_family(1000).weights
        ]
        rng = random.Random(7)
        for _ in range(10):
            perm = list(range(7))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in GraphShape.cycle(7).edges]
            rng.shuffle(edges)
            shape = GraphShape(7, tuple(edges))
            (seed,) = _known_seeds(shape)
            # laid out from vertex 0 toward its smaller neighbour
            nearer = min(perm[(perm.index(0) + step) % 7] for step in (1, -1))
            assert (seed[0], seed[nearer]) == (1000, 1015)
            value = solve(shape.instance(seed), TiePolicy.FORBID).value
            assert value == Fraction(1069, 3095)

    def test_relabeled_spider_still_recognized(self):
        perm = (4, 7, 0, 2, 8, 5, 1, 3, 6)
        edges = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in SPIDER.edges
            )
        )
        shuffled = GraphShape(9, edges)
        result = alternate_optimize(
            shuffled, TiePolicy.FIRST_MOVES, max_iters=2
        )
        assert result.value <= Fraction(1044, 3054)

    def test_single_edge_pins_one_half(self):
        result = alternate_optimize(GraphShape.single_edge(), TiePolicy.FORBID)
        assert Fraction(1, 2) < result.value <= Fraction(1, 2) + Fraction(1, 10**5)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            alternate_optimize(GraphShape.cycle(5), TiePolicy.FORBID, max_iters=0)
        big = GraphShape.cycle(ALTERNATE_VERTEX_CAP + 1)
        with pytest.raises(InstanceTooLargeError):
            alternate_optimize(big, TiePolicy.FORBID)


def _record(iteration, lp_bound, candidate_value, best_value):
    return IterationRecord(
        iteration, Fraction(lp_bound), Fraction(candidate_value), Fraction(best_value)
    )


SPIDER_BEST = "125005003/375000000"
CYCLE7_BEST = "187502003/562500000"
ONE_HALF_PLUS = "1000000001/2000000000"


class TestPinnedTraces:
    """Full traces and final instances of two runs, as the exact LP found
    them.  A degenerate LP has several optimal vertices; an LP change that
    lands on another one changes these and fails here."""

    def test_gated_spider_first_moves(self):
        result = alternate_optimize(SPIDER, TiePolicy.FIRST_MOVES, max_iters=4)
        assert result.value == Fraction(SPIDER_BEST)
        assert result.instance == SPIDER.instance(
            (6003, 6003, 6003, 15009, 3000, 3003, 1000013009, 999973985, 999973985)
        )
        assert result.stop_reason == "max_iters"
        assert result.trace == (
            _record(0, SPIDER_BEST, SPIDER_BEST, SPIDER_BEST),
            _record(1, "1/2", "1/2", SPIDER_BEST),
            _record(2, ONE_HALF_PLUS, ONE_HALF_PLUS, SPIDER_BEST),
            _record(3, ONE_HALF_PLUS, ONE_HALF_PLUS, SPIDER_BEST),
        )

    def test_cycle7_forbid(self):
        shape = GraphShape.cycle(7)
        result = alternate_optimize(shape, TiePolicy.FORBID)
        assert result.value == Fraction(CYCLE7_BEST)
        assert result.instance == shape.instance(
            (2999971967, 2999983985, 12027, 9000, 9018, 2999995985, 18018)
        )
        assert result.stop_reason == "converged"
        assert result.trace == (
            _record(0, CYCLE7_BEST, CYCLE7_BEST, CYCLE7_BEST),
            _record(1, "1/2", "64000000000000064/128000000000000127", CYCLE7_BEST),
        )


class TestHillClimb:
    def test_deterministic_and_sound(self):
        shape = GraphShape.cycle(7)
        a = hill_climb(shape, TiePolicy.FORBID, seed=0, iters=60)
        b = hill_climb(shape, TiePolicy.FORBID, seed=0, iters=60)
        assert a.instance.weights == b.instance.weights
        assert a.value == b.value
        assert a.stop_reason == "iters"
        assert a.value <= Fraction(1069, 3095)
        assert solve(a.instance, TiePolicy.FORBID).value == a.value

    def test_size_cap(self):
        big = GraphShape.cycle(HILL_VERTEX_CAP + 1)
        with pytest.raises(InstanceTooLargeError):
            hill_climb(big, TiePolicy.FORBID, seed=0, iters=5)

    @pytest.mark.parametrize("iters", [0, -5])
    def test_refuses_no_iterations(self, iters):
        with pytest.raises(ValueError, match="iters must be at least 1"):
            hill_climb(GraphShape.cycle(7), TiePolicy.FORBID, seed=0, iters=iters)

    def test_size_cap_checked_before_iters(self):
        big = GraphShape.cycle(HILL_VERTEX_CAP + 1)
        with pytest.raises(InstanceTooLargeError):
            hill_climb(big, TiePolicy.FORBID, seed=0, iters=0)

    def test_result_type(self):
        result = hill_climb(GraphShape.single_edge(), TiePolicy.FORBID, seed=3, iters=20)
        assert isinstance(result, AdversaryResult)
        assert result.trace[0].iteration == 0
