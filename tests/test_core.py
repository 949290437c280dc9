"""Rules engine: states, movers, legal moves, refereed play."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphshare.core import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GameState,
    IllegalMoveError,
    Instance,
    NonPositiveWeightError,
    Player,
    SelfLoopError,
    TieEncounteredError,
    TiePolicy,
    apply,
    bits,
    legal_moves,
    mask_to_set,
    mover,
    play_out,
    validate_state,
)
from graphshare.solve import canonical_strategy, solve

from conftest import instances

PATH3 = Instance(weights=(5, 2, 9), edges=((0, 1), (1, 2)))
TRIANGLE = Instance(weights=(1, 2, 4), edges=((0, 1), (0, 2), (1, 2)))


class TestInstanceValidation:
    def test_single_vertex(self):
        inst = Instance(weights=(7,), edges=())
        assert inst.vertex_count == 1
        assert inst.total_weight == 7

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            Instance(weights=(1, 2), edges=((0, 0), (0, 1)))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            Instance(weights=(1, 2), edges=((0, 1), (1, 0)))

    def test_non_positive_weight(self):
        with pytest.raises(NonPositiveWeightError):
            Instance(weights=(1, 0), edges=((0, 1),))

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            Instance(weights=(1, 1, 1, 1), edges=((0, 1), (2, 3)))

    def test_edge_out_of_range(self):
        with pytest.raises(Exception):
            Instance(weights=(1, 2), edges=((0, 2),))

    def test_non_integer_input_is_refused_not_truncated(self):
        edges = ((0, 1), (1, 2))
        for bad, message in (
            ((1.9, 2, 3), "vertex 0 has non-integer weight 1.9"),
            ((1, Fraction(5, 2), 3), r"vertex 1 has non-integer weight Fraction\(5, 2\)"),
        ):
            with pytest.raises(TypeError, match=message):
                Instance(weights=bad, edges=edges)
        with pytest.raises(TypeError, match=r"edge \(0, 1.7\) has a non-integer end"):
            Instance(weights=(1, 2, 3), edges=((0, 1.7), (1, 2)))
        # integer-like types still convert to int
        assert Instance(weights=(True, 2), edges=((False, 1),)).weights == (1, 2)


class TestMasks:
    def test_bits_round_trip(self):
        assert list(bits(0b10110)) == [1, 2, 4]
        assert mask_to_set(0b10110) == frozenset({1, 2, 4})

    def test_empty(self):
        assert list(bits(0)) == []
        assert mask_to_set(0) == frozenset()


class TestMover:
    def test_empty_state_is_firsts(self):
        for policy in TiePolicy:
            assert mover(PATH3, GameState(), policy) is Player.FIRST

    def test_behind_player_moves(self):
        state = GameState(first_mask=0b001, second_mask=0b010)  # 5 vs 2
        for policy in TiePolicy:
            assert mover(PATH3, state, policy) is Player.SECOND
        state = GameState(first_mask=0b010, second_mask=0b001)  # 2 vs 5
        for policy in TiePolicy:
            assert mover(PATH3, state, policy) is Player.FIRST

    def test_tie_policies(self):
        equal = Instance(weights=(3, 3, 1), edges=((0, 1), (1, 2)))
        state = GameState(first_mask=0b001, second_mask=0b010)
        assert mover(equal, state, TiePolicy.FIRST_MOVES) is Player.FIRST
        assert mover(equal, state, TiePolicy.SECOND_MOVES) is Player.SECOND
        with pytest.raises(TieEncounteredError) as err:
            mover(equal, state, TiePolicy.FORBID)
        assert err.value.first_mask == 0b001
        assert err.value.second_mask == 0b010


class TestLegalMoves:
    def test_opening_anywhere(self):
        assert legal_moves(PATH3, GameState()) == {0, 1, 2}

    def test_frontier_of_the_union(self):
        state = GameState(first_mask=0b001, second_mask=0)
        assert legal_moves(PATH3, state) == {1}
        state = GameState(first_mask=0b001, second_mask=0b010)
        assert legal_moves(PATH3, state) == {2}

    def test_apply_rejects_taken_and_unreachable(self):
        state = GameState(first_mask=0b001, second_mask=0)
        with pytest.raises(IllegalMoveError):
            apply(PATH3, state, 0, TiePolicy.FORBID)
        with pytest.raises(IllegalMoveError):
            apply(PATH3, state, 2, TiePolicy.FORBID)
        with pytest.raises(IllegalMoveError):
            apply(PATH3, state, 9, TiePolicy.FORBID)

    def test_apply_assigns_to_mover(self):
        state = apply(PATH3, GameState(), 0, TiePolicy.FORBID)
        assert state == GameState(first_mask=0b001, second_mask=0)
        state = apply(PATH3, state, 1, TiePolicy.FORBID)
        assert state == GameState(first_mask=0b001, second_mask=0b010)


class TestValidateState:
    def test_accepts_legal(self):
        validate_state(PATH3, GameState(first_mask=0b001, second_mask=0b010))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            validate_state(PATH3, GameState(first_mask=1, second_mask=1))

    def test_rejects_second_without_first(self):
        with pytest.raises(ValueError):
            validate_state(PATH3, GameState(first_mask=0, second_mask=1))

    def test_rejects_disconnected_region(self):
        with pytest.raises(ValueError):
            validate_state(PATH3, GameState(first_mask=0b101, second_mask=0))


class TestPlayOut:
    def test_full_game_partition(self):
        outcome = play_out(
            TRIANGLE,
            TiePolicy.FORBID,
            canonical_strategy(TRIANGLE, TiePolicy.FORBID),
            canonical_strategy(TRIANGLE, TiePolicy.FORBID),
        )
        assert outcome.first_mask | outcome.second_mask == TRIANGLE.full_mask
        assert outcome.first_mask & outcome.second_mask == 0
        assert outcome.first_value == Fraction(4, 7)

    def test_illegal_strategy_reports_step(self):
        def bad(instance, state):
            return 99

        with pytest.raises(IllegalMoveError) as err:
            play_out(TRIANGLE, TiePolicy.FORBID, bad, bad)
        assert err.value.step == 0

    def test_totals_are_carried_not_summed_per_move(self, monkeypatch):
        # the referee carries both totals, so no move re-sums a holding
        # to find its mover
        path12 = Instance(
            weights=tuple(range(1, 13)), edges=tuple((i, i + 1) for i in range(11))
        )
        sums = []
        weight_of = Instance.weight_of

        def counted(instance, mask):
            sums.append(mask)
            return weight_of(instance, mask)

        monkeypatch.setattr(Instance, "weight_of", counted)
        greedy = lambda inst, state: min(legal_moves(inst, state))
        outcome = play_out(path12, TiePolicy.FIRST_MOVES, greedy, greedy)
        assert len(outcome.move_log) == 12
        assert len(sums) <= 13

    def test_mid_game_tie_raises_under_forbid(self):
        path4 = Instance(
            weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3))
        )
        greedy = lambda inst, state: min(legal_moves(inst, state))
        with pytest.raises(TieEncounteredError):
            play_out(path4, TiePolicy.FORBID, greedy, greedy)
        # the tied step goes to F under first-moves (F takes 0,2) and to
        # S under second-moves (S takes 1,2); both end 2 against 2
        outcome = play_out(path4, TiePolicy.FIRST_MOVES, greedy, greedy)
        assert outcome.first_set == frozenset({0, 2})
        assert outcome.first_value == Fraction(1, 2)
        outcome = play_out(path4, TiePolicy.SECOND_MOVES, greedy, greedy)
        assert outcome.first_set == frozenset({0, 3})
        assert outcome.first_value == Fraction(1, 2)


@settings(max_examples=60, deadline=None)
@given(instances(max_n=6, weight_max=9), st.sampled_from(list(TiePolicy)))
def test_play_out_invariants(instance, policy):
    """Any completed refereed game partitions the vertices, alternates by
    the strictly-behind rule, and grows a connected taken region."""
    greedy = lambda inst, state: min(legal_moves(inst, state))
    try:
        outcome = play_out(instance, policy, greedy, greedy)
    except TieEncounteredError:
        assert policy is TiePolicy.FORBID
        return
    assert outcome.first_mask | outcome.second_mask == instance.full_mask
    assert outcome.first_mask & outcome.second_mask == 0
    assert outcome.first_value + Fraction(
        instance.weight_of(outcome.second_mask), instance.total_weight
    ) == 1
    # replay the log, re-deriving the mover independently at every step
    f = s = 0
    fm = sm = 0
    for step, (player, v) in enumerate(outcome.move_log):
        if step == 0:
            expected = Player.FIRST
        elif f < s:
            expected = Player.FIRST
        elif f > s:
            expected = Player.SECOND
        else:
            expected = (
                Player.FIRST
                if policy is TiePolicy.FIRST_MOVES
                else Player.SECOND
            )
        assert player is expected
        taken = fm | sm
        assert instance.is_connected_mask(taken | (1 << v))
        if step > 0:
            assert (1 << v) & instance.reach_mask(taken) & ~taken
        if player is Player.FIRST:
            fm |= 1 << v
            f += instance.weights[v]
        else:
            sm |= 1 << v
            s += instance.weights[v]
    assert fm == outcome.first_mask and sm == outcome.second_mask


@settings(max_examples=40, deadline=None)
@given(instances(max_n=6, weight_max=9))
def test_canonical_self_play_matches_solver(instance):
    policy = TiePolicy.FIRST_MOVES
    strategy = canonical_strategy(instance, policy)
    outcome = play_out(instance, policy, strategy, strategy)
    assert outcome.first_value == solve(instance, policy).value
