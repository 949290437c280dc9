"""Exact-solver checks against closed forms and structural invariants."""

from __future__ import annotations

import gc
import re
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphshare.core import (
    GameState,
    Instance,
    InstanceTooLargeError,
    Player,
    TieEncounteredError,
    TiePolicy,
    apply,
    bits,
    legal_move_mask,
    legal_moves,
    mover,
    mover_at,
    play_out,
)
from graphshare.adversary import (
    GraphShape,
    alternate_optimize,
    extract_forest,
    hill_climb,
    tree_shapes,
)
from graphshare.generators import (
    gen_cycle7_family,
    gen_random_connected,
    gen_random_tree,
)
from graphshare.oracle import audit_lines, brute_value
from graphshare.solve import (
    _Search,
    canonical_strategy,
    format_line,
    optimal_responses,
    principal_line,
    response_map,
    solve,
    value_at_least,
    value_from,
)
from graphshare.verify import run_suite

from conftest import instances, permute_instance, tree_instances

ALL_POLICIES = (TiePolicy.FORBID, TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)


def path(weights):
    n = len(weights)
    return Instance(
        weights=tuple(weights), edges=tuple((i, i + 1) for i in range(n - 1))
    )


class TestClosedForms:
    def test_single_vertex(self):
        report = solve(Instance(weights=(9,), edges=()), TiePolicy.FORBID)
        assert report.value == Fraction(1)
        assert report.best_start == 0
        assert report.per_start[0].line == ((Player.FIRST, 0),)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 50])
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_edge_value(self, k, policy):
        report = solve(path([k, k + 1]), policy)
        assert report.value == Fraction(k + 1, 2 * k + 1)
        assert report.best_start == 1

    def test_equal_edge_terminal_tie(self):
        # solve certifies tie-freedom outright, so an equal final split
        # raises; the referee still finishes such a game because no tied
        # mover decision ever arises
        with pytest.raises(TieEncounteredError):
            solve(path([1, 1]), TiePolicy.FORBID)
        assert solve(path([1, 1]), TiePolicy.FIRST_MOVES).value == Fraction(1, 2)
        greedy = lambda inst, state: min(legal_moves(inst, state))
        outcome = play_out(path([1, 1]), TiePolicy.FORBID, greedy, greedy)
        assert outcome.first_value == Fraction(1, 2)

    def test_triangle(self):
        inst = Instance(weights=(1, 2, 4), edges=((0, 1), (1, 2), (0, 2)))
        report = solve(inst, TiePolicy.FORBID)
        assert report.value == Fraction(4, 7)
        assert report.best_start == 2

    @pytest.mark.parametrize(
        "edges", [((0, 1), (1, 2)), ((0, 1), (1, 2), (0, 2))], ids=["path", "triangle"]
    )
    def test_three_unit_weights_are_tight_under_the_tie_policies(self, edges):
        # after the opening and Second's reply the totals tie at 1-1, and
        # the policy hands the last vertex to its mover: under second the
        # 1/3 floor is attained, and the path, a tree, is already below 1/2
        inst = Instance(weights=(1, 1, 1), edges=edges)
        assert solve(inst, TiePolicy.SECOND_MOVES).value == Fraction(1, 3)
        assert solve(inst, TiePolicy.FIRST_MOVES).value == Fraction(2, 3)

    @pytest.mark.parametrize("m", [1000, 100000])
    def test_cycle7_family_value(self, m):
        inst = gen_cycle7_family(m)
        report = solve(inst, TiePolicy.FORBID)
        assert report.value == Fraction(m + 69, 3 * m + 95)
        # the low-weight vertex 4 is among Second's optimal replies to an
        # opening at its low-weight neighbour 3
        assert 4 in optimal_responses(inst, TiePolicy.FORBID, 3)

    def test_all_equal_path_raises_under_forbid(self):
        with pytest.raises(TieEncounteredError):
            solve(path([1, 1, 1, 1]), TiePolicy.FORBID)


class TestValueFrom:
    def test_second_holding_exactly_half_is_a_tie_only_under_forbid(self):
        # Second holds 2 of 4 and First takes the rest: a tied final split
        inst = path([1, 2, 1])
        state = GameState(0b001, 0b010)
        with pytest.raises(TieEncounteredError) as raised:
            value_from(inst, TiePolicy.FORBID, state)
        assert (raised.value.first_mask, raised.value.second_mask) == (0b101, 0b010)
        for policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES):
            assert value_from(inst, policy, state) == Fraction(1, 2)

    def test_masks_outside_the_instance_are_refused(self):
        inst = path([1, 2, 1])
        outside = "^state references vertices outside the instance$"
        for state in (GameState(1 << 3, 0), GameState(1, 1 << 5)):
            for policy in ALL_POLICIES:
                with pytest.raises(ValueError, match=outside):
                    value_from(inst, policy, state)


class TestSizeCap:
    def test_solve_rejects_19_vertices(self):
        big = path([1] * 19)
        with pytest.raises(InstanceTooLargeError):
            solve(big, TiePolicy.FIRST_MOVES)
        with pytest.raises(InstanceTooLargeError):
            response_map(big, TiePolicy.FIRST_MOVES)

    def test_18_vertices_allowed(self):
        report = solve(path(range(1, 19)), TiePolicy.FIRST_MOVES)
        assert 0 < report.value < 1


class TestLines:
    def test_format_line(self):
        line = ((Player.FIRST, 2), (Player.SECOND, 0), (Player.SECOND, 1))
        assert format_line(line) == "F2,S0,S1"

    def test_principal_line_rejects_bad_start(self):
        inst = path([1, 2])
        with pytest.raises(ValueError):
            principal_line(inst, TiePolicy.FORBID, 5)

    def test_canonical_self_play_reproduces_principal_line(self):
        inst = gen_cycle7_family(1000)
        policy = TiePolicy.FORBID
        report = solve(inst, policy)
        strategy = canonical_strategy(inst, policy)
        outcome = play_out(inst, policy, strategy, strategy)
        assert outcome.move_log == principal_line(inst, policy, report.best_start)
        assert outcome.first_value == report.value

    def test_canonical_strategy_rejects_invalid_and_finished_states(self):
        inst = path([1, 2, 3])
        for policy in ALL_POLICIES:
            strategy = canonical_strategy(inst, policy)
            with pytest.raises(ValueError, match="before First opened"):
                strategy(inst, GameState(0, 1))
            with pytest.raises(ValueError, match="no legal move, the game is over"):
                strategy(inst, GameState(0b101, 0b010))

    def test_value_constant_along_principal_line(self):
        inst = gen_cycle7_family(1000)
        policy = TiePolicy.FORBID
        report = solve(inst, policy)
        entry = report.per_start[report.best_start]
        state = GameState(first_mask=0, second_mask=0)
        for who, vertex in entry.line:
            state = apply(inst, state, vertex, policy)
            moved = Player.FIRST if state.first_mask & (1 << vertex) else Player.SECOND
            assert moved is who
            assert value_from(inst, policy, state) == entry.value


class TestResponses:
    def test_replies_are_neighbours(self):
        inst = gen_cycle7_family(1000)
        for start in range(7):
            replies = optimal_responses(inst, TiePolicy.FORBID, start)
            assert replies
            assert list(replies) == sorted(replies)
            for r in replies:
                assert inst.neighbor_masks[start] & (1 << r)

    def test_response_map_picks_lowest_reply(self):
        inst = gen_cycle7_family(1000)
        table = response_map(inst, TiePolicy.FORBID)
        assert set(table) == set(range(7))
        for start, reply in table.items():
            assert reply == optimal_responses(inst, TiePolicy.FORBID, start)[0]

    def test_single_vertex_has_no_responses(self):
        lone = Instance(weights=(3,), edges=())
        single = "responses need at least two vertices"
        with pytest.raises(ValueError, match=single):
            optimal_responses(lone, TiePolicy.FORBID, 0)
        with pytest.raises(ValueError, match=single):
            response_map(lone, TiePolicy.FORBID)
        pair = path([1, 2])
        for start in (-1, pair.vertex_count):
            missing = f"start vertex {start} does not exist"
            with pytest.raises(ValueError, match=missing):
                optimal_responses(pair, TiePolicy.FORBID, start)
            with pytest.raises(ValueError, match=missing):
                principal_line(pair, TiePolicy.FORBID, start)

    def test_tie_masks_raised_by_the_opening_search_are_pinned(self):
        # both views first search the opening's replies in vertex order, so
        # on a fresh search they meet the same first tie: a tied final
        # split (starts 0 and 1) or a tied state of play
        inst = path([4, 1, 2, 3, 1, 1])
        pinned = {
            0: (0b110001, 0b001110),
            1: (0b001110, 0b110001),
            2: (0b001100, 0b000011),
            3: (0b001000, 0b000110),
            4: (0b010100, 0b001000),
            5: (0b100000, 0b010000),
        }
        for start, masks in pinned.items():
            for view in (optimal_responses, principal_line):
                with pytest.raises(TieEncounteredError) as raised:
                    view(inst, TiePolicy.FORBID, start)
                assert (raised.value.first_mask, raised.value.second_mask) == masks


@given(inst=instances(), scale=st.integers(min_value=2, max_value=7))
def test_value_invariant_under_weight_scaling(inst, scale):
    scaled = Instance(
        weights=tuple(w * scale for w in inst.weights), edges=inst.edges
    )
    for policy in ALL_POLICIES:
        try:
            base = solve(inst, policy).value
        except TieEncounteredError:
            with pytest.raises(TieEncounteredError):
                solve(scaled, policy)
            continue
        assert solve(scaled, policy).value == base


@given(inst=instances(), data=st.data())
def test_solver_is_label_equivariant(inst, data):
    n = inst.vertex_count
    perm = data.draw(st.permutations(range(n)))
    relabeled = permute_instance(inst, perm)
    policy = TiePolicy.FIRST_MOVES
    report = solve(inst, policy)
    other = solve(relabeled, policy)
    assert other.value == report.value
    for start in range(n):
        assert (
            other.per_start[perm[start]].value == report.per_start[start].value
        )
    if n >= 2:
        start = data.draw(st.integers(min_value=0, max_value=n - 1))
        replies = optimal_responses(inst, policy, start)
        mapped = optimal_responses(relabeled, policy, perm[start])
        assert {perm[r] for r in replies} == set(mapped)


@given(inst=instances())
@settings(max_examples=60)
def test_lines_partition_all_vertices(inst):
    policy = TiePolicy.SECOND_MOVES
    report = solve(inst, policy)
    assert report.value == max(e.value for e in report.per_start)
    assert report.best_start == min(
        e.start for e in report.per_start if e.value == report.value
    )
    for entry in report.per_start:
        assert len(entry.line) == inst.vertex_count
        assert {v for _, v in entry.line} == set(range(inst.vertex_count))
        assert entry.line[0] == (Player.FIRST, entry.start)
        first_total = sum(inst.weights[v] for who, v in entry.line if who is Player.FIRST)
        assert Fraction(first_total, inst.total_weight) == entry.value


@given(
    inst=instances(max_n=7, weight_max=4),
    policy=st.sampled_from((TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)),
)
@settings(max_examples=80)
def test_views_agree_on_tied_play(inst, policy):
    # small weights reach tied totals, where the tie policy picks the mover
    report = solve(inst, policy)
    replies = response_map(inst, policy)
    for entry in report.per_start:
        line = principal_line(inst, policy, entry.start)
        assert entry.line == line
        state = GameState()
        for who, vertex in line:
            assert mover(inst, state, policy) is who
            state = apply(inst, state, vertex, policy)
        first_reply = optimal_responses(inst, policy, entry.start)[0]
        assert line[1][1] == first_reply == replies[entry.start]
    strategy = canonical_strategy(inst, policy)
    outcome = play_out(inst, policy, strategy, strategy)
    assert outcome.move_log == report.per_start[report.best_start].line
    nodes = extract_forest(inst, policy).nodes()
    states = {(node.first_mask, node.second_mask) for node in nodes}
    for node in nodes:
        if node.mover is not Player.SECOND:
            continue
        state = GameState(node.first_mask, node.second_mask)
        value = value_from(inst, policy, state)
        reply = min(
            v
            for v in legal_moves(inst, state)
            if value_from(inst, policy, apply(inst, state, v, policy)) == value
        )
        assert (node.first_mask, node.second_mask | 1 << reply) in states


def _closed_form_key(search, state):
    """The memo key of a search state, written from the width rule: the
    gap and the taken set, or both holdings."""
    fm, sm, f, s, _reach, _key = state
    n = search.instance.vertex_count
    if search.gap_key:
        return ((f - s) << n) | fm | sm
    return (fm << n) | sm


@given(
    inst=st.one_of(
        instances(max_n=7, weight_max=6), instances(max_n=7, weight_max=10**9)
    )
)
@settings(max_examples=60, deadline=None)
def test_optimal_moves_are_the_value_keeping_moves(inst):
    # on every canonical line and at every forest node, the search's
    # moves are the legal moves in vertex order, with their children,
    # and its canonical move the lowest-id one whose child keeps the
    # state's value, for either mover; small weights take the gap key
    # and large ones the pair key, and every state carries its closed
    # form: both holdings, their totals, their reach and the key
    for policy in ALL_POLICIES:
        try:
            report = solve(inst, policy)
        except TieEncounteredError:
            assert policy is TiePolicy.FORBID
            continue
        states = set()
        for entry in report.per_start:
            state = GameState()
            for _who, vertex in entry.line:
                states.add(state)
                state = apply(inst, state, vertex, policy)
        for node in extract_forest(inst, policy).nodes():
            if not node.terminal:
                states.add(GameState(node.first_mask, node.second_mask))
        search = _Search(inst, policy)
        for state in states:
            here = search.state(state.first_mask, state.second_mask)
            who = mover(inst, state, policy)
            value = value_from(inst, policy, state)
            legal, expected = [], []
            for v in sorted(legal_moves(inst, state)):
                child = apply(inst, state, v, policy)
                move = (v, search.state(child.first_mask, child.second_mask))
                legal.append(move)
                if value_from(inst, policy, child) == value:
                    expected.append(move)
            # state, moves and canonical all build states with child, so
            # each carried state is checked against its closed form
            for carried in [here] + [child for _v, child in legal]:
                fm, sm = carried[0], carried[1]
                assert carried == (
                    fm,
                    sm,
                    inst.weight_of(fm),
                    inst.weight_of(sm),
                    inst.reach_mask(fm | sm),
                    _closed_form_key(search, carried),
                )
            # moves lists the legal moves of the player its caller names,
            # and both callers name it at opened states only
            if state.taken_mask:
                assert search.moves(*here, who is Player.FIRST) == legal
            search.best(*here)
            assert search.canonical(*here) == (who, expected[0])


def _lowest_value_keeping_move(inst, policy, state):
    """The canonical move by definition: the lowest legal vertex whose
    child keeps ``value_from``'s value at ``state``."""
    value = value_from(inst, policy, state)
    return min(
        v
        for v in legal_moves(inst, state)
        if value_from(inst, policy, apply(inst, state, v, policy)) == value
    )


@given(
    case=st.one_of(
        st.tuples(
            instances(max_n=7, weight_max=4),
            st.sampled_from((TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)),
        ),
        st.tuples(instances(max_n=7, weight_max=10**9), st.just(TiePolicy.FORBID)),
    )
)
@settings(max_examples=80, deadline=None)
def test_canonical_play_is_the_lowest_value_keeping_move(case):
    # small weights use the gap key and reach ties that the policy
    # settles; large ones use the pair key, and forbid skips tied draws
    inst, policy = case
    try:
        report = solve(inst, policy)
    except TieEncounteredError:
        assert policy is TiePolicy.FORBID
        return
    strategy = canonical_strategy(inst, policy)
    assert strategy(inst, GameState()) == report.best_start
    for entry in report.per_start:
        state = GameState(1 << entry.start)
        for who, vertex in entry.line[1:]:
            assert who is mover(inst, state, policy)
            expected = _lowest_value_keeping_move(inst, policy, state)
            assert vertex == expected
            assert strategy(inst, state) == expected
            state = apply(inst, state, vertex, policy)


def _solve_outcome(inst, policy):
    """Per-start values and lines with the state count, or the tie state."""
    try:
        report = solve(inst, policy)
    except TieEncounteredError as exc:
        return ("tie", exc.first_mask, exc.second_mask), None
    per_start = [(e.start, e.value, e.line) for e in report.per_start]
    return ("ok", per_start), report.state_count


@given(inst=instances(max_n=7, weight_max=4))
@settings(max_examples=80)
def test_gap_key_matches_pair_key(inst):
    # scaling by 2**(30 - n) keeps every value, line and tied state but
    # pushes the total past the gap key's width, onto the pair key
    scale = 1 << (30 - inst.vertex_count)
    scaled = Instance(tuple(w * scale for w in inst.weights), inst.edges)
    assert _Search(inst, TiePolicy.FORBID).gap_key
    assert not _Search(scaled, TiePolicy.FORBID).gap_key
    for policy in ALL_POLICIES:
        outcome, states = _solve_outcome(inst, policy)
        scaled_outcome, scaled_states = _solve_outcome(scaled, policy)
        assert outcome == scaled_outcome
        if states is not None:
            assert states <= scaled_states


def test_gap_key_merges_splits_of_one_taken_set():
    inst = path([1] * 8)
    scaled = path([1 << 22] * 8)
    for policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES):
        assert solve(inst, policy).state_count < solve(scaled, policy).state_count


class TestHalfHolderCut:
    # a player holding half the total never moves again, so such states
    # are decided without a memo entry

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_star_stores_only_the_leaf_openings(self, policy):
        # the center holds 10 of 14: opening there decides the game, and
        # after a leaf opening Second's one move, the center, decides it
        star = Instance((10, 1, 1, 1, 1), ((0, 1), (0, 2), (0, 3), (0, 4)))
        report = solve(star, policy)
        assert report.value == Fraction(5, 7)
        assert report.state_count == 4

    def test_cycle7_family_stores_only_undecided_states(self):
        # two of the three heavy vertices already hold half
        report = solve(gen_cycle7_family(1000), TiePolicy.FORBID)
        assert report.value == Fraction(1069, 3095)
        assert report.state_count == 157


def _minimax(inst, policy, fm, sm, f, s):
    """First's final total from (fm, sm) by plain minimax: every legal
    move expanded, in vertex order, with no memo and no cut, the mover
    from ``core.mover_at``, and TieEncounteredError raised at the first
    tied state met, a tied final split included."""
    if fm | sm == inst.full_mask:
        if policy is TiePolicy.FORBID and f == s:
            raise TieEncounteredError(fm, sm)
        return f
    first_moves = mover_at(fm, sm, f, s, policy) is Player.FIRST
    values = []
    for v in bits(legal_move_mask(inst, GameState(fm, sm))):
        w = inst.weights[v]
        if first_moves:
            values.append(_minimax(inst, policy, fm | 1 << v, sm, f + w, s))
        else:
            values.append(_minimax(inst, policy, fm, sm | 1 << v, f, s + w))
    return max(values) if first_moves else min(values)


def _reference(inst, policy, state):
    """``_minimax``'s share from ``state``, or the masks of its tie."""
    f, s = state.totals(inst)
    try:
        raw = _minimax(inst, policy, state.first_mask, state.second_mask, f, s)
    except TieEncounteredError as exc:
        return "tie", (exc.first_mask, exc.second_mask)
    return "value", Fraction(raw, inst.total_weight)


def _tie_masks(view, *args):
    """The masks of the tie that ``view(*args)`` raises, or None."""
    try:
        view(*args)
    except TieEncounteredError as exc:
        return exc.first_mask, exc.second_mask
    return None


@given(
    inst=st.one_of(
        tree_instances(max_n=7, weight_max=4),
        instances(max_n=7, weight_max=4),
        tree_instances(max_n=7, weight_max=10**9),
        instances(max_n=7, weight_max=10**9),
    ),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_search_matches_unpruned_minimax(inst, data):
    # the value search cuts and memoizes; a full expansion in the same
    # order must give the same values and meet the same first tie
    n = inst.vertex_count
    fm = 1 << data.draw(st.integers(0, n - 1))
    sm = 0
    for _ in range(data.draw(st.integers(0, n - 1))):
        v = data.draw(st.sampled_from(sorted(legal_moves(inst, GameState(fm, sm)))))
        if data.draw(st.booleans()):
            fm |= 1 << v
        else:
            sm |= 1 << v
    state = GameState(fm, sm)
    for policy in ALL_POLICIES:
        openings = [_reference(inst, policy, GameState(1 << v)) for v in range(n)]
        ties = [masks for kind, masks in openings if kind == "tie"]
        if ties:
            assert _tie_masks(solve, inst, policy) == ties[0]
        else:
            report = solve(inst, policy)
            values = [value for _kind, value in openings]
            assert [entry.value for entry in report.per_start] == values
            assert report.best_start == values.index(max(values))
        for start, (kind, outcome) in enumerate(openings):
            masks = outcome if kind == "tie" else None
            assert _tie_masks(principal_line, inst, policy, start) == masks
        kind, outcome = _reference(inst, policy, state)
        if kind == "tie":
            assert _tie_masks(value_from, inst, policy, state) == outcome
        else:
            assert value_from(inst, policy, state) == outcome


def _recorded_solve(inst, policy, keep):
    """``keep(search)`` for each search that ``solve(inst, policy)``
    built, taken as it was built."""
    kept = []

    class Recorded(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(keep(self))

    with mock.patch("graphshare.solve._Search", Recorded):
        solve(inst, policy)
    return kept


def _solved_search(inst, policy):
    """The search that ``solve(inst, policy)`` ran, after it returned."""
    return _recorded_solve(inst, policy, lambda search: search)[0]


def _split_with_gap(inst, taken, d):
    """Some ``(fm, sm)`` that splits ``taken`` with ``f - s == d``."""
    for fm in range(taken + 1):
        if fm & ~taken == 0:
            sm = taken ^ fm
            if inst.weight_of(fm) - inst.weight_of(sm) == d:
                return fm, sm
    raise AssertionError(f"no split of {taken:b} has gap {d}")


@given(
    inst=st.one_of(
        instances(max_n=7, weight_max=4), instances(max_n=7, weight_max=10**9)
    )
)
@settings(max_examples=100, deadline=None)
def test_memo_holds_final_totals(inst):
    # either memo key fixes both totals, so each entry is First's final
    # total at any state its key names
    n = inst.vertex_count
    for policy in ALL_POLICIES:
        try:
            search = _solved_search(inst, policy)
        except TieEncounteredError:
            continue
        for key, total in search.memo.items():
            if search.gap_key:
                fm, sm = _split_with_gap(inst, key & inst.full_mask, key >> n)
            else:
                fm, sm = key >> n, key & inst.full_mask
            f, s = inst.weight_of(fm), inst.weight_of(sm)
            assert _minimax(inst, policy, fm, sm, f, s) == total


@given(
    inst=st.one_of(
        instances(max_n=7, weight_max=4), instances(max_n=7, weight_max=10**9)
    )
)
@settings(max_examples=100, deadline=None)
def test_canonical_moves_are_recorded_under_the_memo_keys(inst):
    # best records one move per stored state, and it is legal at any
    # state its key names
    n = inst.vertex_count
    for policy in ALL_POLICIES:
        try:
            search = _solved_search(inst, policy)
        except TieEncounteredError:
            continue
        assert search.canon.keys() == search.memo.keys()
        for key, v in search.canon.items():
            if search.gap_key:
                fm, sm = _split_with_gap(inst, key & inst.full_mask, key >> n)
            else:
                fm, sm = key >> n, key & inst.full_mask
            assert legal_move_mask(inst, GameState(fm, sm)) >> v & 1


class _PlainSearch:
    """The value search without screening, as a plain recursion: each
    child gets a full call, which first decides it, then reads the memo
    under a key built from scratch, and only then expands it."""

    def __init__(self, inst, policy):
        self.inst = inst
        self.forbid = policy is TiePolicy.FORBID
        self.policy = policy
        self.total = inst.total_weight
        self.half = (self.total + 1) // 2
        self.gap_key = self.total.bit_length() + inst.vertex_count <= 30
        self.memo = {}
        self.canon = {}

    def best(self, fm, sm, f, s):
        inst, n = self.inst, self.inst.vertex_count
        if f >= self.half:
            if self.forbid and 2 * f == self.total:
                raise TieEncounteredError(fm, inst.full_mask & ~fm)
            return f
        if s >= self.half:
            if self.forbid and 2 * s == self.total:
                raise TieEncounteredError(inst.full_mask & ~sm, sm)
            return self.total - s
        key = ((f - s) << n) | fm | sm if self.gap_key else (fm << n) | sm
        if key in self.memo:
            return self.memo[key]
        first_moves = mover_at(fm, sm, f, s, self.policy) is Player.FIRST
        values = {}
        for v in bits(legal_move_mask(inst, GameState(fm, sm))):
            w = inst.weights[v]
            if first_moves:
                values[v] = self.best(fm | 1 << v, sm, f + w, s)
            else:
                values[v] = self.best(fm, sm | 1 << v, f, s + w)
        keep = max(values.values()) if first_moves else min(values.values())
        self.memo[key] = keep
        self.canon[key] = min(v for v, value in values.items() if value == keep)
        return keep


@given(
    case=st.tuples(
        st.one_of(
            instances(max_n=7, weight_max=4), instances(max_n=7, weight_max=10**9)
        ),
        st.sampled_from(ALL_POLICIES),
    )
)
@settings(max_examples=200, deadline=None)
def test_screened_search_stores_what_plain_recursion_stored(case):
    # weights <= 4 take the gap key, whose deltas reach negative gaps;
    # weights <= 10**9 mostly take the pair key
    inst, policy = case
    plain = _PlainSearch(inst, policy)
    try:
        for v, w in enumerate(inst.weights):
            plain.best(1 << v, 0, w, 0)
    except TieEncounteredError as exc:
        assert _tie_masks(solve, inst, policy) == (exc.first_mask, exc.second_mask)
        return
    search = _solved_search(inst, policy)
    assert search.gap_key == plain.gap_key
    assert search.memo == plain.memo
    assert search.canon == plain.canon


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_finished_search_is_freed_by_reference_counting(policy):
    # a search that refers to itself, say through a closure it stores,
    # would keep its memo until the cyclic collector runs
    gc.disable()
    try:
        refs = _recorded_solve(gen_cycle7_family(1000), policy, weakref.ref)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_search_views_leave_no_cyclic_garbage(policy):
    # a nested search function held in its own closure cell is a cycle:
    # it, and the tables it closes over, would wait for the collector
    inst = gen_random_connected(10, 2, 1, 10**9)
    views = {
        "solve": lambda: solve(inst, policy),
        "value_at_least": lambda: value_at_least(inst, policy, Fraction(1, 3)),
        "extract_forest": lambda: extract_forest(inst, policy),
        "response_map": lambda: response_map(inst, policy),
    }
    gc.collect()
    gc.disable()
    try:
        for name, view in views.items():
            view()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


@given(inst=instances(max_n=7, weight_max=3))
@settings(max_examples=60)
def test_small_weight_values_match_brute_force(inst):
    # weights <= 3 make many splits of a taken set share a gap, so most
    # states are reached through a memo hit from another split
    for policy in ALL_POLICIES:
        try:
            report = solve(inst, policy)
        except TieEncounteredError:
            assert policy is TiePolicy.FORBID
            raised = 0
            for start in range(inst.vertex_count):
                try:
                    brute_value(inst, policy, start)
                except TieEncounteredError:
                    raised += 1
            assert raised
            continue
        for entry in report.per_start:
            assert entry.value == brute_value(inst, policy, entry.start)


@given(
    inst=st.one_of(
        tree_instances(max_n=8, weight_max=6),
        instances(max_n=8, weight_max=6),
        instances(max_n=8),
    )
)
@settings(max_examples=200, deadline=None)
def test_tie_free_instances_play_one_game_under_every_policy(inst):
    # the policy names the mover only on equal totals, so where forbid
    # finds none, first and second must search the very same tree;
    # weights <= 6 mostly tie, and weights <= 60 add deeper tie-free
    # games whose subset sums still collide off the reachable states
    try:
        forbid = solve(inst, TiePolicy.FORBID)
    except TieEncounteredError:
        return
    for policy in (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES):
        report = solve(inst, policy)
        assert report.per_start == forbid.per_start
        assert report.value == forbid.value
        assert report.best_start == forbid.best_start
        assert report.state_count == forbid.state_count


@given(
    inst=st.one_of(
        instances(max_n=8, weight_max=6),
        tree_instances(max_n=8, weight_max=6),
        instances(max_n=8, weight_max=10**9),
    )
)
@settings(max_examples=150, deadline=None)
def test_floor_decision_brackets_the_value(inst):
    # yes at the value, no one unit of weight above it; forbid only where
    # solve finds no tie, first and second on tied instances too
    above = Fraction(1, inst.total_weight)
    for policy in ALL_POLICIES:
        try:
            value = solve(inst, policy).value
        except TieEncounteredError:
            assert policy is TiePolicy.FORBID
            continue
        assert value_at_least(inst, policy, value)
        assert not value_at_least(inst, policy, value + above)


def _decision_targets(inst):
    # the decision compares only totals of vertex sets with the target,
    # so it answers alike between two subset sums: each sum and the next
    # integer stand for every target, and small totals are tried whole
    total = inst.total_weight
    if total < 100:
        return range(total + 2)
    sums = {0}
    for w in inst.weights:
        sums |= {x + w for x in sums}
    return sorted(sums | {x + 1 for x in sums})


@given(
    inst=st.one_of(
        instances(max_n=7, weight_max=6),
        tree_instances(max_n=7, weight_max=6),
        instances(max_n=7, weight_max=10**9),
    )
)
@settings(max_examples=150, deadline=None)
def test_floor_decision_matches_the_value_at_every_target(inst):
    # the window's cut and stop thresholds move with the target, so the
    # decision is checked on both sides of every total First can end with
    total = inst.total_weight
    for policy in ALL_POLICIES:
        try:
            value = solve(inst, policy).value
        except TieEncounteredError:
            assert policy is TiePolicy.FORBID
            continue
        for t in _decision_targets(inst):
            assert value_at_least(inst, policy, Fraction(t, total)) == (
                value * total >= t
            ), (policy, t)


class TestFloorDecision:
    def test_a_tie_on_every_line_raises_under_forbid(self):
        with pytest.raises(TieEncounteredError):
            value_at_least(path([1, 1]), TiePolicy.FORBID, Fraction(1))
        with pytest.raises(TieEncounteredError):
            value_at_least(path([1, 1, 1, 1]), TiePolicy.FORBID, Fraction(1, 2))
        # pruning can skip a tie: the opening alone reaches half of (1, 1)
        assert value_at_least(path([1, 1]), TiePolicy.FORBID, Fraction(1, 2))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_targets_beyond_the_weight_range_need_no_search(self, policy):
        # every line of this path ties, yet the empty state decides both
        tied = path([1, 1, 1, 1])
        for share in (Fraction(0), Fraction(-2), Fraction(-1, 8)):
            assert value_at_least(tied, policy, share)
        for share in (Fraction(9, 8), Fraction(2)):
            assert not value_at_least(tied, policy, share)

    def test_float_share_is_refused(self):
        # 0.8 as a float lies just above 4/5, the value of the edge (1, 4),
        # but its product with the total rounds down to First's 4
        edge = path([1, 4])
        assert Fraction(0.8) > Fraction(4, 5) == solve(edge, TiePolicy.FORBID).value
        with pytest.raises(TypeError, match="share 0.8 is not an int or a Fraction"):
            value_at_least(edge, TiePolicy.FORBID, 0.8)
        assert value_at_least(edge, TiePolicy.FORBID, Fraction(4, 5))
        assert value_at_least(edge, TiePolicy.FORBID, 1) is False

    def test_bool_share_is_refused(self):
        # True would decide the game at share 1
        edge = path([1, 4])
        with pytest.raises(TypeError, match="share True is not an int or a Fraction"):
            value_at_least(edge, TiePolicy.FORBID, True)

    def test_decision_stores_far_fewer_entries_than_solve(self, decision_tables):
        inst = gen_random_connected(12, 1, 0, 10**9)
        report = solve(inst, TiePolicy.FORBID)
        for share, fewer in ((Fraction(1, 3), 100), (report.value, 5)):
            assert value_at_least(inst, TiePolicy.FORBID, share)
            assert len(decision_tables[-1]) * fewer < report.state_count
        assert len(decision_tables) == 2


P3 = path([1, 1, 1])
P3_SHAPE = GraphShape(3, P3.edges)
P3_PLAYER = canonical_strategy(P3, TiePolicy.SECOND_MOVES)

POLICY_ENTRIES = {
    "solve": lambda p: solve(P3, p),
    "value_from": lambda p: value_from(P3, p, GameState()),
    "value_at_least": lambda p: value_at_least(P3, p, Fraction(2, 3)),
    "principal_line": lambda p: principal_line(P3, p, 0),
    "optimal_responses": lambda p: optimal_responses(P3, p, 0),
    "response_map": lambda p: response_map(P3, p),
    "canonical_strategy": lambda p: canonical_strategy(P3, p),
    "extract_forest": lambda p: extract_forest(P3, p),
    "alternate_optimize": lambda p: alternate_optimize(P3_SHAPE, p, max_iters=1),
    "hill_climb": lambda p: hill_climb(P3_SHAPE, p, seed=0, iters=1),
    "brute_value": lambda p: brute_value(P3, p, 1),
    "audit_lines": lambda p: audit_lines(P3, p, 1),
    "mover": lambda p: mover(P3, GameState(1, 2), p),
    "apply": lambda p: apply(P3, GameState(1, 2), 2, p),
    "play_out": lambda p: play_out(P3, p, P3_PLAYER, P3_PLAYER),
}


@pytest.mark.parametrize("name", sorted(POLICY_ENTRIES))
@pytest.mark.parametrize("policy", ["first", "forbid"])
def test_a_policy_that_is_not_a_tie_policy_is_refused(name, policy):
    # the rules compare policies by identity, so a policy's string value
    # would silently play second; on P3 that gives 1/3, not first's 2/3
    POLICY_ENTRIES[name](TiePolicy.FIRST_MOVES)
    with pytest.raises(TypeError, match=f"tie policy '{policy}' is not a TiePolicy"):
        POLICY_ENTRIES[name](policy)


SEED_ENTRIES = {
    "hill_climb": lambda seed: hill_climb(P3_SHAPE, TiePolicy.FIRST_MOVES, seed, 1),
    "run_suite": lambda seed: run_suite("edge-family", seed=seed),
    "gen_random_tree": lambda seed: gen_random_tree(6, seed, 10**9),
    "gen_random_connected": lambda seed: gen_random_connected(6, 1, seed, 10**9),
}


@pytest.mark.parametrize("name", sorted(SEED_ENTRIES))
@pytest.mark.parametrize("seed", [None, 1.5, "7", True])
def test_a_seed_that_is_not_an_int_is_refused(name, seed):
    # random.Random(None) seeds from the operating system, so two calls
    # with equal arguments could differ; a float or a string seeds a
    # stream that no int seed names; True plays seed 1 but would be
    # reported as seed=True
    SEED_ENTRIES[name](7)
    with pytest.raises(TypeError, match=f"seed {seed!r} is not an int"):
        SEED_ENTRIES[name](seed)


# each entry takes the count as its one argument; a valid count is 7
COUNT_ENTRIES = {
    "gen_random_connected.n": ("n", lambda n: gen_random_connected(n, 0, 1, 10**9)),
    "gen_random_connected.extra_edges": (
        "extra_edges",
        lambda extra: gen_random_connected(9, extra, 1, 10**9),
    ),
    "gen_random_connected.weight_max": (
        "weight_max",
        lambda weight_max: gen_random_connected(6, 1, 1, weight_max),
    ),
    "gen_random_tree.n": ("n", lambda n: gen_random_tree(n, 1, 10**9)),
    "gen_random_tree.weight_max": (
        "weight_max",
        lambda weight_max: gen_random_tree(6, 1, weight_max),
    ),
    "tree_shapes.n": ("n", tree_shapes),
    "GraphShape.cycle.n": ("n", GraphShape.cycle),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
@pytest.mark.parametrize("count", [None, 1.5, "7", True])
def test_a_count_that_is_not_an_int_is_refused(entry, count):
    # True would build a 1-vertex instance or tree, and a float either
    # runs at a count no int names or fails deep inside range()
    name, call = COUNT_ENTRIES[entry]
    call(7)
    with pytest.raises(TypeError, match=re.escape(f"{name} {count!r} is not an int")):
        call(count)
