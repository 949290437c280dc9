"""Instance generators: determinism, structure, and resampling."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphshare import generators
from graphshare.core import Instance, TieEncounteredError, TiePolicy
from graphshare.generators import (
    CYCLE7_MIN_M,
    ExhaustedAttemptsError,
    MTooSmallError,
    gen_cycle7_family,
    gen_random_connected,
    gen_random_tree,
    resample_on_tie,
    subset_sums_distinct,
)
from graphshare.instance_io import format_instance
from graphshare.solve import solve

from conftest import instances


class TestCycle7Family:
    def test_reference_member(self):
        inst = gen_cycle7_family(1000)
        assert inst.weights == (1000, 1015, 17, 7, 12, 1026, 18)
        assert inst.edges == (
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6),
        )
        assert inst.total_weight == 3095

    @pytest.mark.parametrize("m", [96, 500, 10**6])
    def test_total_is_linear_in_m(self, m):
        assert gen_cycle7_family(m).total_weight == 3 * m + 95

    def test_below_minimum_rejected(self):
        with pytest.raises(MTooSmallError):
            gen_cycle7_family(CYCLE7_MIN_M - 1)

    @pytest.mark.parametrize("m", [None, 1000.0, "1000", True])
    def test_non_int_m_is_refused_by_name(self, m):
        # a float would fail on a weight, a string on the range check,
        # and True would read as m=1 below the minimum
        with pytest.raises(TypeError, match=re.escape(f"m {m!r} is not an int")):
            gen_cycle7_family(m)


class TestRandomTree:
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_structure_and_determinism(self, n, seed):
        inst = gen_random_tree(n, seed, weight_max=1000)
        assert inst.vertex_count == n
        assert len(inst.edges) == n - 1
        assert all(1 <= w <= 1000 for w in inst.weights)
        again = gen_random_tree(n, seed, weight_max=1000)
        assert format_instance(again) == format_instance(inst)

    @pytest.mark.parametrize(
        "seed, weights",
        [
            (0, (906691060, 413654000)),
            (1, (144272510, 611178003)),
            (3, (255512576, 636343333)),
        ],
    )
    def test_two_vertices_draw_only_their_weights(self, seed, weights):
        # a Prufer sequence of length n - 2 = 0 draws nothing, so the
        # weights are the generator's first two draws
        inst = gen_random_tree(2, seed, weight_max=10**9)
        assert inst.edges == ((0, 1),)
        assert inst.weights == weights

    def test_bad_args(self):
        with pytest.raises(ValueError):
            gen_random_tree(0, seed=1, weight_max=10)
        with pytest.raises(ValueError):
            gen_random_tree(5, seed=1, weight_max=4)


class TestRandomConnected:
    @given(
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_edge_budget(self, n, seed, data):
        cap = n * (n - 1) // 2 - (n - 1)
        extra = data.draw(st.integers(min_value=0, max_value=cap))
        inst = gen_random_connected(n, extra, seed, weight_max=10**9)
        assert len(inst.edges) == n - 1 + extra
        assert len(set(inst.edges)) == len(inst.edges)
        again = gen_random_connected(n, extra, seed, weight_max=10**9)
        assert again.weights == inst.weights and again.edges == inst.edges

    def test_extra_edges_out_of_range(self):
        with pytest.raises(ValueError):
            gen_random_connected(4, 4, seed=0, weight_max=100)
        with pytest.raises(ValueError):
            gen_random_connected(4, -1, seed=0, weight_max=100)

    def test_complete_graph_reachable(self):
        inst = gen_random_connected(5, 6, seed=7, weight_max=50)
        assert len(inst.edges) == 10


class TestResampleOnTie:
    def test_accepts_first_tie_free_draw(self):
        calls = []

        def gen(k):
            calls.append(k)
            if k < 2:
                return Instance(weights=(1, 1), edges=((0, 1),))
            return Instance(weights=(1, 2), edges=((0, 1),))

        inst, rejected = resample_on_tie(gen)
        assert rejected == 2
        assert calls == [0, 1, 2]
        assert inst.weights == (1, 2)

    def test_single_vertex_is_immediately_tie_free(self):
        inst, rejected = resample_on_tie(
            lambda k: Instance(weights=(5,), edges=())
        )
        assert rejected == 0
        assert inst.weights == (5,)

    def test_exhaustion(self, monkeypatch):
        calls = []

        def always_tied(k):
            calls.append(k)
            return Instance(weights=(1, 1, 1, 1), edges=((0, 1), (1, 2), (2, 3)))

        monkeypatch.setattr(generators, "RESAMPLE_ATTEMPTS", 5)
        with pytest.raises(ExhaustedAttemptsError, match="in 5 attempts"):
            resample_on_tie(always_tied)
        assert calls == [0, 1, 2, 3, 4]


def _search_only(generator_call, attempts):
    """Reference resampler: a forbid search on every draw, no screen."""
    for attempt in range(attempts):
        candidate = generator_call(attempt)
        try:
            solve(candidate, TiePolicy.FORBID)
        except TieEncounteredError:
            continue
        return candidate, attempt
    raise ExhaustedAttemptsError(f"no tie-free instance in {attempts} attempts")


def _tie_prone_draws(n, extra, seed):
    """The k-th draw: a seeded connected graph with weights in 1..3."""

    def draw(k):
        shape = gen_random_connected(n, extra, seed + k, weight_max=n)
        rng = random.Random(seed + k)
        return Instance(tuple(rng.randint(1, 3) for _ in range(n)), shape.edges)

    return draw


class TestSubsetSumScreen:
    @pytest.mark.parametrize(
        "weights, distinct",
        [
            ((5,), True),
            ((1, 2, 4, 8), True),
            ((16, 1, 8, 2, 4), True),
            ((3, 3), False),
            ((1, 2, 3), False),  # distinct weights, yet 1 + 2 = 3
            ((4, 7, 10, 13), False),  # 4 + 13 = 7 + 10
        ],
    )
    def test_examples(self, weights, distinct):
        assert subset_sums_distinct(weights) is distinct

    @given(inst=instances(max_n=8, weight_max=12))
    @settings(max_examples=150, deadline=None)
    def test_screened_draws_solve_under_forbid(self, inst):
        if subset_sums_distinct(inst.weights):
            solve(inst, TiePolicy.FORBID)

    @given(
        n=st.integers(min_value=2, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_search_only_resampling(self, n, seed, data):
        # weights <= 3 tie often, so most draws fail the screen and take
        # the forbid search, and some runs exhaust their attempts
        cap = n * (n - 1) // 2 - (n - 1)
        extra = data.draw(st.integers(min_value=0, max_value=min(3, cap)))
        draws = _tie_prone_draws(n, extra, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "RESAMPLE_ATTEMPTS", 10)
            try:
                expected = _search_only(draws, attempts=10)
            except ExhaustedAttemptsError:
                with pytest.raises(ExhaustedAttemptsError):
                    resample_on_tie(draws)
                return
            assert resample_on_tie(draws) == expected
