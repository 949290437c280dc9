"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import random
from importlib import import_module

import pytest
from hypothesis import strategies as st

from graphshare.core import Instance


@st.composite
def tree_edge_sets(draw, n: int) -> set[tuple[int, int]]:
    """A random labeled tree as parent links 1..n-1 -> earlier vertex."""
    edges = set()
    for child in range(1, n):
        parent = draw(st.integers(0, child - 1))
        edges.add((parent, child))
    return edges


@st.composite
def instances(
    draw,
    min_n: int = 2,
    max_n: int = 6,
    weight_max: int = 60,
    allow_extra_edges: bool = True,
) -> Instance:
    """Random connected vertex-weighted instances (tree plus extras)."""
    n = draw(st.integers(min_n, max_n))
    edges = draw(tree_edge_sets(n))
    if allow_extra_edges and n >= 3:
        non_tree = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in edges
        ]
        extra = draw(st.integers(0, min(3, len(non_tree))))
        if extra:
            picks = draw(
                st.lists(
                    st.sampled_from(non_tree),
                    min_size=extra,
                    max_size=extra,
                    unique=True,
                )
            )
            edges.update(picks)
    weights = draw(
        st.lists(st.integers(1, weight_max), min_size=n, max_size=n)
    )
    return Instance(weights=tuple(weights), edges=tuple(sorted(edges)))


@st.composite
def tree_instances(draw, min_n: int = 2, max_n: int = 7, weight_max: int = 10**6):
    return draw(
        instances(
            min_n=min_n,
            max_n=max_n,
            weight_max=weight_max,
            allow_extra_edges=False,
        )
    )


def distinct_subset_sum_weights(n: int, seed: int) -> tuple[int, ...]:
    """Weights whose subset sums collide with negligible probability."""
    rng = random.Random(seed)
    return tuple(rng.randint(1, 10**9) for _ in range(n))


def permute_instance(instance: Instance, perm: list[int]) -> Instance:
    """Relabel vertices by ``perm`` (vertex v becomes perm[v])."""
    n = instance.vertex_count
    weights = [0] * n
    for v in range(n):
        weights[perm[v]] = instance.weights[v]
    edges = tuple(
        sorted(tuple(sorted((perm[u], perm[v]))) for u, v in instance.edges)
    )
    return Instance(weights=tuple(weights), edges=edges)


@pytest.fixture
def decision_tables(monkeypatch):
    """The table that each floor decision stores, in call order.

    ``value_at_least`` builds its search with ``solve._expander`` in a
    window ``(T - 1, T)``, the only build with ``lo >= 0``, so a
    recorder on ``_expander`` keeps the ``memo`` of each such build and
    skips the value searches' ``(-1, total + 1)``."""
    # the package binds the name ``solve`` to the function
    solve_module = import_module("graphshare.solve")
    build = solve_module._expander
    tables = []

    def recorded(search, memo, canon, lo, hi):
        if lo >= 0:
            tables.append(memo)
        return build(search, memo, canon, lo, hi)

    monkeypatch.setattr(solve_module, "_expander", recorded)
    return tables


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance criterion lines after the test summary."""
    import sys

    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance summary")
        for line in lines:
            terminalreporter.write_line(line)
