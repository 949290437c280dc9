"""Vertex caps: each one refuses cap + 1 vertices with one message shape,
before the code it guards does any work."""

import pytest

from graphshare import adversary, generators, oracle
from graphshare.adversary import GraphShape, alternate_optimize, extract_forest, hill_climb
from graphshare.core import GameState, Instance, InstanceTooLargeError, TiePolicy
from graphshare.generators import gen_random_connected, gen_random_tree
from graphshare.oracle import audit_lines, brute_value
from graphshare.solve import (
    _Search,
    canonical_strategy,
    optimal_responses,
    principal_line,
    response_map,
    solve,
    value_from,
)

POLICY = TiePolicy.FIRST_MOVES


def path(n):
    return Instance(weights=(1,) * n, edges=tuple((v, v + 1) for v in range(n - 1)))


@pytest.fixture(autouse=True)
def no_work(monkeypatch):
    """Make every first step of the guarded code fail loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the vertex cap was checked")

    for name in ("state", "opening", "best", "moves", "line", "forest"):
        monkeypatch.setattr(_Search, name, refuse)
    monkeypatch.setattr(generators, "_prufer_edges", refuse)
    monkeypatch.setattr(oracle, "_adjacency", refuse)
    monkeypatch.setattr(adversary, "_Search", refuse)
    monkeypatch.setattr(adversary, "_start_ladder", refuse)


# entry -> (call at cap + 1 vertices, the refusal it must raise)
CASES = {
    # a self-loop would be reported if edges were checked first
    "Instance": (
        lambda: Instance(weights=(1,) * 65, edges=((0, 0),)),
        "65 vertices exceed the bitmask encoding cap of 64",
    ),
    "gen_random_tree": (
        lambda: gen_random_tree(65, 0, 10**9),
        "65 vertices exceed the bitmask encoding cap of 64",
    ),
    "gen_random_connected": (
        lambda: gen_random_connected(65, 1, 0, 10**9),
        "65 vertices exceed the bitmask encoding cap of 64",
    ),
    "solve": (lambda: solve(path(19), POLICY), "19 vertices exceed the solver cap of 18"),
    "value_from": (
        lambda: value_from(path(19), POLICY, GameState(1, 0)),
        "19 vertices exceed the solver cap of 18",
    ),
    "principal_line": (
        lambda: principal_line(path(19), POLICY, 0),
        "19 vertices exceed the solver cap of 18",
    ),
    "optimal_responses": (
        lambda: optimal_responses(path(19), POLICY, 0),
        "19 vertices exceed the solver cap of 18",
    ),
    "response_map": (
        lambda: response_map(path(19), POLICY),
        "19 vertices exceed the solver cap of 18",
    ),
    "canonical_strategy": (
        lambda: canonical_strategy(path(19), POLICY),
        "19 vertices exceed the solver cap of 18",
    ),
    "brute_value": (
        lambda: brute_value(path(11), POLICY, 0),
        "11 vertices exceed the brute-force oracle cap of 10",
    ),
    "audit_lines": (
        lambda: audit_lines(path(9), POLICY, 0),
        "9 vertices exceed the exhaustive audit cap of 8",
    ),
    "extract_forest": (
        lambda: extract_forest(path(11), POLICY),
        "11 vertices exceed the alternating search cap of 10",
    ),
    "alternate_optimize": (
        lambda: alternate_optimize(GraphShape.cycle(11), POLICY),
        "11 vertices exceed the alternating search cap of 10",
    ),
    "hill_climb": (
        lambda: hill_climb(GraphShape.cycle(13), POLICY, seed=0),
        "13 vertices exceed the hill climb cap of 12",
    ),
}


@pytest.mark.parametrize("entry", sorted(CASES))
def test_cap_plus_one_is_refused_before_any_work(entry):
    call, message = CASES[entry]
    with pytest.raises(InstanceTooLargeError) as refused:
        call()
    assert str(refused.value) == message

