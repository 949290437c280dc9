"""Brute-force cross-checks and play-line audits."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphshare import oracle
from graphshare.core import (
    GameState,
    Instance,
    InstanceTooLargeError,
    Player,
    TieEncounteredError,
    TiePolicy,
)
from graphshare.oracle import (
    AUDIT_EXHAUSTIVE_CAP,
    BRUTE_VERTEX_CAP,
    _audit_one,
    audit_lines,
    brute_value,
)
from graphshare.solve import solve, value_from

from conftest import instances

ALL_POLICIES = (TiePolicy.FORBID, TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)

PATH3 = Instance(weights=(5, 2, 9), edges=((0, 1), (1, 2)))


def path(weights):
    n = len(weights)
    return Instance(
        weights=tuple(weights), edges=tuple((i, i + 1) for i in range(n - 1))
    )


class TestBruteValue:
    def test_matches_solver_on_triangle(self):
        inst = Instance(weights=(1, 2, 4), edges=((0, 1), (1, 2), (0, 2)))
        report = solve(inst, TiePolicy.FORBID)
        for entry in report.per_start:
            assert brute_value(inst, TiePolicy.FORBID, entry.start) == entry.value

    def test_edge_values(self):
        inst = path([3, 4])
        assert brute_value(inst, TiePolicy.FORBID, 0) == Fraction(3, 7)
        assert brute_value(inst, TiePolicy.FORBID, 1) == Fraction(4, 7)

    def test_vertex_cap(self):
        big = path(range(1, BRUTE_VERTEX_CAP + 2))
        with pytest.raises(InstanceTooLargeError):
            brute_value(big, TiePolicy.FORBID, 0)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            brute_value(PATH3, TiePolicy.FORBID, 3)

    def test_first_tie_is_the_engines(self):
        # the walk takes the frontier in increasing vertex id, and so
        # meets the engine's first tie; a set of nine or more vertex ids
        # may iterate in another order, which meets another tie here
        inst = Instance(
            weights=(9, 8, 11, 10, 3, 2, 8, 5, 3),
            edges=((0, 7), (1, 8), (4, 7), (5, 7), (6, 8), (3, 7), (2, 3), (2, 8)),
        )
        with pytest.raises(TieEncounteredError) as brute:
            brute_value(inst, TiePolicy.FORBID, 0)
        with pytest.raises(TieEncounteredError) as engine:
            value_from(inst, TiePolicy.FORBID, GameState(1, 0))
        masks = (brute.value.first_mask, brute.value.second_mask)
        assert masks == (engine.value.first_mask, engine.value.second_mask)
        assert masks == (0x5, 0xB8)


@pytest.mark.parametrize(
    "entry, cap",
    [(brute_value, BRUTE_VERTEX_CAP), (audit_lines, AUDIT_EXHAUSTIVE_CAP)],
    ids=["brute_value", "audit_lines"],
)
def test_refusals_come_policy_then_cap_then_start(monkeypatch, entry, cap):
    # the engine views' order, each refusal before the walk builds its
    # adjacency
    def refuse(instance):
        raise AssertionError("the walk started before its checks")

    monkeypatch.setattr(oracle, "_adjacency", refuse)
    big = path(range(1, cap + 2))
    with pytest.raises(TypeError, match="tie policy 'first' is not a TiePolicy"):
        entry(big, "first", cap + 1)
    with pytest.raises(InstanceTooLargeError, match=f"the {cap.what} cap of {cap}$"):
        entry(big, TiePolicy.FIRST_MOVES, cap + 1)
    with pytest.raises(ValueError, match="start vertex 3 does not exist"):
        entry(PATH3, TiePolicy.FIRST_MOVES, 3)


@given(inst=instances(max_n=5, weight_max=8))
@settings(max_examples=80, deadline=None)
def test_brute_and_solver_agree_per_opening(inst):
    # small weights on purpose so tied totals actually occur
    for policy in ALL_POLICIES:
        for start in range(inst.vertex_count):
            opened = GameState(first_mask=1 << start, second_mask=0)
            try:
                expected = brute_value(inst, policy, start)
            except TieEncounteredError:
                with pytest.raises(TieEncounteredError):
                    value_from(inst, policy, opened)
                continue
            assert value_from(inst, policy, opened) == expected


class TestAuditMechanics:
    def test_single_forced_line_is_clean(self):
        audits = audit_lines(PATH3, TiePolicy.FIRST_MOVES, 0)
        assert len(audits) == 1
        audit = audits[0]
        assert audit.line == (
            (Player.FIRST, 0),
            (Player.SECOND, 1),
            (Player.SECOND, 2),
        )
        assert audit.max_lead_violation is None
        assert audit.tie_steps == ()
        assert not audit.skipped

    def test_policy_resolved_tie_recorded(self):
        inst = path([1, 1, 1, 1])
        audits = audit_lines(inst, TiePolicy.FIRST_MOVES, 0)
        for audit in audits:
            assert not audit.skipped
            assert audit.max_lead_violation is None
            assert 2 in audit.tie_steps

    def test_forbid_skips_tied_prefix(self):
        inst = path([1, 1, 1, 1])
        audits = audit_lines(inst, TiePolicy.FORBID, 0)
        assert len(audits) == 1
        audit = audits[0]
        assert audit.skipped
        assert audit.line == ((Player.FIRST, 0), (Player.SECOND, 1))

    def test_detector_flags_an_illegal_greedy_line(self):
        # not reachable by the rules: First moves again while ahead
        line = ((Player.FIRST, 0), (Player.SECOND, 1), (Player.FIRST, 2))
        audit = _audit_one(PATH3, line, skipped=False)
        assert audit.max_lead_violation is not None
        step, leader, lead, last_w = audit.max_lead_violation
        assert step == 2
        assert leader is Player.FIRST
        assert lead == 12
        assert last_w == 9

    def test_exhaustive_cap(self):
        big = path(range(1, AUDIT_EXHAUSTIVE_CAP + 3))
        cap_error = f"exhaustive audit cap of {AUDIT_EXHAUSTIVE_CAP}"
        with pytest.raises(InstanceTooLargeError, match=cap_error):
            audit_lines(big, TiePolicy.FIRST_MOVES, 0)
        at_cap = path(range(1, AUDIT_EXHAUSTIVE_CAP + 1))
        assert audit_lines(at_cap, TiePolicy.FIRST_MOVES, 0)

    def test_bad_start(self):
        with pytest.raises(ValueError):
            audit_lines(PATH3, TiePolicy.FORBID, -1)


@given(inst=instances(max_n=6), data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_legal_line_satisfies_lead_invariant(inst, data):
    start = data.draw(st.integers(min_value=0, max_value=inst.vertex_count - 1))
    w_max = max(inst.weights)
    total = inst.total_weight
    for policy in ALL_POLICIES:
        audits = audit_lines(inst, policy, start)
        assert audits
        for audit in audits:
            assert audit.max_lead_violation is None
            assert audit.line[0] == (Player.FIRST, start)
            if policy is not TiePolicy.FORBID:
                assert not audit.skipped
            if audit.skipped:
                assert len(audit.line) < inst.vertex_count or _final_tied(
                    inst, audit
                )
                continue
            assert len(audit.line) == inst.vertex_count
            if not audit.tie_steps and inst.vertex_count >= 2:
                first = sum(
                    inst.weights[v]
                    for who, v in audit.line
                    if who is Player.FIRST
                )
                assert abs(2 * first - total) < w_max


def _final_tied(inst, audit):
    first = sum(inst.weights[v] for who, v in audit.line if who is Player.FIRST)
    return 2 * first == inst.total_weight and len(audit.line) == inst.vertex_count
