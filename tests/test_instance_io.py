"""Text format round-trips and parse errors."""

from __future__ import annotations

import pytest
from hypothesis import given

from graphshare import Instance, format_instance, parse_instance
from graphshare.core import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    NonPositiveWeightError,
    SelfLoopError,
)
from graphshare.instance_io import InstanceSyntaxError

from conftest import instances


TRIANGLE_TEXT = """\
3 3
5 7 11
0 1
1 2
0 2
"""


class TestParse:
    def test_triangle(self):
        inst = parse_instance(TRIANGLE_TEXT)
        assert inst.weights == (5, 7, 11)
        assert inst.edges == ((0, 1), (1, 2), (0, 2))

    def test_single_vertex_no_edges(self):
        inst = parse_instance("1 0\n42\n")
        assert inst.weights == (42,)
        assert inst.edges == ()

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\n  2 1  \n# weights follow\n3 4\n\n0 1\n# trailing\n"
        inst = parse_instance(text)
        assert inst.weights == (3, 4)
        assert inst.edges == ((0, 1),)

    def test_missing_final_newline_ok(self):
        assert parse_instance("2 1\n1 1\n0 1").edges == ((0, 1),)


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("")
        assert info.value.line == 1

    def test_comment_only(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("# nothing here\n")

    def test_bad_header_arity(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("3\n1 1 1\n")
        assert info.value.line == 1

    def test_header_not_integers(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("two 1\n1 1\n0 1\n")
        assert "not an integer" in str(info.value)

    def test_zero_vertices(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("0 0\n\n")

    def test_negative_edge_count(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 -1\n1 1\n")

    def test_missing_weights_line(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 1\n")

    def test_wrong_weight_count_reports_weight_line(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("# c\n3 2\n1 2\n0 1\n1 2\n")
        assert info.value.line == 3

    def test_weight_not_integer(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 1\n1 x\n0 1\n")

    def test_too_few_edges(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("3 2\n1 1 1\n0 1\n")

    def test_trailing_junk_reports_its_line(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("2 1\n1 1\n0 1\n9 9\n")
        assert info.value.line == 4

    def test_edge_arity(self):
        with pytest.raises(InstanceSyntaxError):
            parse_instance("2 1\n1 1\n0 1 2\n")

    def test_edge_out_of_range(self):
        with pytest.raises(InstanceSyntaxError) as info:
            parse_instance("2 1\n1 1\n0 2\n")
        assert info.value.line == 3

    def test_structural_errors_come_from_core(self):
        with pytest.raises(SelfLoopError):
            parse_instance("2 1\n1 1\n1 1\n")
        with pytest.raises(DuplicateEdgeError):
            parse_instance("2 2\n1 1\n0 1\n1 0\n")
        with pytest.raises(NonPositiveWeightError):
            parse_instance("2 1\n1 0\n0 1\n")
        with pytest.raises(DisconnectedGraphError):
            parse_instance("3 1\n1 1 1\n0 1\n")


class TestFormat:
    def test_triangle_exact_text(self):
        inst = Instance(weights=(5, 7, 11), edges=((0, 1), (1, 2), (0, 2)))
        assert format_instance(inst) == TRIANGLE_TEXT

    @given(instances(max_n=7, weight_max=10**12))
    def test_round_trip(self, inst):
        back = parse_instance(format_instance(inst))
        assert back.weights == inst.weights
        assert back.edges == inst.edges
