import random

import pytest

from conftest import random_no_exit_graph
from gradedlpa import (
    EntryShift,
    GlobalShift,
    GradedBase,
    ParseError,
    Permute,
    format_certificate,
    format_graph,
    graph_to_dot,
    parse_algebra,
    parse_certificate,
    parse_graph,
)


def test_parse_graph_basic():
    g = parse_graph(
        """
        # a comment
        vertex t
        t -> u
        u -> v hop   # trailing comment
        v -> u
        """
    )
    assert g.vertices == ("t", "u", "v")
    assert [(e.eid, e.source, e.range) for e in g.edges] == [
        ("e1", "t", "u"),
        ("hop", "u", "v"),
        ("e3", "v", "u"),
    ]


def test_parse_graph_auto_ids_count_all_edge_statements():
    g = parse_graph("a -> b x1\nb -> c\nc -> d\n")
    assert [e.eid for e in g.edges] == ["x1", "e2", "e3"]


def test_parse_graph_vertex_order_is_first_mention():
    g = parse_graph("b -> a\nvertex q\na -> c\n")
    assert g.vertices == ("b", "a", "q", "c")


def test_parse_graph_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\na => b\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_graph("vertex a\nvertex a\n")
    with pytest.raises(ParseError):
        parse_graph("a -> b e\nc -> d e\n")
    with pytest.raises(ParseError):
        parse_graph("a ->\n")
    with pytest.raises(ParseError):
        parse_graph("vertex\n")
    with pytest.raises(ParseError):
        parse_graph("a -> b c d\n")


def test_graph_round_trip():
    rng = random.Random(71)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        assert parse_graph(format_graph(g)) == g


def test_format_graph_rejects_unwritable_ids():
    from gradedlpa import DirectedGraph

    g = DirectedGraph(("a b",), ())
    with pytest.raises(ValueError):
        format_graph(g)


def test_parse_algebra_single():
    a = parse_algebra(" M3( K[x^2] )( 0, 1, 1 ) ").summands[0]
    assert a.base == GradedBase.laurent(2)
    assert a.shifts == (0, 1, 1)
    assert parse_algebra("M1(K)(-7)").summands[0].shifts == (-7,)


def test_parse_algebra_multiplicity_items():
    a = parse_algebra("M9(K)(4(0),3(1),2(2))").summands[0]
    assert a.shifts == (0, 0, 0, 0, 1, 1, 1, 2, 2)
    mixed = parse_algebra("M4(K)(5,2(-1),8)").summands[0]
    assert mixed.shifts == (5, -1, -1, 8)


def test_parse_algebra_sum():
    total = parse_algebra("M1(K)(0) (+) M2(K[x^1])(0,1)")
    assert len(total.summands) == 2
    assert str(total) == "M1(K)(0) (+) M2(K[x^1])(0,1)"


def test_parse_algebra_errors():
    for bad in [
        "",
        "M0(K)(0)",
        "M2(K)(0)",
        "M1(K)(0,1)",
        "M1(K[x^0])(0)",
        "M1(Q)(0)",
        "M1(K)(0) extra",
        "M1(K)()",
        "M1(K)(0(5))",
        "M2(K)(0) (+)",
        f"M1(K)({2**31 + 1})",
        f"M1(K)({-(2**31 + 1)})",
    ]:
        with pytest.raises(ParseError):
            parse_algebra(bad)


def test_parse_algebra_size_caps():
    with pytest.raises(ParseError):
        parse_algebra("M2000000(K)(2000000(0))")
    big = parse_algebra(f"M1(K)({2**31})").summands[0]
    assert big.shifts == (2**31,)


def test_parse_error_position_in_algebra():
    with pytest.raises(ParseError) as err:
        parse_algebra("M2(K)(0,\n      x)")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_format_algebra_round_trip():
    for text in ["M3(K[x^2])(0,1,1)", "M1(K)(0) (+) M2(K[x^3])(-1,5)"]:
        total = parse_algebra(text)
        assert str(total) == text
        assert parse_algebra(str(total)) == total


def test_certificate_round_trip():
    steps = [Permute((2, 1, 3)), GlobalShift(-4), EntryShift(3, 2)]
    text = format_certificate(steps)
    assert text == "P 2 1 3\nG -4\nE 3 2\n"
    assert parse_certificate(text) == steps
    assert parse_certificate("") == []
    assert format_certificate([]) == ""


def test_parse_certificate_comments_and_blanks():
    steps = parse_certificate("# header\n\nG 1\n  # indented comment\nE 1 2 # tail\n")
    assert steps == [GlobalShift(1), EntryShift(1, 2)]


def test_parse_certificate_errors():
    for bad in ["Q 1", "G", "G 1 2", "E 1", "P 1 x", "P 1 1 2", "E 0 2"]:
        with pytest.raises(ParseError):
            parse_certificate(bad)


def test_graph_to_dot_quoting():
    from gradedlpa import DirectedGraph

    g = DirectedGraph.from_edges([("node", "a-b", "e1")], isolated=("edge", "plain"))
    dot = graph_to_dot(g)
    assert '"node" -> "a-b";' in dot
    assert '"edge";' in dot
    assert "  plain;" in dot
    assert dot.startswith("digraph {") and dot.endswith("}\n")
