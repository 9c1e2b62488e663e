"""The three text formats and DOT:

- parse and format round trips of graphs, algebras and certificates
- the parser contract: any text parses or raises ParseError at a line and
  column inside the text
- the graph reader against the token-by-token scanner, the algebra reader
  against the token cursor, and the certificate reader against the
  line-by-line reader (conftest's `naive_parse_*`), on drawn and hand-made
  texts: the same result, or the same error at the same line and column
- that valid text never reaches those slower readers
- the size and digit limits of algebra text, and DOT quoting
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import naive_parse_algebra, naive_parse_certificate, naive_parse_graph, random_no_exit_graph
from gradedlpa import parsing
from gradedlpa import (
    DirectedGraph,
    DirectSumAlgebra,
    Edge,
    EntryShift,
    GlobalShift,
    GradedBase,
    GradedMatrix,
    ParseError,
    Permute,
    ShiftedMatrixAlgebra,
    apply_certificate,
    conjugate_by_step,
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
    for text in ("a -> b ->\n", "a -> b -> c\n"):
        with pytest.raises(ParseError, match="column 8: unexpected '->' after edge statement"):
            parse_graph(text)


def test_parse_graph_vertex_named_vertex():
    g = DirectedGraph.from_edges([("vertex", "b", "e1")])
    assert format_graph(g) == "vertex vertex\nvertex b\nvertex -> b e1\n"
    assert parse_graph(format_graph(g)) == g
    assert parse_graph("vertex -> vertex\n").edges == (Edge("e1", "vertex", "vertex"),)
    with pytest.raises(ParseError, match="expected a vertex id after 'vertex'"):
        parse_graph("vertex  # no id\n")


def test_graph_round_trip():
    rng = random.Random(71)
    for _ in range(100):
        g = random_no_exit_graph(rng)
        assert parse_graph(format_graph(g)) == g


def test_format_graph_rejects_unwritable_ids():
    from gradedlpa import DirectedGraph

    loop = ("ok", "ok")
    # (vertices, edges, the id named): the first unwritable vertex, else the
    # first unwritable edge id; a line break inside an id is not two ids
    for vertices, edges, bad in [
        (("a b",), (), "a b"),
        (("ok",), (("e 1", *loop),), "e 1"),
        (("",), (), ""),
        (("ok",), (("", *loop),), ""),
        (("é",), (), "é"),
        (("a\nb",), (), "a\nb"),
        (("ok",), (("a\nb", *loop),), "a\nb"),
        (("ok", "a b", "c d"), (("e 1", *loop),), "a b"),
        (("ok",), (("e1", *loop), ("e 2", *loop), ("e 3", *loop)), "e 2"),
        # ids that are not strings
        (("a",), ((None, "a", "a"),), None),
        ((1,), (), 1),
    ]:
        g = DirectedGraph(vertices, edges)
        with pytest.raises(ValueError) as err:
            format_graph(g)
        assert str(err.value) == f"id {bad!r} cannot be written in the graph text format"
    # unnamed edges are written as e<position>, and a named one keeps its id
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a"), ("b", "b", "x")])
    assert format_graph(g) == "vertex a\nvertex b\na -> b e1\nb -> a e2\nb -> b x\n"


def test_parse_algebra_single():
    a = parse_algebra(" M3( K[x^2] )( 0, 1, 1 ) ").summands[0]
    assert a.base == GradedBase.laurent(2)
    assert a.shifts == (0, 1, 1)
    assert parse_algebra("M1(K)(-7)").summands[0].shifts == (-7,)
    # whitespace may separate any two tokens, newlines and a sign's digits too
    spaced = parse_algebra(" M 3 ( K [ x ^ 3 ] ) ( - 1 , 2 ( + 5 ) ) (+)\n M1(K)(0)\t")
    assert str(spaced) == "M3(K[x^3])(-1,5,5) (+) M1(K)(0)"


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
        "M²(K)(0)",
        "M1(K[x^³])(0)",
        "M٣(K)(0,0,0)",
        "M1(K)(１)",
    ]:
        with pytest.raises(ParseError):
            parse_algebra(bad)


def test_parse_algebra_size_caps():
    # no size cap at parse time: a repeat is one run, and str prints runs back
    # past the limit on listing shifts one by one
    total = parse_algebra("M2000000(K)(1999999(0),1)")
    assert total.summands[0].runs == ((0, 1_999_999), (1, 1))
    assert str(total) == "M2000000(K)(1999999(0),1(1))"
    assert parse_algebra(str(total)) == total
    with pytest.raises(ValueError, match="too many to list one by one"):
        total.summands[0].shifts
    at_limit = parse_algebra("M1000000(K[x^3])(999999(-2),5)")
    assert str(at_limit) == "M1000000(K[x^3])(" + "-2," * 999_999 + "5)"
    assert len(at_limit.summands[0].shifts) == 1_000_000
    big = parse_algebra(f"M1(K)({2**31})").summands[0]
    assert big.shifts == (2**31,)
    assert parse_algebra(f"M1(K[x^{2**31}])(0)").summands[0].base.period == 2**31


def test_parse_algebra_long_numbers():
    # a number past Python's limit on converting digit strings is a ParseError at its token
    nines = "9" * 5000
    for text, column in [
        (f"M1(K)({nines})", 7),
        (f"M1(K)(- {nines})", 9),
        (f"M1(K)({nines}(0))", 7),
        (f"M1(K)(2({nines}))", 9),
        (f"M{nines}(K)(0)", 2),
        (f"M1(K[x^{nines}])(0)", 8),
    ]:
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        assert str(err.value) == f"line 1, column {column}: a number has more than 4300 digits"
    # leading zeros count, up to the limit
    with pytest.raises(ParseError, match="column 7: a number has more than 4300 digits"):
        parse_algebra("M1(K)(" + "0" * 4300 + "7)")
    zeros = "0" * 4299
    assert str(parse_algebra(f"M{zeros}2(K[x^{zeros}3])({zeros}7,-{zeros}1)")) == "M2(K[x^3])(7,-1)"


def test_shift_total_past_the_digit_limit():
    # repeat counts that each convert can add up to a total with more digits
    # than str() writes; the size error still names the shift list
    nines = "9" * 4300
    for text, column in [(f"M1(K)({nines}(0),5)", 7), (f"M2(K[x^3]) ( {nines}(1), {nines}(2))", 13)]:
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        n = text[1]
        message = f"summand declares n={n} but lists a number of shifts with more than 4300 digits"
        assert str(err.value) == f"line 1, column {column}: {message}"
        assert (err.value.line, err.value.column) == (1, column)


def test_parse_error_position_in_algebra():
    # size, period and shift-count errors point just after 'M', '^' or '('
    for text, message in [
        ("M2(K)(0,\n      x)", "line 2, column 7: expected a shift integer"),
        ("M0(K)(0)", "line 1, column 2: the matrix size must be positive"),
        ("M3000000(K)(1)", "line 1, column 13: summand declares n=3000000 but lists 1 shifts"),
        ("M1(K[x^ 0])(0)", "line 1, column 8: the Laurent period must be positive (m = 0 is not a grading)"),
        ("M1(K[x^ 2147483649])(0)", "line 1, column 8: the Laurent period exceeds 2^31"),
        ("M 2 (K)(0)", "line 1, column 9: summand declares n=2 but lists 1 shifts"),
        ("M2(K)( 0)", "line 1, column 7: summand declares n=2 but lists 1 shifts"),
        ("M1(K)( 0(-1))", "line 1, column 8: a shift multiplicity must be positive"),
        ("M1(K)(-2147483649)", "line 1, column 7: shift magnitude exceeds 2^31"),
        ("M1(K)(3( 2147483649))", "line 1, column 9: shift magnitude exceeds 2^31"),
        ("M1(K)(2000000(0))", "line 1, column 7: summand declares n=1 but lists 2000000 shifts"),
        ("M1(K)(-3(0))", "line 1, column 9: expected ')'"),
        ("M1(K)(0) ( +) M1(K)(0)", "line 1, column 10: unexpected trailing input"),
        ("M1(K)(0)\n  (+)\n M1(K)(- x)", "line 3, column 10: expected a shift integer"),
        ("M1(K)(0)(+)", "line 1, column 12: expected 'M'"),
        ("  ", "line 1, column 3: expected 'M'"),
        # digits are ASCII
        ("M²(K)(0)", "line 1, column 2: expected a matrix size"),
        ("M٣(K)(0,0,0)", "line 1, column 2: expected a matrix size"),
        ("M1(K[x^³])(0)", "line 1, column 8: expected a Laurent period"),
        ("M2(K)(0,-٣)", "line 1, column 10: expected a shift integer"),
    ]:
        with pytest.raises(ParseError) as err:
            parse_algebra(text)
        assert str(err.value) == message
        assert message.startswith(f"line {err.value.line}, column {err.value.column}: ")


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


def test_non_steps_are_refused_alike():
    # writing, applying and replaying dispatch on the exact step class: a subclass is no step
    class Shifted(EntryShift):
        pass

    for step in [object(), "G 1", Shifted(1, 2)]:
        message = f"not a certificate step: {step!r}"
        with pytest.raises(TypeError) as written:
            format_certificate([GlobalShift(1), step])
        with pytest.raises(TypeError) as applied:
            apply_certificate((0, 1), [GlobalShift(1), step], GradedBase.laurent(2))
        with pytest.raises(TypeError) as replayed:
            conjugate_by_step(GradedMatrix.zero(GradedBase.laurent(2), (0, 1)), step)
        assert str(written.value) == str(applied.value) == str(replayed.value) == message


def test_parse_certificate_comments_and_blanks():
    steps = parse_certificate("# header\n\nG 1\n  # indented comment\nE 1 2 # tail\n")
    assert steps == [GlobalShift(1), EntryShift(1, 2)]


def test_parse_certificate_errors():
    for bad in ["Q 1", "G", "G 1 2", "E 1", "P 1 x", "P 1 1 2", "E 0 2", "P", "G 1_0", "G ٣", "E 1 2.0"]:
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


# --- the parser contract: any text parses or raises ParseError at a real position ---


def _fuzz(pieces, seeds):
    """Text joined from grammar pieces and arbitrary characters, or a valid
    text with up to three spans of 0..2 characters replaced by such pieces."""
    piece = st.one_of(st.sampled_from(pieces), st.characters())
    free = st.lists(piece, max_size=30).map("".join)

    @st.composite
    def edited(draw):
        text = draw(st.sampled_from(seeds))
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 2)))
            text = text[:i] + draw(st.one_of(st.just(""), piece)) + text[j:]
        return text

    return st.one_of(free, edited())


ALGEBRA_TEXT = _fuzz(
    list("M0123456789(K[x^])+-, \n\t") + ["(+)", "2147483648", "\u3000", "²", "٣"],
    ["M1(K)(0)", "M2(K[x^3])(1,-2) (+) M9(K)(4(0),3(1),2(2))", "M 2 ( K ) ( 2 ( - 5 ) )"],
)
GRAPH_TEXT = _fuzz(
    list("abvx_09->#\n\r \t") + ["vertex", "\u2028", "\x85"],
    ["vertex t\nt -> u\nu -> v hop # c\nv -> u\n", "vertex -> b e1\n"],
)
CERTIFICATE_TEXT = _fuzz(
    list("PGE0123456789+-_# \n") + ["\x0c", "٣"],
    ["P 2 1 3\nG -4\nE 3 2\n", "# c\n\nG +1\n  E 1 2 # t\n"],
)


def _assert_position(err, lines):
    assert 1 <= err.line <= len(lines)
    assert 1 <= err.column <= len(lines[err.line - 1]) + 1


@settings(max_examples=500)
@given(ALGEBRA_TEXT)
def test_parse_algebra_contract(text):
    try:
        total = parse_algebra(text)
    except ParseError as err:
        _assert_position(err, text.split("\n"))
    else:
        assert parse_algebra(str(total)) == total


@settings(max_examples=500)
@given(GRAPH_TEXT)
@example("a -> b ->")
def test_parse_graph_contract(text):
    try:
        g = parse_graph(text)
    except ParseError as err:
        _assert_position(err, text.splitlines())
    else:
        assert parse_graph(format_graph(g)) == g


@settings(max_examples=500)
@given(CERTIFICATE_TEXT)
def test_parse_certificate_contract(text):
    try:
        steps = parse_certificate(text)
    except ParseError as err:
        _assert_position(err, text.splitlines())
    else:
        assert parse_certificate(format_certificate(steps)) == steps


IDS = st.one_of(st.sampled_from(["vertex", "e1", "v"]), st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True))


@st.composite
def graphs(draw):
    vertices = draw(st.lists(IDS, min_size=1, max_size=6, unique=True))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(IDS, ends, ends), max_size=8, unique_by=lambda e: e[0]))
    return DirectedGraph(tuple(vertices), tuple(Edge(*e) for e in edges))


@given(graphs())
def test_format_graph_round_trip(g):
    assert parse_graph(format_graph(g)) == g


SHIFT = st.integers(-(2**31), 2**31)
BASES = st.one_of(st.just(GradedBase.trivial()), st.integers(1, 10**6).map(GradedBase.laurent))
SUMMANDS = st.builds(ShiftedMatrixAlgebra.from_shifts, BASES, st.lists(SHIFT, min_size=1, max_size=6))


@given(st.lists(SUMMANDS, min_size=1, max_size=4))
def test_algebra_str_round_trip(summands):
    total = DirectSumAlgebra(tuple(summands))
    assert parse_algebra(str(total)) == total


STEPS = st.one_of(
    st.integers(1, 6).flatmap(lambda n: st.permutations(range(1, n + 1))).map(Permute),
    SHIFT.map(GlobalShift),
    st.builds(EntryShift, st.integers(1, 10**6), SHIFT),
)


@given(st.lists(STEPS, max_size=6))
def test_format_certificate_round_trip(steps):
    assert parse_certificate(format_certificate(steps)) == steps


# --- the regex readers against the token-by-token parsers they replaced ---


def _outcome(parse, text):
    """The parse result, or the ParseError's message, line and column."""
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.column


# whitespace inside a line: the statement regex and the token scanner must
# agree on every kind, ASCII or not
SPACE = st.sampled_from(["", "", " ", " ", "  ", "\t", "\u3000", "\u00a0"])


@st.composite
def graph_lines(draw):
    """One line of graph text, comment stripped: statement pieces, ids and
    stray characters joined by assorted whitespace."""
    pieces = draw(st.lists(st.sampled_from(["vertex", "->", "a", "b1", "_x", "e1", "vertex", "->", "-", ">", "1", "é"]), max_size=6))
    return "".join(draw(SPACE) + piece for piece in pieces) + draw(SPACE)


# 16,000 edge lines whose one bad line, line 8,000, the reader splits into three tokens
_LONG_TEXT_BAD_AT_8000 = "".join(f"v{i} {'-->' if i == 8000 else '->'} v{i + 1}\n" for i in range(1, 16_001))


@settings(max_examples=500)
@given(st.one_of(GRAPH_TEXT, st.lists(graph_lines(), max_size=6).map("\n".join)))
@example("vertex a\nvertex a")
@example("a -> b e1\nc -> d\nx -> y e2")
# an explicit id taken by a later unnamed edge, and an unnamed edge's id taken later
@example("a -> b e2\nc -> d")
@example("a -> b\nc -> d e1")
# a declaration after an edge has mentioned the vertex
@example("a -> x\nvertex x\nx -> a")
# the first offender wins, whichever check finds it
@example("a -> b\nc -> d e1\nz => y")
@example("a -> b\nz => y\nc -> d e1")
@example("vertex a\nc -> d e1\nc -> d e1\nvertex a")
@example("t -> u\r\nu -> v\x0bv -> u\u2028w -> t # x\x85")
# where one split() per line and the statement regex could disagree
@example("u->v")
@example("u-->v")
@example("a ->-> b")
@example("vertex->x")
@example("vertex ->")
@example("a -> b -> c")
@example("a b c")
@example("a -> b#c -> d")
@example("\u00e9 -> b")
@example("a -> vertex")
@example("vertex vertex")
@example("a\u3000->\u3000b\u3000e\nvertex\u00a0c\na\u00a0->\u00a0c")
@example("a -> b\x1cb -> c\x1cvertex d\u2028vertex d")
@example(_LONG_TEXT_BAD_AT_8000)
def test_parse_graph_matches_token_parser(text):
    assert _outcome(parse_graph, text) == _outcome(naive_parse_graph, text)


@settings(max_examples=500)
@given(graph_lines())
def test_graph_tokens_split_every_accepted_line_and_explain_every_rejected_one(line):
    try:
        parse_graph(line)
    except ParseError:
        with pytest.raises(ParseError) as err:
            parsing._graph_tokens(line, 7)
        assert err.value.line == 7
        assert _outcome(naive_parse_graph, line)[0] == str(err.value).replace("line 7", "line 1", 1)
    else:
        tokens = parsing._graph_tokens(line, 7)
        assert [token for token, _ in tokens] == line.replace("->", " -> ").split()
        assert all(line.startswith(token, col - 1) for token, col in tokens)


# values int() reads but the grammar rejects, or the grammar reads but int() rejects
_ODD_VALUES = [
    str(2**31), str(2**31 - 1), str(2**31 + 1), "9" * 4301, "0" * 4300 + "1", "0" * 4299 + "5", "\uff15", "\u0663",
    "1_0", "", " ", "\x1c5", "5 5",
]
# whitespace before an item, after its sign or '(', and after it
_SHIFT_SPACES = [("", "", ""), ("", "", ""), ("", "", ""), (" ", "", " "), ("\t", " ", "\n"), ("\u3000", "", ""), ("", "\u00a0", ""), ("", "", "\x85")]
# (text, shifts it lists) for a plain item or a repeat item c(s); one draw each keeps long lists cheap
_SHIFT_ITEMS = [
    (f"{before}{sign}{inside}{value}{after}", 1) if count is None else (f"{before}{count}({sign}{inside}{value}){after}", count)
    for count in (None, None, None, 1, 2, 3)
    for sign in ("", "", "-", "+")
    for value in "01234"
    for before, inside, after in _SHIFT_SPACES
]


@st.composite
def shift_lists(draw):
    """An expression whose shift lists are long runs of plain items, with
    repeat items, out-of-range values, over-long numbers, a non-ASCII digit
    and Unicode whitespace spliced in."""
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 80))
        items = draw(st.lists(st.sampled_from(_SHIFT_ITEMS), min_size=size, max_size=size))
        if draw(st.booleans()):  # one odd value, at most
            pos = draw(st.integers(0, size - 1))
            odd = draw(st.sampled_from(["", "-", " + "])) + draw(st.sampled_from(_ODD_VALUES))
            items[pos] = draw(st.sampled_from([(odd, 1), (f"2({odd})", 2)]))
        n = sum(count for _, count in items) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
        base = draw(st.sampled_from(["K", "K[x^3]"]))
        summands.append(f"M{n}({base})({','.join(text for text, _ in items)})")
    return " (+) ".join(summands)


@settings(max_examples=500)
@given(st.one_of(ALGEBRA_TEXT, shift_lists()))
@example("M3(K)(1,1,2(1))")
@example("M4(K)(2(1),1,1,1)")
# adjacent repeats across plain runs and repeat items merge into one run
@example("M5(K)(1,1,2(1),1)")
@example("M7(K[x^3])(2,2,-2,-2,3(-2),2)")
@example("M6(K)(0, 0 ,0,2(0),0)")
@example("M4(K)(1,1,1,1) (+) M3(K)(1,1,2)")
@example("M3(K)(1, - 2 ,3 (4))")
# what int() or str.find could mishandle in a stretch of plain items
@example("M3(K)(\u0663,1,2)")
@example("M12(K)(" + ",".join(["7"] * 6 + ["1_0"] + ["7"] * 5) + ")")
@example("M9(K)(1,2,3,4, - 5,6,7,8,9)")
@example("M5(K)(1,2," + "9" * 4301 + ",4,5)")
@example("M1(K)()")
@example("M1(K)( )")
@example("M2(K)(1,,2)")
@example("M3(K)(1,2,3 (+) M1(K)(0)")
@example("M3(K)(1,2,3")
@example("M3(K)(1,2,3 ")
@example("M6(K)(5,5,2(5),5,5)")
@example("M4(K)(1,(2),3)")
@example("M3(K)(1,\x1c2,3)")
# whitespace that int() does not strip, and a sum after a non-ASCII space
@example("M1(K)(0\x1f)")
@example("M1(K)(0\x85)")
@example("M2(K[x^3])(1,-2\u3000) (+) M9(K)(4(0),3(1),2(2))")
# repeat items a split at '(' and ')' could take: a signed count, text after
# the ')', and an item with no ')' before the next one's
@example("M3(K)(+3(1))")
@example("M3(K)(2(1) 1)")
@example("M5(K)(2(1,3(4))")
# headers read in one match: numbers checked by value, zero-padded or past
# int()'s digit limit, whitespace the cursor skips between every token, and
# what may follow a shift list
@example("M00(K)(0)")
@example("M01(K)(7)")
@example("M1(K[x^00])(0)")
@example("M1(K[x^0002147483648])(0)")
@example("M1(K[x^2147483649])(0)")
@example("M" + "1" * 4301 + "(K)(0)")
@example("M1(K[x^" + "1" * 4301 + "])(0)")
@example("\x1cM\x1c2\x1c(\x1cK\x1c[\x1cx\x1c^\x1c3\x1c]\x1c)\x1c(0,1)")
@example("\u3000M\u30002\u3000(\u3000K\u3000[\u3000x\u3000^\u30003\u3000]\u3000)\u3000(0,1)")
@example("M2(K)(0,1)(+)M1(K[x^2])(1)")
@example("M1(K)(0) (+)")
@example("M1(K)(0) x")
def test_parse_algebra_matches_token_parser(text):
    assert _outcome(parse_algebra, text) == _outcome(naive_parse_algebra, text)


_CERT_BREAKS = ["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
# whitespace inside a line, ASCII or not; \x1f is whitespace but ends no line
_CERT_SPACES = [" ", " ", " ", "  ", "\t", "\u3000", "\u00a0", "\x1f", "\u2003"]
_CERT_ODD_ARGS = [
    "0", "+0", "-0", "+7", "\u0663", "\uff15", "1\u0663", "9" * 4301, "0" * 4300 + "1", "1_0", "x", "--1", "+-1",
]
_CERT_ODD_LINES = [
    "", "# comment", "  # indented", "\u3000", "#", "X 1", "p 1", "PG 1", "P", "G", "G 1 2", "E 1", "E 1 2 3",
    "E#1 2", "G1", "P1 2", "P 1 1", "P 2", "P 0 1", "P 1 3 3",
]


@st.composite
def certificate_texts(draw):
    """A formatted random step list, mutated: lines rejoined with assorted
    whitespace, line breaks, comments and blank lines; arguments given a
    '+', a Unicode digit, a zero index or more digits than int() converts;
    non-permutations and unknown kinds spliced in; the trailing line break
    sometimes dropped."""
    lines = format_certificate(draw(st.lists(STEPS, max_size=6))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_CERT_ODD_LINES)))
    text = ""
    for line in lines:
        kind, *args = line.split() or [""]
        body = kind
        for arg in args:
            mutation = draw(st.integers(0, 11))
            if mutation == 0:
                arg = draw(st.sampled_from(_CERT_ODD_ARGS))
            elif mutation == 1 and not arg.startswith("-"):
                arg = "+" + arg
            body += draw(st.sampled_from(_CERT_SPACES)) + arg
        text += draw(st.sampled_from(["", "", "", " ", "\t", "\u3000"])) + body
        text += draw(st.sampled_from(["", "", "", " ", "\u00a0"]))
        text += draw(st.sampled_from(["", "", "", "# note", "#", " # P 1 2"]))
        text += draw(st.sampled_from(_CERT_BREAKS))
    return text if draw(st.booleans()) else text.rstrip("\n")


def _entry_run(line_2000=None, breaks=("\n",)):
    """A 4,000-line run of E steps with line 2,000 replaced by `line_2000`,
    the lines ended by `breaks` in turn."""
    lines = [f"E {i} {7 * i - 3}" for i in range(1, 4001)]
    if line_2000 is not None:
        lines[1999] = line_2000
    return "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))


@settings(max_examples=800)
@given(st.one_of(certificate_texts(), CERTIFICATE_TEXT))
# a rejected line inside a long run of E steps, and line breaks that a run
# reader could count as two lines or as none
@example(_entry_run("E 2000 x"))
@example(_entry_run("E 0 5"))
@example(_entry_run("E 2000 " + "9" * 4301))
@example(_entry_run(breaks=("\n", "\r\n", "\x85")))
@example(_entry_run("E 2000 x", breaks=("\r\n", "\x85", "\n")))
@example("P 2 1\r\n\tG -3 # x\x1c E 1\u3000+2\x1f")
@example("E 1 2\nE 0 2\nG " + "9" * 4301)
@example("G 1\nG " + "9" * 4301 + "\nE 0 2")
@example("P " + " ".join(map(str, range(2000, 0, -1))) + "\n" + "E 7 -3\n" * 50)
@example("# only comments\n\n  # and blanks")
@example("G 1\nE \u0663 2\n")
@example("P 2 \u0661")
@example("E 1 -\uff12")
@example("G 1\rE 1 2\x0bP 1\x0cG 2\x1dG 3\x1eG 4\x85G 5\u2028G 6\u2029G 7")
# where one split() per line and the row checks could disagree with the line reader
@example("E 1 2#c")
@example("E\u30001\u30002")
@example("E 1\x1f2")
@example("G\x0c1")
@example("E 1 2 3")
@example("E +1 -0")
@example("E 1_0 2")
@example("G 1 # \u0663 _")
# the edges of a stretch of lines whose first token starts with E, read by
# one split(): rows of 2 and 4 tokens that add up to 3k, a first token that
# starts with E but is not E, whitespace before the E, a blank, comment-only
# or G line between two runs, and a run that ends the text with no line break
@example("E 1\nE 2 3 4\n")
@example("E 1 2 E\nE 3\n")
@example("E 1 2\nE 3 4 E\nE 5\n")
@example("EE 1 2")
@example("E1 2 3")
@example("E 1 2\nEE 3 4\n")
@example("E 1 2\n\tE 2 3\n\u3000E 3 4\n")
@example("\u3000E 1 2\n\tE 0 3\n")
@example("E 1 2\n\nE 2 3\n")
@example("E 1 2\n  # a comment\nE 2 3\n")
@example("E 1 2\nG 1\nE 2 3\n")
@example("E 1 2\n\nE 0 3\n")
@example("E 1 2\n# x\nE 2\nG 1\n")
@example("G 1\nE 1 2\nE 2 -3")
@example("G 1\nE 1 2\nE 2 x")
def test_parse_certificate_matches_line_reader(text):
    assert _outcome(parse_certificate, text) == _outcome(naive_parse_certificate, text)


def test_well_formed_certificates_skip_the_line_reader(monkeypatch):
    explained = []
    explain = parsing._explain_certificate
    monkeypatch.setattr(parsing, "_explain_certificate", lambda text: explained.append(text) or explain(text))
    steps = [Permute(tuple(range(4000, 0, -1))), GlobalShift(-7)] + [EntryShift(i, 5 * i) for i in range(1, 4001)]
    text = "# certificate\n" + format_certificate(steps).replace("E 9 ", "\tE\u3000 9 ").replace("\n", "  # x \u0663 _\r\n", 3)
    assert parse_certificate(text) == steps and explained == []
    with pytest.raises(ParseError, match="line 3, column 1: entry index is 1-based"):
        parse_certificate("G 1\n\nE 0 2\nX\n")
    assert explained == ["G 1\n\nE 0 2\nX\n"]


class _CountingRegex:
    """Stands in for a compiled regex and counts its match and finditer calls."""

    def __init__(self, regex):
        self.regex, self.calls = regex, 0

    def match(self, *args):
        self.calls += 1
        return self.regex.match(*args)

    def finditer(self, *args):
        self.calls += 1
        return self.regex.finditer(*args)


def test_well_formed_graph_lines_skip_the_token_scanner(monkeypatch):
    # a silent fall-back to the token scanner fails here, not only in the
    # benchmark
    explained, walked = [], []
    tokens, walk = parsing._graph_tokens, parsing._explain_graph
    monkeypatch.setattr(parsing, "_graph_tokens", lambda *args: explained.append(args) or tokens(*args))
    monkeypatch.setattr(parsing, "_explain_graph", lambda text: walked.append(text) or walk(text))
    scanner = _CountingRegex(parsing._GRAPH_TOKEN_RE)
    monkeypatch.setattr(parsing, "_GRAPH_TOKEN_RE", scanner)
    lines = []
    for i in range(2500):
        lines += [f"vertex v{i}", f"v{i} -> v{i + 1}", f"  v{i}->w{i} f{i}  # side edge -> w", ""]
    lines += ["vertex\t->\u00a0v0", "vertex vertex", "# a comment -> only"]
    g = parse_graph("\n".join(lines))
    # read straight into the id columns: no walk, no token scan, and no Edge tuple yet
    assert explained == walked == [] and scanner.calls == 0 and "edges" not in vars(g)
    assert len(lines) == 10_003 and len(g.edges) == 5001 and g.vertices[-1] == "vertex"
    with pytest.raises(ParseError, match="line 2, column 3: unexpected character '='"):
        parse_graph("a -> b\na => b # c\n")
    assert explained == [("a -> b", 1), ("a => b ", 2)] and walked == ["a -> b\na => b # c\n"] and scanner.calls == 2


def test_plain_shift_runs_skip_the_token_cursor(monkeypatch):
    # the item-by-item reader makes about two cursor matches per shift; valid
    # text, its header and the end included, makes none
    cursor = _CountingRegex(parsing._TOKEN_RE)
    monkeypatch.setattr(parsing, "_TOKEN_RE", cursor)
    rng = random.Random(9)
    shifts = [rng.randint(-3, 3) for _ in range(100_000)]
    a = parse_algebra(f"M100000(K)({','.join(map(str, shifts))})").summands[0]
    assert a == ShiftedMatrixAlgebra.from_shifts(GradedBase.trivial(), shifts)
    assert cursor.calls == 0
    # a repeat item is read in bulk with the rest of its list
    cursor.calls = 0
    a = parse_algebra(f"M100003(K)({','.join(map(str, shifts[:50_000]))},3(-3),{','.join(map(str, shifts[50_000:]))})")
    assert a.summands[0].shifts == (*shifts[:50_000], -3, -3, -3, *shifts[50_000:])
    assert cursor.calls == 0


class _RecordingCursor:
    """Stands in for parsing._TOKEN_RE and keeps the position of each match."""

    def __init__(self):
        self.regex, self.positions = parsing._TOKEN_RE, []

    def match(self, text, pos):
        self.positions.append(pos)
        return self.regex.match(text, pos)


# whitespace the grammar allows between tokens, int() strips or not
_LIST_SPACES = ["", "", "", " ", "\n", "\t", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000", "\u00a0", "\r\n"]


def _valid_item(rng):
    """A valid shift item and the shifts it lists: plain or c(s), with a
    zero-padded count, a shift at or near +-2^31, a sign apart from its
    digits and whitespace of every kind between the tokens."""
    value = rng.choice([0, 1, -1, 2, -3, 2**31, -(2**31), 2**31 - 1, 1 - 2**31])
    sign = "-" if value < 0 else rng.choice(["", "", "+"])
    gaps = [rng.choice(_LIST_SPACES) for _ in range(6)]
    item = gaps[0] + sign + gaps[1] + str(abs(value)) + gaps[2]
    count = rng.randint(0, 4)
    if count:
        item = gaps[3] + rng.choice(["", "0", "00"]) + str(count) + gaps[4] + "(" + item + ")"
    return item + gaps[5], max(count, 1)


# drawn whole, one draw per item, which keeps long lists cheap
_VALID_ITEM_LISTS = st.lists(
    st.sampled_from([_valid_item(random.Random(seed)) for seed in range(2000)]), min_size=1, max_size=12
)


@st.composite
def valid_expressions(draw):
    """A valid sum of 1 to 4 summands."""
    space = st.sampled_from(_LIST_SPACES)
    text = ""
    for k in range(draw(st.integers(1, 4))):
        items = draw(_VALID_ITEM_LISTS)
        base = draw(st.sampled_from(["K", "K[x^3]", "K [ x ^ 1 ]"]))
        text += (draw(space) + "(+)" + draw(space)) if k else ""
        text += f"M{sum(count for _, count in items)}({base}){draw(space)}("
        text += ",".join(item for item, _ in items) + ")"
    return text + draw(space)


_REPEATS = ",".join(f"{k}({k})" for k in range(1, 4001))


@settings(max_examples=300)
@given(valid_expressions())
@example(f"M8002000(K)({_REPEATS})")
def test_valid_shift_lists_skip_the_token_cursor(text):
    # one reader for valid text: the token cursor reads none of it, header,
    # shift list or '(+)'
    cursor = _RecordingCursor()
    with mock.patch.object(parsing, "_TOKEN_RE", cursor):
        total = parse_algebra(text)
    want = naive_parse_algebra(text)
    assert total == want and [a.runs for a in total.summands] == [a.runs for a in want.summands]
    assert cursor.positions == []


def test_equal_neighbours_merge_across_stretches():
    # plain items, repeat items and '- 5' in one list merge into one run per value
    assert parse_algebra("M6(K)(5,5,2(5),5,5)").summands[0].runs == ((5, 6),)
    assert parse_algebra("M7(K)(1,5,2(5),5, - 5,-5)").summands[0].runs == ((1, 1), (5, 4), (-5, 2))
