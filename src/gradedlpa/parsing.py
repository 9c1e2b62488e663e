"""Textual formats: the graph description language, the algebra expression
grammar, certificate files, and DOT output.

Graph files hold one statement per line; '#' starts a comment.

    vertex <id>              declare an isolated vertex
    <src> -> <dst> [<id>]    declare an edge; unnamed edges get e1, e2, ...

An id is an ASCII identifier (_all_ids), in graph text and in DOT output.
A line 'vertex -> ...' is an edge whose source is the vertex named 'vertex'.
Each line is read by one str.split(), after every '->' is spaced apart and
any comment cut off, straight into the graph's id columns; the names are
checked afterwards, a column at a time.  Only a text that fails is read
again, line by line, by the token scanner, which names its first offending
line and column.

Algebra expressions follow

    sum      := summand ( "(+)" summand )*
    summand  := "M" nat "(" base ")" "(" shiftlist ")"
    base     := "K" | "K[x^" nat "]"
    shiftlist:= item ("," item)*       item := int | nat "(" int ")"
    nat      := [0-9]+                 int  := ["+" | "-"] nat

where nat "(" int ")" repeats a shift, so M9(K)(4(0),3(1),2(2)) means the
shift list (0,0,0,0,1,1,1,2,2).  Digits are ASCII.  Whitespace may appear
between any two tokens, but not inside a number or the separator "(+)".
A shift magnitude and a period are at most 2^31.  A size or a repeat count
has no limit, but no number may have more digits than int() converts
(sys.get_int_max_str_digits(), 4300 by default).  Valid text is read in
bulk and never by the token cursor.  Each summand's header is one regex
match, its size and period then checked by value.  Each shift list, repeat
items included, is one split(","), one int() per shift and per repeat
count, then again with each whitespace run made one space and each sign
joined to its digits if int() refused it.  The separator, or the end of the
text, is one more match.  Only a header, a list or the text after a list
that fails goes to the token cursor, which names its offending token.

Certificate files hold one step per line; '#' starts a comment.

    P <i_1> ... <i_n>        permute: new shift k is old shift i_k (1-based)
    G <delta>                add delta to every shift
    E <index> <delta>        add delta to one shift

Every argument is an ASCII integer [+-]?[0-9]+, read by _ints, as corner
--indices is.  Each line is read by one str.split(), as graph text is; a run
of E lines becomes two int columns, and a G or P step's constructor checks
it.  Only a text that fails is read again, line by line, to name its first
offending line.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable, Sequence

from .algebras import (
    DirectSumAlgebra,
    EntryShift,
    GlobalShift,
    GradedBase,
    Permute,
    ShiftedMatrixAlgebra,
    Step,
    _Certificate,
)
from .errors import ParseError
from .graphs import _UNNAMED, DirectedGraph, _distinct_eids

_MAX_SHIFT = 2**31


# --- graph format ---

_GRAPH_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|\S")


def _graph_tokens(line: str, lineno: int) -> list[tuple[str, int]]:
    """The (token, column) pairs of a line, comment stripped, that is blank,
    a declaration or an edge; the ParseError for any other line."""
    tokens = []
    for match in _GRAPH_TOKEN_RE.finditer(line):
        text = match.group()
        col = match.start() + 1
        if text != "->" and not _all_ids((text,)):
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        tokens.append((text, col))
    if not tokens:
        return tokens
    head, head_col = tokens[0]
    if head == "vertex" and (len(tokens) == 1 or tokens[1][0] != "->"):
        if len(tokens) == 1:
            raise ParseError("expected a vertex id after 'vertex'", lineno, head_col + len(head))
        if len(tokens) == 2:
            return tokens
        raise ParseError(f"unexpected {tokens[2][0]!r} after vertex declaration", lineno, tokens[2][1])
    if head == "->":
        raise ParseError("expected a source vertex before '->'", lineno, head_col)
    if len(tokens) < 2 or tokens[1][0] != "->":
        col = tokens[1][1] if len(tokens) > 1 else head_col + len(head)
        raise ParseError("expected '->' after the source vertex", lineno, col)
    if len(tokens) < 3 or tokens[2][0] == "->":
        raise ParseError("expected a target vertex after '->'", lineno, tokens[1][1] + 2)
    if len(tokens) == 3:
        return tokens
    if tokens[3][0] == "->":
        raise ParseError("unexpected '->' after edge statement", lineno, tokens[3][1])
    if len(tokens) == 4:
        return tokens
    raise ParseError(f"unexpected {tokens[4][0]!r} after edge statement", lineno, tokens[4][1])


def _explain_graph(text: str):
    """Raise the ParseError for the first offending line of a text that
    parse_graph rejects: a malformed line, a repeated vertex declaration or
    a repeated edge id, each found from _graph_tokens' columns."""
    declared: set[str] = set()
    edge_ids: set[str] = set()
    edge_count = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = _graph_tokens(raw.split("#", 1)[0], lineno)
        if len(tokens) == 2:  # vertex <id>
            name, col = tokens[1]
            if name in declared:
                raise ParseError(f"duplicate vertex {name!r}", lineno, col)
            declared.add(name)
        elif tokens:  # <src> -> <dst> [<id>]; an unnamed edge is placed at its source
            edge_count += 1
            eid, col = tokens[3] if len(tokens) == 4 else (f"e{edge_count}", tokens[0][1])
            if eid in edge_ids:
                raise ParseError(f"duplicate edge id {eid!r}", lineno, col)
            edge_ids.add(eid)
    raise AssertionError("the text has no offending line")


def _all_ids(names) -> bool:
    """Whether every name is an id, in one pass per check: a name is an id
    exactly when it is an ASCII identifier."""
    return all(map(str.isidentifier, names)) and "".join(names).isascii()


def parse_graph(text: str) -> DirectedGraph:
    """Parse the graph description language into a DirectedGraph.

    One split() per line gives its tokens, once every '->' is spaced apart
    and comments are cut off: three or four with '->' second are an edge,
    'vertex' and a name a declaration, none a blank line.  The names are
    checked afterwards by _all_ids, a column at a time.  Only a text that
    fails is read again, by _explain_graph, which scans it line by line into
    tokens to name its first offending line and column.
    """
    lines = text.replace("->", " -> ").splitlines()
    rows = (line.partition("#")[0].split() for line in lines) if "#" in text else map(str.split, lines)
    id_of: dict[str, int] = {}  # vertex name -> id, in mention order
    declared: set[str] = set()
    eids: list = []
    named: list[str] = []
    sources: list[int] = []
    ranges: list[int] = []
    vertex_id, add_eid, add_source, add_range = id_of.setdefault, eids.append, sources.append, ranges.append
    for row in rows:
        if len(row) == 3:
            src, arrow, dst = row
            eid = _UNNAMED
        elif len(row) == 4:
            src, arrow, dst, eid = row
            named.append(eid)
        else:
            if len(row) == 2 and row[0] == "vertex" and row[1] not in declared:
                declared.add(row[1])
                vertex_id(row[1], len(id_of))
            elif row:
                _explain_graph(text)
            continue
        if arrow != "->":
            _explain_graph(text)
        add_source(vertex_id(src, len(id_of)))
        add_range(vertex_id(dst, len(id_of)))
        add_eid(eid)
    if not (_all_ids(id_of) and _all_ids(named)):
        _explain_graph(text)
    # a column of named edges alone is checked as it stands; a mixed one with
    # every unnamed id filled in, so that a named e2 collides with unnamed edge 2
    if not (len(set(named)) == len(named) if len(named) == len(eids) else _distinct_eids(eids)):
        _explain_graph(text)
    return DirectedGraph._from_columns(id_of, eids, sources, ranges)


def format_graph(g: DirectedGraph) -> str:
    """Graph text that parses back to exactly the same graph, written from
    the id columns: every vertex, then every edge.

    Each column is checked by _all_ids; only a column that fails, or holds
    an id that is not a string, is read again, name by name, to name its
    first unwritable id.
    """
    eids, sources, ranges = g._edge_columns()
    for column in (g.vertices, eids):
        try:
            writable = _all_ids(column)
        except TypeError:  # an id that is not a string
            writable = False
        if not writable:
            name = next(name for name in column if not (isinstance(name, str) and _all_ids((name,))))
            raise ValueError(f"id {name!r} cannot be written in the graph text format")
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"{source} -> {range_} {eid}" for source, range_, eid in zip(sources, ranges, eids)]
    return "\n".join(lines) + "\n"


# --- algebra expressions ---


# One token at the cursor: a run of ASCII digits or any other single
# character, after whitespace.  The empty token marks the end of the text.
_TOKEN_RE = re.compile(r"\s*([0-9]+|\S?)")
# A summand's header, the tokens 'M' n '(' 'K' ['[' 'x' '^' m ']'] ')' '(',
# each after the whitespace the cursor skips: the digits of n and of m.
_HEADER_RE = re.compile(r"\s*M\s*([0-9]+)\s*\(\s*K\s*(?:\[\s*x\s*\^\s*([0-9]+)\s*\]\s*)?\)\s*\(")
# What follows a shift list: the separator "(+)", or the end of the text.
_AFTER_RE = re.compile(r"\s*(?:(\(\+\))|\Z)")


def parse_algebra(text: str) -> DirectSumAlgebra:
    """Parse an algebra expression, possibly a direct sum.

    Each summand is one match of _HEADER_RE, its size and period checked by
    value, then its shift list read in bulk, then one match of _AFTER_RE
    for the separator or the end of the text.  Summands share one
    GradedBase per period.  Only what fails, a header, a shift list or the
    text after one, is read again by the token cursor, which names its
    offending token.

    >>> str(parse_algebra("M9(K)(4(0),3(1),2(2))").summands[0])
    'M9(K)(0,0,0,0,1,1,1,2,2)'
    """
    match = _TOKEN_RE.match
    tok, at, end = "", 0, 0  # the lookahead token, its start and its end

    def advance():
        nonlocal tok, at, end
        m = match(text, end)
        tok = m[1]
        at, end = m.span(1)  # the token ends the match

    def fail(message, pos):
        raise ParseError(message, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))

    def expect(literal):
        if tok != literal:
            fail(f"expected {literal!r}", at)
        advance()

    def nat(what):
        if not "0" <= tok[:1] <= "9":
            fail(f"expected {what}", at)
        try:
            value = int(tok)
        except ValueError:  # more digits than int() converts
            fail(f"a number has more than {sys.get_int_max_str_digits()} digits", at)
        advance()
        return value

    def integer():
        sign = tok
        if sign == "+" or sign == "-":
            advance()
        value = nat("a shift integer")
        return -value if sign == "-" else value

    # Size, period and shift-count errors, and a repeated shift's magnitude,
    # point just after the 'M', '^' or '(' before them; the others point at
    # the token or the shift item they concern.
    def explain_header(pos):
        """Raise the ParseError for the summand header at pos that _HEADER_RE
        or the checks on its numbers refused."""
        nonlocal end
        end = pos
        advance()
        size_pos = at + 1
        expect("M")
        if nat("a matrix size") < 1:
            fail("the matrix size must be positive", size_pos)
        expect("(")
        expect("K")
        if tok == "[":
            advance()
            expect("x")
            period_pos = at + 1
            expect("^")
            m = nat("a Laurent period")
            if m < 1:
                fail("the Laurent period must be positive (m = 0 is not a grading)", period_pos)
            if m > _MAX_SHIFT:
                fail("the Laurent period exceeds 2^31", period_pos)
            expect("]")
        expect(")")
        expect("(")
        raise AssertionError("the summand header has no offending token")

    summands = []
    bases = {}  # one GradedBase per period, None for K
    pos = 0  # where the next summand's header starts, whitespace included
    while True:
        header = _HEADER_RE.match(text, pos)
        n = 0
        if header:
            try:
                n, period = int(header[1]), header[2] and int(header[2])
            except ValueError:  # more digits than int() converts; n stays 0
                pass
        if n < 1 or period is not None and not 0 < period <= _MAX_SHIFT:
            explain_header(pos)
        try:
            base = bases[period]
        except KeyError:
            base = bases[period] = GradedBase.trivial() if period is None else GradedBase.laurent(period)
        list_pos = header.end()  # just after the '(' that opens the shift list
        # the list ends at the first ')' that closes no repeat item
        stop, close = list_pos, text.find(")", list_pos)
        while close >= 0 and text.find("(", stop, close) >= 0:
            stop, close = close + 1, text.find(")", close + 1)
        body = text[list_pos:close] if close >= 0 else ""
        for respaced in False, True:
            if respaced:
                # what the grammar reads and int() does not: \x1c-\x1f, a
                # non-ASCII space and a sign apart from its digits
                body = " ".join(body.split()).replace("- ", "-").replace("+ ", "+")
            if not body.isascii() or "_" in body:  # int() reads Unicode digits and '_' too
                continue
            items = body.split(",")
            counts = None
            try:
                if "(" in body:  # repeat items c(s): a count, then its shift
                    counts = [1] * len(items)
                    for i in [i for i, item in enumerate(items) if "(" in item]:
                        count, _, rest = items[i].partition("(")
                        items[i], paren, tail = rest.partition(")")
                        if not paren or tail.strip() or "-" in count or "+" in count:
                            raise ValueError
                        counts[i] = int(count)
                values = list(map(int, items))
            except ValueError:  # a malformed repeat item, or an item int() refuses
                continue
            if -_MAX_SHIFT <= min(values) <= max(values) <= _MAX_SHIFT and (counts is None or min(counts) > 0):
                break
        else:  # the token cursor names the offending item
            end = list_pos
            advance()
            while True:
                start, repeated = at, False
                if tok == "+" or tok == "-":
                    value = integer()
                else:
                    value = nat("a shift integer")
                    if tok == "(":
                        if value < 1:
                            fail("a shift multiplicity must be positive", start)
                        start, repeated = at + 1, True
                        advance()
                        value = integer()
                if abs(value) > _MAX_SHIFT:
                    fail("shift magnitude exceeds 2^31", start)
                if repeated:
                    expect(")")
                if tok != ",":
                    break
                advance()
            expect(")")
            raise AssertionError("the shift list has no offending item")
        total = len(values) if counts is None else sum(counts)
        if total != n:
            try:
                listed = f"{total} shifts"
            except ValueError:  # more digits than str() converts
                listed = f"a number of shifts with more than {sys.get_int_max_str_digits()} digits"
            fail(f"summand declares n={n} but lists {listed}", list_pos)
        summands.append(ShiftedMatrixAlgebra._from_columns(base, values, counts or (1,) * total))
        after = _AFTER_RE.match(text, close + 1)
        if after is None:
            end = close + 1
            advance()
            fail("unexpected trailing input", at)
        if after[1] is None:
            return DirectSumAlgebra(tuple(summands))
        pos = after.end()


# --- certificates ---


def format_certificate(steps: Iterable[Step]) -> str:
    """One step per line: 'P <image>', 'G <delta>' or 'E <index> <delta>',
    for any iterable of steps.  A run of EntryShifts is written from its
    columns in one join.  Steps are told apart by their exact class, as
    apply_certificate does: anything else, a subclass too, is a TypeError."""
    lines = []
    for kind, step in _Certificate.of(steps).runs:
        if kind is EntryShift:
            lines.append("\n".join(map("E {} {}".format, *step)))
        elif kind is Permute:
            lines.append("P " + " ".join(map(str, step.image)))
        elif kind is GlobalShift:
            lines.append(f"G {step.delta}")
        else:
            raise TypeError(f"not a certificate step: {step!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def _entry_columns(run: list[list[str]]) -> tuple[list[int], list[int]]:
    """The index and delta columns of a run of 'E <index> <delta>' rows; a
    ValueError if int() refuses an argument or an index is below 1."""
    _, indices, deltas = zip(*run)
    indices = list(map(int, indices))
    if min(indices) < 1:
        raise ValueError("entry index is 1-based")
    return indices, list(map(int, deltas))


def parse_certificate(text: str) -> Sequence[Step]:
    """Read a certificate a row per line: splitlines(), comments cut, one
    split() per line.  Each run of E rows becomes the index and delta
    columns of a run of EntryShifts; a G or P row becomes its step.  Only a
    text that fails is read again, by _explain_certificate, to name its
    first offending line.  The result is read-only and equals the list of
    its steps.

    >>> parse_certificate("G 2  # align\\nE 3 -4\\n")
    [GlobalShift(delta=2), EntryShift(index=3, delta=-4)]
    """
    lines = text.splitlines()
    rows = (line.partition("#")[0].split() for line in lines) if "#" in text else map(str.split, lines)
    rows = list(filter(None, rows))
    # of what split() leaves, int() reads beyond [+-]?[0-9]+ only '_' and Unicode digits
    fields = "".join(map("".join, rows))
    if not fields.isascii() or "_" in fields:
        _explain_certificate(text)
    steps = _Certificate()
    run: list[list[str]] = []  # the E rows since the last G or P row
    try:
        for row in rows:
            if len(row) == 3 and row[0] == "E":
                run.append(row)
                continue
            if run:
                steps._add_entries(*_entry_columns(run))
                run = []
            if row[0] == "G" and len(row) == 2:
                steps._add(GlobalShift(int(row[1])))
            elif row[0] == "P" and len(row) > 1:
                steps._add(Permute(tuple(map(int, row[1:]))))
            else:
                raise ValueError("unknown certificate step")
        if run:
            steps._add_entries(*_entry_columns(run))
    except ValueError:  # a refused row, Permute's check, or more digits than int() converts
        _explain_certificate(text)
    return steps


def _ints(tokens: Sequence[str]) -> list[int]:
    """The values of ASCII integer tokens, [+-]?[0-9]+; else a ValueError worded
    for certificate arguments, or as parse_algebra words too many digits."""
    unsigned = (token[1:] if token[:1] in ("+", "-") else token for token in tokens)
    if not all(map(str.isdecimal, unsigned)) or not "".join(tokens).isascii():
        raise ValueError("certificate arguments must be integers")
    try:
        return list(map(int, tokens))
    except ValueError:
        raise ValueError(f"a number has more than {sys.get_int_max_str_digits()} digits") from None


def _explain_certificate(text: str):
    """Raise the ParseError for the first offending line of a certificate
    that parse_certificate rejects."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *args = line.split()
        try:
            numbers = _ints(args)
            if kind == "P" and numbers:
                Permute(tuple(numbers))
            elif kind == "G" and len(numbers) == 1:
                GlobalShift(numbers[0])
            elif kind == "E" and len(numbers) == 2:
                EntryShift(numbers[0], numbers[1])
            else:
                raise ParseError(f"unknown certificate step {line!r}", lineno, 1)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from None
    raise AssertionError("the certificate has no offending line")


# --- DOT output ---

_DOT_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}


def _dot_id(name: str) -> str:
    if _all_ids((name,)) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: DirectedGraph) -> str:
    """Render the graph in DOT from the id columns: each vertex no edge
    touches, then every edge.  Ids are quoted only when necessary."""
    dot = list(map(_dot_id, g.vertices))
    incident = set(g._sources).union(g._ranges)
    lines = ["digraph {"]
    lines += [f"  {name};" for v, name in enumerate(dot) if v not in incident]
    sources, ranges = map(dot.__getitem__, g._sources), map(dot.__getitem__, g._ranges)
    lines += [f"  {source} -> {range_};" for source, range_ in zip(sources, ranges)]
    lines.append("}")
    return "\n".join(lines) + "\n"
