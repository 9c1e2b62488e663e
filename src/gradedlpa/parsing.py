"""Textual formats: the graph description language, the algebra expression
grammar, certificate files, and DOT output.

Graph files hold one statement per line; '#' starts a comment.

    vertex <id>              declare an isolated vertex
    <src> -> <dst> [<id>]    declare an edge; unnamed edges get e1, e2, ...

Algebra expressions follow

    sum      := summand ( "(+)" summand )*
    summand  := "M" nat "(" base ")" "(" shiftlist ")"
    base     := "K" | "K[x^" nat "]"
    shiftlist:= item ("," item)*       item := int | nat "(" int ")"

where nat "(" int ")" repeats a shift, so M9(K)(4(0),3(1),2(2)) means the
shift list (0,0,0,0,1,1,1,2,2).  Whitespace is insignificant.
"""

from __future__ import annotations

import re

from .algebras import (
    DirectSumAlgebra,
    EntryShift,
    GlobalShift,
    GradedBase,
    Permute,
    ShiftedMatrixAlgebra,
    Step,
)
from .errors import ParseError
from .graphs import DirectedGraph, Edge

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MAX_SHIFT = 2**31
_MAX_SIZE = 1_000_000


# --- graph format ---

_GRAPH_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|\S")


def _tokenize_graph_line(line: str, lineno: int) -> list[tuple[str, int]]:
    tokens = []
    for match in _GRAPH_TOKEN_RE.finditer(line):
        text = match.group()
        col = match.start() + 1
        if text != "->" and not _ID_RE.fullmatch(text):
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        tokens.append((text, col))
    return tokens


def parse_graph(text: str) -> DirectedGraph:
    """Parse the graph description language into a DirectedGraph."""
    vertices: list[str] = []
    known: set[str] = set()
    declared: set[str] = set()
    edges: list[Edge] = []
    edge_ids: set[str] = set()
    edge_count = 0

    def mention(v: str):
        if v not in known:
            known.add(v)
            vertices.append(v)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        tokens = _tokenize_graph_line(line, lineno)
        if not tokens:
            continue
        head, head_col = tokens[0]
        if head == "vertex":
            if len(tokens) < 2 or tokens[1][0] == "->":
                raise ParseError("expected a vertex id after 'vertex'", lineno, head_col + len(head))
            if len(tokens) > 2:
                raise ParseError(f"unexpected {tokens[2][0]!r} after vertex declaration", lineno, tokens[2][1])
            name, col = tokens[1]
            if name in declared:
                raise ParseError(f"duplicate vertex {name!r}", lineno, col)
            declared.add(name)
            mention(name)
            continue
        if head == "->":
            raise ParseError("expected a source vertex before '->'", lineno, head_col)
        if len(tokens) < 2 or tokens[1][0] != "->":
            col = tokens[1][1] if len(tokens) > 1 else head_col + len(head)
            raise ParseError("expected '->' after the source vertex", lineno, col)
        if len(tokens) < 3 or tokens[2][0] == "->":
            raise ParseError("expected a target vertex after '->'", lineno, tokens[1][1] + 2)
        if len(tokens) > 4:
            raise ParseError(f"unexpected {tokens[4][0]!r} after edge statement", lineno, tokens[4][1])
        src, dst = tokens[0][0], tokens[2][0]
        edge_count += 1
        if len(tokens) == 4:
            eid, eid_col = tokens[3]
        else:
            eid, eid_col = f"e{edge_count}", head_col
        if eid in edge_ids:
            raise ParseError(f"duplicate edge id {eid!r}", lineno, eid_col)
        edge_ids.add(eid)
        mention(src)
        mention(dst)
        edges.append(Edge(eid, src, dst))
    return DirectedGraph(tuple(vertices), tuple(edges))


def format_graph(g: DirectedGraph) -> str:
    """Graph text that parses back to exactly the same graph."""
    for name in list(g.vertices) + [e.eid for e in g.edges]:
        if not _ID_RE.fullmatch(name):
            raise ValueError(f"id {name!r} cannot be written in the graph text format")
    lines = [f"vertex {v}" for v in g.vertices]
    lines.extend(f"{e.source} -> {e.range} {e.eid}" for e in g.edges)
    return "\n".join(lines) + "\n"


# --- algebra expressions ---


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: int | None = None):
        pos = self.pos if pos is None else pos
        consumed = self.text[:pos]
        line = consumed.count("\n") + 1
        column = pos - (consumed.rfind("\n") + 1) + 1
        raise ParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.try_literal(literal):
            self.error(f"expected {literal!r}")

    def nat(self, what: str) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error(f"expected {what}")
        return int(self.text[start : self.pos])

    def int_(self, what: str) -> int:
        self.skip_ws()
        sign = 1
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            sign = -1 if self.text[self.pos] == "-" else 1
            self.pos += 1
        return sign * self.nat(what)


def _parse_base(s: _Scanner) -> GradedBase:
    s.expect("K")
    if not s.try_literal("["):
        return GradedBase.trivial()
    s.expect("x")
    s.expect("^")
    pos = s.pos
    m = s.nat("a Laurent period")
    if m < 1:
        s.error("the Laurent period must be positive (m = 0 is not a grading)", pos)
    s.expect("]")
    return GradedBase.laurent(m)


def _parse_shift(s: _Scanner, shifts: list[int]):
    s.skip_ws()
    start = s.pos
    ch = s.peek()
    if ch in "+-":
        value = s.int_("a shift integer")
        _check_shift(s, value, start)
        shifts.append(value)
        return
    value = s.nat("a shift integer")
    if s.peek() == "(":
        s.expect("(")
        if value < 1:
            s.error("a shift multiplicity must be positive", start)
        inner_start = s.pos
        shift = s.int_("a shift integer")
        _check_shift(s, shift, inner_start)
        s.expect(")")
        if len(shifts) + value > _MAX_SIZE:
            s.error("shift list too long", start)
        shifts.extend([shift] * value)
        return
    _check_shift(s, value, start)
    shifts.append(value)


def _check_shift(s: _Scanner, value: int, pos: int):
    if abs(value) > _MAX_SHIFT:
        s.error(f"shift magnitude exceeds 2^31", pos)


def _parse_summand(s: _Scanner) -> ShiftedMatrixAlgebra:
    s.expect("M")
    pos = s.pos
    n = s.nat("a matrix size")
    if n < 1:
        s.error("the matrix size must be positive", pos)
    if n > _MAX_SIZE:
        s.error("matrix size too large", pos)
    s.expect("(")
    base = _parse_base(s)
    s.expect(")")
    s.expect("(")
    list_pos = s.pos
    shifts: list[int] = []
    _parse_shift(s, shifts)
    while s.try_literal(","):
        _parse_shift(s, shifts)
    s.expect(")")
    if len(shifts) != n:
        s.error(f"summand declares n={n} but lists {len(shifts)} shifts", list_pos)
    return ShiftedMatrixAlgebra(base, n, tuple(shifts))


def parse_algebra(text: str) -> DirectSumAlgebra:
    """Parse an algebra expression, possibly a direct sum.

    >>> str(parse_algebra("M9(K)(4(0),3(1),2(2))").summands[0])
    'M9(K)(0,0,0,0,1,1,1,2,2)'
    """
    s = _Scanner(text)
    summands = [_parse_summand(s)]
    while s.try_literal("(+)"):
        summands.append(_parse_summand(s))
    if not s.at_end():
        s.error("unexpected trailing input")
    return DirectSumAlgebra(tuple(summands))


# --- certificates ---


def format_certificate(steps) -> str:
    """One step per line: 'P <image>', 'G <delta>' or 'E <index> <delta>'."""
    lines = []
    for step in steps:
        if isinstance(step, Permute):
            lines.append("P " + " ".join(str(i) for i in step.image))
        elif isinstance(step, GlobalShift):
            lines.append(f"G {step.delta}")
        elif isinstance(step, EntryShift):
            lines.append(f"E {step.index} {step.delta}")
        else:
            raise ValueError(f"not a certificate step: {step!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_certificate(text: str) -> list[Step]:
    steps: list[Step] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        try:
            numbers = [int(x) for x in args]
        except ValueError:
            raise ParseError("certificate arguments must be integers", lineno, 1) from None
        try:
            if kind == "P":
                steps.append(Permute(tuple(numbers)))
            elif kind == "G" and len(numbers) == 1:
                steps.append(GlobalShift(numbers[0]))
            elif kind == "E" and len(numbers) == 2:
                steps.append(EntryShift(numbers[0], numbers[1]))
            else:
                raise ParseError(f"unknown certificate step {line!r}", lineno, 1)
        except ValueError as exc:
            raise ParseError(str(exc), lineno, 1) from None
    return steps


# --- DOT output ---

_DOT_KEYWORDS = {"graph", "digraph", "subgraph", "node", "edge", "strict"}


def _dot_id(name: str) -> str:
    if _ID_RE.fullmatch(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: DirectedGraph) -> str:
    """Render the graph in DOT; ids are quoted only when necessary."""
    incident = {e.source for e in g.edges} | {e.range for e in g.edges}
    lines = ["digraph {"]
    lines.extend(f"  {_dot_id(v)};" for v in g.vertices if v not in incident)
    lines.extend(f"  {_dot_id(e.source)} -> {_dot_id(e.range)};" for e in g.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
