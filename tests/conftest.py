"""Shared brute-force oracles, random generators and test-only helpers.

Everything here is deliberately independent of the library internals:
rotations by explicit slicing, SCCs by mutual reachability, cycles by
simple-path enumeration, path counts by exhaustive walk enumeration, graded
isomorphism by move-graph search, comets by backward reachability,
certificates applied one step at a time, and homogeneous components and
conjugation on dense matrix grids.  Three earlier implementations stay where
no definition checks the same output at the tests' sizes: graph and algebra
text token by token and certificates line by line, which pin each
ParseError's line and column; graph construction from Edge tuples, which
names the first offender of a ValueError; and path counts with a dict per
level, since walk enumeration is exponential on long chains.  Tests compare
library output against these slow references.

The `small_multigraphs` fixture is the exhaustive grid of every multigraph
on up to three vertices, built once per session; its names sort in the
reverse of their mention order, so a pass that takes mention order for
name order shows on it.  `inverse_step` and `matrix_unit` build certificate
steps and matrices that only tests need.

`replay_failure` is the reference oracle for `conjugate_by_step`: it replays
a certificate on seeded sample matrices whose terms each carry a tag of
their own, and names the first step that moves a term off its degree.  It
takes the conjugation as a parameter, so tests hand it forgeries directly.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import sys
from collections import Counter
from itertools import starmap

import pytest
from hypothesis import settings

from gradedlpa import (
    CycleDescriptor,
    CyclicForm,
    DirectedGraph,
    DirectSumAlgebra,
    Edge,
    EmptyGraphError,
    EntryShift,
    GlobalShift,
    GradedBase,
    GraphClassification,
    GradedMatrix,
    InvalidStepError,
    LaurentElement,
    NotNoExitError,
    ParseError,
    Permute,
    ShiftedMatrixAlgebra,
    TrivialForm,
    VertexNotOnCycleError,
    conjugate_by_step,
)
from gradedlpa.algebras import Step
from gradedlpa.matrices import _as_element, _checked_terms

# Property tests draw the same examples on every run and carry no per-example
# deadline, so a test run's outcome does not depend on the clock or the seed.
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def small_multigraphs() -> tuple[DirectedGraph, ...]:
    """Every multigraph on up to 3 vertices with edge multiplicity up to 2,
    19,768 graphs, on the names v9, v10 and A mentioned in that order."""
    graphs = []
    for n in range(4):
        names = ["v9", "v10", "A"][:n]
        pairs = list(itertools.product(names, repeat=2))
        for mults in itertools.product(range(3), repeat=len(pairs)):
            edges = [pair for pair, m in zip(pairs, mults) for _ in range(m)]
            graphs.append(DirectedGraph.from_edges(edges, isolated=names))
    return tuple(graphs)


def inverse_step(step: Step) -> Step:
    """The certificate step that undoes `step`."""
    if isinstance(step, Permute):
        inv = [0] * len(step.image)
        for pos, src in enumerate(step.image, 1):
            inv[src - 1] = pos
        return Permute(tuple(inv))
    if isinstance(step, GlobalShift):
        return GlobalShift(-step.delta)
    if isinstance(step, EntryShift):
        return EntryShift(step.index, -step.delta)
    raise TypeError(f"not a certificate step: {step!r}")


def naive_apply_certificate(shifts, steps, base: GradedBase) -> tuple[int, ...]:
    """A certificate applied one step at a time by the definition of each
    move: validate the step, then act on the shift list."""
    cur = list(shifts)
    n = len(cur)
    for step in steps:
        kind = type(step)
        if kind is EntryShift:
            if step.index > n:
                raise InvalidStepError(f"entry index {step.index} out of range 1..{n}")
            if base.is_trivial:
                raise InvalidStepError("EntryShift needs an invertible element of nonzero degree; K has none")
            if step.delta % base.period != 0:
                raise InvalidStepError(f"EntryShift degree {step.delta} is not a multiple of the period {base.period}")
            cur[step.index - 1] += step.delta
        elif kind is Permute:
            if len(step.image) != n:
                raise InvalidStepError(f"permutation of {len(step.image)} entries applied to {n} shifts")
            cur = [cur[i - 1] for i in step.image]
        elif kind is GlobalShift:
            cur = [s + step.delta for s in cur]
        else:
            raise TypeError(f"not a certificate step: {step!r}")
    return tuple(cur)


def matrix_unit(base: GradedBase, shifts, i: int, j: int, element=1) -> GradedMatrix:
    """The matrix with `element` at (i, j), 1-based, and zeros elsewhere."""
    shifts = tuple(shifts)
    n = len(shifts)
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"unit position ({i},{j}) out of range 1..{n}")
    terms = _checked_terms(base, ((i - 1, j - 1, _as_element(element)),))
    return GradedMatrix._from_terms(base, shifts, terms)


def naive_least_rotation(seq):
    """Smallest index of a lexicographically minimal rotation, by brute force."""
    seq = tuple(seq)
    n = len(seq)
    return min(range(n), key=lambda i: seq[i:] + seq[:i])


def naive_canonical_form(a: ShiftedMatrixAlgebra):
    """canonical_form by its definition: dense counts of the shifts less the
    least one over K, of the residues over K[x^m] taken at their least
    rotation by explicit slicing."""
    if a.base.is_trivial:
        low = min(a.shifts)
        counts = [0] * (max(a.shifts) - low + 1)
        for s in a.shifts:
            counts[s - low] += 1
        return TrivialForm(len(counts) - 1, tuple(counts))
    m = a.base.period
    counts = [0] * m
    for s in a.shifts:
        counts[s % m] += 1
    return CyclicForm(m, min(tuple(counts[i:] + counts[:i]) for i in range(m)))


@functools.cache
def brute_scc(g: DirectedGraph):
    """SCC partition as a set of frozensets, via mutual reachability.
    Cached per graph, as several grid checks ask for it; no caller mutates it."""
    reach = {v: {v} for v in g.vertices}
    changed = True
    while changed:
        changed = False
        for e in g.edges:
            before = len(reach[e.source])
            reach[e.source] |= reach[e.range]
            if len(reach[e.source]) != before:
                changed = True
    return {
        frozenset(u for u in g.vertices if u in reach[v] and v in reach[u])
        for v in g.vertices
    }


@functools.cache
def brute_cycles(g: DirectedGraph) -> list[CycleDescriptor]:
    """Every cycle of g by its definition, through the public edge list: each
    simple path from a start vertex through vertices of its mutual-reachability
    class named above the start that comes back to the start, in
    cycles_in_order.  Cached per graph like brute_scc; no caller mutates it."""
    sccs = brute_scc(g)
    comp_of = {v: comp for comp in sccs for v in comp}
    out = {v: [] for v in g.vertices}
    for pos, e in enumerate(g.edges):
        out[e.source].append((pos, e.range))
    walks = []

    def extend(start, path, v, on_path):
        for pos, w in out[v]:
            if w == start:
                walks.append(path + [pos])
            elif w > start and w in comp_of[start] and w not in on_path:
                extend(start, path + [pos], w, on_path | {w})

    for v in g.vertices:
        extend(v, [], v, {v})
    return cycles_in_order(g, walks, sccs)


def cycles_in_order(g: DirectedGraph, walks, sccs) -> list[CycleDescriptor]:
    """The cycle through the edge positions of each walk, started at its
    least vertex, ordered by the least name of its class in `sccs`, then its
    start, then its edge positions."""
    edges = g.edges
    least = {v: min(comp) for comp in sccs for v in comp}
    keyed = []
    for walk in walks:
        sources = [edges[pos].source for pos in walk]
        at = sources.index(min(sources))
        keyed.append((least[sources[at]], sources[at], walk[at:] + walk[:at]))
    keyed.sort()
    return [CycleDescriptor(tuple(edges[p].source for p in walk), tuple(edges[p].eid for p in walk)) for *_, walk in keyed]


def _backward_walks(g: DirectedGraph, target: str, bound: int):
    """All edge paths of length <= bound ending at target, as eid lists in
    forward order, paired with their source vertex."""
    walks = [([], target)]
    frontier = [([], target)]
    while frontier:
        nxt = []
        for edges, head in frontier:
            if len(edges) == bound:
                continue
            for e in g.edges:
                if e.range == head:
                    item = ([e.eid] + edges, e.source)
                    nxt.append(item)
                    walks.append(item)
        frontier = nxt
    return walks


def naive_paths_to_sink(g: DirectedGraph, sink: str):
    """(source, length) pairs for every path into a sink, by walk enumeration."""
    bound = len(g.vertices)
    walks = _backward_walks(g, sink, bound)
    assert not any(len(edges) >= bound for edges, _ in walks), "walks should stay simple"
    return sorted((src, len(edges)) for edges, src in walks)


def naive_paths_to_cycle(g: DirectedGraph, cycle_eids, base: str):
    """(source, length) pairs for paths to base avoiding the cycle.

    A path contains the cycle when some rotation of the cycle's edge list
    appears as a contiguous block of the path's edges.
    """
    cyc = list(cycle_eids)
    rotations = [cyc[i:] + cyc[:i] for i in range(len(cyc))]

    def contains_cycle(edges):
        L = len(cyc)
        return any(edges[i : i + L] in rotations for i in range(len(edges) - L + 1))

    bound = len(g.vertices) + len(cyc)
    walks = _backward_walks(g, base, bound)
    at_cap = [edges for edges, _ in walks if len(edges) == bound]
    assert all(contains_cycle(edges) for edges in at_cap), "cap must only cut repeats"
    return sorted((src, len(edges)) for edges, src in walks if not contains_cycle(edges))


def _reaches_backward(g: DirectedGraph, targets):
    reached = set(targets)
    frontier = list(reached)
    while frontier:
        v = frontier.pop()
        for e in g.edges:
            if e.range == v and e.source not in reached:
                reached.add(e.source)
                frontier.append(e.source)
    return reached


def _weak_components(g: DirectedGraph):
    comp = {v: {v} for v in g.vertices}
    for e in g.edges:
        merged = comp[e.source] | comp[e.range]
        for v in merged:
            comp[v] = merged
    return {frozenset(c) for c in comp.values()}


def out_degrees(g: DirectedGraph) -> Counter:
    """Each vertex's number of out-edges, counted once from g.edges; a vertex
    that emits none is 0."""
    return Counter(e.source for e in g.edges)


def naive_classify(g: DirectedGraph) -> GraphClassification:
    """classify by its definition: cycles by brute_cycles, and a component
    is a comet when it holds exactly one cycle and reaches it backward from
    every vertex."""
    cycles = tuple(brute_cycles(g))
    degree = out_degrees(g)
    on_cycle = {v for c in cycles for v in c.vertices}
    comet = True
    for comp in _weak_components(g):
        local = [c for c in cycles if c.vertices[0] in comp]
        if len(local) != 1 or not comp <= _reaches_backward(g, local[0].vertices):
            comet = False
    return GraphClassification(
        acyclic=not cycles,
        no_exit=all(degree[v] == 1 for v in on_cycle),
        comet_per_component=comet,
        sinks=tuple(sorted(v for v in g.vertices if degree[v] == 0)),
        regular=tuple(sorted(v for v in g.vertices if degree[v] > 0)),
        cycles=cycles,
    )


def random_no_exit_graph(rng: random.Random, max_extra: int = 5, max_cycles: int = 2):
    """A random finite no-exit graph: disjoint cycles plus an acyclic layer
    feeding into them, with parallel edges and isolated vertices allowed."""
    pairs = []
    pool = []
    n_cycles = rng.randint(0, max_cycles)
    for ci in range(n_cycles):
        length = rng.randint(1, 4)
        cyc = [f"c{ci}x{j}" for j in range(length)]
        for j in range(length):
            pairs.append((cyc[j], cyc[(j + 1) % length]))
        pool.extend(cyc)
    n_extra = rng.randint(0 if n_cycles else 1, max_extra)
    for i in range(n_extra):
        v = f"u{i}"
        for _ in range(rng.randint(0, 2) if pool else 0):
            pairs.append((v, rng.choice(pool)))
        pool.append(v)
    pool.extend(f"z{i}" for i in range(rng.randint(0, 1)))
    # pool lists every vertex; from_edges ignores the ones already mentioned
    return DirectedGraph.from_edges(pairs, isolated=pool)


class WindowExceededError(Exception):
    """The reachability search window is too large to explore exhaustively."""


def oracle_iso(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra, bound: int) -> bool:
    """Independent decision by breadth-first search over sorted shift lists.

    Moves are GlobalShift(+-1) and, over a Laurent base, EntryShift(i, +-m);
    values are confined to the window [min-bound, max+bound] around the inputs.
    Intended for small instances only; raises WindowExceededError when the
    implied state space is too large to sweep.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if a.base != b.base or a.n != b.n:
        return False
    lo = min(min(a.shifts), min(b.shifts)) - bound
    hi = max(max(a.shifts), max(b.shifts)) + bound
    if a.n > 6 or hi - lo + 1 > 200:
        raise WindowExceededError(f"n={a.n}, window width {hi - lo + 1} is past the sweep limit")
    start = tuple(sorted(a.shifts))
    target = tuple(sorted(b.shifts))
    period = a.base.period
    seen = {start}
    frontier = [start]
    while frontier:
        if target in seen:
            return True
        next_frontier = []
        for state in frontier:
            moves = []
            if state[-1] + 1 <= hi:
                moves.append(tuple(v + 1 for v in state))
            if state[0] - 1 >= lo:
                moves.append(tuple(v - 1 for v in state))
            if period is not None:
                for i, v in enumerate(state):
                    for nv in (v + period, v - period):
                        if lo <= nv <= hi:
                            moves.append(tuple(sorted(state[:i] + (nv,) + state[i + 1 :])))
            for nxt in moves:
                if nxt not in seen:
                    seen.add(nxt)
                    next_frontier.append(nxt)
        frontier = next_frontier
    return target in seen


def random_base(rng: random.Random, max_period: int = 4) -> GradedBase:
    if rng.random() < 0.4:
        return GradedBase.trivial()
    return GradedBase.laurent(rng.randint(1, max_period))


def random_matrix(rng: random.Random, base: GradedBase, shifts) -> GradedMatrix:
    """Entries with up to three monomials of base-compatible degrees."""
    n = len(shifts)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            for _ in range(rng.randint(0, 3)):
                degree = base.period * rng.randint(-3, 3) if base.is_laurent else 0
                terms[degree] = rng.randint(-9, 9)
            row.append(LaurentElement(terms))
        rows.append(tuple(row))
    return GradedMatrix(base, tuple(shifts), tuple(rows))


def naive_components(matrix: GradedMatrix) -> dict[int, GradedMatrix]:
    """homogeneous_components on dense grids: one n x n grid of cells per
    degree present, filled entry by entry."""
    shifts = matrix.shifts
    n = matrix.n
    entries = matrix.entries
    buckets: dict[int, list[list[dict[int, int]]]] = {}
    for i in range(n):
        for j in range(n):
            for deg, coeff in entries[i][j].items():
                delta = deg + shifts[i] - shifts[j]
                grid = buckets.get(delta)
                if grid is None:
                    grid = [[{} for _ in range(n)] for _ in range(n)]
                    buckets[delta] = grid
                grid[i][j][deg] = coeff
    return {
        delta: GradedMatrix(
            matrix.base,
            shifts,
            tuple(tuple(LaurentElement(cell) for cell in row) for row in grid),
        )
        for delta, grid in sorted(buckets.items())
    }


def naive_conjugate(matrix: GradedMatrix, step) -> GradedMatrix:
    """conjugate_by_step on the dense rows of a matrix, for a valid step:
    permute rows and columns, relabel the shifts, or multiply row and column
    i by x^-d and x^d."""
    n = matrix.n
    entries = matrix.entries
    if isinstance(step, Permute):
        img = step.image
        rows = tuple(tuple(entries[img[i] - 1][img[j] - 1] for j in range(n)) for i in range(n))
        shifts = tuple(matrix.shifts[img[i] - 1] for i in range(n))
        return GradedMatrix(matrix.base, shifts, rows)
    if isinstance(step, GlobalShift):
        return GradedMatrix(matrix.base, tuple(s + step.delta for s in matrix.shifts), entries)
    i0, d = step.index - 1, step.delta
    rows = [list(row) for row in entries]
    for j in range(n):
        if j != i0:
            # a cell times x^-d or x^d, on the cell's own terms
            rows[i0][j] = LaurentElement({e - d: c for e, c in rows[i0][j].items()})
            rows[j][i0] = LaurentElement({e + d: c for e, c in rows[j][i0].items()})
    shifts = list(matrix.shifts)
    shifts[i0] += d
    return GradedMatrix(matrix.base, tuple(shifts), tuple(tuple(r) for r in rows))


def replay_failure(a: ShiftedMatrixAlgebra, b: ShiftedMatrixAlgebra, steps, conjugate=conjugate_by_step):
    """Why replaying the certificate `steps`, which applies to a, with
    `conjugate` on three seeded sample matrices of a breaks a graded
    isomorphism onto b, or None when it does not.  Each term of a sample has
    a tag of its own for coefficient; after every step each tag must appear
    once, at its old degree, and the last step must land on b's shifts."""
    n, period = a.n, a.base.period or 1
    rng = random.Random(20_000 + n)

    def sample_degrees():
        """The degrees of one sample entry's nonzero terms, ascending."""
        if a.base.is_laurent:
            cell = {period * rng.randint(-3, 3): rng.randint(-9, 9) for _ in range(rng.randint(0, 2))}
            return sorted(d for d, c in cell.items() if c)
        return (0,) if rng.randint(-9, 9) else ()

    def tag_degrees(matrix):
        shifts = matrix.shifts
        return {c: e + shifts[i] - shifts[j] for (i, j, e), c in matrix._terms.items()}

    for _ in range(3):
        terms = {}
        for i in range(n):
            for j in range(n):
                for e in sample_degrees():
                    terms[i, j, e] = len(terms) + 1
        matrix = GradedMatrix._from_terms(a.base, a.shifts, terms)
        degree_of = tag_degrees(matrix)
        for step in steps:
            matrix = conjugate(matrix, step)
            if len(matrix._terms) != len(degree_of) or tag_degrees(matrix) != degree_of:
                return "a step moved a homogeneous component off its degree"
        if matrix.shifts != b.shifts:
            return "matrix conjugation does not land on the target shifts"
    return None


def random_certificate(rng: random.Random, base: GradedBase, n: int, length=None):
    steps = []
    for _ in range(rng.randint(0, 6) if length is None else length):
        kind = rng.randrange(3 if base.is_laurent else 2)
        if kind == 0:
            image = list(range(1, n + 1))
            rng.shuffle(image)
            steps.append(Permute(tuple(image)))
        elif kind == 1:
            steps.append(GlobalShift(rng.randint(-5, 5)))
        else:
            steps.append(EntryShift(rng.randint(1, n), base.period * rng.randint(-3, 3)))
    return steps


def diamond_chain(k: int) -> DirectedGraph:
    """j0 -> {a1, b1} -> j1 -> ... -> jk: 2^(k+2) - 3 paths end at the sink
    jk, 2^(k-i) of them from j_i."""
    edges = []
    for i in range(1, k + 1):
        edges += [(f"j{i-1}", f"a{i}"), (f"j{i-1}", f"b{i}"), (f"a{i}", f"j{i}"), (f"b{i}", f"j{i}")]
    return DirectedGraph.from_edges(edges)


def comet_edges(k: int, tail: int = 3) -> list[tuple[str, str]]:
    """k disjoint comets: c<j>t0 -> ... -> c<j>t<tail>, a loop at the end."""
    edges = []
    for j in range(k):
        chain = [f"c{j}t{i}" for i in range(tail + 1)]
        edges += list(zip(chain, chain[1:])) + [(chain[-1], chain[-1])]
    return edges


def random_realizable_summand(rng: random.Random) -> ShiftedMatrixAlgebra:
    """A summand admitted by the realizability criteria, with scrambled shifts."""
    if rng.random() < 0.5:
        k = rng.randint(0, 6)
        mults = [1] + [rng.randint(1, 4) for _ in range(k)]
        base = GradedBase.trivial()
        shifts = [i for i, count in enumerate(mults) for _ in range(count)]
    else:
        m = rng.randint(1, 6)
        mults = [rng.randint(1, 4) for _ in range(m)]
        base = GradedBase.laurent(m)
        shifts = [
            i + m * rng.randint(-2, 2) for i, count in enumerate(mults) for _ in range(count)
        ]
    rng.shuffle(shifts)
    delta = rng.randint(-3, 3)
    return ShiftedMatrixAlgebra.from_shifts(base, tuple(s + delta for s in shifts))


# --- the token-by-token parsers, as references for the bulk readers ---

_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_MAX_SHIFT = 2**31
_GRAPH_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|->|\S")
_TOKEN_RE = re.compile(r"\s*([0-9]+|\S?)")


def _tokenize_graph_line(line: str, lineno: int) -> list[tuple[str, int]]:
    tokens = []
    for match in _GRAPH_TOKEN_RE.finditer(line):
        text = match.group()
        col = match.start() + 1
        if text != "->" and not _ID_RE.fullmatch(text):
            raise ParseError(f"unexpected character {text!r}", lineno, col)
        tokens.append((text, col))
    return tokens


def naive_parse_graph(text: str) -> DirectedGraph:
    """The token-by-token graph parser, a reference for parse_graph's split
    reader."""
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
        if head == "vertex" and (len(tokens) == 1 or tokens[1][0] != "->"):
            if len(tokens) == 1:
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
        if len(tokens) > 3 and tokens[3][0] == "->":
            raise ParseError("unexpected '->' after edge statement", lineno, tokens[3][1])
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


def naive_parse_algebra(text: str) -> DirectSumAlgebra:
    """The item-by-item expression parser that reads every shift through
    the token cursor."""
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
    def summand():
        size_pos = at + 1
        expect("M")
        n = nat("a matrix size")
        if n < 1:
            fail("the matrix size must be positive", size_pos)
        expect("(")
        expect("K")
        base = GradedBase.trivial()
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
            base = GradedBase.laurent(m)
        expect(")")
        list_pos = at + 1
        expect("(")
        runs: list[tuple[int, int]] = []
        total, last = 0, None
        while True:
            start, count, repeat = at, 1, False
            if tok == "+" or tok == "-":
                value = integer()
            else:
                value = nat("a shift integer")
                if tok == "(":
                    if value < 1:
                        fail("a shift multiplicity must be positive", start)
                    start, count, repeat = at + 1, value, True
                    advance()
                    value = integer()
            if abs(value) > _MAX_SHIFT:
                fail("shift magnitude exceeds 2^31", start)
            total += count
            # runs stay normalised as they are read: a repeated shift extends the last run
            if value == last:
                count += runs.pop()[1]
            runs.append((value, count))
            last = value
            if repeat:
                expect(")")
            if tok != ",":
                break
            advance()
        expect(")")
        if total != n:
            fail(f"summand declares n={n} but lists {total} shifts", list_pos)
        return ShiftedMatrixAlgebra(base, runs)

    advance()
    summands = [summand()]
    while tok == "(" and text.startswith("(+)", at):
        end = at + 3
        advance()
        summands.append(summand())
    if tok:
        fail("unexpected trailing input", at)
    return DirectSumAlgebra(tuple(summands))


_INT_RE = re.compile(r"[+-]?[0-9]+")


def naive_parse_certificate(text: str) -> list:
    """The line-by-line certificate reader, a reference for parse_certificate's
    split reader."""
    steps: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind, args = fields[0], fields[1:]
        if not all(map(_INT_RE.fullmatch, args)):
            raise ParseError("certificate arguments must be integers", lineno, 1)
        try:
            numbers = [int(x) for x in args]
            if kind == "P" and numbers:
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


# --- graph construction from Edge tuples, as a reference for the id columns ---


def naive_graph(vertices, edges):
    """The checks of the DirectedGraph constructor before it kept id columns:
    (vertices, edges) as tuples, or the ValueError naming the first offender."""
    vertices = tuple(vertices)
    edges = tuple(edges)
    if set(map(type, edges)) - {Edge}:
        edges = tuple(starmap(Edge, edges))
    known = set(vertices)
    eids, sources, ranges = zip(*edges) if edges else ((), (), ())
    if len(known) == len(vertices) and len(set(eids)) == len(edges) and known.issuperset(sources + ranges):
        return vertices, edges
    # invalid: walk the lists to name the first offender
    seen = set()
    for v in vertices:
        if v in seen:
            raise ValueError(f"duplicate vertex id {v!r}")
        seen.add(v)
    eids = set()
    for e in edges:
        if e.eid in eids:
            raise ValueError(f"duplicate edge id {e.eid!r}")
        eids.add(e.eid)
        for endpoint in (e.source, e.range):
            if endpoint not in seen:
                raise ValueError(f"edge {e.eid!r} uses unknown vertex {endpoint!r}")


def naive_from_edges(pairs, isolated=()):
    """DirectedGraph.from_edges before the graph kept id columns, through
    naive_graph: (vertices, edges), or the ValueError."""
    vertices: list[str] = []
    known = set()

    def mention(v):
        if v not in known:
            known.add(v)
            vertices.append(v)

    edges = []
    for pos, pair in enumerate(pairs, 1):
        if len(pair) == 2:
            src, dst = pair
            eid = f"e{pos}"
        else:
            src, dst, eid = pair
        mention(src)
        mention(dst)
        edges.append(Edge(eid, src, dst))
    for v in isolated:
        mention(v)
    return naive_graph(tuple(vertices), tuple(edges))


# --- the dict-per-level path counts, as a reference for the chain walk ---


def naive_path_counts(g: DirectedGraph, end: str, cycle: CycleDescriptor | None = None):
    """_path_counts over the Edge tables, keyed by vertex name."""
    in_edges: dict[str, list] = {v: [] for v in g.vertices}
    for e in g.edges:
        in_edges[e.range].append(e)
    blocked = None if cycle is None else end
    # no cycle vertex reaches a sink in a no-exit graph, and a path avoiding a
    # cycle enters it at most once, so every counted path is this short
    bound = len(g.vertices) + (0 if cycle is None else cycle.length)
    table: list[tuple[int, str, int]] = []
    level = {end: 1}
    length = 0
    while level:
        table.extend((length, v, level[v]) for v in sorted(level))
        length += 1
        if length > bound:
            raise NotNoExitError("path enumeration did not terminate; graph is not no-exit")
        nxt: dict[str, int] = {}
        for v, count in level.items():
            for e in in_edges[v]:
                if e.source != blocked:
                    nxt[e.source] = nxt.get(e.source, 0) + count
        level = nxt
    return table




def naive_summand_counts(g: DirectedGraph, base_choice, cycles=None):
    """_summand_counts by the definitions: the cycles by brute_cycles, or
    `cycles`, those of a graph too large to enumerate, known from how it was
    built; a vertex lies in a cyclic component exactly when it lies on a
    cycle, and the least such vertex not emitting exactly one edge is the
    exit the error names; then naive_path_counts, one table counted per
    summand and call."""
    if not g.vertices:
        raise EmptyGraphError("the graph has no vertices")
    cycles = brute_cycles(g) if cycles is None else cycles
    degree = out_degrees(g)
    exits = [v for c in cycles for v in c.vertices if degree[v] != 1]
    if exits:
        v = min(exits)
        raise NotNoExitError(f"cycle vertex {v!r} emits {degree[v]} edges")
    for key in base_choice:
        if key not in cycles:
            raise ValueError(f"base choice keyed by a cycle not in this graph: {key}")
    sinks = sorted(v for v in g.vertices if degree[v] == 0)
    out = [(None, sink, naive_path_counts(g, sink)) for sink in sinks]
    for cycle in cycles:
        base = base_choice.get(cycle, cycle.vertices[0])
        if base not in cycle.vertices:
            raise VertexNotOnCycleError(f"vertex {base!r} is not on the cycle {cycle.vertices}")
        out.append((cycle, base, naive_path_counts(g, base, cycle)))
    return out
