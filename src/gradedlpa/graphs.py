"""Finite directed multigraphs and the path bookkeeping the algebra side needs.

Vertices are identifier strings.  Parallel edges and loops are allowed and are
told apart by edge id.  A graph is *no-exit* when every vertex lying on a cycle
emits exactly one edge; in such graphs every cycle is the unique cycle of its
strongly connected component, no cycle vertex reaches a sink, and all path
enumerations below are finite.

All types are immutable and all operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import starmap
from typing import Iterable, Mapping, NamedTuple

from .algebras import _require_listable
from .errors import (
    EmptyGraphError,
    NotASinkError,
    NotNoExitError,
    TooManyCyclesError,
    UnknownVertexError,
    VertexNotOnCycleError,
)

DEFAULT_CYCLE_CAP = 10_000


class Edge(NamedTuple):
    eid: str
    source: str
    range: str


@dataclass(frozen=True)
class DirectedGraph:
    """A finite directed multigraph with ordered vertices and edges."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vertices = tuple(self.vertices)
        edges = tuple(self.edges)
        if set(map(type, edges)) - {Edge}:
            edges = tuple(starmap(Edge, edges))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        known = set(vertices)
        eids, sources, ranges = zip(*edges) if edges else ((), (), ())
        if len(known) == len(vertices) and len(set(eids)) == len(edges) and known.issuperset(sources + ranges):
            return
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

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple], isolated: Iterable[str] = ()) -> "DirectedGraph":
        """Build a graph from (source, range) or (source, range, eid) tuples.

        Vertex order is first-mention order, with `isolated` vertices appended.
        Unnamed edges get ids e1, e2, ... by position.
        """
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
        return cls(tuple(vertices), tuple(edges))

    @cached_property
    def _out(self) -> dict[str, tuple[Edge, ...]]:
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.source].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _in(self) -> dict[str, tuple[Edge, ...]]:
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.range].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def _analysis(self) -> "_Analysis":
        comps = tuple(strongly_connected_components(self))
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
        # a vertex lies on a cycle iff its SCC contains an edge
        cyclic = sorted({comp_of[e.source] for e in self.edges if comp_of[e.source] == comp_of[e.range]})
        sinks = tuple(sorted(v for v in self.vertices if not self._out[v]))
        exits = [v for i in cyclic for v in comps[i] if len(self._out[v]) != 1]
        if exits:
            return _Analysis(comps, min(exits), sinks, ())
        # in a no-exit graph a cyclic SCC is one cycle: follow the unique out-edges
        cycles = []
        for i in cyclic:
            walk = [self._out[comps[i][0]][0]]
            while walk[-1].range != comps[i][0]:
                walk.append(self._out[walk[-1].range][0])
            cycles.append(CycleDescriptor(tuple(e.source for e in walk), tuple(e.eid for e in walk)))
        return _Analysis(comps, None, sinks, tuple(cycles))

    def require_vertex(self, v: str):
        if v not in self._out:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self.require_vertex(v)
        return self._in[v]

    def out_degree(self, v: str) -> int:
        return len(self.out_edges(v))


@dataclass(frozen=True)
class CycleDescriptor:
    """A cycle, stored once, starting at its lexicographically smallest vertex.

    Edge i runs from vertices[i] to vertices[(i+1) % length]; all sources are
    distinct, so the cycle is determined by its edge list up to rotation.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.edges or len(self.vertices) != len(self.edges):
            raise ValueError("a cycle has equally many vertices and edges, at least one each")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.edges)


class _Analysis(NamedTuple):
    """What one SCC pass tells about a graph."""

    components: tuple[tuple[str, ...], ...]  # in strongly_connected_components order
    exit_vertex: str | None  # smallest cycle vertex not emitting exactly one edge
    sinks: tuple[str, ...]
    cycles: tuple[CycleDescriptor, ...]  # in find_cycles order; empty unless no-exit


@dataclass(frozen=True)
class GraphClassification:
    acyclic: bool
    no_exit: bool
    comet_per_component: bool
    sinks: tuple[str, ...]
    regular: tuple[str, ...]
    cycles: tuple[CycleDescriptor, ...]


def strongly_connected_components(g: DirectedGraph) -> list[tuple[str, ...]]:
    """Tarjan's algorithm, iterative.  Components come back as sorted vertex
    tuples, ordered by their smallest vertex."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[tuple[str, ...]] = []
    counter = 0

    for root in g.vertices:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(g._out[root]))]
        while work:
            v, edge_iter = work[-1]
            pushed = False
            for e in edge_iter:
                w = e.range
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(g._out[w])))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                components.append(tuple(sorted(comp)))
    components.sort(key=lambda c: c[0])
    return components


def _require_no_exit(g: DirectedGraph):
    v = g._analysis.exit_vertex
    if v is not None:
        raise NotNoExitError(f"cycle vertex {v!r} emits {g.out_degree(v)} edges")


def find_cycles(g: DirectedGraph, cap: int = DEFAULT_CYCLE_CAP) -> list[CycleDescriptor]:
    """Every cycle of g, each reported once, anchored at its smallest vertex.

    Enumeration is SCC by SCC; within an SCC a depth-first search from each
    anchor uses only vertices >= the anchor, so each cycle appears exactly
    once.  Raises TooManyCyclesError past `cap`.
    """
    cycles: list[CycleDescriptor] = []
    for comp in g._analysis.components:
        comp_set = set(comp)
        for anchor in comp:
            # frames: (vertex, pending out-edge iterator); edge_path mirrors frames[1:]
            frames = [(anchor, iter(g.out_edges(anchor)))]
            edge_path: list[Edge] = []
            on_path = {anchor}
            while frames:
                v, edge_iter = frames[-1]
                pushed = False
                for e in edge_iter:
                    w = e.range
                    if w not in comp_set or w < anchor:
                        continue
                    if w == anchor:
                        walk = edge_path + [e]
                        if len(cycles) >= cap:
                            raise TooManyCyclesError(f"more than {cap} cycles")
                        cycles.append(
                            CycleDescriptor(
                                tuple(x.source for x in walk),
                                tuple(x.eid for x in walk),
                            )
                        )
                        continue
                    if w in on_path:
                        continue
                    frames.append((w, iter(g.out_edges(w))))
                    edge_path.append(e)
                    on_path.add(w)
                    pushed = True
                    break
                if not pushed:
                    frames.pop()
                    if edge_path:
                        edge_path.pop()
                    on_path.discard(v)
    return cycles


def _count_weak_components(g: DirectedGraph) -> int:
    neighbours: dict[str, set[str]] = {v: set() for v in g.vertices}
    for e in g.edges:
        neighbours[e.source].add(e.range)
        neighbours[e.range].add(e.source)
    seen: set[str] = set()
    count = 0
    for root in g.vertices:
        if root in seen:
            continue
        count += 1
        frontier = [root]
        seen.add(root)
        while frontier:
            v = frontier.pop()
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
    return count


def classify(g: DirectedGraph) -> GraphClassification:
    """Flags and inventories used by every downstream operation.

    A weakly connected component counts as a comet when it contains exactly
    one cycle and every one of its vertices has a path to that cycle.  Only a
    graph that is not no-exit needs general cycle enumeration, which raises
    TooManyCyclesError past DEFAULT_CYCLE_CAP cycles.
    """
    _, exit_vertex, sinks, cycles = g._analysis
    if exit_vertex is not None:
        cycles = tuple(find_cycles(g))
    # every vertex reaches a sink or a cycle, so a component is a comet iff it
    # has exactly one cycle and no sink; without sinks every component has a cycle
    comet = not sinks and len(cycles) == _count_weak_components(g)
    return GraphClassification(
        acyclic=not cycles,
        no_exit=exit_vertex is None,
        comet_per_component=comet,
        sinks=sinks,
        regular=tuple(sorted(v for v in g.vertices if g.out_degree(v) > 0)),
        cycles=cycles,
    )


def _path_counts(g: DirectedGraph, end: str, cycle: CycleDescriptor | None = None):
    """The paths of g ending at `end`, counted per (length, source).

    Returns (length, source, count) triples ascending by length, then source.
    With `cycle`, counts only the paths not containing it: those never extend
    backward through `end`.  A dynamic program over reversed edges: each level
    maps a vertex to its number of paths of that length, and an in-edge adds
    that number once, so parallel edges count once per path.  Costs one entry
    per (vertex, length) pair, not one per path.  Raises NotNoExitError when a
    path outgrows the no-exit bound.

    A chain of two diamonds x -> {p, q} -> y -> {r, s} -> z:

    >>> g = DirectedGraph.from_edges([("x", "p"), ("x", "q"), ("p", "y"), ("q", "y"),
    ...                               ("y", "r"), ("y", "s"), ("r", "z"), ("s", "z")])
    >>> _path_counts(g, "z")
    [(0, 'z', 1), (1, 'r', 1), (1, 's', 1), (2, 'y', 2), (3, 'p', 2), (3, 'q', 2), (4, 'x', 4)]
    """
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
            for e in g._in[v]:
                if e.source != blocked:
                    nxt[e.source] = nxt.get(e.source, 0) + count
        level = nxt
    return table


def _expand(table) -> list[tuple[str, int]]:
    """One (source, length) pair per path counted in a _path_counts table."""
    _require_listable(sum(count for _, _, count in table))
    paths: list[tuple[str, int]] = []
    for length, source, count in table:
        paths += [(source, length)] * count
    return paths


def _summand_counts(g: DirectedGraph, base_choice: Mapping[CycleDescriptor, str]):
    """The path counts behind each summand of g's representation.

    Returns (cycle, vertex, table) per summand: sinks first, with cycle None
    and the sink as vertex, then cycles, with their base vertex from
    `base_choice` or else their smallest vertex.  Raises EmptyGraphError,
    NotNoExitError, ValueError for a choice keyed by a foreign cycle, then
    VertexNotOnCycleError, in that order.
    """
    if not g.vertices:
        raise EmptyGraphError("the graph has no vertices")
    _require_no_exit(g)
    _, _, sinks, cycles = g._analysis
    known = set(cycles)
    for key in base_choice:
        if key not in known:
            raise ValueError(f"base choice keyed by a cycle not in this graph: {key}")
    out = [(None, sink, _path_counts(g, sink)) for sink in sinks]
    for cycle in cycles:
        base = base_choice.get(cycle, cycle.vertices[0])
        _require_on_cycle(cycle, base)
        out.append((cycle, base, _path_counts(g, base, cycle)))
    return out


def paths_to_sink(g: DirectedGraph, sink: str) -> list[tuple[str, int]]:
    """All paths of g ending in `sink`, as (source, length) pairs.

    Includes the trivial path (sink, 0).  Sorted by length, then source id;
    parallel edges contribute one entry per path.
    """
    g.require_vertex(sink)
    _require_no_exit(g)
    if g.out_degree(sink) != 0:
        raise NotASinkError(f"vertex {sink!r} emits edges")
    return _expand(_path_counts(g, sink))


def paths_to_cycle_vertex(
    g: DirectedGraph, cycle: CycleDescriptor, base: str
) -> list[tuple[str, int]]:
    """All paths ending at `base` that do not contain `cycle`.

    A path contains the cycle exactly when it visits `base` more than once, so
    the reverse walk simply never extends through `base`.  Includes the trivial
    path (base, 0); sorted by length then source id.
    """
    _require_no_exit(g)
    _validate_cycle(g, cycle)
    _require_on_cycle(cycle, base)
    return _expand(_path_counts(g, base, cycle))


def _require_on_cycle(cycle: CycleDescriptor, base: str):
    if base not in cycle.vertices:
        raise VertexNotOnCycleError(f"vertex {base!r} is not on the cycle {cycle.vertices}")


def _validate_cycle(g: DirectedGraph, cycle: CycleDescriptor):
    n = cycle.length
    for i, eid in enumerate(cycle.edges):
        edge = Edge(eid, cycle.vertices[i], cycle.vertices[(i + 1) % n])
        if edge not in g._out.get(edge.source, ()):
            raise ValueError(f"descriptor edge {eid!r} is not a cycle edge of this graph")


def build_line(n: int) -> DirectedGraph:
    """The line graph L_n: v1 -> v2 -> ... -> vn."""
    if n < 1:
        raise ValueError("n must be positive")
    return DirectedGraph.from_edges(
        [(f"v{i}", f"v{i+1}") for i in range(1, n)],
        isolated=[f"v{i}" for i in range(1, n + 1)],
    )


def build_cycle_tail(n: int) -> DirectedGraph:
    """The graph C_n: the line L_n with a loop added at the last vertex."""
    if n < 1:
        raise ValueError("n must be positive")
    pairs = [(f"v{i}", f"v{i+1}") for i in range(1, n)]
    pairs.append((f"v{n}", f"v{n}"))
    return DirectedGraph.from_edges(pairs)
