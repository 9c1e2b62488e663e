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
    def _index(self) -> "_Index":
        names = sorted(self.vertices)
        id_of = {v: i for i, v in enumerate(names)}
        succ: list[list[int]] = [[] for _ in names]
        pred: list[list[int]] = [[] for _ in names]
        if self.edges:
            _, sources, ranges = zip(*self.edges)
            for s, r in zip(map(id_of.__getitem__, sources), map(id_of.__getitem__, ranges)):
                succ[s].append(r)
                pred[r].append(s)
        return _Index(names, id_of, succ, pred)

    @cached_property
    def _analysis(self) -> "_Analysis":
        comps = tuple(strongly_connected_components(self))
        names, id_of, succ, _ = self._index
        # a component is cyclic iff it has two or more vertices or a loop
        cyclic = [comp for comp in comps if len(comp) > 1 or (i := id_of[comp[0]]) in succ[i]]
        sinks = tuple(names[i] for i, out in enumerate(succ) if not out)
        exits = [v for comp in cyclic for v in comp if len(succ[id_of[v]]) != 1]
        if exits:
            return _Analysis(comps, min(exits), sinks, ())
        # in a no-exit graph a cyclic SCC is one cycle: follow the unique out-edges
        cycles = []
        for comp in cyclic:
            walk = [self._out[comp[0]][0]]
            while walk[-1].range != comp[0]:
                walk.append(self._out[walk[-1].range][0])
            cycles.append(CycleDescriptor(tuple(e.source for e in walk), tuple(e.eid for e in walk)))
        return _Analysis(comps, None, sinks, tuple(cycles))

    @cached_property
    def _default_counts(self) -> tuple:
        """(cycle, vertex, table) per summand at default base vertices, counted
        once per graph; _summand_counts, which checks the graph first, reads it."""
        _, _, sinks, cycles = self._analysis
        out = [(None, sink, tuple(_path_counts(self, sink))) for sink in sinks]
        out += [(c, c.vertices[0], tuple(_path_counts(self, c.vertices[0], c))) for c in cycles]
        return tuple(out)

    # Edge tables, built on first use by out_edges, in_edges, the cycle walk,
    # find_cycles and _validate_cycle; the whole-graph passes read _index
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

    def require_vertex(self, v: str):
        if v not in self._index.id_of:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    # out_edges and in_edges ask the table they read, so they never build _index
    def out_edges(self, v: str) -> tuple[Edge, ...]:
        if v not in self._out:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        if v not in self._in:
            raise UnknownVertexError(f"unknown vertex {v!r}")
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


class _Index(NamedTuple):
    """A graph's vertices as ids: a vertex's id is its rank in sorted name
    order, so ascending ids are sorted names."""

    names: list[str]  # by id
    id_of: dict[str, int]
    succ: list[list[int]]  # per id, the range ids of its out-edges in edge order
    pred: list[list[int]]  # per id, the source ids of its in-edges in edge order


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
    """Tarjan's algorithm, iterative, over vertex ids.  Components come back
    as sorted vertex tuples, ordered by their smallest vertex."""
    names, _, succ, _ = g._index
    done = len(names)  # the index of a vertex already placed in a component
    index = [-1] * done
    low = [0] * done
    stack: list[int] = []
    by_least: list[tuple[str, ...] | None] = [None] * done  # each component at its smallest id
    counter = 0
    for root in range(done):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # the depth-first path and, per vertex on it, its pending out-edges
        path = [root]
        pending = [iter(succ[root])]
        while path:
            v = path[-1]
            for w in pending[-1]:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    pending.append(iter(succ[w]))
                    break
                # on the stack index[w] < done; placed, it never lowers low[v]
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                pending.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        index[w] = done
                    comp.sort()
                    # ids rank the names, so sorted ids give a sorted name tuple
                    by_least[comp[0]] = tuple(map(names.__getitem__, comp))
    return [comp for comp in by_least if comp is not None]


def _require_no_exit(g: DirectedGraph):
    v = g._analysis.exit_vertex
    if v is not None:
        _, id_of, succ, _ = g._index
        raise NotNoExitError(f"cycle vertex {v!r} emits {len(succ[id_of[v]])} edges")


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
            frames = [(anchor, iter(g._out[anchor]))]
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
                    frames.append((w, iter(g._out[w])))
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
    _, _, succ, pred = g._index
    seen = [False] * len(succ)
    count = 0
    for root in range(len(seen)):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in succ[v] + pred[v]:
                if not seen[w]:
                    seen[w] = True
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
    names, _, succ, _ = g._index
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
        regular=tuple(name for name, out in zip(names, succ) if out),
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
    names, id_of, _, pred = g._index
    blocked = -1 if cycle is None else id_of[end]
    # no cycle vertex reaches a sink in a no-exit graph, and a path avoiding a
    # cycle enters it at most once, so every counted path is this short
    bound = len(names) + (0 if cycle is None else cycle.length)
    table: list[tuple[int, str, int]] = []
    level = {id_of[end]: 1}
    length = 0
    while level:
        # ids rank the names, so ascending ids give rows in source order
        for v in sorted(level):
            table.append((length, names[v], level[v]))
        length += 1
        if length > bound:
            raise NotNoExitError("path enumeration did not terminate; graph is not no-exit")
        nxt: dict[int, int] = {}
        for v, count in level.items():
            for u in pred[v]:
                if u != blocked:
                    nxt[u] = nxt.get(u, 0) + count
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
    known = set(g._analysis.cycles)
    for key in base_choice:
        if key not in known:
            raise ValueError(f"base choice keyed by a cycle not in this graph: {key}")
    # the tables at default bases are shared; only a moved base counts anew
    # (a sink's cycle is None, never a key)
    out = list(g._default_counts)
    for pos, (cycle, vertex, _) in enumerate(out):
        base = base_choice.get(cycle, vertex)
        if base != vertex:
            _require_on_cycle(cycle, base)
            out[pos] = (cycle, base, _path_counts(g, base, cycle))
    return out


def paths_to_sink(g: DirectedGraph, sink: str) -> list[tuple[str, int]]:
    """All paths of g ending in `sink`, as (source, length) pairs.

    Includes the trivial path (sink, 0).  Sorted by length, then source id;
    parallel edges contribute one entry per path.
    """
    g.require_vertex(sink)
    _require_no_exit(g)
    _, id_of, succ, _ = g._index
    if succ[id_of[sink]]:
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
