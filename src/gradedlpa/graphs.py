"""Finite directed multigraphs and the path bookkeeping the algebra side needs.

Vertices are identifier strings.  Parallel edges and loops are allowed and are
told apart by edge id.  A graph is *no-exit* when every vertex lying on a cycle
emits exactly one edge; in such graphs every cycle is the unique cycle of its
strongly connected component, no cycle vertex reaches a sink, and all path
enumerations below are finite.

All types are immutable and all operations are pure functions of their inputs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import chain, compress, starmap
from operator import not_

from .algebras import GradedBase, _Record, _require_listable, _unchecked
from .errors import (
    EmptyGraphError,
    NotASinkError,
    NotNoExitError,
    TooManyCyclesError,
    UnknownVertexError,
    VertexNotOnCycleError,
)

DEFAULT_CYCLE_CAP = 10_000


class _Unnamed:
    """The type of _UNNAMED, whose one instance pickle and copy keep: it
    reduces to its module-level name."""

    __slots__ = ()

    def __reduce__(self):
        return "_UNNAMED"


# marks an unnamed edge in an edge-id column; its id is e<position>
_UNNAMED = _Unnamed()


# an edge's id, source name and range name; a plain namedtuple, like the
# private tuples below, so that no field annotation is evaluated on import
Edge = namedtuple("Edge", ("eid", "source", "range"))


class DirectedGraph(_Record):
    """A finite directed multigraph with ordered vertices and edges.

    Every construction ends in the same id columns.  A vertex's id is its
    position in `vertices`, which is in first-mention order, and the one id
    the graph passes use; per edge there is an edge id (_UNNAMED for an
    unnamed edge, whose id is e<position>), a source id and a range id.
    Names are sorted only where an output lists them.  The whole-graph
    passes read per id its in-edges' sources and its out-degree (`_index`),
    built on first use; the out-edge table (`_out`) is built only when some
    vertex reaches a cycle, so an acyclic graph is settled from its in-edges
    alone.  `edges` (Edge tuples) is built on first use, for repr and for
    callers that ask for Edge tuples; no library pass, writer, comparison or
    CLI command builds it.
    Equality and hashing are those of the pair (vertices, edges), read off
    the id columns; repr is that of the pair.
    """

    __match_args__ = ("vertices",)
    vertices: tuple[str, ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple]):
        vertices = tuple(vertices)
        edges = tuple(edges)
        if edges and set(map(len, edges)) != {3}:
            tuple(starmap(Edge, edges))  # raises the TypeError of the first malformed edge
        id_of: dict[str, int] = {}
        for v in vertices:
            if v in id_of:
                raise ValueError(f"duplicate vertex id {v!r}")
            id_of[v] = len(id_of)
        eids, sources, ranges = [], [], []
        known_eids = set()
        for eid, source, range_ in edges:
            if eid in known_eids:
                raise ValueError(f"duplicate edge id {eid!r}")
            known_eids.add(eid)
            for endpoint in (source, range_):
                if endpoint not in id_of:
                    raise ValueError(f"edge {eid!r} uses unknown vertex {endpoint!r}")
            eids.append(eid)
            sources.append(id_of[source])
            ranges.append(id_of[range_])
        vars(self).update(vertices=vertices, _id_of=id_of, _eids=eids, _sources=sources, _ranges=ranges)

    @classmethod
    def _from_columns(cls, id_of: dict, eids: list, sources: list[int], ranges: list[int]) -> "DirectedGraph":
        """Skip the checks of __init__: every source and range is an id of
        id_of, a name-to-id map in first-mention order, which the graph
        keeps.  The caller checks that the edge ids are distinct."""
        g = cls.__new__(cls)
        vars(g).update(vertices=tuple(id_of), _id_of=id_of, _eids=eids, _sources=sources, _ranges=ranges)
        return g

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple], isolated: Iterable[str] = ()) -> "DirectedGraph":
        """Build a graph from (source, range) or (source, range, eid) tuples.

        Vertex order is first-mention order, with `isolated` vertices appended.
        Unnamed edges get ids e1, e2, ... by position.
        """
        id_of: dict[str, int] = {}
        eids, sources, ranges = [], [], []
        for pair in pairs:
            if len(pair) == 2:
                src, dst = pair
                eid = _UNNAMED
            else:
                src, dst, eid = pair
            sources.append(id_of.setdefault(src, len(id_of)))
            ranges.append(id_of.setdefault(dst, len(id_of)))
            eids.append(eid)
        for v in isolated:
            id_of.setdefault(v, len(id_of))
        if not _distinct_eids(eids):
            known_eids = set()
            for eid in _named(eids):
                if eid in known_eids:
                    raise ValueError(f"duplicate edge id {eid!r}")
                known_eids.add(eid)
        return cls._from_columns(id_of, eids, sources, ranges)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(Edge._make, zip(*self._edge_columns())))

    def _edge_columns(self) -> tuple[list, Iterable[str], Iterable[str]]:
        """Per edge its id, every unnamed edge's filled in, its source name
        and its range name: three columns, the last two as iterators."""
        name = self.vertices.__getitem__
        eids = _named(self._eids) if _UNNAMED in self._eids else self._eids
        return eids, map(name, self._sources), map(name, self._ranges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the id columns first: only equal ones fill in unnamed edge ids
        return (
            self.vertices == other.vertices
            and self._sources == other._sources
            and self._ranges == other._ranges
            and (self._eids == other._eids or self._edge_columns()[0] == other._edge_columns()[0])
        )

    def __hash__(self):
        # equal graphs have equal id columns, so no unnamed edge id is filled in
        return hash((self.vertices, tuple(self._sources), tuple(self._ranges)))

    def __repr__(self):
        return f"{type(self).__qualname__}(vertices={self.vertices!r}, edges={self.edges!r})"

    def __getstate__(self):
        # the id columns, not the index, analysis, counts or Edge tuples built from them
        return {name: vars(self)[name] for name in ("vertices", "_id_of", "_eids", "_sources", "_ranges")}

    @cached_property
    def _index(self) -> "_Index":
        pred: list[list[int]] = [[] for _ in self.vertices]
        for s, r in zip(self._sources, self._ranges):
            pred[r].append(s)
        outdeg = [0] * len(pred)
        for s in self._sources:
            outdeg[s] += 1
        return _Index(pred, outdeg)

    @cached_property
    def _out(self) -> list[list[int]]:
        """Per id, the positions of its out-edges in edge order.  The SCC
        pass builds it only once some vertex reaches a cycle; the cycle walk
        and find_cycles read it after that pass."""
        out: list[list[int]] = [[] for _ in self.vertices]
        for pos, s in enumerate(self._sources):
            out[s].append(pos)
        return out

    @cached_property
    def _analysis(self) -> "_Analysis":
        names, (pred, outdeg), head = self.vertices, self._index, self._ranges
        # a component of two or more vertices is cyclic, a singleton iff it has a loop
        cyclic = [c for c in _scc_pass(self) if len(c) > 1 or c[0] in pred[c[0]]]
        sinks = tuple(sorted(compress(names, map(not_, outdeg))))
        exits = [names[v] for comp in cyclic for v in comp if outdeg[v] != 1]
        # each component's names sorted, the components by their least name
        components = tuple(sorted(tuple(sorted(map(names.__getitem__, comp))) for comp in cyclic))
        if exits or not components:  # an acyclic graph never builds the out-edge table
            return _Analysis(components, min(exits, default=None), sinks, ())
        # in a no-exit graph a cyclic SCC is one cycle: follow the unique out-edges
        # from its least vertex, where its CycleDescriptor starts
        out = self._out
        walks = []
        for comp in components:
            start = self._id_of[comp[0]]
            walk = [out[start][0]]
            while (v := head[walk[-1]]) != start:
                walk.append(out[v][0])
            walks.append(walk)
        return _Analysis(components, None, sinks, tuple(self._cycles(walks)))

    def _eid(self, pos: int):
        """The id of the edge at position pos."""
        return f"e{pos + 1}" if self._eids[pos] is _UNNAMED else self._eids[pos]

    def _cycles(self, walks: list[list[int]]) -> list["CycleDescriptor"]:
        """The cycle through the edges at the positions of each walk, in order,
        named from source-name and edge-id columns cut for the positions some
        walk uses."""
        used = set(chain.from_iterable(walks))
        names, sources = self.vertices, self._sources
        name = {pos: names[sources[pos]] for pos in used}.__getitem__
        eid = {pos: self._eid(pos) for pos in used}.__getitem__
        # valid by construction, so the descriptor's checks are skipped
        return [
            _unchecked(CycleDescriptor, vertices=tuple(map(name, walk)), edges=tuple(map(eid, walk))) for walk in walks
        ]

    @cached_property
    def _default_counts(self) -> "_SummandCounts":
        """The path counts of every summand at its default end, counted by
        one _path_counts pass once per graph; _summand_counts, which checks
        the graph first, reads them."""
        cycles, bases, ends = _summands(self)
        return _SummandCounts(cycles, bases, ends, *_path_counts(self, map(self._id_of.__getitem__, ends), cycles))

    def require_vertex(self, v: str) -> int:
        """The id of v; raises UnknownVertexError if g has no vertex v."""
        try:
            return self._id_of[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None


def _named(eids: list) -> list:
    """An edge-id column with every unnamed edge's id filled in."""
    return [f"e{pos}" if eid is _UNNAMED else eid for pos, eid in enumerate(eids, 1)]


def _distinct_eids(eids: list) -> bool:
    """Whether an edge-id column names every edge once; unnamed edges alone
    always do."""
    if eids.count(_UNNAMED) == len(eids):
        return True
    named = _named(eids)
    return len(set(named)) == len(named)


class CycleDescriptor(_Record):
    """A cycle, stored once, starting at its lexicographically smallest vertex.

    Edge i runs from vertices[i] to vertices[(i+1) % length]; all sources are
    distinct, so the cycle is determined by its edge list up to rotation.
    """

    __match_args__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[str], edges: Iterable[str]):
        vertices, edges = tuple(vertices), tuple(edges)
        if not edges or len(vertices) != len(edges):
            raise ValueError("a cycle has equally many vertices and edges, at least one each")
        if len(set(vertices)) != len(vertices):
            raise ValueError("cycle vertices must be distinct")
        vars(self).update(vertices=vertices, edges=edges)

    @property
    def length(self) -> int:
        return len(self.edges)


class _Index(namedtuple("_Index", ("pred", "outdeg"))):
    """What every whole-graph pass reads, over the graph's vertex ids:
    `pred`, per id the source ids of its in-edges in edge order, filled by
    one pass over the source and range columns, and `outdeg`, per id its
    number of out-edges, filled by one pass over the source column.

    The sink-first peel and the path counts walk `pred`; the sink, exit and
    regular checks read `outdeg`.  The out-edge positions that a walk along
    out-edges follows through the range column (`head` in the passes) are
    DirectedGraph._out, built only when some vertex reaches a cycle."""

    __slots__ = ()


class _Analysis(namedtuple("_Analysis", ("cyclic_components", "exit_vertex", "sinks", "cycles"))):
    """What one SCC pass tells about a graph, by vertex name: the cyclic
    components, each sorted, ordered by their least name; the least cycle
    vertex not emitting exactly one edge, or None; the sorted sinks; and
    the cycles in find_cycles order, empty unless the graph is no-exit.
    Only the cyclic components are kept: every other component is a single
    vertex, and the cycles, the exit check, find_cycles and
    strongly_connected_components read nothing else."""

    __slots__ = ()


class GraphClassification(_Record):
    """What classify reports: the flags, the sorted sinks and regular
    vertices, and the cycles.

    A record from classify keeps the graph's vertex names and out-degrees
    and sorts the regular names on first access; it compares, hashes,
    prints and pickles as one built with its regular vertices.
    """

    __match_args__ = ("acyclic", "no_exit", "comet_per_component", "sinks", "regular", "cycles")

    def __init__(
        self,
        acyclic: bool,
        no_exit: bool,
        comet_per_component: bool,
        sinks: tuple[str, ...],
        regular: tuple[str, ...],
        cycles: tuple[CycleDescriptor, ...],
    ):
        vars(self).update(acyclic=acyclic, no_exit=no_exit, comet_per_component=comet_per_component)
        vars(self).update(sinks=sinks, regular=regular, cycles=cycles)

    @cached_property
    def regular(self) -> tuple[str, ...]:
        return tuple(sorted(compress(self._names, self._outdeg)))


def strongly_connected_components(g: DirectedGraph) -> list[tuple[str, ...]]:
    """The SCCs of g as sorted vertex tuples, ordered by their smallest vertex.

    Read off the one SCC pass (_analysis): its cyclic components, and every
    other vertex as a component of its own.  No library pass calls it; it
    stays public while the benchmark's tracer wraps it by name.
    """
    cyclic = g._analysis.cyclic_components
    on_cycle = set(chain.from_iterable(cyclic))
    # the components are disjoint, so they sort by their smallest vertex
    return sorted(chain(cyclic, ((v,) for v in g.vertices if v not in on_cycle)))


def _scc_pass(g: DirectedGraph) -> list[list[int]]:
    """The SCC pass: every component that holds a cycle, as id lists, and
    some acyclic singletons.

    _peel first settles every vertex that reaches no cycle and peels every
    other vertex that no cycle reaches; each of those is a component of its
    own.  An acyclic graph ends there, with no out-edge table built.  No
    edge leads from a vertex left behind to a peeled one, so an iterative
    Tarjan over the ids left splits them without looking at the peeled
    ones.  In a no-exit graph it sees the cycle vertices alone; below an
    exit it also walks the settled vertices reached, and lists each of them
    as a component of its own.
    """
    settled, peeled = _peel(g)
    done = len(g.vertices)  # the index of a vertex already placed in a component
    if len(settled) + len(peeled) == done:
        return []
    out, head = g._out, g._ranges
    index = [-1] * done
    low = [0] * done
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in set(range(done)).difference(settled, peeled):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        # the depth-first path and, per vertex on it, its pending out-edges
        path = [root]
        pending = [map(head.__getitem__, out[root])]
        while path:
            v = path[-1]
            for w in pending[-1]:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    pending.append(map(head.__getitem__, out[w]))
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
                    comps.append(comp)
    return comps


def _peel(g: DirectedGraph) -> tuple[list[int], list[int]]:
    """Two lists of vertex ids: those that reach no cycle, each after its
    successors, and of the rest those that no cycle reaches, each after its
    predecessors.

    Each is Kahn's peel, one decrement per edge, so a loop or a parallel
    edge keeps its endpoint behind.  The sink-first peel is Kahn's on the
    reversed graph: it starts at the sinks and decrements out-degrees
    through `pred`, and a graph with no sink skips it.  Only when it leaves
    a vertex behind is the out-edge table built, and the forward peel runs
    over in-degrees, with every settled vertex's in-degree set to -1 so that
    no decrement brings it to 0 and the peel never walks it again.
    """
    pred, outdeg = g._index
    settled = list(compress(range(len(outdeg)), map(not_, outdeg)))
    if settled:
        outdeg = outdeg.copy()
        for v in settled:  # the list grows as the loop reads it
            for u in pred[v]:
                outdeg[u] -= 1
                if not outdeg[u]:
                    settled.append(u)
    if len(settled) == len(outdeg):
        return settled, []
    out, head = g._out, g._ranges
    indeg = list(map(len, pred))
    for v in settled:
        indeg[v] = -1
    peeled = list(compress(range(len(indeg)), map(not_, indeg)))
    for v in peeled:  # the list grows as the loop reads it
        for pos in out[v]:
            w = head[pos]
            indeg[w] -= 1
            if not indeg[w]:
                peeled.append(w)
    return settled, peeled


def _require_no_exit(g: DirectedGraph):
    v = g._analysis.exit_vertex
    if v is not None:
        raise NotNoExitError(f"cycle vertex {v!r} emits {g._index.outdeg[g._id_of[v]]} edges")


def find_cycles(g: DirectedGraph) -> list[CycleDescriptor]:
    """Every cycle of g, each reported once, anchored at its smallest vertex.

    Cyclic SCC by cyclic SCC, by least name, a depth-first search from each
    anchor in name order walks edge positions through vertices named >= the
    anchor.  Each component's out-edges are listed once, per vertex, as
    (rank of head, position) pairs, where a rank is a place in name order
    and an edge leaving the component is left out; the search compares the
    ranks in those pairs with the anchor's and marks its path in a list by
    rank, so no edge it looks at costs a dictionary lookup.  The walks are
    named once the search is done.  Raises TooManyCyclesError when the
    cycle past DEFAULT_CYCLE_CAP closes.
    classify lists the cycles of a graph that is not no-exit through it, and
    the graph_families benchmark checks those counts on K_5 to K_7.
    """
    head = g._ranges
    walks: list[list[int]] = []  # each cycle's edge positions, named at the end
    # a cycle lies inside one cyclic component, whose names come sorted
    for comp in g._analysis.cyclic_components:
        out = g._out  # read only here, so an acyclic graph never builds it
        ids = list(map(g._id_of.__getitem__, comp))
        rank = dict(zip(ids, range(len(ids))))  # an id's place in name order; none outside comp
        # per rank, its out-edges inside comp as (rank of head, position), in edge order
        edges = [[(rank[head[pos]], pos) for pos in out[v] if head[pos] in rank] for v in ids]
        on_path = [False] * len(ids)  # per rank, whether the search's path holds it
        for least in range(len(ids)):
            pending = [iter(edges[least])]  # per vertex on the path its pending edges
            path: list[int] = []  # the positions taken
            while pending:
                for r, pos in pending[-1]:
                    if r > least:
                        if not on_path[r]:
                            pending.append(iter(edges[r]))
                            path.append(pos)
                            on_path[r] = True
                            break
                    elif r == least:
                        if len(walks) >= DEFAULT_CYCLE_CAP:
                            raise TooManyCyclesError(f"more than {DEFAULT_CYCLE_CAP} cycles")
                        walks.append(path + [pos])
                else:
                    pending.pop()
                    if path:
                        on_path[rank[head[path.pop()]]] = False
    return g._cycles(walks)


def _one_cycle_reached(g: DirectedGraph) -> bool:
    """Whether no vertex of g, a no-exit graph, reaches two cycles: a backward
    walk over pred from each cycle, none of which reaches another, stops at
    the first vertex that an earlier walk reached."""
    pred, id_of = g._index.pred, g._id_of
    owner = [-1] * len(pred)  # per id, the cycle whose walk reached it
    for k, comp in enumerate(g._analysis.cyclic_components):
        frontier = [id_of[comp[0]]]
        owner[frontier[0]] = k
        for v in frontier:  # the list grows as the loop reads it
            for u in pred[v]:
                if owner[u] < 0:
                    owner[u] = k
                    frontier.append(u)
                elif owner[u] != k:
                    return False
    return True


def classify(g: DirectedGraph) -> GraphClassification:
    """Flags and inventories used by every downstream operation.

    A weakly connected component counts as a comet when it contains exactly
    one cycle and every one of its vertices has a path to that cycle: with no
    sink, every vertex reaches a cycle and an exit's component holds two, so
    every component is one iff there is no exit and no vertex reaches two
    cycles.  Only a graph that is not no-exit lists its cycles through
    find_cycles, which raises TooManyCyclesError past DEFAULT_CYCLE_CAP
    (10,000) cycles.  The regular vertices are sorted only when first read:
    no library pass reads them.
    """
    _, exit_vertex, sinks, cycles = g._analysis
    if exit_vertex is not None:
        cycles = tuple(find_cycles(g))
    comet = not sinks and exit_vertex is None and _one_cycle_reached(g)
    return _unchecked(
        GraphClassification,
        acyclic=not cycles,
        no_exit=exit_vertex is None,
        comet_per_component=comet,
        sinks=sinks,
        cycles=cycles,
        _names=g.vertices,
        _outdeg=g._index.outdeg,
    )


class _SummandCounts(
    namedtuple("_SummandCounts", ("cycles", "bases", "ends", "lengths", "sources", "counts", "offsets"))
):
    """The path counts behind each summand of a representation, as tuples:
    per summand its cycle (None for a sink), its base ring, a GradedBase (K
    for a sink, K[x^m] for a cycle of length m) and its sink or base vertex
    name, then the four _path_counts columns that hold its rows."""

    __slots__ = ()


def _path_counts(g: DirectedGraph, ends: Iterable[int], cycles: Iterable[CycleDescriptor | None]):
    """The paths of g ending at each end, a vertex id, counted per (length,
    source), in one walk that appends every end's rows to the same columns.

    Returns four columns: per row its length, source name and count, one
    row per (length, source) pair, and the offsets, one more than there are
    ends, end k's rows being offsets[k]:offsets[k + 1], ascending by length,
    then source name.  `cycles` holds a cycle or None per end.  With a
    cycle, counts only the paths not containing it: those never extend
    backward through the end.  A dynamic program over reversed edges: each
    level maps a vertex to its number of paths of that length, and an
    in-edge adds that number once, so parallel edges count once per path.
    Raises NotNoExitError when a path outgrows the no-exit bound.

    Costs one row per (vertex, length) pair, not one per path, and one dict
    per level only at a branch point: along a chain, where a level's one
    vertex has one in-edge, the walk steps to that edge's source with the
    same count and appends only its id; the chain's lengths and counts are
    filled in at its end, and the ids are named once, at the end of the
    walk.  A long line thus costs one id per vertex and nothing more, and a
    summand of two rows costs a few list appends.

    A chain of two diamonds x -> {p, q} -> y -> {r, s} -> z:

    >>> g = DirectedGraph.from_edges([("x", "p"), ("x", "q"), ("p", "y"), ("q", "y"),
    ...                               ("y", "r"), ("y", "s"), ("r", "z"), ("s", "z")])
    >>> _path_counts(g, [g._id_of["z"]], [None])
    ((0, 1, 1, 2, 3, 3, 4), ('z', 'r', 's', 'y', 'p', 'q', 'x'), (1, 1, 1, 2, 2, 2, 4), (0, 7))
    """
    names, pred = g.vertices, g._index.pred
    lengths: list[int] = []
    ids: list[int] = []
    counts: list[int] = []
    offsets = [0]
    add_id = ids.append
    for end, cycle in zip(ends, cycles):
        blocked = -1 if cycle is None else end
        # no cycle vertex reaches a sink in a no-exit graph, and a path avoiding a
        # cycle enters it at most once, so every counted path is shorter than this
        bound = len(names) + (0 if cycle is None else cycle.length)
        level = {end: 1}
        length = 0
        while level:
            if length >= bound:
                raise NotNoExitError("path enumeration did not terminate; graph is not no-exit")
            if len(level) > 1:
                # rows in source order
                row_ids = sorted(level, key=names.__getitem__)
                ids += row_ids
                counts += map(level.__getitem__, row_ids)
                lengths += [length] * len(row_ids)
                length += 1
                frontier = level.items()
            else:
                # a chain of one-vertex levels, up to a branch point or the bound
                [(v, count)] = level.items()
                first = length
                while True:
                    add_id(v)
                    length += 1
                    ps = pred[v]
                    if len(ps) != 1 or ps[0] == blocked or length >= bound:
                        break
                    v = ps[0]
                lengths += range(first, length)
                counts += [count] * (length - first)
                frontier = ((v, count),)
            level = {}
            for v, count in frontier:
                for u in pred[v]:
                    if u != blocked:
                        level[u] = level.get(u, 0) + count
        offsets.append(len(ids))
    return tuple(lengths), tuple(map(names.__getitem__, ids)), tuple(counts), tuple(offsets)


def _expand(lengths, sources, counts) -> list[tuple[str, int]]:
    """One (source, length) pair per path counted in _path_counts columns."""
    _require_listable(sum(counts))
    paths: list[tuple[str, int]] = []
    for length, source, count in zip(lengths, sources, counts):
        paths += [(source, length)] * count
    return paths


def _summands(g: DirectedGraph) -> tuple[tuple, tuple[GradedBase, ...], tuple[str, ...]]:
    """Per summand of g's representation, read off the SCC pass: its cycle
    (None for a sink), its base ring, one GradedBase per period, and its
    default end, the sink or the cycle's least vertex; sinks first."""
    _, _, sinks, cycles = g._analysis
    base_of = {m: GradedBase(m) for m in {c.length for c in cycles}}
    return (
        (None,) * len(sinks) + cycles,
        (GradedBase.trivial(),) * len(sinks) + tuple(base_of[c.length] for c in cycles),
        sinks + tuple(c.vertices[0] for c in cycles),
    )


def _summand_counts(g: DirectedGraph, base_choice: Mapping[CycleDescriptor, str]) -> _SummandCounts:
    """The path counts behind each summand of g's representation: sinks
    first, with cycle None and the sink as end, then cycles, with their base
    vertex from `base_choice` or else their smallest vertex.  Raises
    EmptyGraphError, NotNoExitError, then what _require_bases raises.

    The counts at default bases are the graph's own, shared; a choice that
    moves a base counts every summand anew in one _path_counts pass.
    """
    if not g.vertices:
        raise EmptyGraphError("the graph has no vertices")
    _require_no_exit(g)
    if not base_choice:  # no cycle to hash
        return g._default_counts
    _require_bases(g, base_choice)
    cycles, bases, ends = _summands(g)
    # a sink's cycle is None, never a key
    chosen = tuple(map(base_choice.get, cycles, ends))
    if chosen == ends:
        return g._default_counts
    return _SummandCounts(cycles, bases, chosen, *_path_counts(g, map(g._id_of.__getitem__, chosen), cycles))


def paths_to_sink(g: DirectedGraph, sink: str) -> list[tuple[str, int]]:
    """All paths of g ending in `sink`, as (source, length) pairs.

    Includes the trivial path (sink, 0).  Sorted by length, then source name;
    parallel edges contribute one entry per path.
    """
    v = g.require_vertex(sink)
    _require_no_exit(g)
    if g._index.outdeg[v]:
        raise NotASinkError(f"vertex {sink!r} emits edges")
    lengths, sources, counts, _ = _path_counts(g, [v], [None])
    return _expand(lengths, sources, counts)


def paths_to_cycle_vertex(
    g: DirectedGraph, cycle: CycleDescriptor, base: str
) -> list[tuple[str, int]]:
    """All paths ending at `base` that do not contain `cycle`, one of g's own
    cycles as classify returns them; sorted by length then source name, the
    trivial path (base, 0) first.  A path contains the cycle exactly when it
    visits `base` more than once, so the reverse walk never extends through it.
    """
    _require_no_exit(g)
    _require_bases(g, {cycle: base})
    lengths, sources, counts, _ = _path_counts(g, [g._id_of[base]], [cycle])
    return _expand(lengths, sources, counts)


def _require_bases(g: DirectedGraph, base_choice: Mapping[CycleDescriptor, str]):
    """Raise ValueError unless each key is one of g's own cycles, as classify
    returns them, then VertexNotOnCycleError for a base vertex off its cycle."""
    own = g._analysis.cycles  # each starts at its least vertex, in that vertex's order
    for cycle in base_choice:
        at = bisect_left(own, cycle.vertices[0], key=lambda c: c.vertices[0])
        if own[at : at + 1] != (cycle,):
            raise ValueError(f"not one of this graph's cycles as classify returns them: {cycle}")
    for cycle, base in base_choice.items():
        if base not in cycle.vertices:
            raise VertexNotOnCycleError(f"vertex {base!r} is not on the cycle {cycle.vertices}")


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
