"""The library's immutable records behave as the frozen dataclasses they
replace: one table row per class pins construction, equality, hashing,
repr, immutability, pickling, copying and positional `match`.  A report's
lazily cut provenance is checked against an eagerly built one, a graph
with unnamed edges keeps them through pickle and copy, a graph pickles
alike before and after it is analysed, and a CLI process is checked to
import neither `dataclasses`, `inspect` nor `typing`."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from gradedlpa import (
    CycleDescriptor,
    CycleSummand,
    CyclicForm,
    DirectedGraph,
    DirectSumAlgebra,
    EntryShift,
    GlobalShift,
    GradedBase,
    GradedMatrix,
    Permute,
    RepresentationReport,
    ShiftedMatrixAlgebra,
    SinkSummand,
    SumVerdict,
    TrivialForm,
    Verdict,
    classify,
    format_graph,
    represent,
    represent_at,
)
from gradedlpa.graphs import _UNNAMED, GraphClassification

SRC = Path(__file__).resolve().parent.parent / "src"

K, L2 = GradedBase(), GradedBase(2)
A = ShiftedMatrixAlgebra(K, [(0, 1), (2, 2)])
CYCLE = CycleDescriptor(("u", "v"), ("e2", "e3"))
NO = Verdict(False, 0, "y")
SINK = SinkSummand("w", (0, 1), ("w", "a"), (1, 2))


class Row(NamedTuple):
    cls: type
    args: tuple  # positional constructor arguments
    kwargs: dict  # the same arguments by keyword
    text: str  # the exact repr
    matched: tuple  # what a positional match of every __match_args__ binds
    hash_of: tuple | None  # the tuple whose hash the object's hash is; None: equal objects hash alike


ROWS = [
    Row(GradedBase, (2,), {"period": 2}, "GradedBase(period=2)", (2,), (2,)),
    Row(
        ShiftedMatrixAlgebra,
        (K, [(0, 1), (2, 2)]),
        {"base": K, "runs": [(0, 1), (2, 2)]},
        "ShiftedMatrixAlgebra(base=GradedBase(period=None), runs=((0, 1), (2, 2)))",
        (K, 3),
        (K, ((0, 1), (2, 2))),
    ),
    Row(
        DirectSumAlgebra,
        ([A],),
        {"summands": [A]},
        "DirectSumAlgebra(summands=(ShiftedMatrixAlgebra(base=GradedBase(period=None), runs=((0, 1), (2, 2))),))",
        ((A,),),
        ((A,),),
    ),
    Row(
        TrivialForm,
        (2, [1, 0, 3]),
        {"k": 2, "mults": [1, 0, 3]},
        "TrivialForm(k=2, mults=(1, 0, 3))",
        (2, (1, 0, 3)),
        (2, (1, 0, 3)),
    ),
    Row(
        CyclicForm,
        (2, [1, 2]),
        {"period": 2, "mults": [1, 2]},
        "CyclicForm(period=2, mults=(1, 2))",
        (2, (1, 2)),
        (2, (1, 2)),
    ),
    Row(Permute, ([2, 1],), {"image": [2, 1]}, "Permute(image=(2, 1))", ((2, 1),), ((2, 1),)),
    Row(GlobalShift, (2,), {"delta": 2}, "GlobalShift(delta=2)", (2,), (2,)),
    Row(EntryShift, (1, -4), {"index": 1, "delta": -4}, "EntryShift(index=1, delta=-4)", (1, -4), (1, -4)),
    Row(
        DirectedGraph,
        (["a", "b"], [("e1", "a", "b")]),
        {"vertices": ["a", "b"], "edges": [("e1", "a", "b")]},
        "DirectedGraph(vertices=('a', 'b'), edges=(Edge(eid='e1', source='a', range='b'),))",
        (("a", "b"),),
        None,
    ),
    Row(
        CycleDescriptor,
        (["u", "v"], ["e2", "e3"]),
        {"vertices": ["u", "v"], "edges": ["e2", "e3"]},
        "CycleDescriptor(vertices=('u', 'v'), edges=('e2', 'e3'))",
        (("u", "v"), ("e2", "e3")),
        (("u", "v"), ("e2", "e3")),
    ),
    Row(
        GraphClassification,
        (False, True, True, (), ("u", "v"), (CYCLE,)),
        {
            "acyclic": False,
            "no_exit": True,
            "comet_per_component": True,
            "sinks": (),
            "regular": ("u", "v"),
            "cycles": (CYCLE,),
        },
        "GraphClassification(acyclic=False, no_exit=True, comet_per_component=True, sinks=(), regular=('u', 'v'), "
        "cycles=(CycleDescriptor(vertices=('u', 'v'), edges=('e2', 'e3')),))",
        (False, True, True, (), ("u", "v"), (CYCLE,)),
        (False, True, True, (), ("u", "v"), (CYCLE,)),
    ),
    Row(
        SinkSummand,
        ("w", (0, 1), ("w", "a"), (1, 2)),
        {"sink": "w", "lengths": (0, 1), "sources": ("w", "a"), "counts": (1, 2)},
        "SinkSummand(sink='w', lengths=(0, 1), sources=('w', 'a'), counts=(1, 2))",
        ("w", (0, 1), ("w", "a"), (1, 2)),
        ("w", (0, 1), ("w", "a"), (1, 2)),
    ),
    Row(
        CycleSummand,
        (CYCLE, "v", (0,), ("v",), (1,)),
        {"cycle": CYCLE, "base_vertex": "v", "lengths": (0,), "sources": ("v",), "counts": (1,)},
        "CycleSummand(cycle=CycleDescriptor(vertices=('u', 'v'), edges=('e2', 'e3')), base_vertex='v', "
        "lengths=(0,), sources=('v',), counts=(1,))",
        (CYCLE, "v", (0,), ("v",), (1,)),
        (CYCLE, "v", (0,), ("v",), (1,)),
    ),
    Row(
        RepresentationReport,
        (DirectSumAlgebra([A]), (SINK,)),
        {"sum": DirectSumAlgebra([A]), "provenance": (SINK,)},
        "RepresentationReport(sum=DirectSumAlgebra(summands=(ShiftedMatrixAlgebra(base=GradedBase(period=None), "
        "runs=((0, 1), (2, 2))),)), "
        "provenance=(SinkSummand(sink='w', lengths=(0, 1), sources=('w', 'a'), counts=(1, 2)),))",
        (DirectSumAlgebra([A]), (SINK,)),
        (DirectSumAlgebra([A]), (SINK,)),
    ),
    Row(
        Verdict,
        (False, 1, "x"),
        {"ok": False, "failing_index": 1, "reason": "x"},
        "Verdict(ok=False, failing_index=1, reason='x')",
        (False, 1, "x"),
        (False, 1, "x"),
    ),
    Row(
        SumVerdict,
        (False, ((2, NO),)),
        {"ok": False, "failures": ((2, NO),)},
        "SumVerdict(ok=False, failures=((2, Verdict(ok=False, failing_index=0, reason='y')),))",
        (False, ((2, NO),)),
        (False, ((2, NO),)),
    ),
    Row(
        GradedMatrix,
        (L2, (0, 1), ((1, 0), (0, 2))),
        {"base": L2, "shifts": (0, 1), "entries": ((1, 0), (0, 2))},
        "GradedMatrix(base=GradedBase(period=2), shifts=(0, 1), _terms={(0, 0, 0): 1, (1, 1, 0): 2})",
        (L2, (0, 1), {(0, 0, 0): 1, (1, 1, 0): 2}),
        (L2, (0, 1), frozenset({(0, 0, 0): 1, (1, 1, 0): 2}.items())),
    ),
]


def _matched(obj, cls, arity: int) -> tuple:
    """What `case cls(a, b, ...)` with `arity` positional captures binds."""
    match (arity, obj):
        case (1, cls(a)):
            return (a,)
        case (2, cls(a, b)):
            return a, b
        case (3, cls(a, b, c)):
            return a, b, c
        case (4, cls(a, b, c, d)):
            return a, b, c, d
        case (5, cls(a, b, c, d, e)):
            return a, b, c, d, e
        case (6, cls(a, b, c, d, e, f)):
            return a, b, c, d, e, f
    raise AssertionError(f"{obj!r} did not match {cls.__name__} with {arity} captures")


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.cls.__name__)
def test_record_behaves_as_its_frozen_dataclass(row):
    obj, by_keyword = row.cls(*row.args), row.cls(**row.kwargs)
    assert obj == by_keyword and not obj != by_keyword and hash(obj) == hash(by_keyword)
    if row.hash_of is not None:
        assert hash(obj) == hash(row.hash_of)
    assert repr(obj) == repr(by_keyword) == row.text
    # only an object of the same class compares, never its field tuple
    for foreign in (row.matched, object(), None):
        assert obj.__eq__(foreign) is NotImplemented and obj != foreign
    name = row.cls.__match_args__[0]
    for change in (lambda: setattr(obj, name, None), lambda: setattr(obj, "extra", 1), lambda: delattr(obj, name)):
        with pytest.raises(AttributeError):
            change()
    assert repr(obj) == row.text
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is row.cls and twin == obj and hash(twin) == hash(obj) and repr(twin) == row.text
    assert _matched(obj, row.cls, len(row.cls.__match_args__)) == row.matched


def test_record_defaults():
    assert GradedBase() == GradedBase(None) == GradedBase(period=None)
    assert repr(GradedBase()) == "GradedBase(period=None)"
    assert Verdict(True) == Verdict(True, None, None)
    assert repr(Verdict(True)) == "Verdict(ok=True, failing_index=None, reason=None)"
    assert SumVerdict(True) == SumVerdict(True, ()) and repr(SumVerdict(True)) == "SumVerdict(ok=True, failures=())"
    # records of different classes with equal fields differ
    assert GlobalShift(1) != Permute((1,)) and GradedBase(2) != GlobalShift(2)


def test_lazy_provenance_is_the_eager_report():
    # a sink, a cycle with a tail, and a second cycle
    g = DirectedGraph.from_edges(
        [("t", "u"), ("u", "v"), ("v", "u"), ("s", "u"), ("x", "y"), ("x", "y"), ("p", "p")]
    )
    lazy = represent(g)
    assert "provenance" not in vars(lazy)
    read = represent(g)
    eager = RepresentationReport(read.sum, read.provenance)
    for report in (lazy, represent_at(g, {}), represent(g)):
        assert "provenance" not in vars(report)
        assert pickle.dumps(report) == pickle.dumps(eager)
        assert report == eager and hash(report) == hash(eager) and repr(report) == repr(eager)
    twin = pickle.loads(pickle.dumps(lazy))
    assert set(vars(twin)) == {"sum", "provenance"} and twin == eager
    moved = represent_at(g, {g._analysis.cycles[1]: "v"})
    assert [p.base_vertex for p in moved.provenance[1:]] == ["p", "v"]
    assert copy.copy(moved) == moved and moved != eager


def test_unnamed_edges_survive_pickle_and_copy():
    # unnamed edges among named ones, with an exit, so classify lists the cycles
    g = DirectedGraph.from_edges([("a", "b"), ("b", "a", "back"), ("b", "c"), ("c", "a"), ("c", "c", "e9")])
    assert g._eids.count(_UNNAMED) == 3 and len(classify(g).cycles) == 3
    text, cycles = format_graph(g), classify(g).cycles
    for twin in (
        pickle.loads(pickle.dumps(g, protocol=2)),
        pickle.loads(pickle.dumps(g, protocol=4)),
        copy.copy(g),
        copy.deepcopy(g),
    ):
        assert twin._eids.count(_UNNAMED) == 3
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
        assert format_graph(twin) == text and classify(twin).cycles == cycles
    assert copy.copy(_UNNAMED) is copy.deepcopy(_UNNAMED) is pickle.loads(pickle.dumps(_UNNAMED)) is _UNNAMED


def test_a_graph_pickles_as_its_id_columns():
    # a comet: whatever classify, represent and .edges cache on the graph,
    # pickle and copy carry its id columns alone
    g = DirectedGraph.from_edges([("a", "b"), ("b", "c"), ("c", "b")])
    fresh = pickle.dumps(g)
    classify(g), represent(g), g.edges
    assert {"_index", "_out", "_analysis", "_default_counts", "edges"} <= set(vars(g))
    assert pickle.dumps(g) == fresh
    columns = {"vertices", "_id_of", "_eids", "_sources", "_ranges"}
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(fresh)):
        assert set(vars(twin)) == columns and twin == g and repr(twin) == repr(g)


def test_cli_process_imports_no_dataclasses_or_inspect():
    # `python -S`: no site-packages hook may load these modules first
    code = "import sys, gradedlpa.cli; print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "\n")
