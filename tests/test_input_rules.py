"""Each input rule is checked in one place, so every path that applies it
gives the same outcome: a cycle descriptor belongs to a graph when it is one
of the graph's own cycles as classify returns them; a number in text has at
most as many digits as int() converts; a vertex or edge id is an ASCII
identifier."""

import sys

import pytest

from conftest import naive_summand_counts
from gradedlpa import (
    CycleDescriptor,
    DirectedGraph,
    ParseError,
    format_graph,
    graph_to_dot,
    parse_algebra,
    parse_certificate,
    parse_graph,
    paths_to_cycle_vertex,
    represent_at,
)

COMET = DirectedGraph.from_edges([("t", "u"), ("u", "v"), ("v", "u")])
LIMIT = sys.get_int_max_str_digits()
HUGE = "9" * (LIMIT + 1)
TOO_LONG = f"a number has more than {LIMIT} digits"


def _error(call):
    """The class and message of what call() raises, or None if it returns."""
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _descriptor(cycle):
    """What each path that checks a cycle descriptor raises at base vertex u."""
    return [
        lambda: _error(lambda: paths_to_cycle_vertex(COMET, cycle, "u")),
        lambda: _error(lambda: represent_at(COMET, {cycle: "u"})),
        lambda: _error(lambda: naive_summand_counts(COMET, {cycle: "u"})),
    ]


def _foreign(cycle):
    return _descriptor(cycle), (ValueError, f"not one of this graph's cycles as classify returns them: {cycle}")


def _accepts_id(name):
    """Whether parse_graph, format_graph and graph_to_dot each take name as
    a vertex id as it stands."""
    graph = DirectedGraph.from_edges([], isolated=[name])
    return [
        lambda: _error(lambda: parse_graph(f"vertex {name}\n")) is None,
        lambda: _error(lambda: format_graph(graph)) is None,
        lambda: graph_to_dot(graph) == f"digraph {{\n  {name};\n}}\n",
    ]


# (calls that must agree, what each gives)
CASES = {
    "own-cycle": (_descriptor(CycleDescriptor(("u", "v"), ("e2", "e3"))), None),
    "rotated-cycle": _foreign(CycleDescriptor(("v", "u"), ("e3", "e2"))),
    "foreign-edge": _foreign(CycleDescriptor(("u", "v"), ("e2", "e9"))),
    "foreign-vertex": _foreign(CycleDescriptor(("a",), ("e1",))),
    "digits-shift": ([lambda: _error(lambda: parse_algebra(f"M1(K)(0) (+)\nM1(K)({HUGE})"))], "line 2, column 7"),
    "digits-repeat": ([lambda: _error(lambda: parse_algebra(f"M1(K)({HUGE}(0))"))], "line 1, column 7"),
    "digits-G": ([lambda: _error(lambda: parse_certificate(f"G 1\nG {HUGE}\n"))], "line 2, column 1"),
    "digits-E": ([lambda: _error(lambda: parse_certificate(f"E 1 {HUGE}"))], "line 1, column 1"),
    "digits-P": ([lambda: _error(lambda: parse_certificate(f"# x\n\nP 1 -{HUGE}"))], "line 3, column 1"),
}
for _name in ["é", "1a", "a-b", "vertex", "_x"]:
    CASES[f"id-{_name}"] = (_accepts_id(_name), _name.isidentifier() and _name.isascii())


@pytest.mark.parametrize("calls, want", CASES.values(), ids=CASES)
def test_one_rule_one_outcome(calls, want):
    if isinstance(want, str):  # a number past int()'s digit limit, at that place
        want = ParseError, f"{want}: {TOO_LONG}"
    assert [call() for call in calls] == [want] * len(calls)
