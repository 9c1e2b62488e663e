"""Work counted in calls, a scaling check that host load cannot move.

For each op of tests/call_counts.py, the calls per unit at the largest size
are at most those at the smallest plus MARGIN: the op does linear work in
calls.  An op that counted the whole graph again once per summand would make
that ratio grow with the size.  On K_7 the cycle listing must also stay
within COMPLETE_BOUND calls per cycle, and parse_algebra within PARSE_BOUND
calls per summand.  Where tests/work_pins.json has an entry for the running
Python, every op's exact total calls must equal it.

Two rows classify a ring with one exit edge, named in ring order and
shuffled.  Their calls per vertex grow with the ring, and more in ring order
(ROADMAP item 3), so their cases are strict expected failures that the fix
of that item turns into passes.
"""

import functools
import json

import pytest

from call_counts import OPS, PINS, VERSION, _cycles_of_complete, _moved, _per_unit, _total_calls

MARGIN = 0.02  # of the smallest size's calls per unit
# calls per listed cycle on K_7, where listing a cycle makes no call per edge
COMPLETE_BOUND = 14
# calls per summand of parse_sum, which reads each header in one match
PARSE_BOUND = 30

# classify's cycle search on a ring with an exit is superlinear (ROADMAP item 3)
RING_DEFECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 3: classify of a ring with an exit")


@pytest.fixture(scope="module")
def totals(tmp_path_factory):
    """_total_calls of an op, counted once per module run."""
    tmp = tmp_path_factory.mktemp("calls")
    return functools.cache(lambda name: _total_calls(name, tmp))


@pytest.mark.parametrize(
    "name", [pytest.param(name, marks=RING_DEFECT) if name.startswith("ring_exit") else name for name in OPS]
)
def test_calls_per_unit_do_not_grow(name, totals):
    per_unit = _per_unit(name, totals(name))
    assert per_unit[-1] <= per_unit[0] * (1 + MARGIN), per_unit


def _assert_naming_free(in_order, shuffled, totals):
    in_order, shuffled = _per_unit(in_order, totals(in_order)), _per_unit(shuffled, totals(shuffled))
    for a, b in zip(in_order, shuffled):
        assert abs(a - b) <= a * MARGIN, (in_order, shuffled)


def test_line_calls_do_not_depend_on_naming_order(totals):
    _assert_naming_free("line_named_in_order", "line_named_shuffled", totals)


@RING_DEFECT
def test_ring_calls_do_not_depend_on_naming_order(totals):
    _assert_naming_free("ring_exit_in_order", "ring_exit_shuffled", totals)


def test_complete_graph_lists_cycles_in_few_calls(totals):
    assert _cycles_of_complete(7) == 2365
    assert _per_unit("complete", totals("complete"))[-1] <= COMPLETE_BOUND


def test_parse_reads_a_summand_in_few_calls(totals):
    assert max(_per_unit("parse_sum", totals("parse_sum"))) <= PARSE_BOUND


def test_calls_equal_the_work_pins(totals):
    pinned = json.loads(PINS.read_text(encoding="utf-8")).get(VERSION)
    if pinned is None:
        pytest.skip(f"{PINS.name} has no entry for Python {VERSION}")
    moved = _moved(pinned, {name: totals(name) for name in OPS})
    assert not moved, "\n".join(["pinned -> counted", *moved])
