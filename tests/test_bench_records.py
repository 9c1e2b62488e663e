"""The committed benchmark records: every BENCH_*.json at the repository root
parses, says what it measured, how and where, what it claims and what it
found, and every run in it answered correctly with no failed operation."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = ("what", "command", "protocol", "machine", "claim", "summary", "runs")


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete_and_every_run_correct(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert [key for key in KEYS if key not in record] == []
    assert record["runs"]
    for run in record["runs"]:
        which = {key: value for key, value in run.items() if key != "result"}
        assert run["result"]["correct"] is True, which
        assert run["result"]["failed"] == 0, which
