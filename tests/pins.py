"""The console pin table, cli_pins.json: one row per invocation of the
command line, with its input files, its exact exit code, stdout and stderr,
the exact text of each file it writes and, where the name does not say it, a
note on what it pins.

A row runs in a fresh directory that holds only its input files, either in
process through cli.main or as the installed gradedlpa script.  Afterwards
the directory must hold exactly its input files, unchanged, and the files
the row writes (a refused -o writes nothing).

With gradedlpa importable (PYTHONPATH=src, or installed):

    python tests/pins.py              run every row through cli.main
    python tests/pins.py --installed  run every row through the gradedlpa script
    python tests/pins.py --write      record every row's outputs from cli.main
                                      again, and name the rows that changed

tests/test_cli.py::test_console_pins runs each row through cli.main.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("cli_pins.json")
ROWS = json.loads(TABLE.read_text(encoding="utf-8"))


def expected(row: dict) -> tuple:
    """What a run of the row must give: the exit code, stdout, stderr, and
    every file left in its directory with its text."""
    return row["exit"], row["stdout"], row["stderr"], {**row["files"], **row["written"]}


def run(row: dict, installed: bool = False) -> tuple:
    """The row's argv run in a fresh directory holding its input files, the
    installed gradedlpa script or else cli.main: what expected() lists."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in row["files"].items():
            with open(Path(tmp, name), "w", encoding="utf-8", newline="") as f:
                f.write(text)
        if installed:
            done = subprocess.run(["gradedlpa", *row["argv"]], cwd=tmp, capture_output=True, text=True)
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            code, out, err = _main(row["argv"], tmp)
        left = {path.name: _read(path) for path in Path(tmp).iterdir()}
    return code, out, err, left


def _read(path: Path) -> str:
    with open(path, encoding="utf-8", newline="") as f:  # line breaks as written
        return f.read()


def _main(argv: list[str], cwd: str) -> tuple[int, str, str]:
    """cli.main(argv) run in cwd: its exit code, stdout and stderr."""
    from gradedlpa.cli import main

    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


def write() -> list[str]:
    """Record every row's outputs from cli.main again, and return the names
    of the rows whose outputs changed."""
    changed = []
    for row in ROWS:
        code, out, err, left = run(row)
        written = {name: text for name, text in sorted(left.items()) if row["files"].get(name) != text}
        if (code, out, err, written) != (row["exit"], row["stdout"], row["stderr"], row["written"]):
            row.update(exit=code, stdout=out, stderr=err, written=written)
            changed.append(row["name"])
    TABLE.write_text(json.dumps(ROWS, indent=1) + "\n", encoding="utf-8")
    return changed


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        changed = write()
        print(f"{len(changed)} of {len(ROWS)} rows changed", *changed, sep="\n")
        return 0
    if argv not in ([], ["--installed"]):
        print(__doc__, file=sys.stderr)
        return 2
    failed = []
    for row in ROWS:
        got = run(row, installed=bool(argv))
        if got != expected(row):
            print(f"{row['name']}: expected {expected(row)!r}, got {got!r}")
            failed.append(row["name"])
    print(f"{len(ROWS) - len(failed)} of {len(ROWS)} pins pass", *failed, sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
