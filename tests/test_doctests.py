"""The documentation, run as tests:

- each module's doctests, through doctest.testmod
- README.md's `>>>` sessions, through doctest.testfile
- README.md's public-name list against `gradedlpa.__all__`
- each `$ gradedlpa` line of README.md against the pin row with its argv
  (tests/cli_pins.json): the lines under it are the row's stdout and stderr,
  and every file the row reads is the one a `$ cat` line showed, or an
  earlier row wrote
- README.md's limits table against the constants it names
- tests/pins.py, the module doctests and tests/call_counts.py --check under
  every other CPython 3.10 or later that pyenv holds
"""

import argparse
import doctest
import importlib
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gradedlpa
import pins
from gradedlpa import algebras, cli, graphs, parsing

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = ("algebras", "parsing", "graphs", "represent", "corners", "realize", "matrices")


def run_doctests(name):
    # by import path: the package's `represent` attribute is the function
    failures, attempted = doctest.testmod(importlib.import_module(f"gradedlpa.{name}"))
    assert attempted > 0
    assert failures == 0


def test_algebras_doctests():
    run_doctests("algebras")


def test_parsing_doctests():
    run_doctests("parsing")


def test_graphs_doctests():
    run_doctests("graphs")


def test_represent_doctests():
    run_doctests("represent")


def test_corners_doctests():
    run_doctests("corners")


def test_realize_doctests():
    run_doctests("realize")


def test_matrices_doctests():
    run_doctests("matrices")


def test_readme_lists_the_public_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    # the bulleted list after "The names `gradedlpa` exports (`__all__`)"
    listed = readme.split("(`__all__`), by the paper object they serve:\n\n", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", listed)
    assert sorted(names) == sorted(gradedlpa.__all__)
    # names that have left the public surface
    gone = {"least_rotation_index", "summand_key", "out_edges", "in_edges", "out_degree"}
    assert not gone & set(re.findall(r"\w+", readme))


def test_readme_sessions():
    failures, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted > 0
    assert failures == 0


def readme_commands():
    """Each `$ ` line of README.md, in order, as its words and the text of
    the lines under it, up to the next `$ ` line, blank line or fence."""
    commands, printing = [], False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ "):
            commands.append((shlex.split(line[2:]), []))
            printing = True
        elif not line or line.startswith("```"):
            printing = False
        elif printing:
            commands[-1][1].append(line + "\n")
    return [(words, "".join(printed)) for words, printed in commands]


def test_readme_transcript_is_pinned():
    shown = {}  # file name: the text a `$ cat` line showed or a row wrote
    ran = set()
    for words, printed in readme_commands():
        if words[0] == "cat":
            (name,) = words[1:]
            shown[name] = printed
            continue
        assert words[0] == "gradedlpa", words
        argv = words[1:]
        rows = [row for row in pins.ROWS if row["argv"] == argv]
        assert rows, f"no pin row runs {argv}"
        rows = [row for row in rows if row["stdout"] + row["stderr"] == printed]
        assert rows, f"{argv} prints otherwise than its pin row"
        rows = [row for row in rows if all(shown.get(name) == text for name, text in row["files"].items())]
        assert rows, f"{argv} reads a file that README.md does not show as its pin row holds it"
        shown.update(rows[0]["written"])
        ran.add(next(arg for arg in argv if not arg.startswith("-")))
    (commands,) = (action.choices for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    assert ran == set(commands)


def _number(text):
    """A figure as README.md writes it: 1,000,000, or 2^31, or 4,300 by default."""
    digits, power = re.match(r"([\d,]+)(?:\^(\d+))?", text).groups()
    return int(digits.replace(",", "")) ** int(power or 1)


def test_readme_limits_are_the_constants():
    section = README.read_text(encoding="utf-8").split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|[^|]+\| ([^|]+) \| `([^`]+)` \|$", section, re.M)
    assert {name: _number(value) for value, name in rows} == {
        "algebras._MAX_LISTED": algebras._MAX_LISTED,
        "parsing._MAX_SHIFT": parsing._MAX_SHIFT,
        "graphs.DEFAULT_CYCLE_CAP": graphs.DEFAULT_CYCLE_CAP,
        "sys.get_int_max_str_digits()": sys.int_info.default_max_str_digits,
    }


# the module doctests, run by `python -c` with the module names as arguments
DOCTESTS = """
import doctest, importlib, sys
results = [doctest.testmod(importlib.import_module("gradedlpa." + name)) for name in sys.argv[1:]]
sys.exit(any(failed or not attempted for failed, attempted in results))
"""


def other_interpreters():
    """(version, path) of each CPython 3.10 or later under pyenv's versions
    directory, other than the running version."""
    versions = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    found = []
    for python in sorted(versions.glob("*/bin/python")):
        done = subprocess.run([python, "--version"], capture_output=True, text=True, timeout=60)
        match = re.fullmatch(r"Python ((\d+)\.(\d+)\.\d+)\s*", done.stdout + done.stderr)
        if match and (int(match[2]), int(match[3])) >= (3, 10) and match[1] != platform.python_version():
            found.append((match[1], python))
    return found


def test_pins_and_doctests_under_other_interpreters():
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10 or later under pyenv")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for version, python in pythons:
        # call_counts.py --check exits 1 when a count differs from the version's entry in work_pins.json
        checks = ([python, "tests/pins.py"], [python, "-c", DOCTESTS, *MODULES], [python, "tests/call_counts.py", "--check"])
        for argv in checks:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
            assert done.returncode == 0, (version, argv[1], done.stdout[-2000:], done.stderr[-2000:])
    print("pins, doctests and call counts passed under", ", ".join(version for version, _ in pythons))
