import doctest
import importlib
import re
from pathlib import Path

import gradedlpa


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
