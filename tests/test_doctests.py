import doctest
import importlib


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
