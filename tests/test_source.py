"""Checks on the library's source text."""

import ast
from pathlib import Path

import sparsecut

PACKAGE_DIR = Path(sparsecut.__file__).resolve().parent


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_graph_module_constructs_graphs():
    # build_graph validates and induced_subgraph copies a validated graph;
    # any other Graph(...) call would be a second builder
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Graph" or getattr(node.func, "attr", None) == "Graph")
    ]
    assert found == []
