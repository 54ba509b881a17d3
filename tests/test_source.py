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
