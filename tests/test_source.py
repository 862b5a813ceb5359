"""Checks on the package source itself."""

import ast
from pathlib import Path

import diraclab


def test_no_assert_statements():
    # python -O strips assert statements, so every re-verification in the
    # package has to be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(diraclab.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
