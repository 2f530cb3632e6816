"""Source-level rules for the qcl package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcl"


def test_no_assert_statements():
    """`python -O` strips assert statements, so no check may be one."""
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
