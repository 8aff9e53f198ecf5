"""Facts about fixiter's source text that hold in every module."""

import ast
from pathlib import Path

import fixiter

SOURCE = Path(fixiter.__file__).parent


def test_no_module_has_an_assert_statement():
    # python -O strips every assert, so one that guards control flow becomes a
    # crash further on: a condition the code relies on raises a FixiterError.
    found = [f"{path.relative_to(SOURCE)}:{node.lineno}" for path in sorted(SOURCE.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Assert)]
    assert found == []
