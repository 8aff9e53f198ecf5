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


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _per_n_reads(node, exempt=False, looped=False):
    """The lines of the ``.at(`` calls under ``node`` that sit inside a loop or a
    comprehension, outside ``Schedule.values``."""
    if isinstance(node, ast.ClassDef) and node.name == "Schedule":
        for child in node.body:
            yield from _per_n_reads(child, isinstance(child, ast.FunctionDef) and child.name == "values")
        return
    if (looped and not exempt and isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "at"):
        yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _per_n_reads(child, exempt, looped or isinstance(node, _LOOPS))


def test_schedules_are_read_per_n_only_inside_schedule_values():
    # Schedule.values reads a run of n as one array, falling back to at(n) in
    # order only where it must; a loop over at(n) elsewhere reads per n again.
    found = [f"{path.relative_to(SOURCE)}:{line}" for path in sorted(SOURCE.rglob("*.py"))
             for line in _per_n_reads(ast.parse(path.read_text(), str(path)))]
    assert found == []
