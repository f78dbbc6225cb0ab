"""Rules that every module of the package keeps, checked on its syntax tree.

No check may depend on ``__debug__``: ``python -O`` strips every ``assert``
statement, so a correctness check written as one silently stops running.
Checks raise instead.

No module imports ``fractions``: every polynomial and table of the package
has integer coefficients, and a closed form with negative powers of two is
summed times a power of two and divided exactly at the end.
"""
import ast
from pathlib import Path

import stirlab

PACKAGE_DIR = Path(stirlab.__file__).resolve().parent


def _nodes():
    """(module path, node) for every node of every package module."""
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.relative_to(PACKAGE_DIR), node


def test_the_package_has_no_assert_statements():
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if isinstance(node, ast.Assert)]
    assert found == []


def _imported(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_no_module_imports_fractions():
    found = [
        f"{path}:{node.lineno}"
        for path, node in _nodes()
        if any(name.split(".")[0] == "fractions" for name in _imported(node))
    ]
    assert found == []
