"""Rules that every module of the package keeps, checked on its syntax tree.

No check may depend on ``__debug__``: ``python -O`` strips every ``assert``
statement, so a correctness check written as one silently stops running.
Checks raise instead.

No module imports ``fractions``: every polynomial and table of the package
has integer coefficients, and a closed form with negative powers of two is
summed times a power of two and divided exactly at the end.

No module keeps a private function or class that nothing calls: every
undecorated module-level ``def _name`` or ``class _Name`` must be read as a
name, an attribute or an import somewhere in the package.  A helper left
behind when its last caller goes is dead code.  Every memo is made by
``objects._memo``, so that ``objects.clear_memos`` empties it.
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


def _referenced(node) -> list[str]:
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    return []


def test_every_private_helper_is_referenced():
    used = {name for _, node in _nodes() for name in _referenced(node)}
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.decorator_list
                and node.name.startswith("_")
                and not node.name.endswith("__")
                and node.name not in used
            ):
                found.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno} "
                             f"{node.name}")
    assert found == []


def test_every_memo_is_made_by_objects_memo():
    # functools' memo decorators: objects.py imports one, and _memo calls it
    memo = next(node for path, node in _nodes() if getattr(node, "name", None) == "_memo")
    found = [f"{path}:{node.lineno}" for path, node in _nodes()
             if ("lru_cache" in (names := _referenced(node))
                 or "cache" in names and "functools" in ast.unparse(node))
             and not (str(path) == "objects.py" and (isinstance(node, ast.ImportFrom)
                                                     or memo.lineno < node.lineno <= memo.end_lineno))]
    assert found == []
