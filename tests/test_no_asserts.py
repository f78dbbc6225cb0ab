"""No check in the package may depend on ``__debug__``.

``python -O`` strips every ``assert`` statement, so a correctness check
written as one silently stops running.  Checks raise instead.
"""
import ast
from pathlib import Path

import stirlab

PACKAGE_DIR = Path(stirlab.__file__).resolve().parent


def test_the_package_has_no_assert_statements():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
