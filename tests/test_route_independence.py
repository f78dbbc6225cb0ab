"""Independence audit of the declared identity routes.

Every route of a declared identity runs alone, at n <= 3 and with every
package memo cleared first, under ``sys.setprofile``; the audit collects the
stirlab functions it reaches.  The two routes one ``Compare`` pairs may share
only the allow-list below, and whatever runs inside an allowed function:

- ``polynomials``: the arithmetic of ``Poly``;
- ``grammar.parse_poly``;
- ``objects`` and ``stats``: the enumerators and statistic scans that
  define the objects counted;
- ``identities._poly`` and ``identities._tri``: projections of
  ``distribution``.

Any other shared function is logic the two sides of an identity have in
common, so that the comparison no longer checks it; the failure names it.
Every route reads a coefficient family of ``tables`` through its public
polynomial functions; a read of a private ``tables`` name fails too.
"""
import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

import pytest

import stirlab
from stirlab import grammar, identities
from stirlab.identities import REGISTRY, Compare

AUDIT_BOUND = 3
PACKAGE = str(Path(stirlab.__file__).resolve().parent)
MODULES = [
    importlib.import_module(f"stirlab.{m.name}")
    for m in pkgutil.iter_modules(stirlab.__path__)
    if m.name != "__main__"
]


def _codes(fn) -> set:
    """The code object of a function and those of the lambdas and
    comprehensions nested in it."""
    found, todo = set(), [fn.__code__]
    while todo:
        code = todo.pop()
        found.add(code)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


ALLOWED_MODULES = {"polynomials", "objects", "stats"}
ALLOWED_CODES = set().union(
    *map(_codes, (grammar.parse_poly, identities._poly, identities._tri))
)
# the shared loop drives the route under audit; it is not part of the route
HARNESS_CODES = _codes(identities._run_routes)

DECLARED = sorted(name for name, check in REGISTRY.items() if check.compare)


def _name(code) -> str:
    module = Path(code.co_filename).stem
    # co_qualname is new in Python 3.11
    return f"{module}.{getattr(code, 'co_qualname', code.co_name)}"


def _allowed(code) -> bool:
    return Path(code.co_filename).stem in ALLOWED_MODULES or code in ALLOWED_CODES


def _describe(code) -> str:
    # every lambda is called <lambda>; the line tells them apart
    return f"{_name(code)} (line {code.co_firstlineno})"


def _clear_memos() -> None:
    for module in MODULES:
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def reach(route, start: int) -> set:
    """The code objects of the package functions a route calls at
    n = start..3 with every memo cold, leaving out what runs inside an
    allowed function."""
    _clear_memos()
    reached = set()
    inside: list[bool] = []  # per open frame: within an allowed function

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            outer = inside[-1] if inside else False
            ours = code.co_filename.startswith(PACKAGE) and code not in HARNESS_CODES
            if ours and not outer:
                reached.add(code)
            inside.append(outer or (ours and _allowed(code)))
        elif event == "return" and inside:
            inside.pop()

    sys.setprofile(profile)
    try:
        identities._run_routes((Compare(route, route, start=start),), AUDIT_BOUND)
    finally:
        sys.setprofile(None)
    return reached


def shared_functions(check) -> list[str]:
    """One line per compared pair whose routes share a function."""
    found = []
    for c in check.compare:
        both = reach(c.left, c.start) & reach(c.right, c.start)
        common = sorted(_describe(code) for code in both if not _allowed(code))
        if common:
            found.append(f"{check.name} [{c.label.strip() or 'routes'}]: "
                         f"both sides reach {', '.join(common)}")
    return found


# the checks that walk the words of Q_n; a new hand-written check has to be
# added here on purpose
HAND_WRITTEN = {"alpha-bijection", "fs-symmetry"}


def test_most_identities_are_declared():
    assert set(REGISTRY) - set(DECLARED) == HAND_WRITTEN


@pytest.mark.parametrize("name", DECLARED)
def test_compared_routes_share_no_logic(name):
    assert shared_functions(REGISTRY[name]) == []


@pytest.mark.parametrize("name", DECLARED)
def test_each_route_is_seen_to_run(name):
    for c in REGISTRY[name].compare:
        assert reach(c.left, c.start) and reach(c.right, c.start)


def test_a_shared_function_is_named():
    planted = identities.IdentityCheck(
        "planted", "two routes through one table function", 3, 3, lambda bound: None,
        (Compare(lambda n: identities.tables.g_poly(n),
                 lambda n: identities.tables.g_poly(n) * 1, "G_n "),),
    )
    (line,) = shared_functions(planted)
    assert line.startswith("planted [G_n]: both sides reach ")
    assert "tables.g_poly" in line and "tables._gamma_row" in line


def test_identities_read_no_private_tables_name():
    tree = ast.parse(Path(identities.__file__).read_text())
    private = sorted(
        f"line {node.lineno}: tables.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tables"
        and node.attr.startswith("_")
    )
    assert private == []
