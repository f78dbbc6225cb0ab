"""stirlab: exact-arithmetic combinatorics of Stirling permutations.

Enumeration of Stirling permutations, signed permutations, perfect matchings
and permutations, each object the plain tuple its stream yields; their
ascent / plateau / descent statistics; a commutative context-free-grammar
formal-derivative engine; recurrence-driven coefficient tables; the
letter-toggling group action and the bijection with permutations; and a
registry of identities verified by brute force at desk scale.

``import stirlab`` loads only the version: each submodule loads on first use
of one of its names, so a program that only derives or builds tables never
loads the identity registry.
"""
from importlib import import_module

from ._version import __version__

# the public names, by the submodule that defines them, written out so that
# no submodule is exported by accident
_EXPORTS = {
    "actions": (
        "alpha", "alpha_inverse", "beta_set", "fs_action", "index_sets",
        "orbit", "orbit_members",
    ),
    "errors": (
        "IdentityViolationError", "ResourceLimitError", "UnknownIdentityError",
    ),
    "grammar": (
        "AlphabetError", "Grammar", "GrammarSyntaxError", "derive", "derive_n",
        "parse_grammar", "parse_poly",
    ),
    "identities": (
        "CheckResult", "IdentityCheck", "REGISTRY", "run_all", "run_identity",
    ),
    "objects": (
        "is_stirling", "matching_blocks", "permutation_words", "signed_words",
        "stirling_words",
    ),
    "polynomials": ("Poly",),
    "stats": (
        "distribution", "matching_stats", "perm_des", "signed_stats",
        "stirling_stats",
    ),
    "tables": (
        "CoefficientTable", "TableCache", "a_poly", "b_poly", "c_poly",
        "f_poly", "g_poly", "gamma_table", "m_poly", "n_poly", "n_poly_closed",
        "p_poly", "p_table", "stirling2", "t_poly", "t_table",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name: str):
    # PEP 562: called only for a name not yet in this module's namespace
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
