"""stirlab: exact-arithmetic combinatorics of Stirling permutations.

Enumeration of Stirling permutations, signed permutations, perfect matchings
and permutations, each object the plain tuple its stream yields; their
ascent / plateau / descent statistics; a commutative context-free-grammar
formal-derivative engine; recurrence-driven coefficient tables; the
letter-toggling group action and the bijection with permutations; and a
registry of identities verified by brute force at desk scale.
"""
from ._version import __version__
from .actions import (
    alpha,
    alpha_inverse,
    beta_move,
    beta_set,
    fs_action,
    fs_move,
    fs_toggle_value,
    index_sets,
    orbit,
    orbit_members,
)
from .errors import IdentityViolationError, ResourceLimitError
from .grammar import (
    AlphabetError,
    Grammar,
    GrammarSyntaxError,
    coefficient_profile,
    derive,
    derive_n,
    parse_grammar,
    parse_poly,
    substitute,
)
from .identities import (
    CheckResult,
    IdentityCheck,
    REGISTRY,
    UnknownIdentityError,
    run_all,
    run_identity,
)
from .objects import (
    is_stirling,
    matching_blocks,
    permutation_words,
    signed_words,
    stirling_words,
)
from .polynomials import Poly
from .stats import (
    distribution,
    matching_stats,
    perm_des,
    signed_stats,
    stirling_stats,
)
from .tables import (
    CoefficientTable,
    TableCache,
    a_poly,
    b_poly,
    c_poly,
    cn_nn_tables,
    eulerian,
    f_poly,
    g_poly,
    gamma_number,
    gamma_table,
    gamma_weighted_sum,
    m_poly,
    n_poly,
    n_poly_closed,
    p_poly,
    p_table,
    stirling2,
    t_poly,
    t_table,
)

# the public names, written out so that no submodule is exported by accident
__all__ = [
    # actions
    "alpha", "alpha_inverse", "beta_move", "beta_set", "fs_action", "fs_move",
    "fs_toggle_value", "index_sets", "orbit", "orbit_members",
    # errors
    "IdentityViolationError", "ResourceLimitError",
    # grammar
    "AlphabetError", "Grammar", "GrammarSyntaxError", "coefficient_profile",
    "derive", "derive_n", "parse_grammar", "parse_poly", "substitute",
    # identities
    "CheckResult", "IdentityCheck", "REGISTRY", "UnknownIdentityError",
    "run_all", "run_identity",
    # objects
    "is_stirling", "matching_blocks", "permutation_words", "signed_words",
    "stirling_words",
    # polynomials
    "Poly",
    # stats
    "distribution", "matching_stats", "perm_des", "signed_stats",
    "stirling_stats",
    # tables
    "CoefficientTable", "TableCache", "a_poly", "b_poly", "c_poly",
    "cn_nn_tables", "eulerian", "f_poly", "g_poly", "gamma_number",
    "gamma_table", "gamma_weighted_sum", "m_poly", "n_poly", "n_poly_closed",
    "p_poly", "p_table", "stirling2", "t_poly", "t_table",
]
