"""The names ``stirlab`` exports, written out, so that adding or removing one
is a visible edit of this list."""
import stirlab

PUBLIC_NAMES = [
    "AlphabetError", "CheckResult", "CoefficientTable", "DistributionTable",
    "Grammar", "GrammarSyntaxError", "IdentityCheck", "IdentityViolationError",
    "Poly", "REGISTRY", "ResourceLimitError", "TableCache",
    "UnknownIdentityError", "a_poly", "alpha", "alpha_inverse",
    "b_poly", "beta_move", "beta_set", "c_poly", "cn_nn_tables",
    "coefficient_profile", "derive", "derive_n", "distribution",
    "eulerian", "f_poly", "fs_action", "fs_move", "fs_toggle_value", "g_poly",
    "gamma_number", "gamma_table", "gamma_weighted_sum",
    "index_sets", "is_stirling", "m_poly", "matching_blocks", "matching_stats",
    "n_poly", "n_poly_closed", "orbit", "orbit_members", "p_poly",
    "p_table", "parse_grammar", "parse_poly", "perm_des", "permutation_words",
    "run_all", "run_identity", "signed_stats", "signed_words",
    "stirling2", "stirling_stats", "stirling_words", "substitute",
    "t_poly", "t_table",
]


def test_the_exported_names_are_the_written_list():
    assert sorted(stirlab.__all__) == PUBLIC_NAMES
