"""The names ``stirlab`` exports, written out, so that adding or removing one
is a visible edit of this list."""
import importlib

import pytest

import stirlab

PUBLIC_NAMES = [
    "AlphabetError", "CheckResult", "CoefficientTable",
    "Grammar", "GrammarSyntaxError", "IdentityCheck", "IdentityViolationError",
    "Poly", "REGISTRY", "ResourceLimitError", "TableCache",
    "UnknownIdentityError", "a_poly", "alpha", "alpha_inverse",
    "b_poly", "beta_set", "c_poly",
    "derive", "derive_n", "distribution",
    "f_poly", "fs_action", "g_poly",
    "gamma_table",
    "index_sets", "is_stirling", "m_poly", "matching_blocks", "matching_stats",
    "n_poly", "n_poly_closed", "orbit", "orbit_members", "p_poly",
    "p_table", "parse_grammar", "parse_poly", "perm_des", "permutation_words",
    "run_all", "run_identity", "signed_stats", "signed_words",
    "stirling2", "stirling_stats", "stirling_words",
    "t_poly", "t_table",
]


def test_the_exported_names_are_the_written_list():
    assert sorted(stirlab.__all__) == PUBLIC_NAMES


def test_each_name_is_its_submodule_object():
    for module, names in stirlab._EXPORTS.items():
        owner = importlib.import_module(f"stirlab.{module}")
        for name in names:
            assert getattr(stirlab, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from stirlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_dir_lists_every_name():
    assert set(PUBLIC_NAMES) <= set(dir(stirlab))


def test_an_unknown_name_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        stirlab.no_such_name


def test_unknown_identity_error_is_one_class():
    from stirlab import errors, identities

    assert stirlab.UnknownIdentityError is errors.UnknownIdentityError
    assert identities.UnknownIdentityError is errors.UnknownIdentityError
