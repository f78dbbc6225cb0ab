"""Every private kernel of the package against its slow reference.

``KERNELS`` maps a kernel, as ``module.name``, to the kernel's call, the call
of its reference in ``reference.py``, and a function returning the domain
both run on: Q_n for n <= 5 and seeded pair-insertion samples at n = 8,
12, 20 and 40, B_n, matchings and S_n to n = 5, 6 and 7 and seeded samples
of each at n = 8..12, and orders to 5 for the rows.  Results are compared
value and type, so True is not 1.  A kernel that a test of another file
already compares with its reference is listed in ``COVERED`` under that
test's id instead, so each comparison runs once, and a private function with
no reference of its own is in ``EXEMPT`` with its reason.
"""
import ast
import collections
import random
from collections.abc import Mapping
from functools import lru_cache, partial, reduce
from pathlib import Path

import pytest

import reference as ref
from stirlab import actions, grammar, objects, polynomials, stats, tables
from stirlab.objects import is_stirling
from stirlab.polynomials import Poly
from stirlab.stats import MATCHING_STATS, SIGNED_STATS, STATS_BY_CLASS


# the kernel's call, the reference's call, and () -> the domain's argument tuples
Pair = collections.namedtuple("Pair", "fast slow domain")


def upto(n_max, low=0):
    return [(n,) for n in range(low, n_max + 1)]


def words(n_max):
    """(w,) for every w of Q_0..Q_n_max and every sampled word."""
    return [(w,) for n in range(n_max + 1) for w in ref.stirling_words(n)] + [
        (w,) for n in ref.SAMPLED_ORDERS for w in ref.sampled_words(n)]


def word_values(n_max, low=1):
    """(w, v) for every word of :func:`words` and every v = low..n."""
    return [(w, v) for (w,) in words(n_max) for v in range(low, len(w) // 2 + 1)]


def objects_of(klass, n_max):
    """(obj,) for every object of the class at orders up to n_max."""
    return [(obj,) for n in range(klass == "signed", n_max + 1) for obj in ref.STREAMS[klass](n)]


def sampled_objects(klass):
    """(obj,) for each sampled object of the class at n = 8..12."""
    return [(obj,) for n in ref.SAMPLED_OBJECT_ORDERS for obj in ref.sampled_objects(klass, n)]


def matchings_both_ways(n_max):
    """(m,) for every matching of order <= n_max as the stream yields it, each
    block a < b, and with each block's entries and the blocks reversed."""
    return [(m,) for (blocks,) in objects_of("matching", n_max)
            for m in (blocks, tuple(b[::-1] for b in reversed(blocks)))]


# P_n's coefficients count the words of Q_n by (lap, dasc, dp)
refined_counts = partial(ref.full_counts, "stirling", names=("lap", "dasc", "dp"))


def poly_cases():
    """Two polynomials over seeded random subsets of the letters pqxyz, each
    as names and up to four (exponents, coefficient) terms, a letter of
    pqxyzw and a power from 0 to 3."""
    rng = random.Random(17)
    for _ in range(300):
        case = []
        for _ in "pq":
            names = tuple(sorted(rng.sample("pqxyz", rng.randint(0, 4))))
            case += [names, [(tuple(rng.randint(0, 2) for _ in names), rng.randint(-6, 6))
                             for _ in range(rng.randint(0, 4))]]
        yield *case, rng.choice("pqxyzw"), rng.randint(0, 3)


def poly_ops(names_p, terms_p, names_q, terms_q, letter, k):
    p, q = Poly(names_p, terms_p), Poly(names_q, terms_q)
    results = [p, p + q, p - q, p * q, p * -2, p + 3, p ** k, p.partial(letter)]
    return [(ref.sparse(r), str(r)) for r in results], p == q, p - q == Poly.zero()


def poly_ops_reference(names_p, terms_p, names_q, terms_q, letter, k):
    a, b = ref.poly(names_p, terms_p), ref.poly(names_q, terms_q)
    power = reduce(lambda acc, _: ref.mul(acc, a), range(k), {(): 1})
    results = [a, ref.add(a, b), ref.add(a, {m: -c for m, c in b.items()}), ref.mul(a, b),
               ref.mul(a, {(): -2}), ref.add(a, {(): 3}), power, ref.partial(a, letter)]
    return [(r, ref.sparse_str(r)) for r in results], a == b, a == b


@lru_cache(maxsize=None)
def in_q_n(n):
    """Membership in Q_n, as the identity loops check it."""
    return frozenset(ref.stirling_words(n)).__contains__


def keyed(names, scan):
    """scan's record as a dict keyed by names."""
    return lambda obj: dict(zip(names, scan(obj)))


KERNELS = {
    # the beta moves and the orbit representative, whose references no
    # other test reads
    "actions._beta_first": Pair(actions._beta_first, ref.beta_first, partial(word_values, 5)),
    "actions._beta_fixes": Pair(actions._beta_fixes, ref.beta_fixes, partial(word_values, 5, 0)),
    "actions._free_values": Pair(actions._free_values, ref.free_values, partial(words, 5)),
    "actions._representative": Pair(lambda w: actions._representative(w, is_stirling),
                                    ref.representative, partial(words, 5)),
    # the inverse of alpha, checked by is_stirling as alpha_inverse_trace
    # does and by membership in Q_n as the alpha-bijection loop does
    "actions._alpha_inverse": Pair(
        lambda pi: [actions._alpha_inverse(pi, check) for check in (is_stirling, in_q_n(len(pi)))],
        lambda pi: [ref.alpha_inverse_trace(pi)] * 2, partial(objects_of, "permutation", 6)),
    # the statistic scans of B_n, the matchings and S_n, and their counts
    "stats._fdes": Pair(stats._fdes, lambda v: ref.signed_stats(v)["fdes"],
                        lambda: objects_of("signed", 5) + sampled_objects("signed")),
    "stats._signed_record": Pair(
        keyed(SIGNED_STATS, lambda v: stats._signed_record(len(v), ref.signed_stats(v)["fdes"])),
        ref.signed_stats, partial(objects_of, "signed", 5)),
    "stats._signed_scan": Pair(keyed(SIGNED_STATS, stats._signed_scan), ref.signed_stats,
                               partial(objects_of, "signed", 5)),
    "stats._matching_scan": Pair(
        keyed(MATCHING_STATS, stats._matching_scan), ref.matching_stats,
        lambda: matchings_both_ways(6) + sampled_objects("matching")),
    "stats._permutation_scan": Pair(
        stats._permutation_scan, lambda pi: (ref.des(pi),),
        lambda: objects_of("permutation", 7) + sampled_objects("permutation")),
    "stats._full_counts": Pair(
        stats._full_counts, lambda klass, n: ref.full_counts(klass, n, STATS_BY_CLASS[klass]),
        lambda: [(klass, n) for klass in STATS_BY_CLASS for n in range(klass == "signed", 6)]),
    # P and gamma against the brute-force counts they are theorems about
    "tables._p_row": Pair(tables._p_row, refined_counts, partial(upto, 5)),
    "tables._gamma_row": Pair(tables._gamma_row, ref.gamma_counts, partial(upto, 5)),
    # reached through p_polys_differential and g_polys_differential
    "tables._differential": Pair(
        lambda n: (tables.p_polys_differential(n)[n].terms,
                   tables.g_polys_differential(n)[n].terms),
        lambda n: (refined_counts(n), {(*key, 0): c for key, c in ref.gamma_counts(n).items()}),
        partial(upto, 5)),
    # reached through n_poly_closed
    "tables._closed_weight": Pair(lambda n: tables.n_poly_closed(n).terms,
                                  partial(ref.full_counts, "stirling", names=["lap"]),
                                  partial(upto, 5)),
    "tables._odd_double_factorial": Pair(tables._odd_double_factorial,
                                         ref.odd_double_factorial, partial(upto, 99)),
    # reached through Poly's + - * ** == partial and str, which align names
    "polynomials._aligned": Pair(poly_ops, poly_ops_reference, poly_cases),
}

# the tests of other files that compare kernels with their references, by
# test id, and the kernels each compares; the table does not run them again
COVERED = {
    # the index sets on Q_n, n <= 6, and on int lists; the index sets, alpha
    # and the orbit walk on the sampled words
    "test_actions.py::TestOnePassIndexSets::test_all_small_words": ["actions._index_sets"],
    "test_sampled_words.py::test_private_kernels_match_the_checked_api":
        ["actions._index_sets", "actions._alpha", "actions._walk"],
    # the slides on Q_n, n <= 5, and through beta_set and fs_action on Q_n,
    # n <= 6, with the toggle
    "test_sampled_words.py::test_slides_match_the_slice_built_reference_on_every_word":
        ["actions._slide_left", "actions._slide_right"],
    "test_actions.py::TestKernelsMatchTheSliceReference::test_every_word_value_and_position":
        ["actions._slide_left", "actions._slide_right", "actions._toggle"],
    # through matching_blocks
    "test_objects.py::test_matching_order_matches_the_recursive_reference":
        ["objects._next_matchings"],
    # the Stirling scan on Q_n, n <= 6, and on the sampled words
    "test_stats.py::test_stirling_scan_matches_definitions": ["stats._stirling_scan"],
    "test_sampled_words.py::test_per_word_theorems": ["stats._stirling_scan"],
    # through derive and derive_n
    "test_grammar.py::TestDeriveKernel::test_matches_the_poly_reference": ["grammar._step"],
    "test_grammar.py::TestDeriveKernel::test_derive_n_matches_the_iterated_reference":
        ["grammar._powers"],
    # through a_poly, b_poly, stirling2 and t_poly
    "test_tables.py::TestEulerianFamilies::test_against_brute_force": ["tables._eulerian_row"],
    "test_tables.py::TestEulerianFamilies::test_type_b_against_brute_force":
        ["tables._b_eulerian_row"],
    "test_tables.py::TestStirling2::test_against_partition_oracle": ["tables._stirling2_row"],
    "test_tables.py::TestFlagAscentPlateauNumbers::test_against_brute_force": ["tables._t_row"],
    "test_tables.py::test_1d_step_sends_one_term_to_its_images":
        [f"tables.{step}" for step in ("_eulerian_step", "_b_eulerian_step", "_stirling2_step",
                                       "_t_step", "_c_step", "_n_step")],
    "test_tables.py::test_p_rows_match_gather_form": ["tables._p_step"],
    "test_tables.py::test_gamma_rows_match_gather_form": ["tables._gamma_step"],
}

GATE = "gate: raises ValueError on an argument of the wrong kind"
EXEMPT = {
    **dict.fromkeys(["actions._word", "actions._values", "objects._order", "objects._tuple",
                     "objects._stirling_word", "grammar._arg", "polynomials._letter"], GATE),
    **dict.fromkeys(["objects._is_permutation", "objects._is_signed", "objects._is_matching"],
                    "predicate of a gate of stats or actions"),
    **dict.fromkeys(["tables._header", "tables._read_row", "tables._cached_build"],
                    "cache I/O: the cache tests of test_tables.py pin the files"),
    **{f"tables._{f}_terms": f"reader of a dense row, under the tables._{f}_row check"
       for f in ("t", "p", "gamma")},
    "actions._not_twice": "error helper: the ValueError for a missing value",
    "objects._cached_objects": "memo of the Stirling stream, which "
                               "test_objects.py compares with pair insertion",
    "objects._memo": "the memo decorator, which test_no_asserts.py and test_cli.py check",
    "grammar._tokenize": "the rule-text lexer: test_grammar.py pins its tokens' lines and columns",
    "grammar._read_poly": "the polynomial reader: test_grammar.py parses rendered term lists",
    "polynomials._as_poly": "coercion of an int operand to a constant Poly",
}

MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (actions, objects, stats, grammar,
                                                      tables, polynomials)}


def typed(value):
    """value with each scalar in it paired with its exact type, so that True
    and 1 differ: a mapping's keys and values, a list's or a tuple's items."""
    if isinstance(value, Mapping):
        return {typed(k): typed(v) for k, v in value.items()}
    if isinstance(value, list):
        return [typed(v) for v in value]
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_matches_its_reference(name):
    fast, slow, domain = KERNELS[name]
    for args in domain():
        assert typed(fast(*args)) == typed(slow(*args)), args


def private_functions() -> set[str]:
    """module.name of each module-level def _name, decorated or not."""
    return {f"{short}.{node.name}"
            for short, module in MODULES.items()
            for node in ast.parse(Path(module.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.endswith("__")}


def defines(test_id) -> bool:
    """Whether the file of a test id defines the test it names."""
    file, *path = test_id.split("::")
    body = ast.parse((Path(__file__).parent / file).read_text()).body
    for name in path:
        body = next((node.body for node in body if getattr(node, "name", None) == name), None)
        if body is None:
            return False
    return True


def test_every_private_function_has_a_reference_or_a_reason():
    private = private_functions()
    listed = [*KERNELS, *{name for names in COVERED.values() for name in names}, *EXEMPT]
    assert sorted(private - set(listed)) == []
    # nothing in two of the lists, no entry for a function that is gone,
    # and no test named that is gone
    assert len(listed) == len(set(listed))
    assert sorted(set(listed) - private) == []
    assert [test_id for test_id in COVERED if not defines(test_id)] == []
