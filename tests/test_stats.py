"""Statistic definitions against worked examples and cross-statistic laws."""
import re
from collections import Counter

import pytest

from stirlab import objects
from stirlab.actions import alpha_inverse
from stirlab.errors import ResourceLimitError
from stirlab.objects import iter_objects, signed_words, stirling_words
from stirlab.polynomials import XYZ, Poly
from stirlab.stats import (
    _full_counts,
    _signed_scan,
    _stirling_scan,
    DEFAULT_BOUNDS,
    STATS_BY_CLASS,
    STIRLING_STATS,
    distribution,
    matching_stat_record,
    matching_stats,
    perm_des,
    signed_stat_record,
    signed_stats,
    stirling_scans,
    stirling_stat_record,
    stirling_stats,
)

import reference as ref
from reference import word


class TestStirlingStats:
    def test_worked_example_ascent_plateaus(self):
        r = stirling_stats(word("442332115665"))
        assert (r["ap"], r["lap"]) == (2, 3)

    def test_worked_example_double_ascents(self):
        r = stirling_stats(word("244332115665"))
        assert (r["dasc"], r["dp"]) == (2, 2)

    def test_hand_evaluated_2211(self):
        r = stirling_stats(word("2211"))
        assert r == stirling_stat_record(word("2211"))
        assert (r["asc"], r["des"], r["plat"]) == (1, 2, 2)
        assert (r["ap"], r["lap"], r["fap"]) == (0, 1, 1)
        assert (r["dasc"], r["dp"]) == (0, 1)

    def test_single_pair_word(self):
        r = stirling_stats(word("11"))
        assert r["fap"] == 1
        assert (r["asc"], r["des"], r["plat"]) == (1, 1, 1)

    def test_empty_word(self):
        r = stirling_stats(())
        assert r == stirling_stat_record(())
        assert r["asc"] == r["des"] == r["fap"] == 0

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError):
            stirling_stats(word("1212"))

    @pytest.mark.parametrize("n", range(8))
    def test_structural_laws(self, n):
        # asc = lap + dasc, plat = lap + dp, fap = ap + lap,
        # lap = ap + [plateau start], asc + des + plat = 2n + 1 (n >= 1),
        # on every record of the scan table of Q_n
        for w, record in stirling_scans(n).items():
            r = dict(zip(STIRLING_STATS, record))
            assert r["asc"] == r["lap"] + r["dasc"]
            assert r["plat"] == r["lap"] + r["dp"]
            assert r["fap"] == r["ap"] + r["lap"]
            assert r["lap"] == r["ap"] + (1 if len(w) >= 2 and w[0] == w[1] else 0)
            if w:
                assert r["asc"] + r["des"] + r["plat"] == len(w) + 1


class TestSignedStats:
    def test_worked_example(self):
        r = signed_stats((4, -3, 1, 5, 2))
        assert (r["desA"], r["fdes"], r["fasc"]) == (2, 4, 5)

    def test_one_letter(self):
        assert signed_stats((1,))["fdes"] == 0
        assert signed_stats((1,))["fasc"] == 1
        assert signed_stats((-1,))["fdes"] == 1
        assert signed_stats((-1,))["fasc"] == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            signed_stats(())
        with pytest.raises(ValueError):
            signed_stats((2, 2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_structural_laws(self, n):
        for values in iter_objects("signed", n):
            r = signed_stat_record(values)
            assert r["fdes"] + r["fasc"] == 2 * n - 1
            assert r["fdes"] == 2 * r["desA"] + (1 if values[0] < 0 else 0)
            assert r["desB"] == r["desA"] + (1 if values[0] < 0 else 0)


class TestMatchingAndPermutation:
    def test_single_block(self):
        r = matching_stats([(1, 2)])
        assert (r["el"], r["ol"]) == (1, 0)

    def test_crossing(self):
        r = matching_stats([(1, 3), (2, 4)])
        assert (r["el"], r["ol"]) == (1, 1)

    def test_matching_polynomials_n2(self):
        ol = distribution("matching", 2, ["ol"])
        el = distribution("matching", 2, ["el"])
        assert ol == {(0,): 1, (1,): 2}  # 1 + 2x over the 3 matchings
        assert el == {(1,): 2, (2,): 1}  # 2x + x^2

    def test_el_plus_ol(self):
        for blocks in iter_objects("matching", 3):
            r = matching_stats(blocks)
            assert r["el"] + r["ol"] == 3

    def test_perm_des(self):
        assert perm_des((1, 2, 3)) == 0
        assert perm_des((3, 2, 1)) == 2
        assert perm_des((4, 3, 5, 6, 2, 1)) == 3


def test_validators_reject_bad_objects():
    # the checks of the statistics functions, and of perm_des and
    # alpha_inverse for permutations, with their messages
    assert stirling_stats((1, 2, 2, 3, 3, 1)) == stirling_stat_record((1, 2, 2, 3, 3, 1))
    with pytest.raises(ValueError, match=r"^not a Stirling permutation: \(1, 2, 1, 2\)$"):
        stirling_stats([1, 2, 1, 2])
    assert signed_stats([4, -3, 1, 5, 2]) == signed_stat_record((4, -3, 1, 5, 2))
    with pytest.raises(ValueError, match=r"^not a signed permutation: \(1, 1\)$"):
        signed_stats((1, 1))
    with pytest.raises(ValueError, match=r"^not a signed permutation: \(0, 1\)$"):
        signed_stats((0, 1))
    with pytest.raises(ValueError, match=r"^signed statistics need n >= 1$"):
        signed_stats(())
    # blocks in any order, and entries in any order within a block
    assert matching_stats([(3, 1), (2, 4)]) == matching_stat_record(((1, 3), (2, 4)))
    with pytest.raises(ValueError,
                       match=r"^not a perfect matching of \[2n\]: \[\(1, 2\), \(2, 3\)\]$"):
        matching_stats([(1, 2), (2, 3)])
    with pytest.raises(ValueError, match=r"^not a perfect matching"):
        matching_stats([(1, 2, 3, 4)])
    # blocks that are not sequences
    with pytest.raises(ValueError, match=r"^not a perfect matching of \[2n\]: \(1, 2\)$"):
        matching_stats((1, 2))
    # entries equal to ints but of another type are not letters
    with pytest.raises(ValueError, match=r"^not a Stirling permutation: \(1\.0, 1\.0\)$"):
        stirling_stats((1.0, 1.0))
    with pytest.raises(ValueError, match=r"^not a signed permutation: \(1\.0,\)$"):
        signed_stats((1.0,))
    with pytest.raises(ValueError,
                       match=r"^not a perfect matching of \[2n\]: \[\(1\.0, 2\.0\)\]$"):
        matching_stats([(1.0, 2.0)])
    assert alpha_inverse([2, 1, 3]) == (1, 2, 2, 1, 3, 3)
    with pytest.raises(ValueError, match=r"^not a permutation of \[n\]: \(1, 3\)$"):
        alpha_inverse((1, 3))
    assert perm_des([2, 1, 3]) == 1
    with pytest.raises(ValueError, match=r"^not a permutation of \[n\]: \(1, 'a'\)$"):
        perm_des((1, "a"))


@pytest.mark.parametrize("check, message", [
    (stirling_stats, r"^not a Stirling permutation: 5$"),
    (signed_stats, r"^not a signed permutation: 5$"),
    (perm_des, r"^not a permutation of \[n\]: 5$"),
    (lambda obj: distribution("stirling", 2, obj), r"^not a sequence of statistics: 5$"),
], ids=["stirling", "signed", "perm_des", "distribution"])
def test_an_argument_that_is_not_iterable_is_named(check, message):
    with pytest.raises(ValueError, match=message):
        check(5)


def test_distribution_reads_its_statistics_once():
    # a generator of names used to be spent on the name check, leaving no
    # statistic to count: {(): 3}
    assert distribution("stirling", 2, (s for s in ["asc"])) == {(1,): 1, (2,): 2}


# bool is a subclass of int, but True is not the letter 1
@pytest.mark.parametrize("check, obj, message", [
    (stirling_stats, (True, True), r"^not a Stirling permutation: \(True, True\)$"),
    (signed_stats, (True,), r"^not a signed permutation: \(True,\)$"),
    (matching_stats, [(True, 2)], r"^not a perfect matching of \[2n\]: \[\(True, 2\)\]$"),
    (alpha_inverse, (True,), r"^not a permutation of \[n\]: \(True,\)$"),
    (perm_des, (True,), r"^not a permutation of \[n\]: \(True,\)$"),
], ids=["stirling", "signed", "matching", "alpha_inverse", "perm_des"])
def test_a_bool_is_not_a_letter(check, obj, message):
    with pytest.raises(ValueError, match=message):
        check(obj)


class TestDistribution:
    def test_fap_order_2(self):
        assert distribution("stirling", 2, ["fap"]) == {(1,): 1, (2,): 1, (3,): 1}

    def test_joint_equals_refinement_polynomial(self):
        # the (lap, dasc, dp) distribution at order 3 carries the published
        # coefficients: x(y^2+z^2) + 4x^2(y+z) + 2xyz + 2x^2 + x^3
        tri = Poly(XYZ, distribution("stirling", 3, ["lap", "dasc", "dp"]))
        assert tri.coefficient(1, 2, 0) == 1
        assert tri.coefficient(1, 0, 2) == 1
        assert tri.coefficient(2, 1, 0) == 4
        assert tri.coefficient(2, 0, 1) == 4
        assert tri.coefficient(1, 1, 1) == 2
        assert tri.coefficient(2, 0, 0) == 2
        assert tri.coefficient(3, 0, 0) == 1
        assert sum(tri.terms.values()) == 15

    def test_signed_fdes_order_1(self):
        assert distribution("signed", 1, ["fdes"]) == {(0,): 1, (1,): 1}

    def test_totals_match_cardinalities(self):
        assert sum(distribution("stirling", 4, ["asc"]).values()) == 105
        assert sum(distribution("signed", 3, ["fdes"]).values()) == 48
        assert sum(distribution("matching", 4, ["el"]).values()) == 105
        assert sum(distribution("permutation", 4, ["des"]).values()) == 24

    def test_marginal_and_poly(self):
        # a joint table summed over dasc and dp is the lap table, and the
        # same statistics asked in another order give the same counts
        joint = distribution("stirling", 3, ["lap", "dasc", "dp"])
        lap = Counter()
        for (v, _, _), c in joint.items():
            lap[(v,)] += c
        assert lap == distribution("stirling", 3, ["lap"])
        reordered = distribution("stirling", 3, ["dp", "lap", "dasc"])
        assert reordered == {(dp, v, d): c for (v, d, dp), c in joint.items()}

    @pytest.mark.parametrize("klass, n, stats", [
        ("stirling", 4, ["dp", "asc", "lap"]), ("signed", 3, ["fasc", "desA"]),
        ("matching", 4, ["ol", "el"]), ("permutation", 5, ["des"]),
    ])
    def test_a_plain_dict_in_sorted_order(self, klass, n, stats):
        d = distribution(klass, n, stats)
        assert type(d) is dict
        assert list(d) == sorted(d)

    def test_bound_errors(self):
        with pytest.raises(ResourceLimitError):
            distribution("stirling", DEFAULT_BOUNDS["stirling"] + 1, ["asc"])
        # an explicit limit unlocks larger orders
        distribution("permutation", 5, ["des"], max_n=5)
        with pytest.raises(ResourceLimitError):
            distribution("permutation", 6, ["des"], max_n=5)

    @pytest.mark.parametrize("max_n", ["a", 2.5, True, (5,)])
    def test_the_bound_is_an_int(self, max_n):
        with pytest.raises(ValueError,
                           match=rf"^max_n must be an int or None, got {re.escape(repr(max_n))}$"):
            distribution("stirling", 2, ["asc"], max_n=max_n)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            distribution("stirling", 2, ["nope"])
        with pytest.raises(ValueError):
            distribution("widget", 2, ["asc"])
        for klass in (["stirling"], {"stirling": 1}):  # unhashable
            with pytest.raises(ValueError,
                               match=rf"^unknown object class: {re.escape(repr(klass))}$"):
                distribution(klass, 2, ())
        for n in (True, 1.5, -1):
            with pytest.raises(ValueError, match=rf"^n must be a nonnegative int, got {n}$"):
                distribution("stirling", n, ["asc"])


# the checked and the trusting entry point of each class
_ENTRY_POINTS = {
    "stirling": (stirling_stats, stirling_stat_record),
    "signed": (signed_stats, signed_stat_record),
    "matching": (matching_stats, matching_stat_record),
}


@pytest.mark.parametrize("klass", list(_ENTRY_POINTS))
def test_stats_are_keyed_by_the_class_names_in_order(klass):
    # the names are written once, in STATS_BY_CLASS; both entry points key
    # their dict by them, in that order
    names = STATS_BY_CLASS[klass]
    for n in range(1 if klass == "signed" else 0, 5):
        for obj in iter_objects(klass, n):
            for fn in _ENTRY_POINTS[klass]:
                assert tuple(fn(obj)) == names


def test_stirling_scan_matches_definitions():
    for n in range(7):
        for w in iter_objects("stirling", n):
            assert stirling_stat_record(w) == ref.stirling_stats(w)


def test_scan_table_is_the_naive_scan():
    for n in range(7):
        table = stirling_scans(n)
        assert list(table) == list(stirling_words(n))
        shared = {}
        for w, record in table.items():
            assert record == _stirling_scan(w)
            # equal records are one interned tuple
            assert shared.setdefault(record, record) is record
        assert _full_counts("stirling", n) == Counter(
            map(_stirling_scan, stirling_words(n))
        )


def test_signed_counts_by_fdes_equal_the_record_scan():
    # B_n is counted by fdes alone and expanded per value; the expansion must
    # give the counts of the four-field scan of every word
    objects.clear_memos()
    for n in range(1, 7):
        counts = _full_counts("signed", n)
        assert counts == Counter(map(_signed_scan, signed_words(n)))
        assert all(type(v) is int for record in counts for v in record)


def test_matchings_of_order_7_are_not_memoized():
    # only the memoized _full_counts reads them, so the 135,135 block tuples
    # need not stay resident
    objects.clear_memos()
    assert sum(distribution("matching", 7, ["el"]).values()) == 135135
    assert objects._cached_objects.cache_info().currsize == 0


def test_signed_and_permutation_orders_are_not_memoized():
    # B_6 is read only by the memoized _full_counts and S_6 once by the
    # alpha walk, so neither enters the memo; the Q_n reads hit warm tables
    from stirlab.identities import REGISTRY

    objects.clear_memos()
    for n in range(7):
        stirling_scans(n)  # Q_0..Q_6 enter the memo
    assert sum(distribution("signed", 6, ["desB"]).values()) == 46080
    assert REGISTRY["alpha-bijection"].runner(6) is None
    assert objects._cached_objects.cache_info().currsize == 7
