"""Statistic definitions against worked examples and cross-statistic laws."""
from collections import Counter

import pytest

from stirlab import objects
from stirlab.actions import alpha_inverse
from stirlab.errors import ResourceLimitError
from stirlab.objects import iter_objects, signed_words, stirling_words
from stirlab.polynomials import Poly
from stirlab.stats import (
    _SCANS,
    _full_counts,
    _signed_scan,
    _stirling_scan,
    DEFAULT_BOUNDS,
    STATS_BY_CLASS,
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


def word(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


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
        # lap = ap + [plateau start], asc + des + plat = 2n + 1 (n >= 1)
        for w in iter_objects("stirling", min(n, 6)):
            r = stirling_stat_record(w)
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
        ol = distribution("matching", 2, ["ol"]).poly()
        el = distribution("matching", 2, ["el"]).poly()
        assert ol == Poly.from_counts({0: 1, 1: 2})  # 1 + 2x over the 3 matchings
        assert el == Poly.from_counts({1: 2, 2: 1})  # 2x + x^2

    def test_el_plus_ol(self):
        for blocks in iter_objects("matching", 3):
            r = matching_stats(blocks)
            assert r["el"] + r["ol"] == 3

    def test_perm_des(self):
        assert perm_des((1, 2, 3)) == 0
        assert perm_des((3, 2, 1)) == 2
        assert perm_des((4, 3, 5, 6, 2, 1)) == 3


def test_validators_reject_bad_objects():
    # the checks of the statistics functions, and of alpha_inverse for
    # permutations, with their messages
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


class TestDistribution:
    def test_fap_order_2(self):
        table = distribution("stirling", 2, ["fap"])
        assert table.counts == {(1,): 1, (2,): 1, (3,): 1}

    def test_joint_equals_refinement_polynomial(self):
        # the (lap, dasc, dp) distribution at order 3 carries the published
        # coefficients: x(y^2+z^2) + 4x^2(y+z) + 2xyz + 2x^2 + x^3
        tri = distribution("stirling", 3, ["lap", "dasc", "dp"]).tripoly()
        assert tri.coefficient(1, 2, 0) == 1
        assert tri.coefficient(1, 0, 2) == 1
        assert tri.coefficient(2, 1, 0) == 4
        assert tri.coefficient(2, 0, 1) == 4
        assert tri.coefficient(1, 1, 1) == 2
        assert tri.coefficient(2, 0, 0) == 2
        assert tri.coefficient(3, 0, 0) == 1
        assert sum(tri.terms.values()) == 15

    def test_signed_fdes_order_1(self):
        table = distribution("signed", 1, ["fdes"])
        assert table.counts == {(0,): 1, (1,): 1}

    def test_totals_match_cardinalities(self):
        assert distribution("stirling", 4, ["asc"]).total() == 105
        assert distribution("signed", 3, ["fdes"]).total() == 48
        assert distribution("matching", 4, ["el"]).total() == 105
        assert distribution("permutation", 4, ["des"]).total() == 24

    def test_marginal_and_poly(self):
        table = distribution("stirling", 3, ["lap", "dasc", "dp"])
        lap = table.marginal(["lap"])
        assert lap.poly() == distribution("stirling", 3, ["lap"]).poly()
        with pytest.raises(ValueError):
            table.poly()

    def test_bound_errors(self):
        with pytest.raises(ResourceLimitError):
            distribution("stirling", DEFAULT_BOUNDS["stirling"] + 1, ["asc"])
        # an explicit limit unlocks larger orders
        distribution("permutation", 5, ["des"], max_n=5)
        with pytest.raises(ResourceLimitError):
            distribution("permutation", 6, ["des"], max_n=5)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            distribution("stirling", 2, ["nope"])
        with pytest.raises(ValueError):
            distribution("widget", 2, ["asc"])

    def test_json_shape(self):
        obj = distribution("stirling", 2, ["fap"]).to_json()
        assert obj["class"] == "stirling"
        assert obj["stats"] == ["fap"]
        assert obj["entries"][0] == {"value": [1], "count": 1}


def stirling_stats_by_definition(w) -> dict[str, int]:
    # each statistic counted separately from the padding convention of the
    # module docstring, as the oracle of the one-pass scan
    p = (0, *w, 0)
    m = len(w)
    lap_at = [i for i in range(1, m + 1) if p[i - 1] < p[i] == p[i + 1]]
    ap = sum(1 for i in lap_at if i >= 2)
    return dict(
        asc=sum(p[i] < p[i + 1] for i in range(0, m)),
        des=sum(p[i] > p[i + 1] for i in range(1, m + 1)),
        plat=sum(p[i] == p[i + 1] for i in range(1, m)),
        ap=ap,
        lap=len(lap_at),
        fap=2 * ap + (1 if m >= 2 and w[0] == w[1] else 0),
        dasc=sum(p[i - 1] < p[i] < p[i + 1] for i in range(1, m + 1)),
        dp=sum(p[i - 1] > p[i] == p[i + 1] for i in range(1, m + 1)),
    )


_RECORDS = {
    "stirling": stirling_stat_record,
    "signed": signed_stat_record,
    "matching": matching_stat_record,
    "permutation": lambda pi: (perm_des(pi),),
}


@pytest.mark.parametrize("klass,orders", [
    ("stirling", range(7)),
    ("signed", range(1, 6)),
    ("matching", range(7)),
    ("permutation", range(7)),
])
def test_tuple_scans_equal_record_fields(klass, orders):
    scan, record = _SCANS[klass], _RECORDS[klass]
    for n in orders:
        for obj in iter_objects(klass, n):
            fields = record(obj)
            if klass != "permutation":
                assert tuple(fields) == STATS_BY_CLASS[klass]
                fields = tuple(fields.values())
            assert scan(obj) == fields


_CHECKED = {
    "stirling": stirling_stats,
    "signed": signed_stats,
    "matching": matching_stats,
}


@pytest.mark.parametrize("klass", list(_CHECKED))
def test_stats_are_keyed_by_the_class_names_in_order(klass):
    # the names are written once, in STATS_BY_CLASS; both entry points key
    # their dict by them, in that order
    names = STATS_BY_CLASS[klass]
    for n in range(1 if klass == "signed" else 0, 5):
        for obj in iter_objects(klass, n):
            for fn in (_CHECKED[klass], _RECORDS[klass]):
                assert tuple(fn(obj)) == names


def test_stirling_scan_matches_definitions():
    for n in range(7):
        for w in iter_objects("stirling", n):
            assert stirling_stat_record(w) == stirling_stats_by_definition(w)


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
    for n in range(1, 7):
        _full_counts.cache_clear()
        counts = _full_counts("signed", n)
        assert counts == Counter(map(_signed_scan, signed_words(n)))
        assert all(type(v) is int for record in counts for v in record)


def test_matchings_of_order_7_are_not_memoized():
    # only the memoized _full_counts reads them, so the 135,135 block tuples
    # need not stay resident
    objects._cached_objects.cache_clear()
    _full_counts.cache_clear()
    assert distribution("matching", 7, ["el"]).total() == 135135
    assert objects._cached_objects.cache_info().currsize == 0


def test_signed_and_permutation_orders_are_not_memoized():
    # B_6 is read only by the memoized _full_counts and S_6 once by the
    # alpha walk, so neither stays resident; the Q_n reads hit warm tables
    from stirlab.identities import REGISTRY

    for n in range(7):
        stirling_scans(n)
    objects._cached_objects.cache_clear()
    _full_counts.cache_clear()
    assert distribution("signed", 6, ["desB"]).total() == 46080
    assert REGISTRY["alpha-bijection"].runner(6) is None
    assert objects._cached_objects.cache_info().currsize == 0
