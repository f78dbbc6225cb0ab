"""Golden witnesses and the sensitivity sweep of the identity checks.

Each golden case breaks one table function, one grammar rule, or one
brute-force distribution, at a single order with monkeypatch, and pins the
exact witness the check reports: ``n=<n>: <label><left> != <right>`` from
the shared compare loop.  The witnesses of the first seventeen declared
checks keep the bytes of the hand-written loops they replaced; the rest were
recorded from the shared loop itself.  One case corrupts one record of the
scan table that the word-by-word checks read, and pins that check's own
witness.

The sweep adds one to the left route of every declared pair at every order
it compares by default, and corrupts one scan record per order for the
word-by-word checks; each must fail at that order.
"""
import dataclasses
import functools
import re

import pytest

import stirlab.identities as ids
import stirlab.tables as tb
from stirlab.grammar import parse_grammar
from stirlab.identities import run_identity
from stirlab.polynomials import XYZ, Poly
from stirlab.stats import STIRLING_STATS


def _bump_distribution(monkeypatch, klass, order, stats):
    """Add one to the first count of distribution(klass, order, stats)."""
    original = ids.distribution

    def broken(k, n, s, **kw):
        counts = original(k, n, s, **kw)
        if (k, n, list(s)) != (klass, order, stats):
            return counts
        counts = dict(counts)
        counts[min(counts)] += 1
        return counts

    monkeypatch.setattr(ids, "distribution", broken)


def _break_table(monkeypatch, name, order, change):
    """Replace tables.<name>(order) by change(tables.<name>(order))."""
    original = getattr(tb, name)

    def broken(n, *rest):
        value = original(n, *rest)
        return change(value) if n == order else value

    monkeypatch.setattr(tb, name, broken)


def _break_differential(monkeypatch, name, order, change=None):
    """Replace entry ``order`` of tables.<name>, a list of polynomials such
    as P_0..P_bound, by change(entry); by default add one to a P_n or G_n."""
    original = getattr(tb, name)
    change = change or _plus_xyz_one

    def broken(bound):
        ps = list(original(bound))
        ps[order] = change(ps[order])
        return ps

    monkeypatch.setattr(tb, name, broken)


def _plus_one(p):
    return p + Poly.one()


def _plus_xyz_one(p):
    return p + Poly(XYZ, {(0, 0, 0): 1})


def _bump_gamma_row(monkeypatch, order, key=(1, 0)):
    """Add one to gamma_(order, i, j) at key = (i, j)."""
    original = tb._gamma_row

    def broken(n):
        row = dict(original(n))
        if n == order:
            row[key] = row.get(key, 0) + 1
        return row

    monkeypatch.setattr(tb, "_gamma_row", broken)


def _corrupt_scan(monkeypatch, word, stat):
    """Add one to ``stat`` in the scan-table record of ``word``, as the
    identity loops read it; the distributions keep the true table."""
    original = ids.stirling_scans

    def broken(n):
        table = original(n)
        if len(word) != 2 * n:
            return table
        record = list(table[word])
        record[STIRLING_STATS.index(stat)] += 1
        return {**table, word: tuple(record)}

    monkeypatch.setattr(ids, "stirling_scans", broken)


CASES = [
    (
        "matching-M", 5,
        lambda mp: _bump_distribution(mp, "matching", 2, ["ol"]),
        "n=2: 2 + 2*x != 1 + 2*x",
    ),
    (
        "matching-N", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap"]),
        "n=2: 2*x + x^2 != 3*x + x^2",
    ),
    (
        "signed-des-2nA", 5,
        lambda mp: _break_table(mp, "a_poly", 2, _plus_one),
        "n=2: 4 + 4*x != 8 + 4*x",
    ),
    (
        "flag-adin", 5,
        lambda mp: _break_table(mp, "f_poly", 2, _plus_one),
        "n=2: 1 + 3*x + 3*x^2 + x^3 != 2 + 3*x + 3*x^2 + x^3",
    ),
    (
        "flag-ap-grammar", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["fap"]),
        "n=2: x*y*z^3 + x*y^2*z^2 + x*y^3*z != 2*x*y*z^3 + x*y^2*z^2 + x*y^3*z",
    ),
    (
        "flag-convolution", 5,
        lambda mp: _break_table(mp, "t_poly", 1, _plus_one),
        "n=1: 1 + x != 2 + x",
    ),
    (
        "flag-dual", 5,
        lambda mp: _break_table(mp, "n_poly", 1, _plus_one),
        "n=1: x + x^2 != 1 + x + x^2",
    ),
    (
        "t-recurrence", 5,
        lambda mp: _break_table(mp, "t_poly", 2, _plus_one),
        "n=2: 1 + x + x^2 + x^3 != x + x^2 + x^3",
    ),
    (
        "t-self-inverse", 5,
        lambda mp: _break_table(mp, "t_poly", 2, _plus_one),
        "n=2: 2 != 0",
    ),
    (
        "p-grammar", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap", "dasc", "dp"]),
        "n=2: p*x*y*z^2 + q*x*y*z^2 + x^2*y^2*z != 2*p*x*y*z^2 + q*x*y*z^2 + x^2*y^2*z",
    ),
    (
        "p-recurrences", 5,
        lambda mp: _break_table(mp, "p_poly", 2, _plus_xyz_one),
        "n=2: index recurrence 1 + x*y + x*z + x^2 != x*y + x*z + x^2",
    ),
    (
        "p-recurrences", 5,
        lambda mp: _break_differential(mp, "p_polys_differential", 2),
        "n=2: differential recurrence 1 + x*y + x*z + x^2 != x*y + x*z + x^2",
    ),
    (
        "cn-nn-recurrences", 5,
        lambda mp: _break_table(mp, "c_poly", 2, _plus_one),
        "n=2: C_n 1 + x + 2*x^2 != x + 2*x^2",
    ),
    (
        "cn-nn-recurrences", 5,
        lambda mp: _break_table(mp, "n_poly", 2, _plus_one),
        "n=2: N_n 1 + 2*x + x^2 != 2*x + x^2",
    ),
    (
        "p-specializations", 5,
        lambda mp: _break_table(mp, "c_poly", 2, _plus_one),
        "n=2: P(x,x,1) x + 2*x^2 != 1 + x + 2*x^2",
    ),
    (
        # y - x vanishes at (x, x, 1) but not at (x, 1, x)
        "p-specializations", 5,
        lambda mp: _break_table(
            mp, "p_poly", 2, lambda p: p + Poly(XYZ, {(0, 1, 0): 1, (1, 0, 0): -1})
        ),
        "n=2: P(x,1,x) 1 + 2*x^2 != x + 2*x^2",
    ),
    (
        "p-specializations", 5,
        lambda mp: _break_table(mp, "n_poly", 2, _plus_one),
        "n=2: P(x,1,1) 2*x + x^2 != 1 + 2*x + x^2",
    ),
    (
        "gamma-grammar", 5,
        lambda mp: _bump_gamma_row(mp, 2),
        "n=2: u^2*w + u*v*w^2 != u^2*w + u*v*w^2 + u*w^3",
    ),
    (
        "g-recurrence", 5,
        lambda mp: _break_table(mp, "g_poly", 2, _plus_xyz_one),
        "n=2: 1 + x*y + x^2 != x*y + x^2",
    ),
    (
        "n-closed-form", 5,
        lambda mp: _break_table(mp, "n_poly_closed", 2, _plus_one),
        "n=2: 1 + 2*x + x^2 != 2*x + x^2",
    ),
    (
        "nn-aa-convolutions", 5,
        lambda mp: _break_table(mp, "a_poly", 2, _plus_one),
        "n=2: 2^n x A_n 8*x + 4*x^2 != 4*x + 4*x^2",
    ),
    (
        "nn-aa-convolutions", 5,
        lambda mp: _bump_distribution(mp, "signed", 2, ["desB"]),
        "n=2: B_n 2 + 6*x + x^2 != 1 + 6*x + x^2",
    ),
    (
        "nn-aa-convolutions", 8,
        lambda mp: _break_table(mp, "b_poly", 7, _plus_one),
        (
            "n=7: B_n 2 + 2179*x + 60657*x^2 + 259723*x^3 + 259723*x^4"
            " + 60657*x^5 + 2179*x^6 + x^7 != 1 + 2179*x + 60657*x^2"
            " + 259723*x^3 + 259723*x^4 + 60657*x^5 + 2179*x^6 + x^7"
        ),
    ),
    (
        "gessel-stanley", 4,
        lambda mp: _bump_distribution(mp, "stirling", 0, ["des"]),
        (
            "n=0: 1 + x + x^2 + x^3 + x^4 + x^5 + x^6 + x^7 + x^8 + x^9 + x^10"
            " != 2 + 2*x + 2*x^2 + 2*x^3 + 2*x^4 + 2*x^5 + 2*x^6 + 2*x^7"
            " + 2*x^8 + 2*x^9 + 2*x^10"
        ),
    ),
    (
        "bona-equidistribution", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["des"]),
        "n=2: des 2*x + 2*x^2 != x + 2*x^2",
    ),
    (
        "bona-equidistribution", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["plat"]),
        "n=2: plat 2*x + 2*x^2 != x + 2*x^2",
    ),
    (
        "egf-M-squared", 5,
        lambda mp: _break_differential(mp, "m_polys", 2, _plus_one),
        "n=2: -2 + 2*x != 0",
    ),
    (
        "egf-N-squared", 5,
        lambda mp: _break_table(mp, "n_poly", 2, _plus_one),
        "n=2: 2 - 2*x != 0",
    ),
    (
        "grammar-prop-all", 5,
        lambda mp: _bump_distribution(mp, "signed", 2, ["fdes"]),
        (
            "n=2: D^n(x*y) x*y*z^4 + 3*x*y^2*z^3 + 3*x*y^3*z^2 + x*y^4*z"
            " != 2*x*y*z^4 + 3*x*y^2*z^3 + 3*x*y^3*z^2 + x*y^4*z"
        ),
    ),
    (
        "t-egf-product", 5,
        lambda mp: _break_table(mp, "f_poly", 2, _plus_one),
        "n=2: 1 + 3*x + 3*x^2 + x^3 != 2 + 3*x + 3*x^2 + x^3",
    ),
    (
        "gamma-expansion", 5,
        lambda mp: _bump_gamma_row(mp, 2),
        "n=2: gamma x + x*y + x^2 != x*y + x^2",
    ),
    (
        # the bumped count is x*z, which has dp = 1: the brute gamma keeps
        # its value and only the expansion sees the change
        "gamma-expansion", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap", "dasc", "dp"]),
        "n=2: expansion x*y + x*z + x^2 != x*y + 2*x*z + x^2",
    ),
    (
        "gamma-weighted-sums", 5,
        lambda mp: _break_table(mp, "n_poly", 2, _plus_one),
        "n=2: 2*x + x^2 != 1 + 2*x + x^2",
    ),
    (
        "gamma-eulerian", 5,
        lambda mp: _break_table(
            mp, "a_poly", 2, lambda p: p + Poly.from_counts({0: 1, 1: 1, 2: 1})
        ),
        "n=2: 1 + x != 2 + 2*x + x^2",
    ),
    (
        # x^lap y^asc against P_2(xy, y, 1); the check reads no dasc, so a
        # corrupted dasc is left to p-recurrences, which compares P_n with
        # the brute-force (lap, dasc, dp)
        "asc-plat-decomposition", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap", "asc"]),
        "n=2: (lap, asc) 2*x*y + x*y^2 + x^2*y^2 != x*y + x*y^2 + x^2*y^2",
    ),
    (
        # the walk from 1221 toggles 1 on, giving 2211, whose corrupted dp
        # is no longer 1
        "fs-symmetry", 5,
        lambda mp: _corrupt_scan(mp, (2, 2, 1, 1), "dp"),
        "n=2, word (1, 2, 2, 1): 1 of 1 toggles sent {'asc': 2, 'des': 2, "
        "'plat': 1, 'ap': 1, 'lap': 1, 'fap': 2, 'dasc': 1, 'dp': 0} to "
        "{'asc': 1, 'des': 2, 'plat': 2, 'ap': 0, 'lap': 1, 'fap': 1, "
        "'dasc': 0, 'dp': 1}",
    ),
    (
        # G_2 is pulled from G_1 = x, here 1 + x, whose 1 the recurrence sends
        # to 3x
        "gamma-recurrence", 5,
        lambda mp: _break_differential(mp, "g_polys_differential", 1),
        "n=2: 3*x + x*y + x^2 != x*y + x^2",
    ),
    (
        # gamma_(2,2,1) lies past i + j = 2, so the cut differential G_2 drops it
        "gamma-vanishing", 5,
        lambda mp: _bump_gamma_row(mp, 2, (2, 1)),
        "n=2: x*y + x^2 + x^2*y != x*y + x^2",
    ),
    (
        # a doubled y rule first shows in D^2(z) = 2 y D(y) z + y^2 D(z); the
        # first pair reads no grammar and still passes
        "gamma-weighted-sums", 5,
        lambda mp: mp.setattr(tb, "FLAG_GRAMMAR", parse_grammar(
            "x -> x*y*z; y -> 2*y*z^2; z -> y^2*z"
        )),
        "n=2: D^n(z) 4*y^2*z^3 + y^4*z != 2*y^2*z^3 + y^4*z",
    ),
    (
        # the bistatistic pair, x^lap y^plat against x^lap y^asc
        "bona-equidistribution", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap", "plat"]),
        "n=2: (lap, plat) 2*x*y + x*y^2 + x^2*y^2 != x*y + x*y^2 + x^2*y^2",
    ),
    (
        # x^lap y^plat against P_2(xy, 1, y)
        "asc-plat-decomposition", 5,
        lambda mp: _bump_distribution(mp, "stirling", 2, ["lap", "plat"]),
        "n=2: (lap, plat) 2*x*y + x*y^2 + x^2*y^2 != x*y + x*y^2 + x^2*y^2",
    ),
]


@pytest.mark.parametrize(
    "name,bound,breaker,witness",
    CASES,
    ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)],
)
def test_golden_witness(monkeypatch, name, bound, breaker, witness):
    breaker(monkeypatch)
    r = run_identity(name, bound)
    assert not r.passed
    assert r.witness == witness


# ---------------------------------------------------------------------------
# the sensitivity sweep: every declared pair, and every word-by-word check,
# is seen to fail at every order it checks by default


def _plus_one_at(route, at):
    """The route with one added to its value at n = at."""
    if not isinstance(route, ids.Table):
        return lambda n: route(n) + 1 if n == at else route(n)

    def build(bound):
        rows = list(route.build(bound))
        rows[at] += 1
        return rows

    return ids.Table(build)


DECLARED = sorted(name for name, check in ids.REGISTRY.items() if check.compare)


@pytest.mark.parametrize("name", DECLARED)
def test_every_pair_fails_at_every_order_it_compares(name):
    check = ids.REGISTRY[name]
    for k, pair in enumerate(check.compare):
        for n in range(pair.start, check.default_bound + 1):
            compare = list(check.compare)
            compare[k] = dataclasses.replace(pair, left=_plus_one_at(pair.left, n))
            runner = functools.partial(ids._run_routes, tuple(compare))
            r = dataclasses.replace(check, runner=runner, compare=tuple(compare)).run()
            assert not r.passed and r.witness.startswith(f"n={n}: "), (k, n, r.witness)


@pytest.mark.parametrize("name", sorted(set(ids.REGISTRY) - set(DECLARED)))
def test_every_word_check_fails_at_every_order(monkeypatch, name):
    for n in range(ids.REGISTRY[name].default_bound + 1):
        # 11 22 ... nn has dp = 0 and lap = n, so each check reads its dp
        word = tuple(sorted(2 * list(range(1, n + 1))))
        with monkeypatch.context() as mp:
            _corrupt_scan(mp, word, "dp")
            r = run_identity(name)
        assert not r.passed and re.match(f"n={n}[:,] ", r.witness), (n, r.witness)
