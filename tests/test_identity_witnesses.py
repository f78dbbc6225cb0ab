"""Golden witnesses: each route-compared identity, broken at one order.

Each case breaks one table function, or one brute-force distribution, at a
single order with monkeypatch, and pins the exact witness the check reports:
``n=<n>: <label><left> != <right>`` from the shared compare loop.  The
witnesses of the first seventeen declared checks keep the bytes of the
hand-written loops they replaced; the rest were recorded from the shared
loop itself.
"""
import dataclasses

import pytest

import stirlab.identities as ids
import stirlab.tables as tb
from stirlab.identities import run_identity
from stirlab.polynomials import XYZ, Poly


def _bump_distribution(monkeypatch, klass, order, stats):
    """Add one to the first count of distribution(klass, order, stats)."""
    original = ids.distribution

    def broken(k, n, s, **kw):
        table = original(k, n, s, **kw)
        if (k, n, list(s)) != (klass, order, stats):
            return table
        counts = dict(table.counts)
        first = min(counts)
        counts[first] += 1
        return dataclasses.replace(table, counts=counts)

    monkeypatch.setattr(ids, "distribution", broken)


def _break_table(monkeypatch, name, order, change):
    """Replace tables.<name>(order) by change(tables.<name>(order))."""
    original = getattr(tb, name)

    def broken(n, *rest):
        value = original(n, *rest)
        return change(value) if n == order else value

    monkeypatch.setattr(tb, name, broken)


def _break_p_differential(monkeypatch, order):
    """Add one to entry ``order`` of p_polys_differential."""
    original = tb.p_polys_differential

    def broken(bound):
        ps = list(original(bound))
        ps[order] = _plus_xyz_one(ps[order])
        return ps

    monkeypatch.setattr(tb, "p_polys_differential", broken)


def _break_cn_nn(monkeypatch, part, order):
    """Add one to C_order (part 0) or N_order (part 1) of cn_nn_tables."""
    original = tb.cn_nn_tables

    def broken(bound):
        lists = [list(seq) for seq in original(bound)]
        lists[part][order] = _plus_one(lists[part][order])
        return tuple(lists)

    monkeypatch.setattr(tb, "cn_nn_tables", broken)


def _plus_one(p):
    return p + Poly.one()


def _plus_xyz_one(p):
    return p + Poly(XYZ, {(0, 0, 0): 1})


def _bump_gamma_row(monkeypatch, order):
    original = tb._gamma_row

    def broken(n):
        row = dict(original(n))
        if n == order:
            row[(1, 0)] = row.get((1, 0), 0) + 1
        return row

    monkeypatch.setattr(tb, "_gamma_row", broken)


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
        lambda mp: _break_p_differential(mp, 2),
        "n=2: differential recurrence 1 + x*y + x*z + x^2 != x*y + x*z + x^2",
    ),
    (
        "cn-nn-recurrences", 5,
        lambda mp: _break_cn_nn(mp, 0, 2),
        "n=2: C_n 1 + x + 2*x^2 != x + 2*x^2",
    ),
    (
        "cn-nn-recurrences", 5,
        lambda mp: _break_cn_nn(mp, 1, 2),
        "n=2: N_n 1 + 2*x + x^2 != 2*x + x^2",
    ),
    (
        "p-specializations", 5,
        lambda mp: _break_cn_nn(mp, 0, 2),
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
        lambda mp: _break_cn_nn(mp, 1, 2),
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
        lambda mp: _break_table(mp, "m_poly", 2, _plus_one),
        "n=2: -2 + 2*x != 0",
    ),
    (
        "egf-N-squared", 5,
        lambda mp: _break_cn_nn(mp, 1, 2),
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
        lambda mp: _break_cn_nn(mp, 1, 2),
        "n=2: 2*x + x^2 != 1 + 2*x + x^2",
    ),
    (
        "gamma-eulerian", 5,
        lambda mp: _break_table(mp, "eulerian", 2, lambda v: v + 1),
        "n=2: 1 + x != 2 + 2*x + x^2",
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
