"""Coefficient tables against brute-force oracles and published values."""
import hashlib
import inspect
import io
import itertools
import json
import math
import os
import random
import re
import sys
import tracemalloc

import pytest

from stirlab import __version__, objects, tables
from stirlab.cli import main
from stirlab.errors import IdentityViolationError
from stirlab.grammar import derive, parse_grammar
from stirlab.polynomials import Poly
from stirlab.tables import (
    TableCache,
    _b_eulerian_row,
    _eulerian_row,
    _gamma_row,
    _p_row,
    _stirling2_row,
    _t_row,
    a_poly,
    b_poly,
    c_poly,
    f_poly,
    g_poly,
    g_polys_differential,
    gamma_table,
    m_poly,
    m_polys,
    n_poly,
    n_poly_closed,
    p_poly,
    p_polys_differential,
    p_table,
    stirling2,
    t_poly,
    t_table,
)

import reference as ref
from reference import odd_double_factorial, xyz


class TestEulerianFamilies:
    def test_initial_conditions(self):
        assert a_poly(1) == Poly.one()
        assert all(a_poly(n).coefficient(k) == 0
                   for n in range(1, 6) for k in range(n, n + 3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_brute_force(self, n):
        assert a_poly(n) == Poly.from_counts(ref.counts(ref.des, ref.permutations(n)))

    def test_a_poly(self):
        assert a_poly(0) == Poly.one()
        assert a_poly(3) == Poly.from_counts({0: 1, 1: 4, 2: 1})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_type_b_against_brute_force(self, n):
        counts = ref.counts(lambda v: ref.signed_stats(v)["desB"], ref.signed_words(n))
        assert b_poly(n) == Poly.from_counts(counts)

    def test_f_poly(self):
        assert f_poly(0) == Poly.one()
        assert f_poly(2) == Poly.from_counts({0: 1, 1: 3, 2: 3, 3: 1})


class TestStirling2:
    def test_diagonal_and_origin(self):
        assert stirling2(0, 0) == 1
        assert all(stirling2(n, n) == 1 for n in range(8))

    def test_small_value(self):
        assert stirling2(4, 2) == 7

    @pytest.mark.parametrize("k", [1.0, True, 1.5, "1", None], ids=repr)
    def test_k_is_an_int(self, k):
        # 1.0 and True would read S(3, 1) = 1, and 1.5 would read 0
        with pytest.raises(ValueError, match=rf"^k must be an int, got {re.escape(repr(k))}$"):
            stirling2(3, k)

    def test_an_int_k_off_range_reads_zero(self):
        assert stirling2(3, -1) == stirling2(3, 0) == stirling2(3, 4) == 0

    @pytest.mark.parametrize("n", range(6))
    def test_against_partition_oracle(self, n):
        by_blocks = ref.counts(len, ref.set_partitions(n))
        for k in range(n + 2):
            assert stirling2(n, k) == by_blocks.get(k, 0)


class TestFlagAscentPlateauNumbers:
    def test_published_rows(self):
        assert t_poly(1) == Poly.from_counts({1: 1})
        assert t_poly(1).coefficient(0) == 0 and t_poly(1).coefficient(2) == 0
        assert t_poly(2) == Poly.from_counts({1: 1, 2: 1, 3: 1})

    @pytest.mark.parametrize("n", range(6))
    def test_against_brute_force(self, n):
        assert t_poly(n) == Poly.from_counts(ref.stat_counts("fap", n))


class TestRefinementTables:
    def test_published_p_polys(self):
        x = xyz
        assert p_poly(1) == x(1, 0, 0)
        assert p_poly(2) == x(1, 1, 0) + x(1, 0, 1) + x(2, 0, 0)
        expected3 = (
            x(1, 2, 0)
            + x(1, 0, 2)
            + x(2, 1, 0, 4)
            + x(2, 0, 1, 4)
            + x(1, 1, 1, 2)
            + x(2, 0, 0, 2)
            + x(3, 0, 0)
        )
        assert p_poly(3) == expected3

    def test_differential_path_agrees(self):
        diff = p_polys_differential(5)
        for n in range(6):
            assert diff[n] == p_poly(n)

    def test_published_gamma_polys(self):
        x = xyz
        assert g_poly(0) == Poly.one()
        assert g_poly(1) == x(1, 0, 0)
        assert g_poly(2) == x(1, 1, 0) + x(2, 0, 0)
        assert g_poly(3) == x(1, 2, 0) + x(2, 1, 0, 4) + x(2, 0, 0, 2) + x(3, 0, 0)

    def test_gamma_vanishing(self):
        for n in range(1, 9):
            for i in range(n + 2):
                for j in range(n + 2):
                    if i + j > n:
                        assert g_poly(n).coefficient(i, j, 0) == 0

    def test_gamma_differential_path(self):
        gs = g_polys_differential(8)
        for n in range(9):
            assert gs[n] == g_poly(n)


class TestAscentFamilies:
    def test_initial_conditions(self):
        assert c_poly(0) == Poly.one() and n_poly(0) == Poly.one()

    def test_published_values(self):
        assert c_poly(3) == Poly.from_counts({1: 1, 2: 8, 3: 6})
        assert n_poly(2) == Poly.from_counts({1: 2, 2: 1})
        assert n_poly(1) == Poly.from_counts({1: 1})

    @pytest.mark.parametrize("n", range(6))
    def test_against_brute_force(self, n):
        assert c_poly(n) == Poly.from_counts(ref.stat_counts("asc", n))
        assert n_poly(n) == Poly.from_counts(ref.stat_counts("lap", n))

    @pytest.mark.parametrize("n", range(6))
    def test_m_poly_against_brute_force(self, n):
        assert m_poly(n) == Poly.from_counts(ref.stat_counts("ap", n))

    def test_m_poly_small(self):
        assert m_poly(0) == Poly.one()
        assert m_poly(1) == Poly.one()  # the single word 11 has no interior plateau
        assert m_poly(2) == Poly.from_counts({0: 1, 1: 2})

    def test_m_polys_is_one_pass_of_m_poly(self):
        assert m_polys(6) == [m_poly(n) for n in range(7)]
        assert m_polys(0) == [Poly.one()]

    def test_m_polys_guards_the_weight_parity(self, monkeypatch):
        # y -> y^2*z makes D(y) = y^2 z, whose y-exponent 2 is no 2 ap + 1
        monkeypatch.setattr(tables, "FLAG_GRAMMAR",
                            parse_grammar("x -> x*y*z; y -> y^2*z; z -> y^2*z"))
        assert m_poly(0) == Poly.one()
        for call in (lambda: m_polys(1), lambda: m_poly(3)):
            with pytest.raises(IdentityViolationError, match="exponent 2"):
                call()

    @pytest.mark.parametrize("rules, term", [
        # D(y) = x*y*z holds an x
        ("x -> x*y*z; y -> x*y*z; z -> y^2*z", "x*y*z"),
        # D(y) = y*z + y*z^2: the first term is of degree 2, not 3
        ("x -> x*y*z; y -> y*z + y*z^2; z -> y^2*z", "y*z"),
    ], ids=["an-x", "degree-2"])
    def test_m_polys_guards_the_term_shape(self, monkeypatch, rules, term):
        monkeypatch.setattr(tables, "FLAG_GRAMMAR", parse_grammar(rules))
        message = rf"^D\^1\(y\) has a term off y\^e z\^\(3-e\): {re.escape(term)}$"
        with pytest.raises(IdentityViolationError, match=message):
            m_polys(1)

    def test_n_closed_form(self):
        assert n_poly_closed(1) == Poly.from_counts({1: 1})
        assert n_poly_closed(2) == Poly.from_counts({1: 2, 2: 1})
        for n in range(8):
            assert n_poly_closed(n) == n_poly(n)

    def test_gamma_weighted_sum(self):
        # sum_j 2^j gamma_(n,i,j) is the x^i coefficient of N_n
        for n in range(8):
            sums = {}
            for (i, j, _), c in g_poly(n).terms.items():
                sums[i] = sums.get(i, 0) + 2**j * c
            assert Poly.from_counts(sums) == n_poly(n)
        assert n_poly(2) == Poly.from_counts({1: 2, 2: 1})


class TestCoefficientTablesAndCache:
    def test_table_contents(self):
        assert t_table(2).row == {1: 1, 2: 1, 3: 1}
        assert gamma_table(3).row[2, 1] == 4
        assert p_table(3).row[2, 1, 0] == 4

    def test_disk_cache(self, tmp_path):
        cache = TableCache(tmp_path)
        t1 = t_table(4, cache)
        assert (tmp_path / "t-4.json").exists()
        t2 = t_table(4, cache)
        assert t1.row == t2.row

    def test_cache_version_invalidation(self, tmp_path):
        cache = TableCache(tmp_path)
        t_table(3, cache)
        path = tmp_path / "t-3.json"
        stale = path.read_text().replace("0.1.0", "0.0.0")
        path.write_text(stale)
        assert cache.load("t", 3, 2) is None
        # a corrupted file falls back to regeneration too
        path.write_text("{not json")
        assert t_table(3, cache).row[3] == 7

    def test_mismatch_raises_identity_violation(self, monkeypatch):
        # weights that 2^n does not divide trip the closed form's guard
        monkeypatch.setattr(tables, "_closed_weight", lambda n, k: 1)
        with pytest.raises(IdentityViolationError, match="N_3 is not integral"):
            n_poly_closed(3)


# the row steps against the gather form of their recurrences, at the largest
# orders ``poly`` prints, each row read by its family's reader, and the memo
# of the last row
def gather_rows(step, origin, n_max):
    return list(map(ref.terms, itertools.accumulate(range(1, n_max + 1), step, initial=origin)))


def test_p_rows_match_gather_form():
    rows = gather_rows(ref.p_step, [[[1]]], 40)
    stepped = itertools.accumulate(range(1, 41), tables._p_step, initial=[[[1]]])
    assert [tables._p_terms(row) for row in stepped] == rows
    assert _p_row(40) == rows[40]


def test_gamma_rows_match_gather_form():
    rows = gather_rows(ref.gamma_step, [[1]], 100)
    stepped = itertools.accumulate(range(1, 101), tables._gamma_step, initial=[[1]])
    assert [tables._gamma_terms(row) for row in stepped] == rows
    assert _gamma_row(100) == rows[100]


# one term of a row stepped to order n = 10^6: each image sits where the
# gather form puts it with its weight, the neutral weight reads n, and the
# row made is sized from the row given, whatever n says
BIG_N = 10**6


def test_p_step_sends_one_term_to_its_five_images():
    row = ref.dense(4, 3, {(1, 1, 1): 7})
    images = tables._p_step(row, BIG_N)
    assert images == ref.p_step(row, BIG_N)
    assert len(ref.terms(images)) == 5


def test_gamma_step_sends_one_term_to_its_three_images():
    row = ref.dense(4, 2, {(1, 2): 7})
    images = tables._gamma_step(row, BIG_N)
    assert images == ref.gamma_step(row, BIG_N)
    assert len(ref.terms(images)) == 3


# k past 12 and 20 too; a row of 48 terms stepped at its own order and at 10^6
@pytest.mark.parametrize("k", [0, 5, 13, 21, 47])
@pytest.mark.parametrize("name", ["_b_eulerian_step", "_c_step", "_eulerian_step", "_n_step",
                                  "_stirling2_step", "_t_step"])
def test_1d_step_sends_one_term_to_its_images(name, k):
    row = ref.dense(48, 1, {(k,): 7})
    for n in (48, BIG_N):
        assert getattr(tables, name)(row, n) == getattr(ref, name[1:])(row, n)


# the induction step of the paper's grammar theorems on single terms: a term
# t of the row of order n - 1, encoded as a monomial, derives once to the
# images that the row step sends t to at order n, each encoded at order n;
# D and the steps are linear, so single terms cover whole rows.  Per family:
# the grammar, its row step, the nonzero terms of a dense row keyed by index
# tuples, the largest index of each coordinate drawn, and the exponents of
# term t at order n over the grammar's sorted names
GRAMMAR_STEPS = {
    # (i, j, k) of P_n as p^k q^j x^i y^i z^(2n+1-2i-j-k)
    "P": (tables.REFINED_GRAMMAR, tables._p_step, tables._p_terms, (20, 5, 5),
          lambda t, n: (t[2], t[1], t[0], t[0], 2 * n + 1 - 2 * t[0] - t[1] - t[2])),
    # (i, j) of the gamma row as u^i v^j w^(2n+1-2i-j)
    "gamma": (tables.GAMMA_GRAMMAR, tables._gamma_step, tables._gamma_terms, (20, 8),
              lambda t, n: (t[0], t[1], 2 * n + 1 - 2 * t[0] - t[1])),
    # f of T_n as x y^f z^(2n-f)
    "T": (tables.FLAG_GRAMMAR, tables._t_step,
          lambda row: {(f,): c for f, c in tables._t_terms(row).items()}, (40,),
          lambda t, n: (1, t[0], 2 * n - t[0])),
}


@pytest.mark.parametrize("family", sorted(GRAMMAR_STEPS))
def test_one_derivative_is_one_row_step_on_single_terms(family):
    g, step, terms, highest, exponents = GRAMMAR_STEPS[family]
    rng = random.Random(12)
    for _ in range(500):
        t = tuple(rng.randint(0, m) for m in highest)
        # the order of the row made: the least that holds t, one at or next
        # to a power of two, or any up to 10^6
        least = sum(t) + 1
        n = max(least, rng.choice([least, 2 ** rng.randint(1, 20) + rng.randint(-1, 1),
                                   rng.randint(1, 10**6)]))
        row = step(ref.dense(least, len(t), {t: 1}), n)
        images = Poly(g.names, {exponents(s, n): c for s, c in terms(row).items()})
        assert derive(Poly(g.names, {exponents(t, n - 1): 1}), g) == images, (t, n)


@pytest.mark.parametrize(
    "builder,check",
    [
        (_eulerian_row, lambda row, n: sum(row.values()) == math.factorial(n)),
        (_b_eulerian_row,
         lambda row, n: sum(row.values()) == 2**n * math.factorial(n)),
        (_stirling2_row,
         lambda row, n: row[1] == row[n] == 1 and row[n - 1] == math.comb(n, 2)),
    ],
    ids=["eulerian", "b_eulerian", "stirling2"],
)
def test_classical_rows_do_not_recurse_per_n(builder, check):
    # with the recursion limit a few dozen frames above the caller, a
    # builder that recursed once per n would raise RecursionError here
    objects.clear_memos()
    n = 1000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        row = builder(n)
    finally:
        sys.setrecursionlimit(limit)
    assert check(row, n)


# n! normalized words (dp = 0, lap + dasc = n), counted by dasc as the
# Eulerian numbers, sit in P_n at (n - j, j, 0) and in gamma_n at (n - j, j)
@pytest.mark.parametrize(
    "value,n,expected",
    [
        (lambda n: sum(t_poly(n).terms.values()), 300, odd_double_factorial),
        (lambda n: sum(map(t_poly(n).coefficient, range(2 * n + 1))), 300, odd_double_factorial),
        (lambda n: sum(p_poly(n).terms.values()), 55, odd_double_factorial),
        (lambda n: sum(map(p_poly(n).coefficient, range(n, 0, -1), range(n), [0] * n)), 55,
         math.factorial),
        (lambda n: sum(c << i[1] for i, c in g_poly(n).terms.items()), 100, odd_double_factorial),
        (lambda n: sum(map(g_poly(n).coefficient, range(n, 0, -1), range(n), [0] * n)),
         100, math.factorial),
    ],
    ids=["t_poly", "t_number", "p_poly", "p_number", "g_poly", "gamma_number"],
)
def test_flag_rows_do_not_recurse_per_n(value, n, expected):
    # with the recursion limit a few dozen frames above the caller, a
    # builder that recursed once per n would raise RecursionError here
    objects.clear_memos()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 40)
    try:
        got = value(n)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected(n)


@pytest.mark.parametrize(
    "build,row", [(t_table, _t_row), (p_table, _p_row), (gamma_table, _gamma_row)],
    ids=["t", "p", "gamma"],
)
def test_flag_tables_match_their_rows(tmp_path, build, row):
    # a build is the memo's row n, and a load of the file it wrote equals it
    assert build(12, TableCache(tmp_path)).row is row(12)
    assert build(12, TableCache(tmp_path)).row == row(12)


# ---------------------------------------------------------------------------
# what the table cache does with files it did not write, or that changed


def _edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("".join(line + "\n" for line in lines))


def _signed(edit):
    # the edit, then the header's digest made that of the new row bytes, so
    # that only the checks of _read_row can tell the file is off
    def on_lines(lines):
        edit(lines)
        digest = hashlib.blake2b("".join(line + "\n" for line in lines[1:]).encode()).hexdigest()
        lines[0] = re.sub(r'"blake2b":"\w*"', f'"blake2b":"{digest}"', lines[0])

    return on_lines


def _edit_row(edit):
    # the row is line 1, after the header
    def on_lines(lines):
        row = json.loads(lines[1])
        edit(row)
        lines[1] = json.dumps(row)

    return _signed(on_lines)


def _set_entry(path, idx, value):
    def edit(row):
        for e in row:
            if e[:-1] == idx:
                e[-1] = value

    _edit_lines(path, _edit_row(edit))


def _whole_document(lines):
    # the whole-document layout of earlier versions, on one line
    header = json.loads(lines[0])
    entries = [[n, *e[:-1], str(e[-1])] for n, line in enumerate(lines[1:])
               for e in json.loads(line)]
    lines[:] = [json.dumps({**header, "entries": entries}, separators=(",", ":"))]


def _row_lines(lines):
    # the layout before the digest: a header, then one line per row 0..3
    lines[:] = ['{"family":"t","bound":3,"version":"0.1.0"}',
                *(json.dumps([*map(list, _t_row(m).items())]).replace(" ", "") for m in range(4))]


def _replace_entry(old, new):
    # in t-3.json, [[1, 1], [2, 3], [3, 7], [4, 3], [5, 1]]
    return _edit_row(lambda row: row.__setitem__(row.index(old), new))


def _set_header(**fields):
    def edit(lines):
        lines[0] = json.dumps({**json.loads(lines[0]), **fields}, separators=(",", ":"))

    return edit


# Each edit changes the header, the row line or the line count of t-3.json.
# An edit of the row line or the line count re-signs the header, so that
# the checks of _read_row, not the digest, catch it; the blank line and the
# two earlier layouts are not signed.  The float, bool, index-past-2n and
# zero-value edits keep the row total, so only the schema check catches
# them.  The last two repeat an index: a loader that summed the entry list
# instead of the row as read would accept them, and return T(3, 5) = 0 or
# lose T(3, 5).
@pytest.mark.parametrize(
    "edit",
    [
        _whole_document,
        _signed(lambda lines: lines.__setitem__(1, "[]")),
        _signed(lambda lines: lines.__setitem__(1, '{"idx": [1], "val": 1}')),
        _edit_row(lambda row: row.append([1])),
        _edit_row(lambda row: row.append([3, 0, 1])),
        _edit_row(lambda row: row.append("3,1")),
        _replace_entry([1, 1], [1, "1"]),
        _replace_entry([1, 1], [[1], 1]),
        _replace_entry([1, 1], [-1, 1]),
        _set_header(bound=2),
        _set_header(family="p"),
        _set_header(version="0.0.0"),
        lambda lines: lines.__setitem__(0, lines[0].replace(",", ", ")),
        _signed(lambda lines: lines.__setitem__(1, "[[1, 1], [2, 3]")),
        _replace_entry([1, 1], [1, 1.0]),
        _replace_entry([1, 1], [1, True]),
        _replace_entry([5, 1], [7, 1]),
        _edit_row(lambda row: row.append([6, 0])),
        _signed(lambda lines: lines.pop()),
        _signed(lambda lines: lines.append(lines[1])),
        _row_lines,
        lambda lines: lines.append(""),
        _edit_row(lambda row: row.append([5, 0])),
        _replace_entry([5, 1], [1, 1]),
    ],
    ids=["parent-format", "no-entries", "entries-not-a-list", "short-entry",
         "long-entry", "non-list-entry", "non-integer-value", "list-index",
         "negative-index", "other-bound", "other-family", "other-version",
         "header-spacing", "unreadable-row", "float-value", "bool-value",
         "index-past-2n", "zero-value", "row-missing", "row-too-many", "parent-rows",
         "blank-line-too-many", "repeated-index", "repeated-index-same-sum"],
)
def test_cache_schema_mismatch_is_a_miss(tmp_path, edit):
    cache = TableCache(tmp_path)
    t_table(3, cache)
    path = tmp_path / "t-3.json"
    written = path.read_text()
    _edit_lines(path, edit)
    assert path.read_text() != written
    assert cache.load("t", 3, 2) is None
    # the next build regenerates the file in the current format
    assert t_table(3, cache).row[5] == 1
    assert path.read_text() == written
    assert cache.load("t", 3, 2).row == _t_row(3)


@pytest.mark.parametrize("build,name,idx",
                         [(t_table, "t", [1]), (p_table, "p", [2, 1, 0]),
                          (gamma_table, "gamma", [2, 1])], ids=["t", "p", "gamma"])
def test_cache_row_total_mismatch_is_a_miss(tmp_path, build, name, idx):
    cache = TableCache(tmp_path)
    good = build(4, cache)
    _set_entry(tmp_path / f"{name}-4.json", idx, 999)
    assert cache.load(name, 4, good.arity) is None
    assert build(4, cache).row == good.row
    assert cache.load(name, 4, good.arity).row == good.row


def _poly(cache_dir, name, n):
    out = io.StringIO()
    code = main(["--cache-dir", str(cache_dir), "poly", "--name", name, "--n", str(n)], out=out)
    return code, out.getvalue()


def test_tampered_t_file_is_regenerated_by_the_cli(tmp_path):
    assert _poly(tmp_path, "T", 2) == (0, "x + x^2 + x^3\n")
    path = tmp_path / "t-2.json"
    _set_entry(path, [1], 999)
    assert "999" in path.read_text()
    assert _poly(tmp_path, "T", 2) == (0, "x + x^2 + x^3\n")
    assert "999" not in path.read_text()


@pytest.mark.parametrize("name,family,old,new,term",
                         [("P", "p", [4, 0, 0, 1], [4, 4, 4, 1], "x^4*y^4*z^4"),
                          ("G", "gamma", [4, 0, 1], [5, 0, 1], "x^5")],
                         ids=["p", "gamma"])
def test_a_row_index_off_the_key_grid_is_regenerated_by_the_cli(tmp_path, name, family, old, new,
                                                                  term):
    # the moved entry keeps its index in 0..2n and its row's total, and the
    # header is re-signed, so only the bound of an index's sum by the row's
    # order, i + j (+ k) <= 4, tells it is off
    good = _poly(tmp_path, name, 4)
    (path,) = tmp_path.iterdir()
    written = path.read_text()
    _edit_lines(path, _edit_row(lambda row: row.__setitem__(row.index(old), new)))
    assert TableCache(tmp_path).load(family, 4, len(old)) is None
    assert _poly(tmp_path, name, 4) == good and term not in good[1]
    assert path.read_text() == written


@pytest.mark.parametrize("build,old,new,term",
                         [(p_table, [1, 0, 1, 1], [0, 0, 4, 1], (1, 0, 1)),
                          (gamma_table, [2, 0, 1], [4, 0, 1], (2, 0))],
                         ids=["p", "gamma"])
def test_a_row_index_past_its_order_is_a_miss(tmp_path, build, old, new, term):
    # row 2's moved entry keeps its row's total, and the header is
    # re-signed, but its indices add up to 4, past the row's order
    cache = TableCache(tmp_path)
    good = build(2, cache)
    (path,) = tmp_path.iterdir()
    _edit_lines(path, _edit_row(lambda row: row.__setitem__(row.index(old), new)))
    assert cache.load(good.family, 2, good.arity) is None
    assert build(2, cache).row[term] == 1
    assert cache.load(good.family, 2, good.arity).row == good.row


def _swap_t3_values(path):
    # T(3, 2) = 3 and T(3, 3) = 7 trade places: the same size and row total
    data = path.read_bytes()
    swapped = data.replace(b"[[1,1],[2,3],[3,7],", b"[[1,1],[2,7],[3,3],")
    assert len(swapped) == len(data) and swapped != data
    path.write_bytes(swapped)


@pytest.mark.parametrize("edit,expect", [
    (lambda path: None, lambda first, again: again is first),
    (_swap_t3_values, lambda first, again: again is None),
    (lambda path: path.unlink(), lambda first, again: again is None),
], ids=["unchanged", "values-swapped", "deleted"])
def test_a_reload_reuses_the_table_of_identical_bytes_only(tmp_path, edit, expect):
    # a cache keeps the last table it parsed and gives it again only for a
    # file of the same digest, however the file's size and mtime look; a
    # swap keeps every check of the row but its digest, and is a miss
    cache = TableCache(tmp_path)
    cache.store(t_table(3))
    path = tmp_path / "t-3.json"
    written = path.read_bytes()
    first = cache.load("t", 3, 2)
    assert first.row == _t_row(3)
    stat = path.stat()
    edit(path)
    if path.exists():
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
    assert expect(first, cache.load("t", 3, 2))
    # the next build rewrites a file it missed, and another file is read
    assert t_table(3, cache).row == _t_row(3)
    assert path.read_bytes() == written
    cache.store(t_table(2))
    assert cache.load("t", 2, 2).row == _t_row(2)


def test_cache_store_replaces_the_file_atomically(tmp_path, monkeypatch):
    cache = TableCache(tmp_path)
    t_table(3, cache)
    before = (tmp_path / "t-3.json").read_text()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(tables.os, "replace", fail)
    with pytest.raises(OSError):
        cache.store(t_table(3))
    # the old file is whole and no temporary file is left behind
    assert (tmp_path / "t-3.json").read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t-3.json"]


def _cache_file(family, n, line):
    # a header holding the BLAKE2b digest of the row line, then that line
    digest = hashlib.blake2b(line.encode()).hexdigest()
    return f'{{"family":"{family}","bound":{n},"version":"0.1.0","blake2b":"{digest}"}}\n{line}'


# the cache file of each table at n = 0, 1 (its text) and 20 (its size and
# SHA-256): a header line, then the compact line of row n
CACHE_FILES = {
    ("t", 0): _cache_file("t", 0, "[[0,1]]\n"), ("t", 1): _cache_file("t", 1, "[[1,1]]\n"),
    ("t", 20): (1099, "8bf8c2318b074a5cff5579f6852c5c8fa9f9c0a663f3c4032dd4ecc9ce702fe7"),
    ("p", 0): _cache_file("p", 0, "[[0,0,0,1]]\n"), ("p", 1): _cache_file("p", 1, "[[1,0,0,1]]\n"),
    ("p", 20): (22777, "73fac0928469faabd899c4bf6aaa3b4c117e90addc32c66c7d1bc87b7e1da0fa"),
    ("gamma", 0): _cache_file("gamma", 0, "[[0,0,1]]\n"),
    ("gamma", 1): _cache_file("gamma", 1, "[[1,0,1]]\n"),
    ("gamma", 20): (2952, "bc7b1f17c37dbd64e1f2344d45837fd422cbf1c07c0eb85b06d152771ff7168c"),
}


@pytest.mark.parametrize("build,row", [(t_table, _t_row), (p_table, _p_row),
                                       (gamma_table, _gamma_row)],
                         ids=["t", "p", "gamma"])
@pytest.mark.parametrize("n", [0, 1, 20])
def test_cache_file_is_the_compact_json_of_the_table(tmp_path, build, row, n):
    table = build(n)
    TableCache(tmp_path).store(table)
    data = (tmp_path / f"{table.family}-{n}.json").read_bytes()
    pinned = CACHE_FILES[table.family, n]
    if isinstance(pinned, str):
        assert data.decode() == pinned
    else:
        assert (len(data), hashlib.sha256(data).hexdigest()) == pinned
    header, line = data.split(b"\n", 1)
    assert json.loads(header) == {"family": table.family, "bound": n, "version": __version__,
                                  "blake2b": hashlib.blake2b(line).hexdigest()}
    assert line.decode() == json.dumps(
        [[*(k if isinstance(k, tuple) else (k,)), v] for k, v in sorted(row(n).items())],
        separators=(",", ":"),
    ) + "\n"


@pytest.mark.parametrize("build,n", [(gamma_table, 40), (p_table, 25), (t_table, 40)],
                         ids=["gamma-40", "p-25", "t-40"])
def test_cache_store_holds_about_one_row_at_a_time(tmp_path, build, n):
    # the row's entry strings, its line and the line's bytes, all of the
    # file but its header, peak at 3.0 to 3.6 times the file
    table = build(n)
    cache = TableCache(tmp_path)
    tracemalloc.start()
    try:
        cache.store(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * cache._path(table.family, n).stat().st_size


@pytest.mark.parametrize("build,n", [(gamma_table, 100), (p_table, 40)], ids=["gamma-100", "p-40"])
@pytest.mark.parametrize("side", ["built", "loaded"])
def test_a_tables_row_holds_one_key_tuple_per_entry(tmp_path, build, n, side):
    # row n, built from cold memos or loaded, holds little beyond its dict,
    # one key tuple per entry and its values: the bound allows half a tuple
    # per entry more
    cache = TableCache(tmp_path)
    cache.store(build(n))
    objects.clear_memos()
    tracemalloc.start()
    try:
        row = build(n, cache if side == "loaded" else None).row
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # the key order the readers make and the cache files pin
    assert list(row) == sorted(row)
    tuple_size = sys.getsizeof(next(iter(row)))
    # CPython allocates no int up to 256
    size = sys.getsizeof(row) + sum(sys.getsizeof(c) for c in row.values() if c > 256)
    assert held < size + len(row) * tuple_size + len(row) * tuple_size / 2


@pytest.mark.parametrize("build,n", [(gamma_table, 100), (p_table, 40), (t_table, 60)],
                         ids=["gamma-100", "p-40", "t-60"])
def test_cache_load_holds_about_one_row_at_a_time(tmp_path, build, n):
    # beyond the table it returns, load holds the row line's bytes and its
    # entry lists: 2.3, 4.1 and 2.1 times the line
    table = build(n)
    cache = TableCache(tmp_path)
    cache.store(table)
    line = cache._path(table.family, n).read_bytes().split(b"\n", 1)[1]
    tracemalloc.start()
    try:
        loaded = cache.load(table.family, n, table.arity)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.row == table.row
    assert peak - held < 5 * len(line)


# Every public function of tables at the orders below, with its remaining
# arguments: each raises the order gate's ValueError naming n.
BAD_ORDERS = (-1, True, 1.5, "3")


def gate_message(n) -> str:
    return rf"^n must be a nonnegative int, got {re.escape(repr(n))}$"


NEGATIVE_N_RAISES = [
    (stirling2, (0,)),
    (a_poly, ()),
    (b_poly, ()),
    (f_poly, ()),
    (t_poly, ()),
    (p_poly, ()),
    (g_poly, ()),
    (c_poly, ()),
    (n_poly, ()),
    (m_poly, ()),
    (m_polys, ()),
    (n_poly_closed, ()),
    (p_polys_differential, ()),
    (g_polys_differential, ()),
    (t_table, ()),
    (p_table, ()),
    (gamma_table, ()),
]


def test_negative_n_covers_every_public_function():
    public = {
        name
        for name, obj in vars(tables).items()
        if inspect.isfunction(obj)
        and obj.__module__ == tables.__name__
        and not name.startswith("_")
    }
    listed = {fn.__name__ for fn, _ in NEGATIVE_N_RAISES}
    assert public == listed


@pytest.mark.parametrize(
    "fn, rest", NEGATIVE_N_RAISES, ids=[fn.__name__ for fn, _ in NEGATIVE_N_RAISES]
)
def test_negative_n_raises(fn, rest):
    for n in BAD_ORDERS:
        with pytest.raises(ValueError, match=gate_message(n)):
            fn(n, *rest)
