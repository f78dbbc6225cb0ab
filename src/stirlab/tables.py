"""Coefficient families via recurrences and closed forms.

Families and their one-letter polynomial names as used by the CLI:

- ``A``: Eulerian polynomials A_n(x) (descents over S_n);
- ``B``: type-B Eulerian polynomials B_n(x) (descents over B_n with pi(0)=0);
- ``F``: flag descent polynomials F_n(x) = (1+x)^n A_n(x);
- ``M``: ascent-plateau polynomials M_n(x) over Stirling permutations;
- ``N``: left ascent-plateau polynomials N_n(x);
- ``C``: ascent polynomials C_n(x);
- ``T``: flag ascent-plateau numbers T(n, k) and T_n(x);
- ``P``: trivariate refinement P_n(x, y, z) counting (lap, dasc, dp);
- ``G``: its gamma vector, G_n(x, y) = sum gamma_{n,i,j} x^i y^j.

Tables are exact integers, and so is every polynomial: a family in x is a
``Poly`` over ("x",), and P and G are ``Poly`` values over ("x", "y", "z").
Each function evaluates one formula; :mod:`stirlab.identities` compares them.
Each triangle, C and N included, has a step function that makes row m from
row m-1 and m; row n is the ``functools.reduce`` of its step over 1..n from
row 0, and a CoefficientTable draws rows 0..n from ``itertools.accumulate``.
A row is stepped as a dense list indexed by k from row 0 = [1], each entry
summed from zero-padded shifts of the row before; P and gamma are dense
nested lists, row[i][j][k] over i + j + k <= n from [[[1]]] and row[i][j]
over i + j <= n from [[1]].  Each family's own reader turns its dense row
into the dict of nonzero terms in increasing key order that every caller
sees; the P and gamma readers zip each dense line with a line of their
family's key grid, so the rows of a table share one tuple per key.  Every
order passes ``objects._order``; a family is read off its polynomial, and
:func:`stirling2` is the one number function.

A small JSON disk cache (:class:`TableCache`) can memoize the three
CoefficientTable builders :func:`t_table`, :func:`p_table` and
:func:`gamma_table`, keyed by family and bound.  A table is its tuple of
rows as its reader makes them.  A cache file is a header line, then one
line per row, written and read one row at a time, a load keying its rows
off the family's grid as a build does; a file whose header, row count, row
schema, row total or an index off the grid (:func:`_read_row`) is off is a
miss, and the rebuilt table replaces it.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate, chain
from operator import getitem, itemgetter, lshift
from pathlib import Path

from ._version import __version__
from .errors import IdentityViolationError
from .grammar import _powers, parse_grammar, parse_poly
from .objects import _memo, _order
from .polynomials import XYZ, Poly, monomial_str

# the grammar whose derivative drives the flag statistics; D^n(y) encodes the
# ascent-plateau distribution, which is how m_poly avoids brute force
FLAG_GRAMMAR = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")

# the five-letter grammar refining (lap, dasc, dp); D^n(z) encodes P_n
REFINED_GRAMMAR = parse_grammar(
    "x -> x*z*q; y -> y*z*p; z -> x*y*z; p -> x*y*z; q -> x*y*z"
)

# the collapsed three-letter grammar; D^n(w) encodes the gamma vector
GAMMA_GRAMMAR = parse_grammar("u -> u*v*w; v -> 2*u*w; w -> u*w")


@dataclass(frozen=True)
class CoefficientTable:
    """An integer coefficient family generated to a bound: row n maps an
    index (k for T, (i, j, k) for P, (i, j) for gamma) to its value."""

    family: str
    arity: int
    bound: int
    rows: tuple[dict, ...]

    def value(self, n: int, *idx: int) -> int:
        """Entry at row n and arity - 1 indices, else ValueError; 0 off the support."""
        if len(idx) != self.arity - 1:
            raise ValueError(f"{self.family} takes {self.arity - 1} indices, got {len(idx)}")
        if not 0 <= n <= self.bound:
            return 0
        return self.rows[n].get(idx if len(idx) > 1 else idx[0], 0)


def _odd_double_factorial(n: int) -> int:
    """(2n-1)!!, the number of Stirling permutations of order n."""
    return math.prod(range(1, 2 * n, 2))


def _header(family: str, bound: int) -> bytes:
    """The first line of a cache file."""
    obj = {"family": family, "bound": bound, "version": __version__}
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def _read_row(line: bytes, n: int, family: str, arity: int, grid) -> dict | None:
    """Row n from its cache line, or None unless the line is a list of
    ``[*index, value]`` lists, each of arity - 1 int indices in 0..2n and a
    positive int, and the row adds up to (2n-1)!!: for T and P the plain
    sum, for gamma the sum of 2^j gamma_{n,i,j}, which is P_n(1, 1, 1).
    The row is summed as read, so a repeated index fails.  A tuple index
    is looked up in ``grid``, the family's key grid, so the rows share
    their keys; an index off the grid raises IndexError."""
    entries = json.loads(line)
    if (
        type(entries) is not list
        or set(map(type, entries)) != {list}
        or set(map(len, entries)) != {arity}
    ):
        return None
    flat = list(chain.from_iterable(entries))
    *index, values = (flat[i::arity] for i in range(arity))
    if (
        set(map(type, flat)) != {int}
        or min(values) <= 0
        # checked before the grid is read, where a negative index wraps
        or min(map(min, index)) < 0
        or max(map(max, index)) > 2 * n
    ):
        return None
    keys = index[0]
    if grid is not None:
        keys = map(grid.__getitem__, keys)
        for axis in index[1:]:
            keys = map(getitem, keys, axis)
    row = dict(zip(keys, values))
    if family == "gamma":
        total = sum(map(lshift, row.values(), map(itemgetter(1), row)))
    else:
        total = sum(row.values())
    return row if total == _odd_double_factorial(n) else None


class TableCache:
    """Disk cache of coefficient tables, one JSON-lines file per (family,
    bound): a header line, then one line per row."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def _path(self, family: str, bound: int) -> Path:
        return self.directory / f"{family}-{bound}.json"

    def load(self, family: str, bound: int, arity: int) -> CoefficientTable | None:
        """The cached table, read and checked one row at a time, or None when
        there is no file, or the file is unreadable, has another header or
        another number of rows, or has a row off the schema, its total or
        the family's key grid."""
        rows = []
        try:
            with self._path(family, bound).open("rb") as f:
                if f.readline() != _header(family, bound):
                    return None
                grid = _KEY_GRIDS[family](bound) if family in _KEY_GRIDS else None
                for n, line in enumerate(f):
                    if n > bound or (row := _read_row(line, n, family, arity, grid)) is None:
                        return None
                    rows.append(row)
        except (OSError, ValueError, IndexError, RecursionError):
            return None
        if len(rows) != bound + 1:
            return None
        return CoefficientTable(family, arity, bound, tuple(rows))

    def store(self, table: CoefficientTable) -> None:
        """Write the table a row at a time through a temporary file in the
        same directory and rename it into place, so that a reader never sees
        half a file.  No fsync: a file torn by a crash fails the checks in
        :meth:`load`."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(table.family, table.bound)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_header(table.family, table.bound))
                entry = "[%s]" % ",".join(["%d"] * table.arity)
                for row in table.rows:
                    # a row's items are in key order already, as its reader made them
                    terms = row.items() if table.arity == 2 else ((*k, v) for k, v in row.items())
                    f.write(("[%s]\n" % ",".join([entry % t for t in terms])).encode())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _cached_build(family, arity, bound, cache, step, origin, read):
    # row 0 is origin and row m is step(row m-1, m), each dense row read into
    # its dict of nonzero terms, keyed from the family's grid if it has one,
    # so that the rows share key tuples; built on a cache miss only
    bound = _order(bound)
    table = cache.load(family, bound, arity) if cache is not None else None
    if table is None:
        read = partial(read, keys=_KEY_GRIDS[family](bound)) if family in _KEY_GRIDS else read
        rows = accumulate(range(1, bound + 1), step, initial=origin)
        table = CoefficientTable(family, arity, bound, tuple(map(read, rows)))
        if cache is not None:
            cache.store(table)
    return table


# ---------------------------------------------------------------------------
# Eulerian numbers, type-B Eulerian numbers, Stirling numbers


def _eulerian_step(prev: list[int], m: int) -> list[int]:
    # A_m[k] = (k+1) A_{m-1}[k] + (m-k) A_{m-1}[k-1], over k <= m; the last
    # entry, k = m, is 0
    return [(k + 1) * a + (m - k) * b for k, (a, b) in enumerate(zip([*prev, 0], [0, *prev]))]


@_memo
def _eulerian_row(n: int) -> dict[int, int]:
    return {k: c for k, c in enumerate(reduce(_eulerian_step, range(1, n + 1), [1])) if c}


def a_poly(n: int) -> Poly:
    """Eulerian polynomial A_n(x)."""
    return Poly.from_counts(_eulerian_row(_order(n)))


def _b_eulerian_step(prev: list[int], m: int) -> list[int]:
    # standard type-B recurrence: each descent slot doubles with the sign of
    # the inserted maximal letter,
    # B_m[k] = (2k+1) B_{m-1}[k] + (2(m-k)+1) B_{m-1}[k-1], over k <= m
    return [(2 * k + 1) * a + (2 * (m - k) + 1) * b
            for k, (a, b) in enumerate(zip([*prev, 0], [0, *prev]))]


@_memo
def _b_eulerian_row(n: int) -> dict[int, int]:
    return {k: c for k, c in enumerate(reduce(_b_eulerian_step, range(1, n + 1), [1])) if c}


def b_poly(n: int) -> Poly:
    """Type-B Eulerian polynomial B_n(x)."""
    return Poly.from_counts(_b_eulerian_row(_order(n)))


def f_poly(n: int) -> Poly:
    """Flag descent polynomial F_n(x) = (1+x)^n A_n(x), its coefficients the
    convolution F_n[k] = sum_j C(n, j) A_n[k - j] of two integer rows."""
    n = _order(n)
    eulerian_row, row = _eulerian_row(n), {}
    for j in range(n + 1):
        c = math.comb(n, j)
        for k, a in eulerian_row.items():
            row[j + k] = row.get(j + k, 0) + c * a
    return Poly.from_counts(row)


def _stirling2_step(prev: list[int], m: int) -> list[int]:
    # S(m, k) = k S(m-1, k) + S(m-1, k-1), over k <= m; S(m, 0) = 0 past m = 0
    return [k * a + b for k, (a, b) in enumerate(zip([*prev, 0], [0, *prev]))]


@_memo
def _stirling2_row(n: int) -> dict[int, int]:
    return {k: c for k, c in enumerate(reduce(_stirling2_step, range(1, n + 1), [1])) if c}


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (0 off-range in k); a k
    that is not an int, a bool among them, raises ValueError."""
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    return _stirling2_row(_order(n)).get(k, 0)


# ---------------------------------------------------------------------------
# flag ascent-plateau numbers T(n, k)


def _t_step(prev: list[int], n: int) -> list[int]:
    # T(n, k) = k T(n-1, k) + T(n-1, k-1) + (2n - k) T(n-1, k-2) over
    # k <= 2n, n the order of the row made; T(0, 0) = 1.  The three terms
    # are insertion of a new doubled letter at an existing flag
    # ascent-plateau, at the front of an ascent start, and at any of the
    # remaining positions.
    return [k * a + b + (2 * n - k) * c
            for k, (a, b, c) in enumerate(zip([*prev, 0, 0], [0, *prev, 0], [0, 0, *prev]))]


def _t_terms(row: list[int]) -> dict[int, int]:
    """The nonzero terms of a dense T row, in increasing k."""
    return {k: c for k, c in enumerate(row) if c}


@_memo
def _t_row(n: int) -> dict[int, int]:
    return _t_terms(reduce(_t_step, range(1, n + 1), [1]))


def t_poly(n: int) -> Poly:
    """T_n(x): the flag ascent-plateau distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(_t_row(n))


def t_table(n_max: int, cache: TableCache | None = None) -> CoefficientTable:
    return _cached_build("t", 2, n_max, cache, _t_step, [1], _t_terms)


# ---------------------------------------------------------------------------
# the trivariate refinement P_n(i, j, k)


def _p_step(prev: list[list[list[int]]], n: int) -> list[list[list[int]]]:
    # P_{n+1}(i,j,k) = i P_n(i,j-1,k) + i P_n(i,j,k-1) + (j+1) P_n(i-1,j+1,k)
    #                + (k+1) P_n(i-1,j,k+1) + (2n+3-2i-j-k) P_n(i-1,j,k),
    # the five insertion cases for a new doubled letter (after the first of a
    # doubled pair, before it, at a double ascent, at a descent-plateau, and
    # at a neutral position).  A row is dense, row[i][j][k] over
    # i + j + k <= its order, and one order larger than prev: each nonzero
    # term of prev sends its five weighted images into it by list indexing,
    # the neutral weight read off n, the order of the row made.  Plane i = 0
    # is nonzero in row 0 alone, and its images of weight i add nothing.
    size = len(prev) + 1
    row = [[[0] * (size - i - j) for j in range(size - i)] for i in range(size)]
    slots = 2 * n - 1
    for i, plane in enumerate(prev):
        here, up = row[i], row[i + 1]
        for j, line in enumerate(plane):
            # the lines of (i, j, .), (i, j+1, .), (i+1, j, .) and, read only
            # when j, (i+1, j-1, .)
            same, right, neutral, left = here[j], here[j + 1], up[j], up[j - 1]
            w = slots - 2 * i - j
            for k, c in enumerate(line):
                if c:
                    ic = i * c
                    right[k] += ic
                    same[k + 1] += ic
                    if j:
                        left[k] += j * c
                    if k:
                        neutral[k - 1] += k * c
                    neutral[k] += (w - k) * c
    return row


def _p_keys(n: int) -> list[list[list[tuple[int, int, int]]]]:
    """The key grid of P rows to order n: keys[i][j][k] = (i, j, k)."""
    return [[[(i, j, k) for k in range(n + 1 - i - j)] for j in range(n + 1 - i)]
            for i in range(n + 1)]


def _p_terms(row: list[list[list[int]]], keys) -> dict[tuple[int, int, int], int]:
    """A dense P row's nonzero terms in key order, keyed from a :func:`_p_keys` grid."""
    return {e: c for plane, key_plane in zip(row, keys)
            for line, key_line in zip(plane, key_plane) for e, c in zip(key_line, line) if c}


@_memo
def _p_row(n: int) -> dict[tuple[int, int, int], int]:
    return _p_terms(reduce(_p_step, range(1, n + 1), [[[1]]]), _p_keys(n))


def p_poly(n: int) -> Poly:
    """P_n(x, y, z) = sum x^lap y^dasc z^dp over Q_n."""
    return Poly(XYZ, _p_row(_order(n)))


def _differential(n_max: int, x: Poly, partials: dict[str, Poly]) -> list[Poly]:
    """Q_0..Q_{n_max} from Q_0 = 1 and the differential recurrence
    Q_{n+1} = (2n+1) x Q_n + sum of c_v dQ_n/dv over ``partials``, v -> c_v."""
    n_max = _order(n_max)
    out = [Poly(XYZ, {(0, 0, 0): 1})]
    for n in range(n_max):
        q = out[-1]
        nxt = q * x * (2 * n + 1)
        for v, c in partials.items():
            nxt = nxt + c * q.partial(v)
        out.append(nxt)
    return out


def p_polys_differential(n_max: int) -> list[Poly]:
    """P_0..P_{n_max} through the differential recurrence, an independent
    path from the index recurrence behind :func:`p_poly`."""
    x, xy, xz, x2 = (
        Poly(XYZ, {e: 1}) for e in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (2, 0, 0))
    )
    return _differential(n_max, x, {"x": xy + xz - 2 * x2, "y": x - xy, "z": x - xz})


def p_table(n_max: int, cache: TableCache | None = None) -> CoefficientTable:
    return _cached_build("p", 4, n_max, cache, _p_step, [[[1]]], _p_terms)


# ---------------------------------------------------------------------------
# the gamma vector gamma_{n,i,j}


def _gamma_step(prev: list[list[int]], n: int) -> list[list[int]]:
    # gamma_{n+1,i,j} = i gamma_{n,i,j-1} + 2(j+1) gamma_{n,i-1,j+1}
    #                 + (2n+3-2i-j) gamma_{n,i-1,j}; dense like _p_step,
    #                 row[i][j] over i + j <= its order, each nonzero term of
    #                 prev sending its three weighted images
    size = len(prev) + 1
    row = [[0] * (size - i) for i in range(size)]
    slots = 2 * n - 1
    for i, line in enumerate(prev):
        # the lines of (i, .) and (i+1, .)
        same, up = row[i], row[i + 1]
        w = slots - 2 * i
        for j, c in enumerate(line):
            if c:
                same[j + 1] += i * c
                if j:
                    up[j - 1] += 2 * j * c
                up[j] += (w - j) * c
    return row


def _gamma_keys(n: int) -> list[list[tuple[int, int]]]:
    """The key grid of gamma rows to order n: keys[i][j] = (i, j)."""
    return [[(i, j) for j in range(n + 1 - i)] for i in range(n + 1)]


def _gamma_terms(row: list[list[int]], keys) -> dict[tuple[int, int], int]:
    """A dense gamma row's nonzero terms in key order, keyed from a :func:`_gamma_keys` grid."""
    return {e: c for line, key_line in zip(row, keys) for e, c in zip(key_line, line) if c}


# the key grid of each family with tuple keys; T's keys are ints
_KEY_GRIDS = {"p": _p_keys, "gamma": _gamma_keys}


@_memo
def _gamma_row(n: int) -> dict[tuple[int, int], int]:
    return _gamma_terms(reduce(_gamma_step, range(1, n + 1), [[1]]), _gamma_keys(n))


def g_poly(n: int) -> Poly:
    """G_n(x, y) = sum gamma_{n,i,j} x^i y^j (stored with z-exponent 0)."""
    n = _order(n)
    return Poly(XYZ, {(i, j, 0): c for (i, j), c in _gamma_row(n).items()})


def g_polys_differential(n_max: int) -> list[Poly]:
    """G_0..G_{n_max} through the differential recurrence, an independent
    path from the index recurrence behind :func:`g_poly`."""
    x, xy, x2 = (Poly(XYZ, {e: 1}) for e in ((1, 0, 0), (1, 1, 0), (2, 0, 0)))
    return _differential(n_max, x, {"x": xy - 2 * x2, "y": 2 * x - xy})


def gamma_table(n_max: int, cache: TableCache | None = None) -> CoefficientTable:
    return _cached_build("gamma", 3, n_max, cache, _gamma_step, [[1]], _gamma_terms)


# ---------------------------------------------------------------------------
# ascent and left ascent-plateau polynomial sequences


def _c_step(prev: list[int], m: int) -> list[int]:
    # C_{n+1} = (2n+1) x C_n + x(1-x) C_n' turns into coefficients as
    # C_{n+1}[k] = k C_n[k] + (2n+2-k) C_n[k-1], since x C_n' contributes
    # k C_n[k] and -x^2 C_n' contributes -(k-1) C_n[k-1]; here m = n+1
    return [k * a + (2 * m - k) * b for k, (a, b) in enumerate(zip([*prev, 0], [0, *prev]))]


def _n_step(prev: list[int], m: int) -> list[int]:
    # the same with the doubled x(1-x) N_n':
    # N_{n+1}[k] = 2k N_n[k] + (2n+3-2k) N_n[k-1]; here m = n+1
    return [2 * k * a + (2 * m + 1 - 2 * k) * b
            for k, (a, b) in enumerate(zip([*prev, 0], [0, *prev]))]


def c_poly(n: int) -> Poly:
    """C_n(x): the ascent distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(dict(enumerate(reduce(_c_step, range(1, n + 1), [1]))))


def n_poly(n: int) -> Poly:
    """N_n(x): the left ascent-plateau distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(dict(enumerate(reduce(_n_step, range(1, n + 1), [1]))))


def m_poly(n: int) -> Poly:
    """M_n(x): the ascent-plateau distribution over Q_n, read off
    :func:`m_polys`."""
    return m_polys(n)[n]


def m_polys(n_max: int) -> list[Poly]:
    """M_0..M_{n_max} through the grammar derivative, one derivation step per
    order: the n-th derivative of y under the flag grammar is
    y * sum y^(2 ap) z^(2n - 2 ap), each term read as y^e z^(2n+1-e).  A
    term of another shape, or a y exponent whose weight, the exponent less
    one, is odd, raises IdentityViolationError."""
    out = []
    for n, d in enumerate(_powers(parse_poly("y"), FLAG_GRAMMAR, n_max, every=True)):
        counts: dict[int, int] = {}
        for exps, c in d.terms.items():
            mono = dict(zip(d.names, exps))
            e = mono.get("y", 0)
            if sum(exps) != 2 * n + 1 or mono.get("z", 0) != 2 * n + 1 - e:
                raise IdentityViolationError(f"D^{n}(y) has a term off y^e z^({2 * n + 1}-e):"
                                             f" {monomial_str(d.names, exps)}")
            if (e - 1) % 2:
                raise IdentityViolationError(f"odd ascent-plateau weight exponent {e}")
            counts[(e - 1) // 2] = c
        out.append(Poly.from_counts(counts))
    return out


def _closed_weight(n: int, k: int) -> int:
    """4^(n-k) C(2k,k) k! S(n,k), the closed forms' weight of N_n times 2^n."""
    return 4 ** (n - k) * math.comb(2 * k, k) * math.factorial(k) * stirling2(n, k)


def n_poly_closed(n: int) -> Poly:
    """N_n(x) = sum_k 2^(n-2k) C(2k,k) k! S(n,k) x^k (1-x)^(n-k), summed as
    2^n N_n and divided back; a remainder raises IdentityViolationError."""
    n = _order(n)
    scaled: dict[int, int] = {}
    for k in range(n + 1):
        w = _closed_weight(n, k)
        # x^k (1-x)^(n-k) by the binomial theorem
        for m in range(n - k + 1):
            scaled[k + m] = scaled.get(k + m, 0) + (-1) ** m * math.comb(n - k, m) * w
    if any(c % 2**n for c in scaled.values()):
        raise IdentityViolationError(
            f"closed form of N_{n} is not integral: "
            f"2^{n} N_{n} = {Poly.from_counts(scaled)}"
        )
    return Poly.from_counts({k: c >> n for k, c in scaled.items()})

