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
row 0 = {origin: 1}, and a whole table draws rows 0..n from
``itertools.accumulate``.  Each order passes ``objects._order`` (ValueError
unless a nonnegative int), but a number function reads 0 at a negative int.

A small JSON disk cache (:class:`TableCache`) can memoize the three
CoefficientTable builders :func:`t_table`, :func:`p_table` and
:func:`gamma_table`, keyed by family and bound.  A table is its tuple of
rows as the step function makes them.  A cache file is a header line, then
one line per row, written and read one row at a time; a file whose header,
row count, row schema or row total (:func:`_read_row`) is off is a miss, and
the rebuilt table replaces it.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain
from operator import itemgetter, lshift
from pathlib import Path

from ._version import __version__
from .errors import IdentityViolationError
from .grammar import _powers, coefficient_profile, parse_grammar, parse_poly
from .objects import _order
from .polynomials import XYZ, Poly

# the grammar whose derivative drives the flag statistics; D^n(y) encodes the
# ascent-plateau distribution, which is how m_poly avoids brute force
FLAG_GRAMMAR = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")

# the five-letter grammar refining (lap, dasc, dp); D^n(z) encodes P_n
REFINED_GRAMMAR = parse_grammar(
    "x -> x*z*q; y -> y*z*p; z -> x*y*z; p -> x*y*z; q -> x*y*z"
)

# the collapsed three-letter grammar; D^n(w) encodes the gamma vector
GAMMA_GRAMMAR = parse_grammar("u -> u*v*w; v -> 2*u*w; w -> u*w")

# compact JSON, as the cache writes it
_SEPARATORS = (",", ":")


@dataclass(frozen=True)
class CoefficientTable:
    """An integer coefficient family generated to a bound: row n maps an
    index (k for T, (i, j, k) for P, (i, j) for gamma) to its value."""

    family: str
    arity: int
    bound: int
    rows: tuple[dict, ...]

    def value(self, n: int, *idx: int) -> int:
        """Entry at row n and an index; anything outside the support is 0."""
        if not 0 <= n <= self.bound:
            return 0
        return self.rows[n].get(idx if len(idx) > 1 else idx[0], 0)


def _odd_double_factorial(n: int) -> int:
    """(2n-1)!!, the number of Stirling permutations of order n."""
    return math.prod(range(1, 2 * n, 2))


def _header(family: str, bound: int) -> bytes:
    """The first line of a cache file."""
    obj = {"family": family, "bound": bound, "version": __version__}
    return json.dumps(obj, separators=_SEPARATORS).encode() + b"\n"


def _read_row(line: bytes, n: int, family: str, arity: int) -> dict | None:
    """Row n from its cache line, or None unless the line is a list of
    ``[*index, value]`` lists, each of arity - 1 int indices in 0..2n and a
    positive int, and the row adds up to (2n-1)!!: for T and P the plain
    sum, for gamma the sum of 2^j gamma_{n,i,j}, which is P_n(1, 1, 1).
    The row is summed as read, so a repeated index fails."""
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
        or min(map(min, index)) < 0
        or max(map(max, index)) > 2 * n
    ):
        return None
    row = dict(zip(index[0] if arity == 2 else zip(*index), values))
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
        another number of rows, or has a row off the schema or its total."""
        rows = []
        try:
            with self._path(family, bound).open("rb") as f:
                if f.readline() != _header(family, bound):
                    return None
                for n, line in enumerate(f):
                    if n > bound or (row := _read_row(line, n, family, arity)) is None:
                        return None
                    rows.append(row)
        except (OSError, ValueError, RecursionError):
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
                for row in table.rows:
                    entries = [[*k, v] if type(k) is tuple else [k, v]
                               for k, v in sorted(row.items())]
                    f.write(json.dumps(entries, separators=_SEPARATORS).encode() + b"\n")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


def _cached_build(family, arity, bound, cache, step, origin):
    # row 0 is origin and row m is step(row m-1, m); built on a cache miss only
    bound = _order(bound)
    table = cache.load(family, bound, arity) if cache is not None else None
    if table is None:
        rows = accumulate(range(1, bound + 1), step, initial=origin)
        table = CoefficientTable(family, arity, bound, tuple(rows))
        if cache is not None:
            cache.store(table)
    return table


# ---------------------------------------------------------------------------
# Eulerian numbers, type-B Eulerian numbers, Stirling numbers


def _eulerian_step(prev: dict[int, int], m: int) -> dict[int, int]:
    row: dict[int, int] = {}
    for k in range(m):
        v = (k + 1) * prev.get(k, 0) + (m - k) * prev.get(k - 1, 0)
        if v:
            row[k] = v
    return row


@lru_cache(maxsize=None)
def _eulerian_row(n: int) -> dict[int, int]:
    return reduce(_eulerian_step, range(1, n + 1), {0: 1})


def eulerian(n: int, k: int) -> int:
    """Eulerian number: permutations of [n] with k descents (0 off-range)."""
    if type(n) is int and n < 0:
        return 0
    return _eulerian_row(_order(n)).get(k, 0)


def a_poly(n: int) -> Poly:
    """Eulerian polynomial A_n(x)."""
    return Poly.from_counts(_eulerian_row(_order(n)))


def _b_eulerian_step(prev: dict[int, int], m: int) -> dict[int, int]:
    # standard type-B recurrence: each descent slot doubles with the sign of
    # the inserted maximal letter
    row: dict[int, int] = {}
    for k in range(m + 1):
        v = (2 * k + 1) * prev.get(k, 0) + (2 * (m - k) + 1) * prev.get(k - 1, 0)
        if v:
            row[k] = v
    return row


@lru_cache(maxsize=None)
def _b_eulerian_row(n: int) -> dict[int, int]:
    return reduce(_b_eulerian_step, range(1, n + 1), {0: 1})


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


def _stirling2_step(prev: dict[int, int], m: int) -> dict[int, int]:
    row: dict[int, int] = {}
    for k in range(1, m + 1):
        v = k * prev.get(k, 0) + prev.get(k - 1, 0)
        if v:
            row[k] = v
    return row


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> dict[int, int]:
    return reduce(_stirling2_step, range(1, n + 1), {0: 1})


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k) (0 off-range)."""
    if type(n) is int and n < 0:
        return 0
    return _stirling2_row(_order(n)).get(k, 0)


# ---------------------------------------------------------------------------
# flag ascent-plateau numbers T(n, k)


def _t_step(prev: dict[int, int], n: int) -> dict[int, int]:
    # T(n+1, k) = k T(n, k) + T(n, k-1) + (2n - k + 2) T(n, k-2); T(0, 0) = 1.
    # The three terms are insertion of a new doubled letter at an existing
    # flag ascent-plateau, at the front of an ascent start, and at any of the
    # remaining positions.
    row: dict[int, int] = {}
    for k in range(2 * n + 1):
        v = (
            k * prev.get(k, 0)
            + prev.get(k - 1, 0)
            + (2 * (n - 1) - k + 2) * prev.get(k - 2, 0)
        )
        if v:
            row[k] = v
    return row


@lru_cache(maxsize=None)
def _t_row(n: int) -> dict[int, int]:
    return reduce(_t_step, range(1, n + 1), {0: 1})


def t_poly(n: int) -> Poly:
    """T_n(x): the flag ascent-plateau distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(_t_row(n))


def t_table(n_max: int, cache: TableCache | None = None) -> CoefficientTable:
    return _cached_build("t", 2, n_max, cache, _t_step, {0: 1})


# ---------------------------------------------------------------------------
# the trivariate refinement P_n(i, j, k)


def _p_step(
    prev: dict[tuple[int, int, int], int], n: int
) -> dict[tuple[int, int, int], int]:
    # P_{n+1}(i,j,k) = i P_n(i,j-1,k) + i P_n(i,j,k-1) + (j+1) P_n(i-1,j+1,k)
    #                + (k+1) P_n(i-1,j,k+1) + (2n+3-2i-j-k) P_n(i-1,j,k),
    # the five insertion cases for a new doubled letter (after the first of a
    # doubled pair, before it, at a double ascent, at a descent-plateau, and
    # at a neutral position).  Built push-forward: each term of row n-1
    # sends its five weighted images into row n.
    slots = 2 * n - 1
    row: dict[tuple[int, int, int], int] = {}
    get = row.get
    for (i, j, k), c in prev.items():
        ic = i * c
        for key, v in (
            ((i, j + 1, k), ic),
            ((i, j, k + 1), ic),
            ((i + 1, j - 1, k), j * c),
            ((i + 1, j, k - 1), k * c),
            ((i + 1, j, k), (slots - 2 * i - j - k) * c),
        ):
            row[key] = get(key, 0) + v
    return {key: v for key, v in row.items() if v}


@lru_cache(maxsize=None)
def _p_row(n: int) -> dict[tuple[int, int, int], int]:
    return reduce(_p_step, range(1, n + 1), {(0, 0, 0): 1})


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
    return _cached_build("p", 4, n_max, cache, _p_step, {(0, 0, 0): 1})


# ---------------------------------------------------------------------------
# the gamma vector gamma_{n,i,j}


def _gamma_step(
    prev: dict[tuple[int, int], int], n: int
) -> dict[tuple[int, int], int]:
    # gamma_{n+1,i,j} = i gamma_{n,i,j-1} + 2(j+1) gamma_{n,i-1,j+1}
    #                 + (2n+3-2i-j) gamma_{n,i-1,j}, built push-forward
    #                 like _p_step
    slots = 2 * n - 1
    row: dict[tuple[int, int], int] = {}
    get = row.get
    for (i, j), c in prev.items():
        for key, v in (
            ((i, j + 1), i * c),
            ((i + 1, j - 1), 2 * j * c),
            ((i + 1, j), (slots - 2 * i - j) * c),
        ):
            row[key] = get(key, 0) + v
    return {key: v for key, v in row.items() if v}


@lru_cache(maxsize=None)
def _gamma_row(n: int) -> dict[tuple[int, int], int]:
    return reduce(_gamma_step, range(1, n + 1), {(0, 0): 1})


def gamma_number(n: int, i: int, j: int) -> int:
    """gamma_{n,i,j}: descent-plateau-free words with lap = i, dasc = j
    (0 off-range)."""
    if type(n) is int and n < 0:
        return 0
    return _gamma_row(_order(n)).get((i, j), 0)


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
    return _cached_build("gamma", 3, n_max, cache, _gamma_step, {(0, 0): 1})


# ---------------------------------------------------------------------------
# ascent and left ascent-plateau polynomial sequences


def _c_step(prev: dict[int, int], m: int) -> dict[int, int]:
    # C_{n+1} = (2n+1) x C_n + x(1-x) C_n' turns into coefficients as
    # C_{n+1}[k] = k C_n[k] + (2n+2-k) C_n[k-1], since x C_n' contributes
    # k C_n[k] and -x^2 C_n' contributes -(k-1) C_n[k-1]; here m = n+1
    row: dict[int, int] = {}
    for k in range(m + 1):
        v = k * prev.get(k, 0) + (2 * m - k) * prev.get(k - 1, 0)
        if v:
            row[k] = v
    return row


def _n_step(prev: dict[int, int], m: int) -> dict[int, int]:
    # the same with the doubled x(1-x) N_n':
    # N_{n+1}[k] = 2k N_n[k] + (2n+3-2k) N_n[k-1]; here m = n+1
    row: dict[int, int] = {}
    for k in range(m + 1):
        v = 2 * k * prev.get(k, 0) + (2 * m + 1 - 2 * k) * prev.get(k - 1, 0)
        if v:
            row[k] = v
    return row


def cn_nn_tables(n_max: int) -> tuple[list[Poly], list[Poly]]:
    """(C_0..C_n, N_0..N_n) through their differential recurrences."""
    n_max = _order(n_max)
    steps = range(1, n_max + 1)
    return (
        [Poly.from_counts(r) for r in accumulate(steps, _c_step, initial={0: 1})],
        [Poly.from_counts(r) for r in accumulate(steps, _n_step, initial={0: 1})],
    )


def c_poly(n: int) -> Poly:
    """C_n(x): the ascent distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(reduce(_c_step, range(1, n + 1), {0: 1}))


def n_poly(n: int) -> Poly:
    """N_n(x): the left ascent-plateau distribution over Q_n."""
    n = _order(n)
    return Poly.from_counts(reduce(_n_step, range(1, n + 1), {0: 1}))


def m_poly(n: int) -> Poly:
    """M_n(x): the ascent-plateau distribution over Q_n, read off
    :func:`m_polys`."""
    return m_polys(n)[n]


def m_polys(n_max: int) -> list[Poly]:
    """M_0..M_{n_max} through the grammar derivative, one derivation step per
    order: the n-th derivative of y under the flag grammar is
    y * sum y^(2 ap) z^(2n - 2 ap).  A y exponent whose weight, the exponent
    less one, is odd raises IdentityViolationError."""
    out = []
    for d in _powers(parse_poly("y"), FLAG_GRAMMAR, n_max, every=True):
        counts: dict[int, int] = {}
        for (e,), c in coefficient_profile(d, ["y"]).items():
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


def gamma_weighted_sum(n: int, i: int) -> int:
    """sum_j 2^j gamma_{n,i,j}, the x^i coefficient of N_n for 1 <= i <= n."""
    n = _order(n)
    if type(i) is not int or not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i!r}, n={n}")
    return sum(2**j * gamma_number(n, i, j) for j in range(n))
