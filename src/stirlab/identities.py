"""A registry of named, machine-checkable identities.

Every check verifies exact equalities at desk scale and reports the smallest
witness on failure.  Wherever two independent computation paths exist
(exhaustive enumeration, grammar derivatives, recurrences, closed forms) the
check compares them; single-path checks say so in their description.

All but two checks declare their routes: each :class:`Compare` pairs two
functions of n that must agree, and one shared loop runs them and reports
the first mismatch as ``n=<n>: <label><left> != <right>``.  Every value
compared is a ``Poly`` with integer coefficients, a family in x being one
over ("x",); p(x^2) and p(-x) are maps of its terms, and a specialisation
of P_n, such as P_n(x,1,x) or P_n(xy,y,1), a map of its exponents
(:func:`_p_read`).  A series identity compares the coefficient of t^n/n!
on each side, built by the binomial convolution :func:`_convolve`.  The
test suite fails when two compared routes reach a common package function
outside a short allow-list (polynomial arithmetic, parsing, enumerators and
scans), and when a pair does not fail at an order where one side is off by
one.  A declared check whose bound is below every pair's start compares
nothing: it reports a skip, which exits 0 but is not a pass.
``fs-symmetry`` and ``alpha-bijection`` walk the words of Q_n in
hand-written runners.  A route or runner that raises fails its check: an
IdentityViolationError, a route's own guard, gives its message as the
witness, any other Exception ``n=<n>: <label>raised <Type>: <message>``
(without the order when a hand-written runner raised).

Use :func:`run_identity` / :func:`run_all`; results serialize to JSON as
``{"name", "params", "pass", "witness"?, "millis", "skipped"?}``.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

from . import actions, tables
from .errors import IdentityViolationError, ResourceLimitError, UnknownIdentityError
from .grammar import _powers, parse_poly
from .objects import iter_objects
from .polynomials import XYZ, Poly
from .stats import (
    STIRLING_STATS,
    distribution,
    perm_des,
    stirling_scans,
    stirling_stat_record,
)

Runner = Callable[[int], "str | None"]


@dataclass(frozen=True)
class Table:
    """A route read off the list that ``build(bound)`` makes once per run:
    its value at n is ``build(bound)[n]``.  Tables with the same ``build``
    share one build per run."""

    build: Callable[[int], Sequence]


@dataclass(frozen=True)
class Compare:
    """Two routes that must agree for every n >= start; ``label`` leads the
    left value in the witness."""

    left: Callable[[int], object] | Table
    right: Callable[[int], object] | Table
    label: str = ""
    start: int = 0


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _run_routes(compare: tuple[Compare, ...], bound: int) -> str | None:
    """The shared loop: for n up to bound, compare each pair that has
    started, evaluating every route once per n.  A route, or a table
    build, that raises is the witness ``n=<n>: <label>raised <Type>: ...``
    (a route's own IdentityViolationError keeps its message)."""
    built: dict = {}
    for n in range(bound + 1):
        values: dict = {}
        for c in compare:
            if n < c.start:
                continue
            for route in (c.left, c.right):
                if route in values:
                    continue
                try:
                    if isinstance(route, Table):
                        if route.build not in built:
                            built[route.build] = route.build(bound)
                        values[route] = built[route.build][n]
                    else:
                        values[route] = route(n)
                except IdentityViolationError:
                    raise
                except Exception as exc:
                    return f"n={n}: {c.label}{_raised(exc)}"
            if values[c.left] != values[c.right]:
                return f"n={n}: {c.label}{values[c.left]} != {values[c.right]}"
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    bound: int
    passed: bool
    witness: str | None
    millis: float
    skipped: bool = False  # the bound is below every declared start

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "params": {"max_n": self.bound},
            "pass": self.passed,
            "millis": self.millis,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.skipped:
            obj["skipped"] = True
        return obj


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    description: str
    default_bound: int
    max_bound: int
    runner: Runner
    compare: tuple[Compare, ...] = ()  # the declared routes, if any

    def run(self, bound: int | None = None) -> CheckResult:
        bound = self.default_bound if bound is None else _bound(bound)
        if bound > self.max_bound:
            raise ResourceLimitError(
                f"identity {self.name!r} is limited to bound {self.max_bound}"
            )
        if self.compare and bound < min(c.start for c in self.compare):
            return CheckResult(self.name, bound, True, None, 0.0, skipped=True)
        start = time.perf_counter()
        try:
            witness = self.runner(bound)
        except IdentityViolationError as exc:  # a route's own guard
            witness = str(exc)
        except Exception as exc:  # a hand-written runner that broke
            witness = _raised(exc)
        millis = (time.perf_counter() - start) * 1000.0
        return CheckResult(self.name, bound, witness is None, witness, round(millis, 3))


def _bound(bound: int) -> int:
    """bound, when it is a nonnegative int (no bool); ValueError otherwise."""
    if type(bound) is not int:
        raise ValueError(f"bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    return bound


REGISTRY: dict[str, IdentityCheck] = {}


def _register(name, description, default_bound, max_bound, *, compare=()):
    """Register a check.  With ``compare`` it runs the declared routes
    through the shared loop; without, the call decorates a hand-written
    runner."""
    compare = tuple(compare)

    def wrap(fn: Runner) -> Runner:
        REGISTRY[name] = IdentityCheck(
            name, description, default_bound, max_bound, fn, compare
        )
        return fn

    return wrap(functools.partial(_run_routes, compare)) if compare else wrap


def run_identity(name: str, bound: int | None = None) -> CheckResult:
    """Run one registered identity; unknown names raise UnknownIdentityError,
    bounds past the configured limit raise ResourceLimitError."""
    if name not in REGISTRY:
        raise UnknownIdentityError(f"unknown identity: {name!r}")
    return REGISTRY[name].run(bound)


def run_all(bound: int | None = None) -> list[CheckResult]:
    """Run every identity, in name order.  A requested bound caps each
    identity at min(bound, its own limit); None keeps every default."""
    results = []
    for name in sorted(REGISTRY):
        check = REGISTRY[name]
        eff = check.default_bound if bound is None else min(_bound(bound), check.max_bound)
        results.append(check.run(eff))
    return results


# ---------------------------------------------------------------------------
# helpers


def _poly(klass: str, *stats: str) -> Callable[[int], Poly]:
    """The route to the brute-force joint distribution of up to three
    statistics, the exponents of x, y and z in turn."""
    return lambda n: Poly(XYZ[:len(stats)], distribution(klass, n, list(stats)))


_tri = _poly("stirling", "lap", "dasc", "dp")


# (lap, dasc, dp) of a word from its statistics scan, for the per-word loops
# that would otherwise build a record to read three fields
_lap_dasc_dp = itemgetter(*map(STIRLING_STATS.index, ("lap", "dasc", "dp")))


def _convolve(f: Callable[[int], Poly], g: Callable[[int], Poly], n: int) -> Poly:
    """sum_k C(n,k) f(k) g(n-k)."""
    return sum(
        (f(k) * g(n - k) * math.comb(n, k) for k in range(n + 1)), Poly.zero()
    )


def _product(f: Sequence[Poly], g: Sequence[Poly]) -> list[Poly]:
    """The t^n/n! coefficients of F(t) G(t) for n < len(f), where F has the
    coefficients ``f`` and G the coefficients ``g``."""
    return [_convolve(f.__getitem__, g.__getitem__, n) for n in range(len(f))]


def _at_t0(p: Poly) -> Callable[[int], Poly]:
    """The route to the coefficients of a series constant in t."""
    return lambda n: p if n == 0 else Poly.zero()


_X = Poly.var("x")


def _x_squared(p: Poly) -> Poly:
    """p(x) -> p(x^2), for p in x alone."""
    return Poly.from_counts({2 * k: c for (k,), c in p.terms.items()})


def _minus_x(p: Poly) -> Poly:
    """p(x) -> p(-x), for p in x alone."""
    return Poly.from_counts({k: -c if k % 2 else c for (k,), c in p.terms.items()})


def _t_m_x2(bound: int) -> list[Poly]:
    """sum C(n,k) T_k(x) M_(n-k)(x^2) for n = 0..bound, the t^n/n!
    coefficients of T(x,t) M(x^2,t); M_0..M_bound from one derivation."""
    ts = [tables.t_poly(n) for n in range(bound + 1)]
    return _product(ts, [_x_squared(m) for m in tables.m_polys(bound)])


def _derivatives(seed: str, grammar: str) -> Table:
    """The route to D^n(seed) under the grammar ``tables.<grammar>``: orders
    0..bound in one pass, one derivation step per order.  The grammar is read
    when the table is built, so a grammar patched into ``tables`` is seen."""

    def build(bound: int) -> list[Poly]:
        return _powers(parse_poly(seed), getattr(tables, grammar), bound, every=True)

    return Table(build)


def _flag_brute(klass: str, stat: str, exps) -> Callable[[int], Poly]:
    """The route to the brute-force distribution of one statistic, a value v
    at order n weighted by the x, y, z exponents ``exps(n, v)``."""

    def brute(n: int) -> Poly:
        if n or klass == "stirling":
            counts = distribution(klass, n, [stat])
        else:  # B_0 holds the empty signed permutation alone
            counts = {(0,): 1}
        return Poly(XYZ, ((exps(n, v), c) for (v,), c in counts.items()))

    return brute


def _p_read(names: tuple[str, ...], at) -> Callable[[int], Poly]:
    """The route to a specialisation of P_n from its table: each term
    x^i y^j z^k moves to the exponents ``at(i, j, k)`` over ``names``."""
    return lambda n: Poly(names, (
        (at(i, j, k), c) for (i, j, k), c in tables.p_poly(n).terms.items()
    ))


# C_n and N_n from their differential recurrences, and N_0..N_bound
_C, _N = (lambda n: tables.c_poly(n)), (lambda n: tables.n_poly(n))


def _ns(bound: int) -> list[Poly]:
    return [tables.n_poly(n) for n in range(bound + 1)]


# ---------------------------------------------------------------------------
# background identities


_asc, _des, _plat = (_poly("stirling", stat) for stat in ("asc", "des", "plat"))

_GS_ORDER = 10


def _stirling_series(k: int) -> Poly:
    """sum_n S(n+k, n) x^n through x^10."""
    return Poly.from_counts(
        {n: tables.stirling2(n + k, n) for n in range(_GS_ORDER + 1)}
    )


def _des_negbinom(k: int) -> Poly:
    """The descent polynomial of Q_k times sum_m C(m+2k, 2k) x^m, through
    x^10."""
    orders = range(_GS_ORDER + 1)
    negbinom = Poly.from_counts({m: math.comb(m + 2 * k, 2 * k) for m in orders})
    product = _des(k) * negbinom
    return Poly.from_counts({m: c for (m,), c in product.terms.items() if m in orders})


_register(
    "gessel-stanley",
    "(1-x)^(2k+1) sum_n S(n+k, n) x^n equals the descent polynomial of Q_k; "
    "checked at series order 10 for k up to the bound",
    4, 5,
    compare=[Compare(_stirling_series, _des_negbinom)],
)

_register(
    "bona-equidistribution",
    "ascents, descents and plateaus are equidistributed over Q_n, and so are "
    "the bistatistics (lap, plat) and (lap, asc)",
    6, 7,
    compare=[
        Compare(_des, _asc, "des "),
        Compare(_plat, _asc, "plat "),
        Compare(_poly("stirling", "lap", "plat"), _poly("stirling", "lap", "asc"),
                "(lap, plat) "),
    ],
)

_register(
    "matching-M",
    "odd-larger-entry blocks over matchings match ascent-plateaus over Q_n",
    6, 7,
    compare=[Compare(_poly("matching", "ol"), _poly("stirling", "ap"))],
)

_register(
    "matching-N",
    "even-larger-entry blocks over matchings match left ascent-plateaus over Q_n",
    6, 7,
    compare=[Compare(_poly("matching", "el"), _poly("stirling", "lap"))],
)


def _m_cleared(bound: int) -> list[Poly]:
    """M(x,t)^2 (x - e^(2t(x-1))) coefficient-wise: the factor is x - 1 at
    t^0 and -(2x-2)^j at t^j/j!, j >= 1."""
    factor = [_X - 1] + [-(2 * _X - 2) ** j for j in range(1, bound + 1)]
    ms = tables.m_polys(bound)
    return _product(_product(ms, ms), factor)


def _n_cleared(bound: int) -> list[Poly]:
    """N(x,t)^2 (1 - x e^(2t(1-x))) coefficient-wise: the factor is 1 - x at
    t^0 and -x(2-2x)^j at t^j/j!, j >= 1."""
    factor = [1 - _X] + [-_X * (2 - 2 * _X) ** j for j in range(1, bound + 1)]
    ns = _ns(bound)
    return _product(_product(ns, ns), factor)


_register(
    "egf-M-squared",
    "M(x,t)^2 (x - e^(2t(x-1))) = x - 1 in cleared form; M_n from the grammar "
    "derivative, the closed form from the series construction",
    8, 12,
    compare=[Compare(Table(_m_cleared), _at_t0(_X - 1))],
)

_register(
    "egf-N-squared",
    "N(x,t)^2 (1 - x e^(2t(1-x))) = 1 - x in cleared form; N_n from its "
    "recurrence, the closed form from the series construction",
    8, 12,
    compare=[Compare(Table(_n_cleared), _at_t0(1 - _X))],
)


_register(
    "signed-des-2nA",
    "type-A descents over B_n give 2^n A_n(x)",
    6, 7,
    compare=[Compare(
        _poly("signed", "desA"), lambda n: tables.a_poly(n) * 2**n, start=1
    )],
)


_register(
    "nn-aa-convolutions",
    "2^n x A_n = sum C(n,k) N_k N_(n-k) and B_n = sum C(n,k) N_k M_(n-k); "
    "B_n brute-forced through n=6, by its recurrence table beyond",
    7, 10,
    compare=[
        # the x factor on the left forces n >= 1
        Compare(
            lambda n: tables.a_poly(n) * _X * 2**n,
            Table(lambda bound: _product(_ns(bound), _ns(bound))),
            "2^n x A_n ",
            start=1,
        ),
        Compare(
            lambda n: _poly("signed", "desB")(n) if 1 <= n <= 6 else tables.b_poly(n),
            Table(lambda bound: _product(_ns(bound), tables.m_polys(bound))),
            "B_n ",
        ),
    ],
)

_register(
    "flag-adin",
    "F_n(x) = (1+x)^n A_n(x), flag descents brute-forced over B_n",
    6, 7,
    compare=[Compare(_poly("signed", "fdes"), lambda n: tables.f_poly(n), start=1)],
)


# ---------------------------------------------------------------------------
# grammar expansions


_register(
    "grammar-prop-all",
    "the five weight expansions of the flag grammar derivative (seeds xy, "
    "y^2, yz, y, z) match brute-force distributions",
    5, 6,
    compare=[
        Compare(
            _derivatives(seed, "FLAG_GRAMMAR"),
            _flag_brute(klass, stat, exps),
            f"D^n({seed}) ",
        )
        for seed, klass, stat, exps in (
            ("x*y", "signed", "fdes", lambda n, v: (1, v + 1, 2 * n - v)),
            ("y^2", "signed", "desA", lambda n, v: (0, 2 * v + 2, 2 * n - 2 * v)),
            ("y*z", "signed", "desB", lambda n, v: (0, 2 * v + 1, 2 * n - 2 * v + 1)),
            ("y", "stirling", "ap", lambda n, v: (0, 2 * v + 1, 2 * n - 2 * v)),
            ("z", "stirling", "lap", lambda n, v: (0, 2 * v, 2 * n - 2 * v + 1)),
        )
    ],
)

_register(
    "flag-ap-grammar",
    "the flag grammar derivative of x encodes the flag ascent-plateau "
    "distribution",
    6, 7,
    compare=[Compare(
        _derivatives("x", "FLAG_GRAMMAR"),
        _flag_brute("stirling", "fap", lambda n, f: (1, f, 2 * n - f)),
    )],
)

_register(
    "flag-convolution",
    "F_n(x) = sum C(n,k) T_k(x) M_(n-k)(x^2); flag descents brute-forced, "
    "the right side from tables and the grammar",
    6, 7,
    compare=[Compare(_poly("signed", "fdes"), Table(_t_m_x2), start=1)],
)

_register(
    "flag-dual",
    "x F_n(x) = sum C(n,k) T_k(x) N_(n-k)(x^2) for n >= 1; flag descents "
    "brute-forced, the right side from tables",
    6, 7,
    compare=[Compare(
        lambda n: _poly("signed", "fdes")(n) * _X,
        lambda n: _convolve(tables.t_poly, lambda k: _x_squared(tables.n_poly(k)), n),
        start=1,
    )],
)


# ---------------------------------------------------------------------------
# flag ascent-plateau numbers


_register(
    "t-recurrence",
    "the three-term T(n, k) recurrence matches the brute-force flag "
    "ascent-plateau distribution",
    6, 7,
    compare=[Compare(lambda n: tables.t_poly(n), _poly("stirling", "fap"))],
)

_register(
    "t-self-inverse",
    "sum C(n,k) T_k(x) T_(n-k)(-x) collapses to the Kronecker delta "
    "(single path: tables only)",
    10, 20,
    compare=[Compare(
        lambda n: _convolve(tables.t_poly, lambda k: _minus_x(tables.t_poly(k)), n),
        _at_t0(Poly.one()),
    )],
)


_register(
    "t-egf-product",
    "T(x,t) M(x^2,t) = F(x,t) as truncated series; T and F from tables, M "
    "from the grammar derivative",
    8, 12,
    compare=[Compare(Table(_t_m_x2), lambda n: tables.f_poly(n))],
)


# ---------------------------------------------------------------------------
# the trivariate refinement


_register(
    "asc-plat-decomposition",
    "asc = lap + dasc and plat = lap + dp: the brute-force (lap, asc) and "
    "(lap, plat) distributions are P_n(xy,y,1) and P_n(xy,1,y) from tables",
    6, 7,
    compare=[
        Compare(_poly("stirling", "lap", "asc"),
                _p_read(XYZ[:2], lambda i, j, k: (i, i + j)), "(lap, asc) "),
        Compare(_poly("stirling", "lap", "plat"),
                _p_read(XYZ[:2], lambda i, j, k: (i, i + k)), "(lap, plat) "),
    ],
)


_register(
    "p-grammar",
    "the refining grammar derivative of z encodes P_n against brute force",
    5, 6,
    compare=[Compare(
        _derivatives("z", "REFINED_GRAMMAR"),
        lambda n: Poly(("p", "q", "x", "y", "z"), (
            ((k, j, i, i, 2 * n - 2 * i - j - k + 1), c)
            for (i, j, k), c in _tri(n).terms.items()
        )),
    )],
)

_register(
    "p-recurrences",
    "both the index recurrence and the differential recurrence for P_n "
    "match the brute-force joint (lap, dasc, dp) distribution",
    6, 7,
    compare=[
        Compare(lambda n: tables.p_poly(n), _tri, "index recurrence "),
        Compare(
            Table(lambda bound: tables.p_polys_differential(bound)),
            _tri,
            "differential recurrence ",
        ),
    ],
)

_register(
    "p-specializations",
    "P_n(x,x,1) = P_n(x,1,x) = C_n(x) and P_n(x,1,1) = N_n(x) from tables",
    7, 10,
    compare=[
        Compare(_p_read(("x",), lambda i, j, k: (i + j,)), _C, "P(x,x,1) "),
        Compare(_p_read(("x",), lambda i, j, k: (i + k,)), _C, "P(x,1,x) "),
        Compare(_p_read(("x",), lambda i, j, k: (i,)), _N, "P(x,1,1) "),
    ],
)

_register(
    "cn-nn-recurrences",
    "the differential recurrences for C_n and N_n match brute force",
    6, 7,
    compare=[
        Compare(_C, _asc, "C_n "),
        Compare(_N, _poly("stirling", "lap"), "N_n "),
    ],
)


# ---------------------------------------------------------------------------
# the group action and the gamma vector


@_register(
    "fs-symmetry",
    "P_n(x,y,z) = P_n(x,z,y) by the toggle action: each orbit of Q_n holds "
    "2^d words, one for each way to split d = dasc + dp, all of one lap",
    6, 7,
)
def _fs_symmetry(bound: int) -> str | None:
    for n in range(bound + 1):
        q_n = stirling_scans(n)  # each toggle's output must lie in Q_n
        unwalked = dict.fromkeys(q_n)  # the table's own keys, dropped as walked
        for rep, record in q_n.items():
            lap, d, dp = _lap_dasc_dp(record)
            if dp:
                continue
            # walk the orbit: its k-th member has the s toggles of k ^ (k >> 1) on
            for k, word in enumerate(actions._walk(rep, q_n.__contains__)):
                s = (k ^ k >> 1).bit_count()
                if _lap_dasc_dp(q_n[word]) != (lap, d - s, s):
                    a, b = stirling_stat_record(rep), stirling_stat_record(word)
                    return f"n={n}, word {rep}: {s} of {d} toggles sent {a} to {b}"
                if unwalked.pop(word, True):  # marked off already
                    return f"n={n}: the orbit of {rep} walks {word} twice"
            if k + 1 != 2 ** d:
                return f"n={n}: the orbit of {rep} has {k + 1} members, not 2^{d}"
        if u := len(unwalked):
            return f"n={n}: the orbits walk {len(q_n) - u} words, {u} unwalked, of {len(q_n)}"
    return None


def _brute_gamma(n: int) -> Poly:
    """The gamma vector read off brute-force P_n: its terms free of z."""
    return Poly(XYZ, {e: c for e, c in _tri(n).terms.items() if e[2] == 0})


def _gamma_expanded(n: int) -> Poly:
    """sum gamma_(n,i,j) x^i (y+z)^j from the gamma table."""
    return Poly(XYZ, (
        ((i, m, j - m), g * math.comb(j, m))
        for (i, j, _), g in tables.g_poly(n).terms.items()
        for m in range(j + 1)
    ))


_register(
    "gamma-expansion",
    "P_n = sum gamma_(n,i,j) x^i (y+z)^j with gamma counted by "
    "descent-plateau-free words; table gamma against brute-force gamma",
    7, 7,
    compare=[
        Compare(lambda n: tables.g_poly(n), _brute_gamma, "gamma "),
        Compare(_gamma_expanded, _tri, "expansion "),
    ],
)

_register(
    "gamma-grammar",
    "the collapsed grammar derivative of w encodes the gamma vector",
    8, 12,
    compare=[Compare(
        _derivatives("w", "GAMMA_GRAMMAR"),
        lambda n: Poly(("u", "v", "w"), {
            (i, j, 2 * n + 1 - 2 * i - j): val
            for (i, j, _), val in tables.g_poly(n).terms.items()
        }),
    )],
)


def _gamma_pulled(bound: int) -> list[Poly]:
    """G_0, then G_n by the three-term recurrence from differential G_(n-1)."""
    gs = tables.g_polys_differential(bound)
    return gs[:1] + [
        Poly(XYZ, {
            (i, j, 0): i * g.coefficient(i, j - 1, 0)
            + 2 * (j + 1) * g.coefficient(i - 1, j + 1, 0)
            + (2 * n + 1 - 2 * i - j) * g.coefficient(i - 1, j, 0)
            for i in range(1, n + 1) for j in range(n + 1)
        })
        for n, g in enumerate(gs[:-1], 1)
    ]


_register(
    "gamma-recurrence",
    "the three-term gamma recurrence holds on the values produced by the "
    "independent differential path",
    8, 12,
    compare=[Compare(Table(_gamma_pulled), lambda n: tables.g_poly(n), start=1)],
)

_register(
    "gamma-vanishing",
    "gamma_(n,i,j) vanishes whenever i + j > n",
    8, 12,
    compare=[Compare(
        lambda n: tables.g_poly(n),
        Table(lambda bound: [
            Poly(XYZ, {e: c for e, c in g.terms.items() if e[0] + e[1] <= n})
            for n, g in enumerate(tables.g_polys_differential(bound))
        ]),
    )],
)

_register(
    "g-recurrence",
    "the index and differential paths to G_n(x, y) agree",
    10, 20,
    compare=[Compare(
        lambda n: tables.g_poly(n), Table(lambda b: tables.g_polys_differential(b))
    )],
)

_register(
    "n-closed-form",
    "the closed form of N_n(x) matches its recurrence",
    8, 12,
    compare=[Compare(lambda n: tables.n_poly_closed(n), _N)],
)


def _gamma_sums(n: int) -> Poly:
    """sum_i x^i sum_j 2^j gamma_(n,i,j), from the gamma table."""
    sums: dict[int, int] = {}
    for (i, j, _), c in tables.g_poly(n).terms.items():
        sums[i] = sums.get(i, 0) + (c << j)
    return Poly.from_counts(sums)


_register(
    "gamma-weighted-sums",
    "sum_j 2^j gamma_(n,i,j) equals the x^i coefficient of N_n from its "
    "recurrence and of the flag grammar derivative of z",
    8, 12,
    compare=[
        Compare(_gamma_sums, _N, start=1),
        # D^n(z) = sum_i N_n[i] y^(2i) z^(2n-2i+1), as in grammar-prop-all
        Compare(_derivatives("z", "FLAG_GRAMMAR"), lambda n: Poly(XYZ, {
            (0, 2 * i, 2 * n - 2 * i + 1): c for (i,), c in _gamma_sums(n).terms.items()
        }), "D^n(z) ", start=1),
    ],
)

_register(
    "gamma-eulerian",
    "gamma_(n, n-k, k) equals the Eulerian number <n, k>",
    8, 12,
    # sum_k gamma_(n,n-k,k) x^k reads the terms of G_n with i + j = n
    compare=[Compare(lambda n: Poly.from_counts(
        {j: c for (i, j, _), c in tables.g_poly(n).terms.items() if i + j == n}
    ), lambda n: tables.a_poly(n), start=1)],
)


# ---------------------------------------------------------------------------
# the bijection with permutations


_S3_TABLE = [
    ((1, 2, 3), (1, 1, 2, 2, 3, 3), frozenset(), (1, 1, 2, 2, 3, 3)),
    ((1, 3, 2), (1, 1, 3, 3, 2, 2), frozenset({2}), (1, 1, 2, 3, 3, 2)),
    ((2, 1, 3), (2, 2, 1, 1, 3, 3), frozenset({1}), (1, 2, 2, 1, 3, 3)),
    ((2, 3, 1), (2, 2, 3, 3, 1, 1), frozenset({1}), (1, 2, 2, 3, 3, 1)),
    ((3, 1, 2), (3, 3, 1, 1, 2, 2), frozenset({1}), (1, 3, 3, 1, 2, 2)),
    ((3, 2, 1), (3, 3, 2, 2, 1, 1), frozenset({1, 2}), (1, 2, 3, 3, 2, 1)),
]


def _beta_stages(n: int, q_n: dict, normal: dict) -> str | None:
    """Beta-normalize Q_n one value at a time.  Stage x holds the words of
    Q_n that the beta moves of 1..x fix: stage 0 is Q_n, and stage x keeps
    the words of stage x-1 that the move of x fixes.  Every other word of
    stage x-1 is slid once; its image must be a word of stage x (the
    slide's check) with the same alpha image.  Stage n must be the
    normalized words.  By induction on x, beta_set(w, 1..n) is then a
    normalized word with the alpha image of w for every w in Q_n, and no
    normalized word moves: |Q_n| - n! slides in all, one per word that is
    not normalized."""
    alpha, slide = actions._alpha, actions._slide_left
    beta_first, beta_fixes = actions._beta_first, actions._beta_fixes
    stage = q_n  # the scan table's own words; later stages list them
    for x in range(1, n + 1):
        def in_stage(word: tuple, x=x) -> bool:
            return word in q_n and beta_fixes(word, x)

        kept = []
        for word in stage:
            if not (first := beta_first(word, x)):
                kept.append(word)
            elif alpha(slide(word, first, x, in_stage)) != alpha(word):
                return f"n={n}: beta normalization of {word} changed its alpha image"
        stage = kept
    for word in stage:
        if word not in normal:
            return f"n={n}: beta normalization of {word} gave {word}"
    if len(stage) != len(normal):
        last = set(stage)
        moved = next(w for w in normal if w not in last)
        return f"n={n}: beta moved the normalized word {moved}"
    return None


@_register(
    "alpha-bijection",
    "alpha restricted to the normalized words (dp = 0 and lap + dasc = n) is "
    "a bijection onto permutations carrying dasc to des; beta normalization "
    "reaches that set; includes the six-line order-3 table",
    6, 7,
)
def _alpha_bijection(bound: int) -> str | None:
    for n in range(bound + 1):
        q_n = stirling_scans(n)
        # each normalized word's alpha image, computed once and read below
        normal: dict[tuple, tuple] = {}
        for word, record in q_n.items():
            lap, dasc, dp = _lap_dasc_dp(record)
            if dp == 0 and lap + dasc == n:
                image = actions._alpha(word)
                des = perm_des(image)
                if dasc != des or lap != n - des:
                    return f"n={n}: statistics of {word} do not match des {image}"
                normal[word] = image
        if witness := _beta_stages(n, q_n, normal):
            return witness
        if len(normal) != math.factorial(n):
            return f"n={n}: {len(normal)} normalized words, expected {n}!"
        if len(set(normal.values())) != math.factorial(n):
            return f"n={n}: alpha is not injective on the normalized words"
        for pi in iter_objects("permutation", n):
            word = actions.alpha_inverse(pi)
            if normal.get(word) != pi:
                return f"n={n}: alpha_inverse({pi}) = {word} is wrong"
    if bound >= 3:
        for pi, doubled, s, word in _S3_TABLE:
            got = actions.alpha_inverse_trace(pi)
            if got != (doubled, s, word):
                return f"order-3 table row {pi}: {got}"
    return None
