"""A registry of named, machine-checkable identities.

Every check verifies exact equalities at desk scale and reports the smallest
witness on failure.  Wherever two independent computation paths exist
(exhaustive enumeration, grammar derivatives, recurrences, closed forms) the
check compares them; single-path checks say so in their description.

Use :func:`run_identity` / :func:`run_all`; results serialize to JSON as
``{"name", "params", "pass", "witness", "millis"}``.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable

from . import actions, tables
from .errors import ResourceLimitError
from .grammar import derive_n, parse_poly, substitute
from .objects import iter_objects
from .polynomials import (
    XYZ,
    Poly,
    QPoly,
    egf_constant,
    egf_exp_linear,
    egf_first_mismatch,
    egf_from_sequence,
    egf_mul,
    egf_sub,
)
from .stats import (
    STIRLING_STATS,
    _stirling_scan,
    distribution,
    perm_des,
    stirling_stat_record,
)

Runner = Callable[[int], "str | None"]


class UnknownIdentityError(ValueError):
    """The requested identity name is not registered."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    bound: int
    passed: bool
    witness: str | None
    millis: float

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "params": {"max_n": self.bound},
            "pass": self.passed,
            "millis": self.millis,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    description: str
    default_bound: int
    max_bound: int
    classes: tuple[str, ...]  # object families it enumerates exhaustively
    runner: Runner

    def run(self, bound: int | None = None) -> CheckResult:
        if bound is None:
            bound = self.default_bound
        if bound < 0:
            raise ValueError(f"bound must be nonnegative, got {bound}")
        if bound > self.max_bound:
            raise ResourceLimitError(
                f"identity {self.name!r} is limited to bound {self.max_bound}"
            )
        start = time.perf_counter()
        witness = self.runner(bound)
        millis = (time.perf_counter() - start) * 1000.0
        return CheckResult(self.name, bound, witness is None, witness, round(millis, 3))


REGISTRY: dict[str, IdentityCheck] = {}


def _register(name, description, default_bound, max_bound, classes=()):
    def wrap(fn: Runner) -> Runner:
        REGISTRY[name] = IdentityCheck(
            name, description, default_bound, max_bound, tuple(classes), fn
        )
        return fn

    return wrap


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
        eff = check.default_bound if bound is None else min(bound, check.max_bound)
        results.append(check.run(eff))
    return results


def qn_only_names() -> list[str]:
    """Identities whose exhaustive part never enumerates signed permutations."""
    return sorted(
        name for name, c in REGISTRY.items() if "signed" not in c.classes
    )


# ---------------------------------------------------------------------------
# helpers


def _poly(klass: str, n: int, stat: str) -> QPoly:
    return distribution(klass, n, [stat]).poly()


def _tri(n: int) -> Poly:
    return distribution("stirling", n, ["lap", "dasc", "dp"]).tripoly()


# (lap, dasc, dp) of a word from its statistics scan, for the per-word loops
# that would otherwise build a record to read three fields
_lap_dasc_dp = itemgetter(*map(STIRLING_STATS.index, ("lap", "dasc", "dp")))


def _truncated_mul(a: QPoly, b: QPoly, order: int) -> QPoly:
    return QPoly((a * b).coeffs[: order + 1])


# ---------------------------------------------------------------------------
# background identities


@_register(
    "gessel-stanley",
    "(1-x)^(2k+1) sum_n S(n+k, n) x^n equals the descent polynomial of Q_k; "
    "checked at series order 10 for k up to the bound",
    4,
    5,
    classes=("stirling",),
)
def _gessel_stanley(bound: int) -> str | None:
    order = 10
    for k in range(bound + 1):
        lhs = QPoly.from_counts(
            {n: tables.stirling2(n + k, n) for n in range(order + 1)}
        )
        negbinom = QPoly.from_counts(
            {m: math.comb(m + 2 * k, 2 * k) for m in range(order + 1)}
        )
        rhs = _truncated_mul(_poly("stirling", k, "des"), negbinom, order)
        if lhs != rhs:
            return f"k={k}: {lhs} != {rhs}"
    return None


@_register(
    "bona-equidistribution",
    "ascents, descents and plateaus are equidistributed over Q_n",
    6,
    7,
    classes=("stirling",),
)
def _bona(bound: int) -> str | None:
    for n in range(bound + 1):
        asc = _poly("stirling", n, "asc")
        des = _poly("stirling", n, "des")
        plat = _poly("stirling", n, "plat")
        if not (asc == des == plat):
            return f"n={n}: asc {asc} / des {des} / plat {plat}"
    return None


@_register(
    "matching-M",
    "odd-larger-entry blocks over matchings match ascent-plateaus over Q_n",
    6,
    7,
    classes=("stirling", "matching"),
)
def _matching_m(bound: int) -> str | None:
    for n in range(bound + 1):
        ol = _poly("matching", n, "ol")
        ap = _poly("stirling", n, "ap")
        if ol != ap:
            return f"n={n}: {ol} != {ap}"
    return None


@_register(
    "matching-N",
    "even-larger-entry blocks over matchings match left ascent-plateaus over Q_n",
    6,
    7,
    classes=("stirling", "matching"),
)
def _matching_n(bound: int) -> str | None:
    for n in range(bound + 1):
        el = _poly("matching", n, "el")
        lap = _poly("stirling", n, "lap")
        if el != lap:
            return f"n={n}: {el} != {lap}"
    return None


@_register(
    "egf-M-squared",
    "M(x,t)^2 (x - e^(2t(x-1))) = x - 1 in cleared form; M_n from the grammar "
    "derivative, the closed form from the series construction",
    8,
    12,
)
def _egf_m_squared(order: int) -> str | None:
    m = egf_from_sequence([tables.m_poly(n) for n in range(order + 1)])
    factor = egf_sub(
        egf_constant(QPoly.x(), order), egf_exp_linear(QPoly((-2, 2)), order)
    )
    lhs = egf_mul(egf_mul(m, m), factor)
    rhs = egf_constant(QPoly((-1, 1)), order)
    bad = egf_first_mismatch(lhs, rhs)
    if bad is not None:
        return f"t-order {bad}: {lhs.coefficient(bad)} != {rhs.coefficient(bad)}"
    return None


@_register(
    "egf-N-squared",
    "N(x,t)^2 (1 - x e^(2t(1-x))) = 1 - x in cleared form; N_n from its "
    "recurrence, the closed form from the series construction",
    8,
    12,
)
def _egf_n_squared(order: int) -> str | None:
    _, ns = tables.cn_nn_tables(order)
    nser = egf_from_sequence(ns)
    x = QPoly.x()
    xexp = egf_exp_linear(QPoly((2, -2)), order).map_coeffs(lambda p: p * x)
    factor = egf_sub(egf_constant(QPoly.one(), order), xexp)
    lhs = egf_mul(egf_mul(nser, nser), factor)
    rhs = egf_constant(QPoly((1, -1)), order)
    bad = egf_first_mismatch(lhs, rhs)
    if bad is not None:
        return f"t-order {bad}: {lhs.coefficient(bad)} != {rhs.coefficient(bad)}"
    return None


@_register(
    "signed-des-2nA",
    "type-A descents over B_n give 2^n A_n(x)",
    6,
    7,
    classes=("signed",),
)
def _signed_des(bound: int) -> str | None:
    for n in range(1, bound + 1):
        lhs = _poly("signed", n, "desA")
        rhs = tables.a_poly(n) * 2**n
        if lhs != rhs:
            return f"n={n}: {lhs} != {rhs}"
    return None


@_register(
    "nn-aa-convolutions",
    "2^n x A_n = sum C(n,k) N_k N_(n-k) and B_n = sum C(n,k) N_k M_(n-k); "
    "B_n brute-forced through n=6, by its recurrence table beyond",
    7,
    10,
    classes=("signed",),
)
def _nn_aa(bound: int) -> str | None:
    _, ns = tables.cn_nn_tables(bound)
    ms = [tables.m_poly(k) for k in range(bound + 1)]
    for n in range(bound + 1):
        rhs_a = QPoly.zero()
        rhs_b = QPoly.zero()
        for k in range(n + 1):
            rhs_a = rhs_a + ns[k] * ns[n - k] * math.comb(n, k)
            rhs_b = rhs_b + ns[k] * ms[n - k] * math.comb(n, k)
        if n >= 1:  # the x factor on the left forces n >= 1
            lhs_a = tables.a_poly(n) * QPoly.x() * 2**n
            if lhs_a != rhs_a:
                return f"n={n}: 2^n x A_n {lhs_a} != {rhs_a}"
        lhs_b = _poly("signed", n, "desB") if 1 <= n <= 6 else tables.b_poly(n)
        if lhs_b != rhs_b:
            return f"n={n}: B_n {lhs_b} != {rhs_b}"
    return None


@_register(
    "flag-adin",
    "F_n(x) = (1+x)^n A_n(x), flag descents brute-forced over B_n",
    6,
    7,
    classes=("signed",),
)
def _flag_adin(bound: int) -> str | None:
    for n in range(1, bound + 1):
        lhs = _poly("signed", n, "fdes")
        rhs = tables.f_poly(n)
        if lhs != rhs:
            return f"n={n}: {lhs} != {rhs}"
    return None


# ---------------------------------------------------------------------------
# grammar expansions


@_register(
    "grammar-prop-all",
    "the five weight expansions of the flag grammar derivative (seeds xy, "
    "y^2, yz, y, z) match brute-force distributions",
    5,
    6,
    classes=("signed", "stirling"),
)
def _grammar_prop(bound: int) -> str | None:
    for n in range(bound + 1):
        # seed, its statistic, and the (x, y, z) exponents of a value v
        cases = [
            ("x*y", "signed", "fdes", lambda v: (1, v + 1, 2 * n - v)),
            ("y^2", "signed", "desA", lambda v: (0, 2 * v + 2, 2 * n - 2 * v)),
            ("y*z", "signed", "desB", lambda v: (0, 2 * v + 1, 2 * n - 2 * v + 1)),
            ("y", "stirling", "ap", lambda v: (0, 2 * v + 1, 2 * n - 2 * v)),
            ("z", "stirling", "lap", lambda v: (0, 2 * v, 2 * n - 2 * v + 1)),
        ]
        for seed, klass, stat, exps in cases:
            if n or klass == "stirling":
                counts = distribution(klass, n, [stat]).counts
            else:  # B_0 holds the empty signed permutation alone
                counts = {(0,): 1}
            expected = Poly(XYZ, ((exps(v), c) for (v,), c in counts.items()))
            got = derive_n(parse_poly(seed), tables.FLAG_GRAMMAR, n)
            if got != expected:
                return f"n={n}, seed {seed}: {got} != {expected}"
    return None


@_register(
    "flag-ap-grammar",
    "the flag grammar derivative of x encodes the flag ascent-plateau "
    "distribution",
    6,
    7,
    classes=("stirling",),
)
def _flag_ap_grammar(bound: int) -> str | None:
    for n in range(bound + 1):
        expected = Poly(XYZ, {
            (1, f, 2 * n - f): c
            for (f,), c in distribution("stirling", n, ["fap"]).counts.items()
        })
        got = derive_n(parse_poly("x"), tables.FLAG_GRAMMAR, n)
        if got != expected:
            return f"n={n}: {got} != {expected}"
    return None


@_register(
    "flag-convolution",
    "F_n(x) = sum C(n,k) T_k(x) M_(n-k)(x^2); flag descents brute-forced, "
    "the right side from tables and the grammar",
    6,
    7,
    classes=("signed",),
)
def _flag_convolution(bound: int) -> str | None:
    for n in range(1, bound + 1):
        lhs = _poly("signed", n, "fdes")
        rhs = QPoly.zero()
        for k in range(n + 1):
            rhs = rhs + (
                tables.t_poly(k)
                * tables.m_poly(n - k).compose_x_squared()
                * math.comb(n, k)
            )
        if lhs != rhs:
            return f"n={n}: {lhs} != {rhs}"
    return None


@_register(
    "flag-dual",
    "x F_n(x) = sum C(n,k) T_k(x) N_(n-k)(x^2) for n >= 1; flag descents "
    "brute-forced, the right side from tables",
    6,
    7,
    classes=("signed",),
)
def _flag_dual(bound: int) -> str | None:
    for n in range(1, bound + 1):
        lhs = _poly("signed", n, "fdes") * QPoly.x()
        rhs = QPoly.zero()
        for k in range(n + 1):
            rhs = rhs + (
                tables.t_poly(k)
                * tables.n_poly(n - k).compose_x_squared()
                * math.comb(n, k)
            )
        if lhs != rhs:
            return f"n={n}: {lhs} != {rhs}"
    return None


# ---------------------------------------------------------------------------
# flag ascent-plateau numbers


@_register(
    "t-recurrence",
    "the three-term T(n, k) recurrence matches the brute-force flag "
    "ascent-plateau distribution",
    6,
    7,
    classes=("stirling",),
)
def _t_recurrence(bound: int) -> str | None:
    for n in range(bound + 1):
        lhs = tables.t_poly(n)
        rhs = _poly("stirling", n, "fap")
        if lhs != rhs:
            return f"n={n}: {lhs} != {rhs}"
    return None


@_register(
    "t-self-inverse",
    "sum C(n,k) T_k(x) T_(n-k)(-x) collapses to the Kronecker delta "
    "(single path: tables only)",
    10,
    20,
)
def _t_self_inverse(bound: int) -> str | None:
    for n in range(bound + 1):
        acc = QPoly.zero()
        for k in range(n + 1):
            acc = acc + (
                tables.t_poly(k)
                * tables.t_poly(n - k).compose_scaled(-1)
                * math.comb(n, k)
            )
        expected = QPoly.one() if n == 0 else QPoly.zero()
        if acc != expected:
            return f"n={n}: {acc} != {expected}"
    return None


@_register(
    "t-egf-product",
    "T(x,t) M(x^2,t) = F(x,t) as truncated series; T and F from tables, M "
    "from the grammar derivative",
    8,
    12,
)
def _t_egf_product(order: int) -> str | None:
    t = egf_from_sequence([tables.t_poly(n) for n in range(order + 1)])
    mx2 = egf_from_sequence(
        [tables.m_poly(n).compose_x_squared() for n in range(order + 1)]
    )
    f = egf_from_sequence([tables.f_poly(n) for n in range(order + 1)])
    bad = egf_first_mismatch(egf_mul(t, mx2), f)
    if bad is not None:
        return f"t-order {bad}"
    return None


# ---------------------------------------------------------------------------
# the trivariate refinement


@_register(
    "asc-plat-decomposition",
    "asc = lap + dasc and plat = lap + dp hold word by word",
    6,
    7,
    classes=("stirling",),
)
def _asc_plat(bound: int) -> str | None:
    for n in range(bound + 1):
        for word in iter_objects("stirling", n):
            asc, _, plat, _, lap, _, dasc, dp = _stirling_scan(word)
            if asc != lap + dasc or plat != lap + dp:
                return f"n={n}, word {word}: {stirling_stat_record(word)}"
    return None


@_register(
    "p-grammar",
    "the refining grammar derivative of z encodes P_n against brute force",
    5,
    6,
    classes=("stirling",),
)
def _p_grammar(bound: int) -> str | None:
    for n in range(bound + 1):
        expected = Poly(
            ("p", "q", "x", "y", "z"),
            (
                ((k, j, i, i, 2 * n - 2 * i - j - k + 1), c)
                for (i, j, k), c in _tri(n).terms.items()
            ),
        )
        got = derive_n(parse_poly("z"), tables.REFINED_GRAMMAR, n)
        if got != expected:
            return f"n={n}: {got} != {expected}"
    return None


@_register(
    "p-recurrences",
    "both the index recurrence and the differential recurrence for P_n "
    "match the brute-force joint (lap, dasc, dp) distribution",
    6,
    7,
    classes=("stirling",),
)
def _p_recurrences(bound: int) -> str | None:
    diff = tables.p_polys_differential(bound)
    for n in range(bound + 1):
        brute = _tri(n)
        if tables.p_poly(n) != brute:
            return f"n={n}: index recurrence {tables.p_poly(n)} != {brute}"
        if diff[n] != brute:
            return f"n={n}: differential recurrence {diff[n]} != {brute}"
    return None


@_register(
    "p-specializations",
    "P_n(x,x,1) = P_n(x,1,x) = C_n(x) and P_n(x,1,1) = N_n(x) from tables",
    7,
    10,
)
def _p_specializations(bound: int) -> str | None:
    cs, ns = tables.cn_nn_tables(bound)
    for n in range(bound + 1):
        p = tables.p_poly(n)
        for label, bindings, expected in (
            ("P(x,x,1)", {"y": "x", "z": 1}, cs[n]),
            ("P(x,1,x)", {"y": 1, "z": "x"}, cs[n]),
            ("P(x,1,1)", {"y": 1, "z": 1}, ns[n]),
        ):
            got = substitute(p, bindings).to_qpoly("x")
            if got != expected:
                return f"n={n}: {label} {got} != {expected}"
    return None


@_register(
    "cn-nn-recurrences",
    "the differential recurrences for C_n and N_n match brute force",
    6,
    7,
    classes=("stirling",),
)
def _cn_nn(bound: int) -> str | None:
    cs, ns = tables.cn_nn_tables(bound)
    for n in range(bound + 1):
        asc = _poly("stirling", n, "asc")
        lap = _poly("stirling", n, "lap")
        if cs[n] != asc:
            return f"n={n}: C_n {cs[n]} != {asc}"
        if ns[n] != lap:
            return f"n={n}: N_n {ns[n]} != {lap}"
    return None


# ---------------------------------------------------------------------------
# the group action and the gamma vector


@_register(
    "fs-symmetry",
    "P_n(x,y,z) = P_n(x,z,y), proved twice: by coefficient symmetry of the "
    "brute-force table and by the toggle action exchanging dasc with dp; "
    "includes the (lap, asc) vs (lap, plat) equidistribution",
    6,
    7,
    classes=("stirling",),
)
def _fs_symmetry(bound: int) -> str | None:
    for n in range(bound + 1):
        brute = _tri(n)
        if brute != substitute(brute, {"y": "z", "z": "y"}):
            return f"n={n}: P_n is not symmetric in y, z"
        images = set()
        count = 0
        for word in iter_objects("stirling", n):
            # fs_action toggles exactly the double ascents and descent-
            # plateaus among the positions it is given, so all of them
            # select the full toggle with one classification of the word
            moved = actions.fs_action(word, range(1, len(word) + 1))
            lap, dasc, dp = _lap_dasc_dp(_stirling_scan(word))
            if _lap_dasc_dp(_stirling_scan(moved)) != (lap, dp, dasc):
                a, b = stirling_stat_record(word), stirling_stat_record(moved)
                return f"n={n}, word {word}: toggle sent {a} to {b}"
            images.add(moved)
            count += 1
        if len(images) != count:
            return f"n={n}: the full toggle is not a bijection"
        lap_asc = distribution("stirling", n, ["lap", "asc"]).counts
        lap_plat = distribution("stirling", n, ["lap", "plat"]).counts
        if lap_asc != lap_plat:
            return f"n={n}: (lap, asc) and (lap, plat) differ"
    return None


@_register(
    "gamma-expansion",
    "P_n = sum gamma_(n,i,j) x^i (y+z)^j with gamma counted by "
    "descent-plateau-free words; table gamma against brute-force gamma",
    7,
    7,
    classes=("stirling",),
)
def _gamma_expansion(bound: int) -> str | None:
    for n in range(bound + 1):
        brute_p = _tri(n)
        brute_gamma: dict[tuple[int, int], int] = {}
        for (i, j, k), c in brute_p.terms.items():
            if k == 0:
                brute_gamma[(i, j)] = int(c)
        table_gamma = {
            key: val for key, val in tables._gamma_row(n).items() if val
        }
        if brute_gamma != table_gamma:
            return f"n={n}: gamma table {table_gamma} != brute {brute_gamma}"
        expansion = Poly(XYZ, (
            ((i, m, j - m), g * math.comb(j, m))
            for (i, j), g in table_gamma.items()
            for m in range(j + 1)
        ))
        if expansion != brute_p:
            return f"n={n}: gamma expansion {expansion} != {brute_p}"
    return None


@_register(
    "gamma-grammar",
    "the collapsed grammar derivative of w encodes the gamma vector",
    8,
    12,
)
def _gamma_grammar(bound: int) -> str | None:
    for n in range(bound + 1):
        expected = Poly(("u", "v", "w"), {
            (i, j, 2 * n + 1 - 2 * i - j): val
            for (i, j), val in tables._gamma_row(n).items()
        })
        got = derive_n(parse_poly("w"), tables.GAMMA_GRAMMAR, n)
        if got != expected:
            return f"n={n}: {got} != {expected}"
    return None


@_register(
    "gamma-recurrence",
    "the three-term gamma recurrence holds on the values produced by the "
    "independent differential path",
    8,
    12,
)
def _gamma_recurrence(bound: int) -> str | None:
    gs = tables.g_polys_differential(bound)
    for n in range(bound):
        cur = {(i, j): int(c) for (i, j, _), c in gs[n].terms.items()}
        nxt = {(i, j): int(c) for (i, j, _), c in gs[n + 1].terms.items()}
        for i in range(1, n + 2):
            for j in range(n + 2):
                expected = (
                    i * cur.get((i, j - 1), 0)
                    + 2 * (j + 1) * cur.get((i - 1, j + 1), 0)
                    + (2 * n + 3 - 2 * i - j) * cur.get((i - 1, j), 0)
                )
                if nxt.get((i, j), 0) != expected:
                    return f"n={n + 1}, (i,j)=({i},{j}): {nxt.get((i, j), 0)} != {expected}"
    return None


@_register(
    "gamma-vanishing",
    "gamma_(n,i,j) vanishes whenever i + j > n",
    8,
    12,
)
def _gamma_vanishing(bound: int) -> str | None:
    for n in range(bound + 1):
        for (i, j), val in tables._gamma_row(n).items():
            if i + j > n and val:
                return f"n={n}: gamma({n},{i},{j}) = {val}"
    return None


@_register(
    "g-recurrence",
    "the index and differential paths to G_n(x, y) agree",
    10,
    20,
)
def _g_recurrence(bound: int) -> str | None:
    gs = tables.g_polys_differential(bound)
    for n in range(bound + 1):
        if tables.g_poly(n) != gs[n]:
            return f"n={n}: {tables.g_poly(n)} != {gs[n]}"
    return None


@_register(
    "n-closed-form",
    "the closed form of N_n(x) matches its recurrence",
    8,
    12,
)
def _n_closed_form(bound: int) -> str | None:
    _, ns = tables.cn_nn_tables(bound)
    for n in range(bound + 1):
        closed = tables.n_poly_closed(n)
        if closed != ns[n]:
            return f"n={n}: {closed} != {ns[n]}"
    return None


@_register(
    "gamma-weighted-sums",
    "sum_j 2^j gamma_(n,i,j) equals the x^i coefficient of N_n and the "
    "alternating closed form",
    8,
    12,
)
def _gamma_weighted(bound: int) -> str | None:
    _, ns = tables.cn_nn_tables(bound)
    for n in range(1, bound + 1):
        for i in range(1, n + 1):
            w = tables.gamma_weighted_sum(n, i)  # cross-checks the two formulas
            if w != ns[n][i]:
                return f"n={n}, i={i}: {w} != {ns[n][i]}"
    return None


@_register(
    "gamma-eulerian",
    "gamma_(n, n-k, k) equals the Eulerian number <n, k>",
    8,
    12,
)
def _gamma_eulerian(bound: int) -> str | None:
    for n in range(1, bound + 1):
        for k in range(n + 1):
            lhs = tables.gamma_number(n, n - k, k)
            rhs = tables.eulerian(n, k)
            if lhs != rhs:
                return f"n={n}, k={k}: {lhs} != {rhs}"
    return None


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


@_register(
    "alpha-bijection",
    "alpha restricted to the normalized words (dp = 0 and lap + dasc = n) is "
    "a bijection onto permutations carrying dasc to des; beta normalization "
    "reaches that set; includes the six-line order-3 table",
    6,
    7,
    classes=("stirling",),
)
def _alpha_bijection(bound: int) -> str | None:
    for n in range(bound + 1):
        values = list(range(1, n + 1))
        normal: dict[tuple, tuple] = {}
        for word in iter_objects("stirling", n):
            lap, dasc, dp = _lap_dasc_dp(_stirling_scan(word))
            moved = actions.beta_set(word, values)
            m_lap, m_dasc, m_dp = _lap_dasc_dp(_stirling_scan(moved))
            if m_dp != 0 or m_lap + m_dasc != n:
                return f"n={n}: beta normalization of {word} gave {moved}"
            image = actions.alpha(word)
            if actions.alpha(moved) != image:
                return f"n={n}: beta normalization of {word} changed its alpha image"
            if dp == 0 and lap + dasc == n:
                if moved != word:
                    return f"n={n}: beta moved the normalized word {word}"
                normal[word] = image
        if len(normal) != math.factorial(n):
            return f"n={n}: {len(normal)} normalized words, expected {n}!"
        if len(set(normal.values())) != math.factorial(n):
            return f"n={n}: alpha is not injective on the normalized words"
        for word, pi in normal.items():
            lap, dasc, _ = _lap_dasc_dp(_stirling_scan(word))
            if dasc != perm_des(pi) or lap != n - perm_des(pi):
                return f"n={n}: statistics of {word} do not match des {pi}"
        for pi in iter_objects("permutation", n):
            word = actions.alpha_inverse(pi)
            if word not in normal or actions.alpha(word) != pi:
                return f"n={n}: alpha_inverse({pi}) = {word} is wrong"
    if bound >= 3:
        for pi, doubled, s, word in _S3_TABLE:
            got = actions.alpha_inverse_trace(pi)
            if got != (doubled, s, word):
                return f"order-3 table row {pi}: {got}"
    return None
