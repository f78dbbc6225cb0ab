"""Exact polynomial arithmetic and the binomial convolution of series."""
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stirlab.cli import _print_trivariate
from stirlab.grammar import parse_poly, substitute
from stirlab.identities import _convolve
from stirlab.polynomials import XYZ, Poly, QPoly

qpolys = st.lists(st.integers(-6, 6), max_size=5).map(QPoly)


class TestQPoly:
    def test_trimming_and_equality(self):
        assert QPoly((1, 2, 0, 0)) == QPoly((1, 2))
        assert QPoly(()) == QPoly((0,)) == QPoly.zero()
        assert QPoly((0, 1)).degree == 1
        assert QPoly.zero().degree == -1

    @settings(max_examples=60, deadline=None)
    @given(qpolys, qpolys, qpolys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * QPoly.one() == a
        assert a + QPoly.zero() == a
        assert a - a == QPoly.zero()

    def test_compose_x_squared(self):
        assert QPoly((1, 2)).compose_x_squared() == QPoly((1, 0, 2))
        assert QPoly((0, 1, 1, 1)) * QPoly.one() == QPoly((0, 1, 1, 1))

    def test_compose_scaled(self):
        assert QPoly((1, 1, 1)).compose_scaled(-1) == QPoly((1, -1, 1))

    def test_eval_and_derivative(self):
        p = QPoly((1, -3, 2))  # 1 - 3x + 2x^2
        assert p.eval_at(Fraction(1, 2)) == 0
        assert p.derivative() == QPoly((-3, 4))

    def test_pow(self):
        assert QPoly((1, 1)) ** 3 == QPoly((1, 3, 3, 1))
        assert QPoly((0, 2)) ** 0 == QPoly.one()

    def test_rational_coefficients_stay_exact(self):
        p = QPoly((Fraction(1, 3), Fraction(2, 3)))
        assert (p * 3) == QPoly((1, 2))
        assert not p.is_integral()

    def test_str_and_json_roundtrip(self):
        p = QPoly((Fraction(-1, 2), 0, 3))
        assert str(p) == "-1/2 + 3*x^2"
        assert QPoly.from_json(p.to_json()) == p
        assert p.to_json() == {"var": "x", "coeffs": ["-1/2", "0", "3"]}
        assert str(QPoly.zero()) == "0"
        assert str(QPoly((0, 1, 1, 1))) == "x + x^2 + x^3"


def xyz(i: int, j: int, k: int, c=1) -> Poly:
    return Poly(XYZ, {(i, j, k): c})


class TestTriPoly:
    """Poly over the variables x, y, z, the shape of P_n and G_n."""

    def test_construction_drops_zeros(self):
        assert Poly(XYZ, {(1, 0, 0): 0}) == Poly.zero()
        assert Poly(XYZ, {(0, 0, 0): 2}).coefficient(0, 0, 0) == 2
        assert Poly(XYZ, [((1, 0, 0), 2), ((1, 0, 0), -2)]).terms == {}

    def test_arithmetic(self):
        x, y, z = xyz(1, 0, 0), xyz(0, 1, 0), xyz(0, 0, 1)
        p = x * y + x * z + x * x
        assert p.coefficient(1, 1, 0) == 1
        assert (p - p) == Poly.zero()
        assert p * 2 == p + p

    def test_partial(self):
        p = xyz(2, 1, 0, 3)
        assert p.partial("x") == xyz(1, 1, 0, 6)
        assert p.partial("z") == Poly.zero()
        assert p.partial("w") == Poly.zero()

    def test_swap_axes(self):
        p = Poly(XYZ, {(1, 2, 0): 1, (1, 0, 2): 5})
        swapped = substitute(p, {"y": "z", "z": "y"})
        assert swapped == Poly(XYZ, {(1, 0, 2): 1, (1, 2, 0): 5})
        assert swapped.names == XYZ

    def test_eval_collapses_to_qpoly(self):
        # the order-2 refinement xy + xz + x^2 at (x, x, 1) and (x, 1, 1)
        p = Poly(XYZ, {(1, 1, 0): 1, (1, 0, 1): 1, (2, 0, 0): 1})
        assert substitute(p, {"y": "x", "z": 1}).to_qpoly("x") == QPoly((0, 1, 2))
        assert substitute(p, {"y": 1, "z": 1}).to_qpoly("x") == QPoly((0, 2, 1))
        assert Poly.one().to_qpoly("x") == QPoly.one()
        with pytest.raises(ValueError):
            p.to_qpoly("x")

    def test_json_roundtrip(self):
        p = Poly(XYZ, {(1, 2, 3): Fraction(5, 2), (0, 0, 0): -1, (0, 4, 0): 10**30})
        terms = json.loads(json.dumps(p.to_json()))
        rebuilt = Poly(XYZ, {
            tuple(t["monomial"].get(v, 0) for v in XYZ): Fraction(t["coeff"])
            for t in terms
        })
        assert rebuilt == p
        # integral coefficients stay JSON numbers, as in the grammar output
        assert [t["coeff"] for t in terms] == [-1, 10**30, "5/2"]
        assert terms[0] == {"monomial": {}, "coeff": -1}


def series_product_oracle(fs: list[QPoly], gs: list[QPoly]) -> list[QPoly]:
    # multiply as ordinary series with divided coefficients, then restore
    # the factorials: an independent route to the binomial convolution
    fd = [f * Fraction(1, math.factorial(n)) for n, f in enumerate(fs)]
    gd = [g * Fraction(1, math.factorial(n)) for n, g in enumerate(gs)]
    out = []
    for n in range(len(fs)):
        acc = QPoly.zero()
        for k in range(n + 1):
            acc = acc + fd[k] * gd[n - k]
        out.append(acc * math.factorial(n))
    return out


class TestConvolve:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(qpolys, min_size=4, max_size=4), st.lists(qpolys, min_size=4, max_size=4))
    def test_mul_matches_series_oracle(self, fs, gs):
        got = [_convolve(fs.__getitem__, gs.__getitem__, n) for n in range(4)]
        assert got == series_product_oracle(fs, gs)


# Mixed int and Fraction inputs against a Fraction-only reference: the
# reference keeps every coefficient as a Fraction and renders it with the
# printing rules the output format promises.

rationals = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
coeff_lists = st.lists(rationals, max_size=5)
tri_term_lists = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), rationals), max_size=5
)


def _ref_trim(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _ref_add(a, b):
    n = max(len(a), len(b))
    pad = lambda cs: cs + [Fraction(0)] * (n - len(cs))  # noqa: E731
    return _ref_trim([u + v for u, v in zip(pad(a), pad(b))])


def _ref_qmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return _ref_trim(out)


def _ref_frac(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _ref_join(signed_bodies):
    parts = []
    for positive, body in signed_bodies:
        if not parts:
            parts.append(body if positive else f"-{body}")
        else:
            parts.append(f"+ {body}" if positive else f"- {body}")
    return " ".join(parts) or "0"


def _ref_qpoly_str(cs):
    bodies = []
    for k, c in enumerate(cs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _ref_frac(mag)
        else:
            xk = "x" if k == 1 else f"x^{k}"
            body = xk if mag == 1 else f"{_ref_frac(mag)}*{xk}"
        bodies.append((c > 0, body))
    return _ref_join(bodies)


def _ref_tri(terms):
    acc = {}
    for e, c in terms:
        acc[e] = acc.get(e, Fraction(0)) + Fraction(c)
    return {e: c for e, c in acc.items() if c}


def _ref_tri_mul(a, b):
    acc = {}
    for (p, q, r), u in a.items():
        for (s, t, w), v in b.items():
            key = (p + s, q + t, r + w)
            acc[key] = acc.get(key, Fraction(0)) + u * v
    return {e: c for e, c in acc.items() if c}


def _ref_str(ordered):
    """Text of (((letter, exponent), ...), coefficient) terms in the given order."""
    bodies = []
    for factors, c in ordered:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in factors)
        mag = abs(c)
        if not mono:
            body = _ref_frac(mag)
        elif mag != 1:
            body = f"{_ref_frac(mag)}*{mono}"
        else:
            body = mono
        bodies.append((c > 0, body))
    return _ref_join(bodies)


def _ref_tri_lines(terms, fmt):
    """The P/G row format: by degree, then by exponent triple."""
    ordered = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]))
    if fmt == "plain":
        factors = [(tuple((v, p) for v, p in zip("xyz", e) if p), c) for e, c in ordered]
        return _ref_str(factors) + "\n"
    if fmt == "json":
        return json.dumps([{"e": list(e), "c": _ref_frac(c)} for e, c in ordered]) + "\n"
    rows = [f"{i},{j},{k},{_ref_frac(c)}" for (i, j, k), c in ordered]
    return "\n".join(["i,j,k,coeff", *rows]) + "\n"


# A reference polynomial over any letters: a dict from sparse monomials, the
# tuples of (letter, exponent > 0) pairs sorted by letter, to Fractions.


def _sparse(p: Poly):
    return {
        tuple((v, k) for v, k in sorted(zip(p.names, e)) if k): c
        for e, c in p.terms.items()
    }


def _ref_poly(names, terms):
    acc = {}
    for e, c in terms:
        m = tuple((v, k) for v, k in sorted(zip(names, e)) if k)
        acc[m] = acc.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in acc.items() if c}


def _ref_mono_mul(m1, m2):
    acc = dict(m1)
    for v, e in m2:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted(acc.items()))


def _ref_sum(*polys):
    acc = {}
    for ref in polys:
        for m, c in ref.items():
            acc[m] = acc.get(m, Fraction(0)) + c
    return {m: c for m, c in acc.items() if c}


def _ref_mul(a, b):
    return _ref_sum(*({_ref_mono_mul(m1, m2): u * v} for m1, u in a.items()
                      for m2, v in b.items()))


def _ref_partial(a, letter):
    out = {}
    for m, c in a.items():
        e = dict(m).get(letter, 0)
        if e:
            rest = tuple((v, k - (v == letter)) for v, k in m if k - (v == letter))
            out[rest] = c * e
    return out


def _ref_substitute(a, images):
    acc = []
    for m, c in a.items():
        term = {(): c}
        for v, e in m:
            for _ in range(e):
                term = _ref_mul(term, images.get(v, {((v, 1),): Fraction(1)}))
        acc.append(term)
    return _ref_sum(*acc)


def _ref_sparse_str(a):
    """Text in the Poly print order: by degree, then by sparse monomial."""
    return _ref_str(sorted(a.items(), key=lambda t: (sum(e for _, e in t[0]), t[0])))


def _ints_exactly_when_integral(coeffs):
    return all(
        type(c) is int if c.denominator == 1 else type(c) is Fraction for c in coeffs
    )


letter_sets = st.lists(st.sampled_from("pqxyz"), unique=True, max_size=4).map(
    lambda ls: tuple(sorted(ls))
)


@st.composite
def polys(draw, coeffs=rationals, max_terms=4, max_letters=4):
    """A Poly over a random sorted subset of letters and its reference."""
    names = draw(letter_sets)[:max_letters]
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=max_terms))
    return Poly(names, terms), _ref_poly(names, terms)


class TestExactCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(coeff_lists, coeff_lists, st.integers(0, 3))
    def test_qpoly_matches_fraction_reference(self, a, b, k):
        p, q = QPoly(a), QPoly(b)
        ra, rb = _ref_trim(a), _ref_trim(b)
        cases = [
            (p, ra),
            (p + q, _ref_add(ra, rb)),
            (p - q, _ref_add(ra, [-c for c in rb])),
            (p * q, _ref_qmul(ra, rb)),
            (p * 3, _ref_qmul(ra, [Fraction(3)])),
            (p * Fraction(1, 2), _ref_qmul(ra, [Fraction(1, 2)])),
        ]
        power = [Fraction(1)]
        for _ in range(k):
            power = _ref_qmul(power, ra)
        cases.append((p**k, power))
        for got, ref in cases:
            assert list(got.coeffs) == ref
            assert _ints_exactly_when_integral(got.coeffs)
            assert str(got) == _ref_qpoly_str(ref)
            assert got.to_json() == {"var": "x", "coeffs": [_ref_frac(c) for c in ref]}
            assert QPoly.from_json(got.to_json()) == got

    @settings(max_examples=150, deadline=None)
    @given(tri_term_lists, tri_term_lists)
    def test_tripoly_matches_fraction_reference(self, a, b):
        p, q = Poly(XYZ, a), Poly(XYZ, b)
        ra, rb = _ref_tri(a), _ref_tri(b)
        cases = [
            (p, ra),
            (p + q, _ref_tri(list(ra.items()) + list(rb.items()))),
            (p - q, _ref_tri(list(ra.items()) + [(e, -c) for e, c in rb.items()])),
            (p * q, _ref_tri_mul(ra, rb)),
            (p * Fraction(2, 3), {e: c * Fraction(2, 3) for e, c in ra.items()}),
            (p.partial("x"), _ref_tri([((i - 1, j, k), i * c)
                                       for (i, j, k), c in ra.items() if i])),
        ]
        for got, ref in cases:
            assert got.terms == ref
            assert _ints_exactly_when_integral(got.terms.values())
            assert str(got) == _ref_sparse_str(_ref_poly(XYZ, ref.items()))
            for fmt in ("plain", "json", "csv"):
                out = io.StringIO()
                _print_trivariate(got.terms, fmt, out)
                assert out.getvalue() == _ref_tri_lines(ref, fmt)

    def test_zero_defaults_are_ints(self):
        assert type(QPoly((1,))[5]) is int
        assert type(Poly(XYZ, {(0, 0, 0): 1}).coefficient(1, 0, 0)) is int
        assert type(QPoly((Fraction(4, 2),)).coeffs[0]) is int


class TestPoly:
    """Poly against the sparse-monomial reference, over mixed letter sets."""

    @settings(max_examples=150, deadline=None)
    @given(polys(), polys(), st.sampled_from("pqxyzw"))
    def test_matches_sparse_reference(self, pa, pb, letter):
        (p, ra), (q, rb) = pa, pb
        minus_rb = {m: -c for m, c in rb.items()}
        cases = [
            (p, ra),
            (p + q, _ref_sum(ra, rb)),
            (p - q, _ref_sum(ra, minus_rb)),
            (p * q, _ref_mul(ra, rb)),
            (p * Fraction(2, 3), _ref_mul(ra, {(): Fraction(2, 3)})),
            (p + 3, _ref_sum(ra, {(): Fraction(3)})),
            (p.partial(letter), _ref_partial(ra, letter)),
        ]
        for got, ref in cases:
            assert _sparse(got) == ref
            assert _ints_exactly_when_integral(got.terms.values())
            assert str(got) == _ref_sparse_str(ref)
        assert (p == q) == (ra == rb)
        assert (p - q == Poly.zero()) == (ra == rb)

    @settings(max_examples=100, deadline=None)
    @given(
        polys(max_terms=3, max_letters=3),
        st.dictionaries(
            st.sampled_from("pqxyz"),
            st.one_of(st.sampled_from("pqxyz"), st.integers(-2, 2),
                      polys(max_terms=2, max_letters=2)),
            max_size=3,
        ),
    )
    def test_substitute_matches_sparse_reference(self, pa, bindings):
        p, ra = pa
        images = {}
        for v, image in bindings.items():
            if isinstance(image, str):
                images[v] = {((image, 1),): Fraction(1)}
            elif isinstance(image, int):
                images[v] = {(): Fraction(image)} if image else {}
            else:
                images[v] = image[1]
        plain = {v: image if isinstance(image, (str, int)) else image[0]
                 for v, image in bindings.items()}
        got = substitute(p, plain)
        assert _sparse(got) == _ref_substitute(ra, images)
        assert _ints_exactly_when_integral(got.terms.values())

    @settings(max_examples=150, deadline=None)
    @given(polys(coeffs=st.integers(-5, 5)))
    def test_parse_roundtrip(self, pa):
        p, _ = pa
        assert parse_poly(str(p)) == p

    def test_mixed_names(self):
        x, xy = parse_poly("x"), parse_poly("x*y")
        assert x.names == ("x",) and xy.names == ("x", "y")
        assert x == Poly(("x", "y"), {(1, 0): 1})
        assert (x * xy).names == ("x", "y")
        assert str(x * xy + 1) == "1 + x^2*y"
        assert x != xy and x == Poly(XYZ, {(1, 0, 0): 1})
