"""Exact polynomial arithmetic and the binomial convolution of series."""
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stirlab.cli import _print_trivariate, _print_univariate
from stirlab.grammar import parse_poly
from stirlab.identities import _convolve, _minus_x, _x_squared
from stirlab.polynomials import XYZ, Poly

import reference as ref
from reference import xyz


def dense(*coeffs: int) -> Poly:
    """The polynomial in x with these coefficients of x^0, x^1, ..."""
    return Poly.from_counts(dict(enumerate(coeffs)))


xpolys = st.lists(st.integers(-6, 6), max_size=5).map(lambda cs: dense(*cs))


class TestPolyInX:
    """Poly over ("x",), the shape of A_n, C_n, M_n, N_n and T_n."""

    def test_trimming_and_equality(self):
        assert dense(1, 2, 0, 0) == dense(1, 2)
        assert dense(1, 2, 0, 0).terms == {(0,): 1, (1,): 2}
        assert dense() == dense(0) == Poly.zero()
        assert dense(0, 1) == Poly.var("x") and dense(3) == 3 == dense(2) + True == dense(4) - True

    @settings(max_examples=60, deadline=None)
    @given(xpolys, xpolys, xpolys)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * Poly.one() == a
        assert a + Poly.zero() == a
        assert a - a == Poly.zero()

    def test_compose_x_squared(self):
        assert _x_squared(dense(1, 2)) == dense(1, 0, 2)
        assert dense(0, 1, 1, 1) * Poly.one() == dense(0, 1, 1, 1)

    def test_compose_scaled(self):
        assert _minus_x(dense(1, 1, 1)) == dense(1, -1, 1)

    def test_pow(self):
        assert dense(1, 1) ** 3 == dense(1, 3, 3, 1)
        assert dense(0, 2) ** 0 == Poly.one()
        with pytest.raises(ValueError):
            dense(1, 1) ** -1

    def test_str_and_json_roundtrip(self):
        p = dense(-1, 0, 3)
        assert str(p) == "-1 + 3*x^2"
        out = io.StringIO()
        _print_univariate(p, "json", out)
        obj = json.loads(out.getvalue())
        assert obj == {"var": "x", "coeffs": ["-1", "0", "3"]}
        assert dense(*map(int, obj["coeffs"])) == p
        assert str(Poly.zero()) == "0"
        assert str(dense(0, 1, 1, 1)) == "x + x^2 + x^3"


class TestPolyInXYZ:
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

    def test_a_constant_is_one_over_any_names(self):
        # a constant over no variables equals the one built over ("x",)
        assert Poly.one() == dense(1)

    def test_json_roundtrip(self):
        p = Poly(XYZ, {(1, 2, 3): 5, (0, 0, 0): -1, (0, 4, 0): 10**30})
        terms = json.loads(json.dumps(p.to_json()))
        rebuilt = Poly(XYZ, {
            tuple(t["monomial"].get(v, 0) for v in XYZ): t["coeff"] for t in terms
        })
        assert rebuilt == p
        # coefficients are JSON numbers, as in the grammar output
        assert [t["coeff"] for t in terms] == [-1, 10**30, 5]
        assert terms[0] == {"monomial": {}, "coeff": -1}


class TestConvolve:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(xpolys, min_size=4, max_size=4), st.lists(xpolys, min_size=4, max_size=4))
    def test_mul_matches_series_oracle(self, fs, gs):
        got = [_convolve(fs.__getitem__, gs.__getitem__, n) for n in range(4)]
        assert got == ref.series_product(fs, gs)


# the printers against an int-only reference that renders every coefficient
# with the printing rules the output format promises

ints = st.integers(-6, 6)
coeff_lists = st.lists(ints, max_size=5)
tri_term_lists = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), ints), max_size=5
)


letter_sets = st.lists(st.sampled_from("pqxyz"), unique=True, max_size=4).map(
    lambda ls: tuple(sorted(ls))
)


@st.composite
def polys(draw, coeffs=ints, max_terms=4, max_letters=4):
    """A Poly over a random sorted subset of letters."""
    names = draw(letter_sets)[:max_letters]
    exps = st.tuples(*[st.integers(0, 2)] * len(names))
    return Poly(names, draw(st.lists(st.tuples(exps, coeffs), max_size=max_terms)))


class TestExactCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(coeff_lists)
    def test_x_poly_matches_int_reference(self, a):
        p = dense(*a)
        cs = a[:max((k + 1 for k, c in enumerate(a) if c), default=0)]
        assert p.terms_over(("x",)) == {(e,): c for e, c in enumerate(cs) if c}
        assert str(p) + "\n" == ref.x_lines(cs, "plain")
        for fmt in ("plain", "json", "csv"):
            out = io.StringIO()
            _print_univariate(p, fmt, out)
            assert out.getvalue() == ref.x_lines(cs, fmt)

    @settings(max_examples=150, deadline=None)
    @given(tri_term_lists)
    def test_tripoly_matches_int_reference(self, a):
        p, ra = Poly(XYZ, a), ref.poly(XYZ, a)
        terms = {tuple(dict(m).get(v, 0) for v in XYZ): c for m, c in ra.items()}
        assert p.terms == terms
        assert str(p) == ref.sparse_str(ra)
        for fmt in ("plain", "json", "csv"):
            out = io.StringIO()
            _print_trivariate(p.terms, fmt, out)
            assert out.getvalue() == ref.tri_lines(terms, fmt)

    def test_zero_defaults_are_ints(self):
        assert type(dense(1).coefficient(5)) is int
        assert type(Poly(XYZ, {(0, 0, 0): 1}).coefficient(1, 0, 0)) is int


class TestPoly:
    """Poly over mixed letter sets; test_kernels.py checks its arithmetic
    against the sparse-monomial reference."""

    @settings(max_examples=150, deadline=None)
    @given(polys())
    def test_parse_roundtrip(self, p):
        assert parse_poly(str(p)) == p

    def test_mixed_names(self):
        x, xy = parse_poly("x"), parse_poly("x*y")
        assert x.names == ("x",) and xy.names == ("x", "y")
        assert x == Poly(("x", "y"), {(1, 0): 1})
        assert (x * xy).names == ("x", "y")
        assert str(x * xy + 1) == "1 + x^2*y"
        assert x != xy and x == Poly(XYZ, {(1, 0, 0): 1})

    @pytest.mark.parametrize("names,terms", [(("x",), {(1, 2): 1}), (("x", "y"), {(1,): 1}),
                                             (("x",), {(1,): 1.5}), (("x",), {(1,): True}),
                                             (("x",), {1: 1})])
    def test_a_malformed_term_is_refused(self, names, terms):
        with pytest.raises(ValueError, match=r"^not terms over \("):
            Poly(names, terms)

    @pytest.mark.parametrize("op,symbol", [(lambda x: x + 1.5, "+"), (lambda x: x + "a", "+"),
                                           (lambda x: x - 1.5, "-"), (lambda x: 1.5 - x, "-")],
                             ids=["poly+float", "poly+str", "poly-float", "float-poly"])
    def test_an_operand_neither_int_nor_poly_is_unsupported(self, op, symbol):
        with pytest.raises(TypeError, match=rf"^unsupported operand type\(s\) for \{symbol}: "):
            op(Poly.var("x"))
