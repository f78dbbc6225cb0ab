"""Grammar engine: parsing, the derivation laws, and worked derivatives."""
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from stirlab import grammar
from stirlab.grammar import (
    AlphabetError,
    Grammar,
    GrammarSyntaxError,
    coefficient_profile,
    derive,
    derive_n,
    parse_grammar,
    parse_poly,
    substitute,
)
from stirlab.polynomials import Poly

FLAG = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")
REFINED = parse_grammar("x -> x*z*q; y -> y*z*p; z -> x*y*z; p -> x*y*z; q -> x*y*z")
UVW = parse_grammar("u -> u*v*w; v -> 2*u*w; w -> u*w")


def gp(text: str) -> Poly:
    return parse_poly(text)


class TestParsing:
    def test_rule_files(self):
        assert sorted(FLAG.alphabet) == ["x", "y", "z"]
        assert FLAG.names == ("x", "y", "z")
        assert FLAG.rule("x") == gp("x*y*z")
        assert FLAG.rule("y").names == FLAG.names
        assert str(FLAG.rule("y")) == "y*z^2"
        assert FLAG.rule("missing_letter") == Poly.zero()
        assert UVW.rule("v") == gp("2*u*w")
        assert sorted(REFINED.alphabet) == ["p", "q", "x", "y", "z"]

    def test_multiline_and_comments(self):
        g = parse_grammar(
            """
            # flag grammar
            x -> x*y*z
            y -> y*z^2   # squared letter
            z -> y^2*z
            """
        )
        assert g.rules == FLAG.rules

    def test_shifts_stay_out_of_repr_and_equality(self):
        assert FLAG.shifts[0] == (((0, 1, 1), 1),)  # x -> x*y*z, less x
        assert "shifts" not in repr(FLAG)
        assert parse_grammar("z -> y^2*z; y -> y*z^2; x -> x*y*z") == FLAG

    def test_signs_and_constants(self):
        assert gp("1 - 2*x + x^2") == gp("x^2") - gp("x") * 2 + 1
        assert gp("-x + x") == Poly.zero()
        assert str(gp("0")) == "0"

    def test_roundtrip_through_str(self):
        for text in ("x*y*z^2 + x*y^2*z", "2*u*w", "1 + x", "-3*x + y^4"):
            p = gp(text)
            assert parse_poly(str(p)) == p

    @pytest.mark.parametrize(
        "bad,line,col",
        [
            ("x -> ", 1, 1),  # empty body, reported at the rule head
            ("x -> y +", 1, 9),  # input ends right after the '+'
            ("-> y", 1, 1),
            ("x -> y ^ q", 1, 10),
            ("x -> y\nx -> z", 2, 1),  # duplicate rule
            ("x -> $", 1, 6),
        ],
    )
    def test_syntax_errors_carry_position(self, bad, line, col):
        with pytest.raises(GrammarSyntaxError) as exc:
            parse_grammar(bad)
        assert exc.value.line == line
        assert exc.value.column == col

    def test_expression_trailing_garbage(self):
        with pytest.raises(GrammarSyntaxError):
            parse_poly("x y")


class TestDerive:
    def test_product_seed(self):
        assert derive(gp("x*y"), FLAG) == gp("x*y*z^2 + x*y^2*z")

    def test_refined_seed(self):
        assert derive(gp("z"), REFINED) == gp("x*y*z")

    def test_constants_die(self):
        assert derive(gp("5"), FLAG) == Poly.zero()
        # only letters with a nonzero exponent must be in the alphabet
        assert derive(gp("q - q"), FLAG) == Poly.zero()

    def test_iterated(self):
        assert derive_n(gp("x"), FLAG, 2) == gp("x*y^3*z + x*y^2*z^2 + x*y*z^3")
        assert derive_n(gp("z"), REFINED, 2) == gp("x*y*q*z^2 + x*y*p*z^2 + x^2*y^2*z")
        assert derive_n(gp("w"), UVW, 1) == gp("u*w")
        assert derive_n(gp("x*y"), FLAG, 0) == gp("x*y")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            derive(gp("u"), FLAG)
        with pytest.raises(AlphabetError):
            derive_n(gp("x*q"), FLAG, 2)
        # order 0 derives nothing and still checks the letters
        with pytest.raises(AlphabetError, match=r"\['q'\]"):
            derive_n(gp("x*q"), FLAG, 0)

    def test_alphabet_checked_only_off_the_grammar_names(self, monkeypatch):
        # a polynomial over the grammar's own names needs no scan of its
        # letters; one over other names is scanned before the first step only
        checked = []
        check = grammar._check_alphabet
        monkeypatch.setattr(grammar, "_check_alphabet",
                            lambda p, g: checked.append(p.names) or check(p, g))
        over_names = derive_n(gp("x"), FLAG, 1)
        assert over_names.names == FLAG.names
        assert checked and set(checked) == {("x",)}
        checked.clear()
        assert derive_n(over_names, FLAG, 5) == derive_n(gp("x"), FLAG, 6)
        assert set(checked) == {("x",)}
        checked.clear()
        derive_n(over_names, FLAG, 0)
        assert checked == []

    @pytest.mark.parametrize("n", [-1, True, 1.5, "3"], ids=repr)
    def test_the_order_is_a_nonnegative_int(self, n):
        # True would derive once, as 1 does; the others named no input
        message = rf"^n must be a nonnegative int, got {re.escape(repr(n))}$"
        with pytest.raises(ValueError, match=message):
            derive_n(gp("x"), FLAG, n)


def polys_over(letters, exponents=st.integers(1, 3)):
    """Sums of up to four terms over ``letters``, constants included, with
    coefficients from -4 to 4."""
    monomials = st.dictionaries(st.sampled_from(letters), exponents, max_size=3)
    return st.lists(
        st.tuples(monomials, st.integers(-4, 4)), min_size=0, max_size=4
    ).map(
        lambda ts: sum(
            (Poly(sorted(m), {tuple(m[v] for v in sorted(m)): c}) for m, c in ts),
            Poly.zero(),
        )
    )


gpolys = polys_over(("x", "y", "z"))


class TestDerivationLaws:
    @settings(max_examples=60, deadline=None)
    @given(gpolys, gpolys)
    def test_leibniz(self, p, q):
        assert derive(p * q, FLAG) == derive(p, FLAG) * q + p * derive(q, FLAG)

    @settings(max_examples=60, deadline=None)
    @given(gpolys, gpolys, st.integers(-3, 3), st.integers(-3, 3))
    def test_linearity(self, p, q, a, b):
        assert derive(p * a + q * b, FLAG) == derive(p, FLAG) * a + derive(q, FLAG) * b

    @pytest.mark.parametrize("n", range(5))
    def test_leibniz_iterate(self, n):
        lhs = derive_n(gp("x*y"), FLAG, n)
        rhs = Poly.zero()
        for k in range(n + 1):
            rhs = rhs + (
                derive_n(gp("x"), FLAG, k)
                * derive_n(gp("y"), FLAG, n - k)
                * math.comb(n, k)
            )
        assert lhs == rhs


def reference_derive(p: Poly, g: Grammar) -> Poly:
    """D(p) from Poly arithmetic alone: the sum over the terms c * x^e of p
    and the letters x_i of each, of c * e_i * x^(e - unit_i) * rule(x_i)."""
    acc = Poly.zero()
    for e, c in p.terms.items():
        for i, (letter, k) in enumerate(zip(p.names, e)):
            if k:
                powers = (Poly.var(v) ** (m - (j == i))
                          for j, (v, m) in enumerate(zip(p.names, e)))
                rest = math.prod(powers, start=Poly.one())
                acc = acc + rest * g.rule(letter) * (c * k)
    return acc


# rules for some of four letters, so that a body may mention a letter that
# has no rule; a body may hold several terms, a constant and negative
# coefficients
LETTERS = ("a", "b", "c", "d")
grammars = st.dictionaries(
    st.sampled_from(LETTERS), polys_over(LETTERS), max_size=len(LETTERS)
).map(Grammar)


class TestDeriveKernel:
    @settings(max_examples=150, deadline=None)
    @given(grammars, st.data())
    def test_matches_the_poly_reference(self, g, data):
        p = data.draw(polys_over(sorted(g.alphabet))) if g.alphabet else gp("5")
        assert derive(p, g) == reference_derive(p, g)

    def test_reference_on_a_constant_and_a_missing_rule(self):
        g = parse_grammar("a -> 3 - 2*a*b + c^2; b -> -1")  # c has no rule
        p = gp("a^2*c - 4*b*c + 7")
        assert derive(p, g) == reference_derive(p, g) == gp(
            "6*a*c - 4*a^2*b*c + 2*a*c^3 + 4*c"
        )

    # exponents at and next to powers of two, where the packed kernel's
    # bit width per letter is full or one short
    @settings(max_examples=80, deadline=None)
    @given(grammars, st.integers(0, 4), st.data())
    def test_derive_n_matches_the_iterated_reference(self, g, n, data):
        exponents = st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 31])
        p = data.draw(polys_over(sorted(g.alphabet), exponents)) if g.alphabet else gp("5")
        expected = p
        for _ in range(n):
            expected = reference_derive(expected, g)
        assert derive_n(p, g, n) == expected

    def test_an_exponent_may_fill_its_field(self):
        # a^7 reaches a^15 at order 8, the largest value the 4 bits of a
        # hold, with b packed just above it
        g = parse_grammar("a -> a^2; b -> a*b - 2")
        p = gp("a^7 + b^3")
        expected = p
        for _ in range(8):
            expected = reference_derive(expected, g)
        assert derive_n(p, g, 8) == expected
        assert expected.coefficient(15, 0) == math.prod(range(7, 15))

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_a_negative_exponent_is_named(self, n):
        # packed, x^-1 would borrow from the bits of y
        p = Poly(("x", "y"), {(-1, 2): 1, (1, 1): 1})
        with pytest.raises(ValueError, match=r"^a negative exponent cannot be derived: x\^-1\*y\^2$"):
            derive_n(p, FLAG, n)

    def test_a_negative_exponent_in_a_rule_is_named(self):
        g = Grammar({"x": Poly(("x", "y"), {(2, -1): 3})})
        with pytest.raises(ValueError, match=r"^a negative exponent cannot be derived: x\^2\*y\^-1$"):
            derive_n(gp("x"), g, 1)

    def test_cancelled_terms_leave_each_step(self, monkeypatch):
        # D(x) = y - z and D^2(x) = 1 - 1: a zero term counts toward no
        # TERM_LIMIT and is not derived again
        sizes = []
        step = grammar._step
        monkeypatch.setattr(grammar, "_step",
                            lambda *args: sizes.append(len(out := step(*args))) or out)
        assert not derive_n(gp("x"), parse_grammar("x -> y - z; y -> 1; z -> 1"), 3).terms
        assert sizes == [2, 0, 0]

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_derive_n_takes_n_steps(self, monkeypatch, n):
        # one call of the per-order kernel step per order
        calls = []
        step = grammar._step
        monkeypatch.setattr(grammar, "_step", lambda *args: calls.append(args) or step(*args))
        derive_n(gp("x*y"), FLAG, n)
        assert len(calls) == n


class TestSubstituteAndProfile:
    def test_letter_renaming(self):
        assert substitute(gp("x*y*q*z"), {"q": "y", "p": "z"}) == gp("x*y^2*z")

    def test_polynomial_binding(self):
        assert substitute(gp("u*v"), {"u": gp("x*y"), "v": gp("p + q")}) == gp(
            "x*y*p + x*y*q"
        )

    def test_identity_binding(self):
        p = gp("x*y^2 - 3*z")
        assert substitute(p, {}) == p

    def test_collapse_matches_uvw_grammar(self):
        # under u = xy, v = p + q, w = z the collapsed derivative expands to
        # the refined one, since the images satisfy the same rules
        binding = {"u": gp("x*y"), "v": gp("p + q"), "w": gp("z")}
        for n in range(5):
            expanded = substitute(derive_n(gp("w"), UVW, n), binding)
            assert expanded == derive_n(gp("z"), REFINED, n)

    def test_profile_basic(self):
        assert coefficient_profile(derive_n(gp("x*y"), FLAG, 1), ["y"]) == {
            (1,): 1,
            (2,): 1,
        }
        assert coefficient_profile(derive_n(gp("x"), FLAG, 2), ["y"]) == {
            (1,): 1,
            (2,): 1,
            (3,): 1,
        }
        assert coefficient_profile(Poly.zero(), ["y"]) == {}

    def test_profile_rejects_mixed_residuals(self):
        with pytest.raises(ValueError):
            coefficient_profile(gp("x*y + z*y"), ["y"])

    def test_profile_merges_equal_residuals(self):
        assert coefficient_profile(gp("2*x*y + 3*x*y"), ["y"]) == {(1,): 5}
