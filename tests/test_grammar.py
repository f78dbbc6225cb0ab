"""Grammar engine: parsing, the derivation laws, and worked derivatives."""
import pytest
from hypothesis import given, settings, strategies as st

from stirlab.grammar import (
    AlphabetError,
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


letters = st.sampled_from(("x", "y", "z"))
monomials = st.dictionaries(letters, st.integers(1, 3), max_size=3)
gpolys = st.lists(
    st.tuples(monomials, st.integers(-4, 4)), min_size=0, max_size=4
).map(
    lambda ts: sum(
        (Poly(sorted(m), {tuple(m[v] for v in sorted(m)): c}) for m, c in ts),
        Poly.zero(),
    )
)


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
        import math

        lhs = derive_n(gp("x*y"), FLAG, n)
        rhs = Poly.zero()
        for k in range(n + 1):
            rhs = rhs + (
                derive_n(gp("x"), FLAG, k)
                * derive_n(gp("y"), FLAG, n - k)
                * math.comb(n, k)
            )
        assert lhs == rhs


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
