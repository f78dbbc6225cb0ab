"""Grammar engine: parsing, the derivation laws, and worked derivatives."""
import dataclasses
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from stirlab import grammar
from stirlab.grammar import (
    AlphabetError,
    Grammar,
    GrammarSyntaxError,
    derive,
    derive_n,
    parse_grammar,
    parse_poly,
)
from stirlab.polynomials import Poly

import reference as ref

FLAG = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")
REFINED = parse_grammar("x -> x*z*q; y -> y*z*p; z -> x*y*z; p -> x*y*z; q -> x*y*z")
UVW = parse_grammar("u -> u*v*w; v -> 2*u*w; w -> u*w")


def gp(text: str) -> Poly:
    return parse_poly(text)


# malformed texts with the exact message, line and column of their error
SYNTAX_ERRORS = [
    # input that ends early: after the last token, or at the start of the
    # last line when there is no token
    (parse_poly, "", "unexpected end of input", 1, 1),
    (parse_poly, "  # a comment alone\n", "unexpected end of input", 2, 1),
    (parse_poly, "x +", "unexpected end of input", 1, 4),
    (parse_poly, "2 *\n\n", "unexpected end of input", 1, 4),
    (parse_poly, "x +\n  y -", "unexpected end of input", 2, 6),
    (parse_poly, "x^", "unexpected end of input", 1, 3),
    (parse_grammar, "x", "unexpected end of input", 1, 2),
    (parse_grammar, "x -> y;\n\n# c\ny -> x^2 *", "unexpected end of input", 4, 11),
    # a body is cut at the end of its head's line
    (parse_grammar, "x -> y +", "unexpected end of input", 1, 9),
    (parse_grammar, "x -> y +\nz", "unexpected end of input", 1, 9),
    (parse_grammar, "x -> ", "empty rule body", 1, 1),
    (parse_grammar, "x\n-> y", "empty rule body", 1, 1),
    (parse_poly, "x^y", "exponent must be a nonnegative integer", 1, 3),
    (parse_poly, "x^-1", "exponent must be a nonnegative integer", 1, 3),
    (parse_grammar, "x -> y ^ q", "exponent must be a nonnegative integer", 1, 10),
    (parse_poly, "x + * y", "expected a letter or integer, found '*'", 1, 5),
    (parse_poly, "x y", "trailing input 'y'", 1, 3),
    (parse_poly, "2^3", "trailing input '^'", 1, 2),
    (parse_poly, "x; y", "trailing input ';'", 1, 2),
    (parse_grammar, "x -> y z -> w", "trailing input 'z'", 1, 8),
    (parse_grammar, "x y -> z", "expected '->', found 'y'", 1, 3),
    (parse_grammar, "-> y", "expected a letter, found '->'", 1, 1),
    (parse_grammar, "x -> y; 2 -> x", "expected a letter, found '2'", 1, 9),
    (parse_grammar, "x -> y\nx -> z", "duplicate rule for 'x'", 2, 1),
    (parse_grammar, "x -> $", "unexpected character '$'", 1, 6),
    (parse_poly, "(x + y)", "unexpected character '('", 1, 1),
]


class TestParsing:
    def test_rule_files(self):
        assert FLAG.names == ("x", "y", "z")
        assert FLAG.rules["x"] == gp("x*y*z")
        assert FLAG.rules["y"].names == FLAG.names
        assert str(FLAG.rules["y"]) == "y*z^2"
        assert UVW.rules["v"] == gp("2*u*w")
        assert REFINED.names == ("p", "q", "x", "y", "z")
        # a body letter without a rule is a name of the grammar all the same
        assert parse_grammar("a -> b").names == ("a", "b")

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

    def test_a_grammar_is_its_rules(self):
        assert [f.name for f in dataclasses.fields(Grammar)] == ["rules", "names"]
        assert parse_grammar("z -> y^2*z; y -> y*z^2; x -> x*y*z") == FLAG

    def test_signs_and_constants(self):
        assert gp("1 - 2*x + x^2") == gp("x^2") - gp("x") * 2 + 1
        assert gp("-x + x") == Poly.zero()
        assert str(gp("0")) == "0"

    def test_roundtrip_through_str(self):
        for text in ("x*y*z^2 + x*y^2*z", "2*u*w", "1 + x", "-3*x + y^4"):
            p = gp(text)
            assert parse_poly(str(p)) == p

    @pytest.mark.parametrize("parse,bad,message,line,col", SYNTAX_ERRORS,
                             ids=[f"{bad}-{line}-{col}" for _, bad, _, line, col in SYNTAX_ERRORS])
    def test_syntax_errors_carry_position(self, parse, bad, message, line, col):
        with pytest.raises(GrammarSyntaxError) as exc:
            parse(bad)
        assert str(exc.value) == f"line {line}, column {col}: {message}"
        assert (exc.value.line, exc.value.column) == (line, col)

    @pytest.mark.parametrize("bad,col", [("٣*x", 1), ("١", 1), ("²", 1), ("x^²", 3), ("é", 1)])
    def test_a_character_outside_ascii_is_unexpected(self, bad, col):
        # str.isdigit and str.isalpha hold for these; the syntax is ASCII
        message = f"unexpected character {bad[col - 1]!r}"
        for parse, text, line, column in ((parse_poly, bad, 1, col),
                                          (parse_grammar, f"x -> y\ny -> {bad}", 2, col + 5)):
            with pytest.raises(GrammarSyntaxError) as exc:
                parse(text)
            assert str(exc.value) == f"line {line}, column {column}: {message}"
            assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"], ids=repr)
    def test_only_a_newline_ends_a_line(self, sep):
        # str.splitlines breaks at each of these; an editor shows one line,
        # and the reader takes each for whitespace within it
        for parse, text, message, col in (
                (parse_grammar, f"x -> y{sep}z -> w", "trailing input 'z'", 8),
                (parse_poly, f"x{sep}+", "unexpected end of input", 4)):
            with pytest.raises(GrammarSyntaxError) as exc:
                parse(text)
            assert str(exc.value) == f"line 1, column {col}: {message}"

    def test_a_crlf_rule_text_reads_as_its_lf_form(self):
        text = "x -> x*y*z   # the root\ny -> y*z^2\n\nz -> y^2*z\n"
        assert parse_grammar(text.replace("\n", "\r\n")) == parse_grammar(text) == FLAG

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((1, -1)), st.lists(st.integers(0, 5), max_size=2),
                              st.lists(st.tuples(st.sampled_from(("x", "y", "ab", "q1")),
                                                 st.integers(0, 3)), max_size=4),
                              st.booleans()), min_size=1, max_size=5),
           st.sampled_from(("", "+", "-")), st.data())
    def test_a_rendered_term_list_parses_to_its_poly(self, terms, lead, data):
        # each term is a sign, integer factors and letter powers, written in a
        # drawn order and spacing, a letter to the first power as x or x^1;
        # a term may come back negated, so that the two cancel
        spaces = st.sampled_from(("", " ", "  ", "\t"))
        terms = [(-1 if lead == "-" else 1, *terms[0][1:])] + terms[1:]
        terms += [(-sign, ints, powers, False) for sign, ints, powers, cancel in terms if cancel]
        names = sorted({v for _, _, powers, _ in terms for v, _ in powers})
        expected = Poly(names, [
            (tuple(sum(e for w, e in powers if w == v) for v in names), sign * math.prod(ints))
            for sign, ints, powers, _ in terms])
        text = lead
        for index, (sign, ints, powers, _) in enumerate(terms):
            factors = [str(c) for c in ints] + [
                v if e == 1 and data.draw(st.booleans()) else f"{v}^{e}" for v, e in powers]
            factors = data.draw(st.permutations(factors or ["1"]))
            if index:
                text += data.draw(spaces) + ("-" if sign < 0 else "+") + data.draw(spaces)
            text += "".join(f + data.draw(spaces) + "*" + data.draw(spaces) for f in factors[:-1])
            text += factors[-1]
        p = parse_poly(text)
        assert (p.names, p.terms) == (expected.names, expected.terms)


# each grammar function gates its arguments' types, as ValueError
MALFORMED = [
    (parse_poly, (5,), "not a polynomial text: 5"),
    (parse_grammar, (None,), "not a rule file text: None"),
    (Grammar, ([],), "not a mapping of rules: []"),
    (Grammar, ({"x": 5},), "not a polynomial: 5"),
    (Grammar, ({1: gp("x")},), "not a letter: 1"),
    (derive, (5, FLAG), "not a polynomial: 5"),
    (derive, (gp("x"), 5), "not a grammar: 5"),
    (derive_n, (gp("x"), None, 2), "not a grammar: None"),
    # a letter is an identifier of the rule syntax, so every text parses back
    (Grammar, ({"": gp("x")},), "not a letter: ''"),
    (Grammar, ({"x-y": gp("x")},), "not a letter: 'x-y'"),
    (Grammar, ({"a b": gp("x")},), "not a letter: 'a b'"),
    # Poly owns the letter rule, so a rule body cannot hold a bad letter
    (Poly, (("a b",), {(1,): 1}), "not a letter: 'a b'"),
    (Poly, (("x", 1),), "not a letter: 1"),
    # x*x over ("x", "x") printed as x*x, equal to x and not to x^2
    (Poly, (("x", "x"), {(1, 1): 1}), "repeated letter: 'x'"),
    (Poly, (("y", "x", "y"),), "repeated letter: 'y'"),
]


@pytest.mark.parametrize("fn, args, message", MALFORMED,
                         ids=[f"{fn.__name__}-{message}" for fn, _, message in MALFORMED])
def test_a_malformed_argument_is_named(fn, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_a_rule_body_over_a_repeated_letter_is_refused():
    # re-keyed onto the grammar's names, y*y over ("y", "y") lost an exponent
    with pytest.raises(ValueError, match=r"^repeated letter: 'y'$"):
        Grammar({"x": Poly(("y", "y"), {(1, 1): 1})})


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
        letters = Poly.letters
        monkeypatch.setattr(Poly, "letters", lambda p: checked.append(p.names) or letters(p))
        over_names = derive_n(gp("x"), FLAG, 1)
        assert over_names.names == FLAG.names
        assert checked and set(checked) == {("x",)}
        checked.clear()
        assert derive_n(over_names, FLAG, 5) == derive_n(gp("x"), FLAG, 6)
        assert set(checked) == {("x",)}
        checked.clear()
        derive_n(over_names, FLAG, 0)
        assert checked == []

    def test_collapse_matches_uvw_grammar(self):
        # under u = xy, v = p + q, w = z the collapsed derivative expands to
        # the refined one, since the images satisfy the same rules
        images = {"u": gp("x*y"), "v": gp("p + q"), "w": gp("z")}
        for n in range(5):
            collapsed = derive_n(gp("w"), UVW, n)
            expanded = sum((
                math.prod((images[v] ** k for v, k in zip(collapsed.names, e)),
                          start=Poly.one()) * c
                for e, c in collapsed.terms.items()
            ), Poly.zero())
            assert expanded == derive_n(gp("z"), REFINED, n)

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
        p = data.draw(polys_over(g.names)) if g.names else gp("5")
        assert derive(p, g) == ref.derive(p, g)

    def test_reference_on_a_constant_and_a_missing_rule(self):
        g = parse_grammar("a -> 3 - 2*a*b + c^2; b -> -1")  # c has no rule
        p = gp("a^2*c - 4*b*c + 7")
        assert derive(p, g) == ref.derive(p, g) == gp(
            "6*a*c - 4*a^2*b*c + 2*a*c^3 + 4*c"
        )

    # exponents at and next to powers of two, where the packed kernel's
    # bit width per letter is full or one short
    @settings(max_examples=80, deadline=None)
    @given(grammars, st.integers(0, 4), st.data())
    def test_derive_n_matches_the_iterated_reference(self, g, n, data):
        exponents = st.sampled_from([1, 2, 3, 4, 7, 8, 15, 16, 31])
        p = data.draw(polys_over(g.names, exponents)) if g.names else gp("5")
        expected = p
        for _ in range(n):
            expected = ref.derive(expected, g)
        assert derive_n(p, g, n) == expected

    def test_an_exponent_may_fill_its_field(self):
        # a^7 reaches a^15 at order 8, the largest value the 4 bits of a
        # hold, with b packed just above it
        g = parse_grammar("a -> a^2; b -> a*b - 2")
        p = gp("a^7 + b^3")
        expected = p
        for _ in range(8):
            expected = ref.derive(expected, g)
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
