"""Commutative context-free-grammar calculus.

A grammar assigns each letter of an alphabet a polynomial replacement rule.
The induced formal derivative D sends a letter to its rule and extends to the
whole polynomial ring by linearity and the Leibniz product rule; letters that
were never given a rule derive to 0.  Iterating D on a seed monomial produces
the statistic distributions this package verifies.

Rule files hold one rule per line (or several separated by semicolons)::

    # substitution rules
    x -> x*y*z
    y -> y*z^2; z -> y^2*z

Polynomial syntax: integer coefficients, ``*`` for products, ``^`` for
powers, ``+``/``-``, identifiers matching [A-Za-z][A-Za-z0-9_]*, comments
from ``#`` to end of line.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, Union

Monomial = tuple[tuple[str, int], ...]  # ((letter, exponent), ...) sorted by letter

_UNIT: Monomial = ()


class GrammarSyntaxError(ValueError):
    """A rule file or polynomial expression failed to parse."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AlphabetError(ValueError):
    """A polynomial mentions letters outside the grammar's alphabet."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    acc = dict(a)
    for letter, e in b:
        acc[letter] = acc.get(letter, 0) + e
    return tuple(sorted(acc.items()))


def _mono_without(m: Monomial, letter: str) -> Monomial:
    out = []
    for ell, e in m:
        if ell == letter:
            if e > 1:
                out.append((ell, e - 1))
        else:
            out.append((ell, e))
    return tuple(out)


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_str(m: Monomial) -> str:
    return "*".join(ell if e == 1 else f"{ell}^{e}" for ell, e in m)


class GrammarPolynomial:
    """Multivariate polynomial over commuting letters, integer coefficients.

    Stored sparsely as monomial -> coefficient with no zero entries, so
    equality is structural.  Terms print in graded order (degree first, then
    by exponent pattern), and ``str`` round-trips through :func:`parse_poly`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int] | Iterable = ()):
        if not isinstance(terms, Mapping):
            acc: dict[Monomial, int] = {}
            for m, c in terms:
                acc[m] = acc.get(m, 0) + c
            terms = acc
        # a mapping's keys are distinct: adopt its sums, dropping zeros
        self.terms: dict[Monomial, int] = {m: c for m, c in terms.items() if c}

    @classmethod
    def zero(cls) -> GrammarPolynomial:
        return cls()

    @classmethod
    def one(cls) -> GrammarPolynomial:
        return cls({_UNIT: 1})

    @classmethod
    def letter(cls, name: str) -> GrammarPolynomial:
        return cls({((name, 1),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[str, int], c: int = 1) -> GrammarPolynomial:
        m = tuple(sorted((ell, e) for ell, e in exps.items() if e))
        return cls({m: c})

    def letters(self) -> set[str]:
        return {ell for m in self.terms for ell, _ in m}

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        return sorted(self.terms.items(), key=lambda t: (_mono_degree(t[0]), t[0]))

    def coefficient(self, exps: Mapping[str, int]) -> int:
        m = tuple(sorted((ell, e) for ell, e in exps.items() if e))
        return self.terms.get(m, 0)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GrammarPolynomial):
            return self.terms == other.terms
        if isinstance(other, int):
            return self == GrammarPolynomial({_UNIT: other})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: GrammarPolynomial | int) -> GrammarPolynomial:
        other = _as_gpoly(other)
        acc = dict(self.terms)
        for m, c in other.terms.items():
            acc[m] = acc.get(m, 0) + c
        return GrammarPolynomial(acc)

    __radd__ = __add__

    def __neg__(self) -> GrammarPolynomial:
        return GrammarPolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: GrammarPolynomial | int) -> GrammarPolynomial:
        return self + (-_as_gpoly(other))

    def __rsub__(self, other: int) -> GrammarPolynomial:
        return _as_gpoly(other) - self

    def __mul__(self, other: GrammarPolynomial | int) -> GrammarPolynomial:
        if isinstance(other, int):
            return GrammarPolynomial({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, GrammarPolynomial):
            return NotImplemented
        acc: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return GrammarPolynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> GrammarPolynomial:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = GrammarPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_json(self) -> list:
        return [
            {"monomial": {ell: e for ell, e in m}, "coeff": c}
            for m, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for m, c in self.sorted_terms():
            mag = abs(c)
            body = _mono_str(m)
            if not body:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"GrammarPolynomial({str(self)!r})"


def _as_gpoly(v: GrammarPolynomial | int) -> GrammarPolynomial:
    if isinstance(v, GrammarPolynomial):
        return v
    return GrammarPolynomial({_UNIT: v})


@dataclass(frozen=True)
class Grammar:
    """Substitution rules letter -> polynomial over a fixed alphabet."""

    rules: Mapping[str, GrammarPolynomial]
    alphabet: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        letters = set(self.rules)
        for body in self.rules.values():
            letters |= body.letters()
        object.__setattr__(self, "alphabet", frozenset(self.alphabet) | letters)

    def rule(self, letter: str) -> GrammarPolynomial:
        """The derivative of a single letter (0 when no rule was given)."""
        return self.rules.get(letter, GrammarPolynomial.zero())


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*|\d+|->|[*^+\-;()]|\S")


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | op
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        for m in _TOKEN_RE.finditer(line):
            t = m.group()
            col = m.start() + 1
            if t[0].isalpha():
                kind = "ident"
            elif t[0].isdigit():
                kind = "int"
            elif t in ("->", "*", "^", "+", "-", ";"):
                kind = "op"
            else:
                raise GrammarSyntaxError(f"unexpected character {t!r}", lineno, col)
            tokens.append(_Token(kind, t, lineno, col))
    return tokens


class _Parser:
    def __init__(self, tokens: Sequence[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> _Token:
        tok = self.peek()
        if tok is None:
            if self.tokens:
                last = self.tokens[-1]
                raise GrammarSyntaxError(
                    "unexpected end of input", last.line, last.col + len(last.text)
                )
            raise GrammarSyntaxError("unexpected end of input", self.end_line, 1)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.text != text:
            raise GrammarSyntaxError(f"expected {text!r}, found {tok.text!r}",
                                     tok.line, tok.col)
        return tok

    def parse_expr(self) -> GrammarPolynomial:
        sign = 1
        tok = self.peek()
        if tok is not None and tok.text in ("+", "-"):
            self.take()
            sign = -1 if tok.text == "-" else 1
        acc = self.parse_term() * sign
        while True:
            tok = self.peek()
            if tok is None or tok.text not in ("+", "-"):
                return acc
            self.take()
            term = self.parse_term()
            acc = acc + term if tok.text == "+" else acc - term

    def parse_term(self) -> GrammarPolynomial:
        acc = self.parse_atom()
        while True:
            tok = self.peek()
            if tok is None or tok.text != "*":
                return acc
            self.take()
            acc = acc * self.parse_atom()

    def parse_atom(self) -> GrammarPolynomial:
        tok = self.take()
        if tok.kind == "int":
            return _as_gpoly(int(tok.text))
        if tok.kind == "ident":
            exp = 1
            nxt = self.peek()
            if nxt is not None and nxt.text == "^":
                self.take()
                etok = self.take()
                if etok.kind != "int":
                    raise GrammarSyntaxError("exponent must be a nonnegative integer",
                                             etok.line, etok.col)
                exp = int(etok.text)
            return GrammarPolynomial.monomial({tok.text: exp})
        raise GrammarSyntaxError(f"expected a letter or integer, found {tok.text!r}",
                                 tok.line, tok.col)


def parse_poly(text: str) -> GrammarPolynomial:
    """Parse a single polynomial expression.

    >>> str(parse_poly("x*y^2 + 2*z - 1"))
    '-1 + 2*z + x*y^2'
    """
    end_line = text.count("\n") + 1
    parser = _Parser(_tokenize(text), end_line)
    poly = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise GrammarSyntaxError(f"trailing input {tok.text!r}", tok.line, tok.col)
    return poly


def parse_grammar(text: str) -> Grammar:
    """Parse a rule file into a Grammar.

    >>> g = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")
    >>> sorted(g.alphabet)
    ['x', 'y', 'z']
    """
    tokens = _tokenize(text)
    end_line = text.count("\n") + 1
    parser = _Parser(tokens, end_line)
    rules: dict[str, GrammarPolynomial] = {}
    while parser.peek() is not None:
        if parser.peek().text == ";":  # empty statement
            parser.take()
            continue
        head = parser.take()
        if head.kind != "ident":
            raise GrammarSyntaxError(f"expected a letter, found {head.text!r}",
                                     head.line, head.col)
        if head.text in rules:
            raise GrammarSyntaxError(f"duplicate rule for {head.text!r}",
                                     head.line, head.col)
        parser.expect("->")
        # a rule body extends to the next ';' or end of line
        body_tokens: list[_Token] = []
        while parser.peek() is not None and parser.peek().text != ";" \
                and parser.peek().line == head.line:
            body_tokens.append(parser.take())
        if not body_tokens:
            raise GrammarSyntaxError("empty rule body", head.line, head.col)
        sub = _Parser(body_tokens, body_tokens[-1].line)
        rules[head.text] = sub.parse_expr()
        rest = sub.peek()
        if rest is not None:
            raise GrammarSyntaxError(f"trailing input {rest.text!r}", rest.line, rest.col)
    return Grammar(rules)


# ---------------------------------------------------------------------------
# the formal derivative and companions


def _check_alphabet(p: GrammarPolynomial, g: Grammar) -> None:
    missing = p.letters() - g.alphabet
    if missing:
        raise AlphabetError(f"letters outside the grammar's alphabet: {sorted(missing)}")


def derive(p: GrammarPolynomial, g: Grammar) -> GrammarPolynomial:
    """One application of the formal derivative: Leibniz over each monomial.

    >>> g = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")
    >>> str(derive(parse_poly("x*y"), g))
    'x*y*z^2 + x*y^2*z'
    """
    _check_alphabet(p, g)
    acc: dict[Monomial, int] = {}
    for m, c in p.terms.items():
        for letter, e in m:
            rest, ce = _mono_without(m, letter), c * e
            for rm, rc in g.rule(letter).terms.items():
                key = _mono_mul(rest, rm)
                acc[key] = acc.get(key, 0) + ce * rc
    return GrammarPolynomial(acc)


def derive_n(p: GrammarPolynomial, g: Grammar, n: int) -> GrammarPolynomial:
    """n-fold application of the formal derivative (n = 0 is the identity)."""
    if n < 0:
        raise ValueError("derivative order must be nonnegative")
    _check_alphabet(p, g)
    for _ in range(n):
        p = derive(p, g)
    return p


def substitute(
    p: GrammarPolynomial,
    bindings: Mapping[str, Union[GrammarPolynomial, str, int]],
) -> GrammarPolynomial:
    """Simultaneous substitution of letters; unbound letters stay themselves."""
    resolved = {
        ell: (GrammarPolynomial.letter(v) if isinstance(v, str) else _as_gpoly(v))
        for ell, v in bindings.items()
    }
    acc = GrammarPolynomial.zero()
    for m, c in p.terms.items():
        term = _as_gpoly(c)
        for letter, e in m:
            base = resolved.get(letter, GrammarPolynomial.letter(letter))
            term = term * base**e
        acc = acc + term
    return acc


def coefficient_profile(
    p: GrammarPolynomial, axes: Sequence[str]
) -> dict[tuple[int, ...], int]:
    """Group terms by the exponents of ``axes``, summing coefficients.

    Each group must carry a single residual monomial in the remaining
    letters; a mixed residual signals an extraction mistake and raises
    ValueError.
    """
    axis_set = set(axes)
    groups: dict[tuple[int, ...], int] = {}
    residuals: dict[tuple[int, ...], Monomial] = {}
    for m, c in p.terms.items():
        exps = dict(m)
        key = tuple(exps.get(a, 0) for a in axes)
        residual = tuple((ell, e) for ell, e in m if ell not in axis_set)
        if key in residuals and residuals[key] != residual:
            raise ValueError(
                f"mixed residual monomials for axis exponents {key}: "
                f"{_mono_str(residuals[key]) or '1'} vs {_mono_str(residual) or '1'}"
            )
        residuals[key] = residual
        groups[key] = groups.get(key, 0) + c
    return {k: v for k, v in groups.items() if v}
