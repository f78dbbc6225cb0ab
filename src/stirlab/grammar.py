"""Commutative context-free-grammar calculus.

A grammar assigns each letter of an alphabet a polynomial replacement rule.
The induced formal derivative D sends a letter to its rule and extends to the
whole polynomial ring by linearity and the Leibniz product rule; letters that
were never given a rule derive to 0.  Iterating D on a seed monomial produces
the statistic distributions this package verifies.

Polynomials are :class:`stirlab.polynomials.Poly` values.  A grammar holds
its rules over its sorted alphabet, and with each letter the shifts its rule
terms make: a term's exponent tuple less the letter's unit exponent.  One
kernel derives every order: it packs each exponent tuple into one int, a
bit field per letter, so that a shift is one int addition per output term.

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
from typing import Mapping, Sequence, Union

from .errors import ResourceLimitError
from .objects import _order
from .polynomials import Poly, monomial_str

# the most terms derive_n lets a derivative reach: above D^100(z) under the
# refined grammar (87,125 terms), the largest the package derives
TERM_LIMIT = 100_000


class GrammarSyntaxError(ValueError):
    """A rule file or polynomial expression failed to parse."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class AlphabetError(ValueError):
    """A polynomial mentions letters outside the grammar's alphabet."""


@dataclass(frozen=True)
class Grammar:
    """Substitution rules letter -> polynomial over a fixed alphabet.

    ``names`` is the sorted alphabet, and every rule is held over it.
    ``shifts[i]`` holds a (shift, coefficient) pair for each term of the
    rule for ``names[i]``, none without a rule; the shift is the term's
    exponent tuple less the unit exponent of ``names[i]``.  It is derived
    from ``rules``, so repr and equality leave it out.
    """

    rules: Mapping[str, Poly]
    alphabet: frozenset[str] = field(init=False)  # rule heads and body letters
    names: tuple[str, ...] = field(init=False)
    shifts: tuple[tuple[tuple[tuple[int, ...], int], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        letters = set(self.rules)
        for body in self.rules.values():
            letters |= body.letters()
        alphabet = frozenset(letters)
        names = tuple(sorted(alphabet))
        rules = {h: Poly(names, r.terms_over(names)) for h, r in self.rules.items()}
        shifts = tuple(
            tuple(
                (tuple(k - (j == i) for j, k in enumerate(r)), c)
                for r, c in rules.get(letter, Poly.zero()).terms.items()
            )
            for i, letter in enumerate(names)
        )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "shifts", shifts)

    def rule(self, letter: str) -> Poly:
        """The derivative of a single letter (0 when no rule was given)."""
        return self.rules.get(letter, Poly.zero())


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

    def parse_expr(self) -> Poly:
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

    def parse_term(self) -> Poly:
        acc = self.parse_atom()
        while True:
            tok = self.peek()
            if tok is None or tok.text != "*":
                return acc
            self.take()
            acc = acc * self.parse_atom()

    def parse_atom(self) -> Poly:
        tok = self.take()
        if tok.kind == "int":
            return Poly((), {(): int(tok.text)})
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
            return Poly((tok.text,), {(exp,): 1})
        raise GrammarSyntaxError(f"expected a letter or integer, found {tok.text!r}",
                                 tok.line, tok.col)


def parse_poly(text: str) -> Poly:
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
    rules: dict[str, Poly] = {}
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


def _check_alphabet(p: Poly, g: Grammar) -> None:
    missing = p.letters() - g.alphabet
    if missing:
        raise AlphabetError(f"letters outside the grammar's alphabet: {sorted(missing)}")


def derive(p: Poly, g: Grammar) -> Poly:
    """One application of the formal derivative, Leibniz over each monomial:
    the first order of :func:`derive_n`, over the grammar's ``names``.

    >>> g = parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z")
    >>> str(derive(parse_poly("x*y"), g))
    'x*y*z^2 + x*y^2*z'
    """
    return derive_n(p, g, 1)


def derive_n(p: Poly, g: Grammar, n: int) -> Poly:
    """n-fold application of the formal derivative (n = 0 is the identity).
    A derivative past :data:`TERM_LIMIT` terms raises ResourceLimitError."""
    return _powers(p, g, n)[-1]


def _powers(p: Poly, g: Grammar, n: int, every: bool = False) -> list[Poly]:
    """[D^n(p)], or D^0(p)..D^n(p) when ``every``, packing p once: each letter
    gets a bit field that holds p's degree plus n times the most a rule term
    adds, so packed terms add as exponent tuples do.  A negative exponent, in
    p or a rule, would borrow from the next field and raises ValueError."""
    n = _order(n)
    if p.names != g.names:
        _check_alphabet(p, g)
    terms = p.terms_over(g.names)
    for e in [*terms, *(e for rule in g.rules.values() for e in rule.terms)]:
        if min(e, default=0) < 0:
            raise ValueError(f"a negative exponent cannot be derived: {monomial_str(g.names, e)}")
    growth = max((sum(d) for shifts in g.shifts for d, _ in shifts), default=0)
    width = (max(map(sum, terms), default=0) + n * max(growth, 0)).bit_length() or 1
    mask = (1 << width) - 1
    offsets = range(0, width * len(g.names), width)

    def pack(e: tuple[int, ...]) -> int:
        return sum(k << off for k, off in zip(e, offsets))

    def unpack(packed: dict[int, int]) -> Poly:
        return Poly(g.names, {tuple([e >> off & mask for off in offsets]): c
                              for e, c in packed.items()})

    rule_terms = tuple((off, pack(d), dc)
                       for off, shifts in zip(offsets, g.shifts) for d, dc in shifts)
    packed = {pack(e): c for e, c in terms.items()}
    out = [unpack(packed)] if every else []
    for order in range(1, n + 1):
        packed = _step(packed, rule_terms, mask)
        if len(packed) > TERM_LIMIT:
            raise ResourceLimitError(f"the derivative of order {order} has {len(packed)} terms,"
                                     f" past the grammar term limit {TERM_LIMIT}")
        if every:
            out.append(unpack(packed))
    return out if every else [unpack(packed)]


def _step(packed: dict[int, int], rule_terms, mask: int) -> dict[int, int]:
    """One order on packed terms: a term e, c * x_i^k * m with k > 0, and a
    rule term (off_i, d, dc) of x_i give c * k * dc at e + d."""
    acc: dict[int, int] = {}
    get = acc.get
    for e, c in packed.items():
        for off, d, dc in rule_terms:
            if k := e >> off & mask:
                key = e + d
                acc[key] = get(key, 0) + c * k * dc
    if 0 in acc.values():  # cancelled terms, from negative coefficients
        acc = {e: c for e, c in acc.items() if c}
    return acc


def substitute(p: Poly, bindings: Mapping[str, Union[Poly, str, int]]) -> Poly:
    """Simultaneous substitution of letters; unbound letters stay themselves."""
    images = []
    for letter in p.names:
        v = bindings.get(letter, letter)
        if isinstance(v, str):
            v = Poly.var(v)
        elif not isinstance(v, Poly):
            v = Poly((), {(): v})
        images.append(v)
    names = tuple(sorted(set().union(*(im.names for im in images))))
    images = [Poly(names, im.terms_over(names)) for im in images]
    powers: dict[tuple[int, int], Poly] = {}
    acc: dict[tuple[int, ...], int] = {}
    for e, c in p.terms.items():
        term = Poly(names, {(0,) * len(names): c})
        for i, k in enumerate(e):
            if k:
                if (i, k) not in powers:
                    powers[i, k] = images[i] ** k
                term = term * powers[i, k]
        for f, v in term.terms.items():
            acc[f] = acc.get(f, 0) + v
    return Poly(names, acc)


def coefficient_profile(p: Poly, axes: Sequence[str]) -> dict[tuple[int, ...], int]:
    """Group terms by the exponents of ``axes``, summing coefficients.

    Each group must carry a single residual monomial in the remaining
    letters; a mixed residual signals an extraction mistake and raises
    ValueError.
    """
    axis_pos = [p.names.index(a) if a in p.names else None for a in axes]
    rest = [v for v in p.names if v not in axes]
    rest_pos = [p.names.index(v) for v in rest]
    groups: dict[tuple[int, ...], int] = {}
    residuals: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e, c in p.terms.items():
        key = tuple(0 if i is None else e[i] for i in axis_pos)
        residual = tuple(e[i] for i in rest_pos)
        if residuals.setdefault(key, residual) != residual:
            raise ValueError(
                f"mixed residual monomials for axis exponents {key}: "
                f"{monomial_str(rest, residuals[key]) or '1'} vs "
                f"{monomial_str(rest, residual) or '1'}"
            )
        groups[key] = groups.get(key, 0) + c
    return {k: v for k, v in groups.items() if v}
