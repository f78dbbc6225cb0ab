"""Commutative context-free-grammar calculus.

A grammar assigns each letter of an alphabet a polynomial replacement rule.
The induced formal derivative D sends a letter to its rule and extends to the
whole polynomial ring by linearity and the Leibniz product rule; letters that
were never given a rule derive to 0.  Iterating D on a seed monomial produces
the statistic distributions this package verifies.

Polynomials are :class:`stirlab.polynomials.Poly` values.  A grammar holds
its rules alone, over the sorted letters they mention.  One kernel derives
every order: it packs each exponent tuple into one int, a bit field per
letter, so that a rule term moves a packed term by one int addition, and
each order makes one pass over the terms per rule term.  An argument of the
wrong type, or a letter outside the identifier syntax below, raises
ValueError.

Rule files hold one rule per line (or several separated by semicolons)::

    # substitution rules
    x -> x*y*z
    y -> y*z^2; z -> y^2*z

A rule body runs to the next ``;`` or the end of its head's line.  The
polynomial syntax is flat: a signed sum of ``*`` products of integers and
letters, each letter with an optional ``^`` exponent, and no parentheses.
Integers are ASCII digits, letters ASCII identifiers [A-Za-z][A-Za-z0-9_]*,
and ``#`` comments run to the end of the line.  Any other character, a
non-ASCII digit or letter too, is an error: every GrammarSyntaxError names
the line and column of its fault.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ResourceLimitError
from .objects import _order
from .polynomials import _LETTER_RE, Poly, _letter

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


def _arg(value, kind, what: str):
    """``value``, when it is a ``kind`` and not a bool; otherwise
    ValueError: the one gate of the grammar functions' arguments."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"not {what}: {value!r}")
    return value


@dataclass(frozen=True)
class Grammar:
    """Substitution rules letter -> polynomial.

    ``names`` is the sorted alphabet: the rule heads and every letter of a
    rule body.  Every rule is held over it; a letter without a rule derives
    to 0.
    """

    rules: Mapping[str, Poly]
    names: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        rules = _arg(self.rules, Mapping, "a mapping of rules")
        letters = {_letter(head) for head in rules}
        for body in rules.values():
            letters |= _arg(body, Poly, "a polynomial").letters()
        names = tuple(sorted(letters))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "rules",
                           {h: Poly(names, r.terms_over(names)) for h, r in rules.items()})


# ---------------------------------------------------------------------------
# parsing

# an identifier, ASCII digits, an operator, or else one bad character
_TOKEN_RE = re.compile(rf"{_LETTER_RE.pattern}|[0-9]+|->|[*^+\-;]|(\S)")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """The (text, line, column) tokens of ``text``, comments dropped; only
    a newline ends a line, as in ``parse_poly``'s end-of-input line."""
    tokens = []
    for line, body in enumerate(text.split("\n"), start=1):
        for m in _TOKEN_RE.finditer(body.split("#", 1)[0]):
            if m[1]:
                raise GrammarSyntaxError(f"unexpected character {m[1]!r}", line, m.start() + 1)
            tokens.append((m[0], line, m.start() + 1))
    return tokens


def _read_poly(tokens: list[tuple[str, int, int]], end_line: int) -> Poly:
    """The polynomial a whole token list spells, ``[sign] monomial {(+|-)
    monomial}`` with a monomial a ``*`` product of integers and letters, each
    letter with an optional ``^`` exponent.  Each monomial adds its
    coefficient into one term dict, keyed by its nonzero exponents.  Input
    that ends early is reported after the last token, or at the start of
    ``end_line`` when there is none."""
    last, line, col = tokens[-1] if tokens else ("", end_line, 1)
    tokens = [*tokens, ("", line, col + len(last))]  # "" marks the end

    def fault(text: str, message: str, line: int, col: int) -> GrammarSyntaxError:
        return GrammarSyntaxError(message if text else "unexpected end of input", line, col)

    terms: dict[tuple[tuple[str, int], ...], int] = {}
    letters: set[str] = set()
    op, i = "+", 0
    if tokens[0][0] in ("+", "-"):  # a leading sign
        op, i = tokens[0][0], 1
    while op:  # a monomial after each sign, to the end of the input
        if op not in ("+", "-"):
            raise GrammarSyntaxError(f"trailing input {op!r}", line, col)
        coeff, exps = -1 if op == "-" else 1, {}
        while True:  # a factor, then '*' and the next or the monomial's end
            text, line, col = tokens[i]
            if text.isdigit():
                coeff *= int(text)
            elif text[:1].isalpha():
                exp = "1"
                if tokens[i + 1][0] == "^":
                    i += 2
                    exp, line, col = tokens[i]
                    if not exp.isdigit():
                        raise fault(exp, "exponent must be a nonnegative integer", line, col)
                letters.add(text)
                exps[text] = exps.get(text, 0) + int(exp)
            else:
                raise fault(text, f"expected a letter or integer, found {text!r}", line, col)
            i += 1
            if tokens[i][0] != "*":
                break
            i += 1
        key = tuple(sorted((v, e) for v, e in exps.items() if e))
        terms[key] = terms.get(key, 0) + coeff
        op, line, col = tokens[i]
        i += 1
    names = sorted(letters)
    return Poly(names, {tuple([dict(key).get(v, 0) for v in names]): c
                        for key, c in terms.items()})


def parse_poly(text: str) -> Poly:
    """Parse a single polynomial expression.

    >>> str(parse_poly("x*y^2 + 2*z - 1"))
    '-1 + 2*z + x*y^2'
    """
    _arg(text, str, "a polynomial text")
    return _read_poly(_tokenize(text), text.count("\n") + 1)


def parse_grammar(text: str) -> Grammar:
    """Parse a rule file into a Grammar.

    >>> parse_grammar("x -> x*y*z; y -> y*z^2; z -> y^2*z").names
    ('x', 'y', 'z')
    """
    tokens = _tokenize(_arg(text, str, "a rule file text"))
    rules: dict[str, Poly] = {}
    i = 0
    while i < len(tokens):
        head, line, col = tokens[i]
        if head == ";":  # empty statement
            i += 1
            continue
        if not head[0].isalpha():
            raise GrammarSyntaxError(f"expected a letter, found {head!r}", line, col)
        if head in rules:
            raise GrammarSyntaxError(f"duplicate rule for {head!r}", line, col)
        if i + 1 == len(tokens):
            raise GrammarSyntaxError("unexpected end of input", line, col + len(head))
        arrow, arrow_line, arrow_col = tokens[i + 1]
        if arrow != "->":
            raise GrammarSyntaxError(f"expected '->', found {arrow!r}", arrow_line, arrow_col)
        # a rule body runs to the next ';' or the end of the head's line
        i = end = i + 2
        while end < len(tokens) and tokens[end][0] != ";" and tokens[end][1] == line:
            end += 1
        if end == i:
            raise GrammarSyntaxError("empty rule body", line, col)
        rules[head] = _read_poly(tokens[i:end], line)
        i = end
    return Grammar(rules)


# ---------------------------------------------------------------------------
# the formal derivative


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
    adds, so packed terms add as exponent tuples do."""
    p, g, n = _arg(p, Poly, "a polynomial"), _arg(g, Grammar, "a grammar"), _order(n)
    if p.names != g.names and (missing := p.letters() - set(g.names)):
        raise AlphabetError(f"letters outside the grammar's alphabet: {sorted(missing)}")
    terms = p.terms_over(g.names)
    # (i, e, c): a term c * x^e of the rule for names[i]
    rules = [(i, e, c) for i, letter in enumerate(g.names) if letter in g.rules
             for e, c in g.rules[letter].terms.items()]
    growth = max((sum(e) - 1 for _, e, _ in rules), default=0)
    width = (max(map(sum, terms), default=0) + n * max(growth, 0)).bit_length() or 1
    mask = (1 << width) - 1
    offsets = range(0, width * len(g.names), width)

    def pack(e: tuple[int, ...]) -> int:
        return sum(k << off for k, off in zip(e, offsets))

    def unpack(packed: dict[int, int]) -> Poly:
        return Poly(g.names, {tuple([e >> off & mask for off in offsets]): c
                              for e, c in packed.items()})

    # a rule term of names[i] takes one x_i off the term it derives
    rule_terms = tuple((offsets[i], pack(e) - (1 << offsets[i]), c) for i, e, c in rules)
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
    """One order on packed terms, one pass over them per rule term: a rule
    term (off_i, d, dc) of x_i and a term e, c * x_i^k * m with k > 0 give
    c * (k * dc) at e + d, so the big coefficient c is multiplied once."""
    acc: dict[int, int] = {}
    get = acc.get
    terms = packed.items()
    for off, d, dc in rule_terms:
        for e, c in terms:
            if k := e >> off & mask:
                key = e + d
                acc[key] = get(key, 0) + c * (k * dc)
    if 0 in acc.values():  # cancelled terms, from negative coefficients
        acc = {e: c for e, c in acc.items() if c}
    return acc
