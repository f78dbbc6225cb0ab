"""Exact polynomial arithmetic over the integers.

One value type, ``Poly``: a sparse polynomial keyed by exponent vectors over
an ordered tuple of variable names, with ``int`` coefficients.  A family in
x alone, such as A_n(x), is a ``Poly`` over ("x",) built by
:meth:`Poly.from_counts`; P_n(x, y, z) is one over :data:`XYZ`.  Every
identity of the package is an equality in this one ring, so no coefficient
is ever a fraction and no floating point appears anywhere.  A series sum
a_n(x) t^n / n! is not a type: the identities that need one compare it
coefficient by coefficient.
"""
from __future__ import annotations

import math
import re
from itertools import chain, compress
from operator import add
from typing import Iterable, Mapping, Sequence

# the variables of a trivariate polynomial such as P_n(x, y, z)
XYZ = ("x", "y", "z")

# a variable name: an identifier of the polynomial and rule syntax of
# :mod:`stirlab.grammar`, whose tokenizer reads it from here
_LETTER_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def _letter(value):
    """``value``, when it is a variable name; otherwise ValueError, so that
    every polynomial text parses back."""
    if not (isinstance(value, str) and _LETTER_RE.fullmatch(value)):
        raise ValueError(f"not a letter: {value!r}")
    return value


def monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
    """The text of a monomial, such as ``x*y^2``; "" for the unit monomial."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def format_terms(terms: Iterable[tuple[str, int]]) -> str:
    """Sign-joined text of (monomial text, nonzero coefficient) terms.

    A unit coefficient is left out before a monomial, the unit monomial
    prints its coefficient alone, and no terms at all print as ``0``.

    >>> format_terms([("", -1), ("z", 2), ("x*y^2", 1)])
    '-1 + 2*z + x*y^2'
    """
    parts: list[str] = []
    for mono, c in terms:
        mag = abs(c)
        body = f"{mag}*{mono}" if mono and mag != 1 else mono or str(mag)
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


# stands in for the exponent of an absent variable in the print order, so
# that within one degree a monomial holding a variable sorts before one
# without it
_ABSENT = math.inf


class Poly:
    """Sparse polynomial with integer coefficients over named commuting
    variables.

    ``names`` is an ordered tuple of distinct variable names, each an
    identifier ``[A-Za-z][A-Za-z0-9_]*``, and ``terms`` maps tuples of one
    nonnegative ``int`` exponent per name to nonzero ``int`` coefficients;
    anything else raises ValueError.  An ``int`` operand is a constant, and
    any operand but an int or a Poly is unsupported.  A binary operation or
    ``==`` on polynomials over different ``names`` works over the sorted union
    of both, so x over ("x",) equals x over ("x", "y").  Terms print by
    degree, then by their exponents in ``names`` order with an absent
    variable sorting last, and ``str`` round-trips through
    :func:`stirlab.grammar.parse_poly`.

    >>> x, y = Poly.var("x"), Poly.var("y")
    >>> str((x + y) ** 2 - 1)
    '-1 + 2*x*y + x^2 + y^2'
    >>> str(Poly.from_counts({0: 1, 2: -3}))
    '1 - 3*x^2'
    """

    __slots__ = ("names", "terms")

    def __init__(
        self,
        names: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], int] | Iterable = (),
    ):
        self.names: tuple[str, ...] = tuple(map(_letter, names))
        if len(set(self.names)) < len(self.names):
            repeated = next(v for i, v in enumerate(self.names) if v in self.names[:i])
            raise ValueError(f"repeated letter: {repeated!r}")
        if not isinstance(terms, Mapping):
            acc: dict[tuple[int, ...], int] = {}
            for e, c in terms:
                acc[e] = acc.get(e, 0) + c
            terms = acc
        # set passes, not a loop; exps is made once every key is a tuple
        if (set(map(type, terms)) - {tuple} or set(map(len, terms)) - {len(self.names)}
                or set(map(type, chain(exps := [*chain.from_iterable(terms)], terms.values())))
                - {int} or min(exps, default=0) < 0):
            raise ValueError(f"not terms over {self.names}: {terms}")
        # a mapping's keys are distinct: adopt its values, dropping zeros
        self.terms: dict[tuple[int, ...], int] = {e: c for e, c in terms.items() if c}

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((), {(): 1})

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls((name,), {(1,): 1})

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> Poly:
        """sum counts[k] * x^k, from an exponent -> coefficient mapping."""
        return cls(("x",), {(k,): c for k, c in counts.items()})

    def letters(self) -> set[str]:
        """The variables with a nonzero exponent in some term."""
        return {v for e in self.terms for v, k in zip(self.names, e) if k}

    def coefficient(self, *exps: int) -> int:
        """The coefficient of the monomial with these exponents over ``names``
        (0 when absent)."""
        return self.terms.get(exps, 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in print order."""
        return sorted(
            self.terms.items(),
            key=lambda t: (sum(t[0]), [e or _ABSENT for e in t[0]]),
        )

    def terms_over(self, names: tuple[str, ...]) -> dict[tuple[int, ...], int]:
        """``terms`` re-keyed onto ``names``, which must hold every variable
        of :meth:`letters`; a variable new to ``names`` gets exponent 0."""
        if names == self.names:
            return self.terms
        pos = [self.names.index(v) if v in self.names else None for v in names]
        return {
            tuple([0 if i is None else e[i] for i in pos]): c
            for e, c in self.terms.items()
        }

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if (other := _as_poly(other)) is NotImplemented:
            return NotImplemented
        _, a, b = _aligned(self, other)
        return a == b

    def __add__(self, other: Poly | int) -> Poly:
        if (other := _as_poly(other)) is NotImplemented:
            return NotImplemented
        names, a, b = _aligned(self, other)
        acc = dict(a)
        for e, c in b.items():
            acc[e] = acc.get(e, 0) + c
        return Poly(names, acc)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | int) -> Poly:
        return self + -other if isinstance(other, (Poly, int)) else NotImplemented

    def __rsub__(self, other: int) -> Poly:
        return _as_poly(other) - self if isinstance(other, int) else NotImplemented

    def __mul__(self, other: Poly | int) -> Poly:
        if isinstance(other, int):
            return Poly(self.names, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        names, a, b = _aligned(self, other)
        acc: dict[tuple[int, ...], int] = {}
        for e, u in a.items():
            for f, v in b.items():
                key = tuple(map(add, e, f))
                acc[key] = acc.get(key, 0) + u * v
        return Poly(names, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        """self**n by repeated squaring, for n >= 0."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        base, result = self, Poly(self.names, {(0,) * len(self.names): 1})
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def partial(self, name: str) -> Poly:
        """Partial derivative with respect to the variable ``name``."""
        if name not in self.names:
            return Poly(self.names)
        i = self.names.index(name)
        return Poly(self.names, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in self.terms.items()
            if e[i]
        })

    def to_json(self) -> list:
        return [
            {"monomial": dict(compress(zip(self.names, e), e)), "coeff": c}
            for e, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        return format_terms(
            (monomial_str(self.names, e), c) for e, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


# perfbench/layers.py counts polynomial products by wrapping multiplication
# on the two names below; nothing in the package uses them.  The first is
# Poly itself, so every product is counted.  The second is an empty subclass
# that is never instantiated, so its wrapper counts no product twice.  Both
# go when the benchmark reads a trace of the package's own.
QPoly = Poly


class TriPoly(Poly):
    __slots__ = ()


def _as_poly(v: object) -> Poly:
    """v itself, an int (True among them) as a constant, or NotImplemented."""
    if isinstance(v, Poly):
        return v
    return Poly((), {(): +v}) if isinstance(v, int) else NotImplemented  # +True is the int 1


def _aligned(
    a: Poly, b: Poly
) -> tuple[tuple[str, ...], dict[tuple[int, ...], int], dict[tuple[int, ...], int]]:
    """Common variable names of two polynomials and both term dicts over them."""
    if a.names == b.names:
        return a.names, a.terms, b.terms
    names = tuple(sorted(set(a.names) | set(b.names)))
    return names, a.terms_over(names), b.terms_over(names)
