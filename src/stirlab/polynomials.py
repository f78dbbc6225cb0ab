"""Exact polynomial arithmetic over the rationals.

Two value types: ``QPoly`` (dense, univariate in x) and ``Poly`` (sparse,
keyed by exponent vectors over an ordered tuple of variable names).  A
coefficient is stored as an ``int`` when it is integral and as a
`fractions.Fraction` otherwise, so integer families run on integer
arithmetic and rational ones stay exact; no floating point anywhere.  A
series sum a_n(x) t^n / n! is not a type: the identities that need one
compare it coefficient by coefficient.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

Rat = Union[Fraction, int]

# the variables of a trivariate polynomial such as P_n(x, y, z)
XYZ = ("x", "y", "z")


def _exact(c: Rat) -> Rat:
    """``c`` as an int when it is integral, else as a Fraction.

    Every stored coefficient passes through here, so ``str(c)`` prints an
    integral coefficient as its integer and any other as ``p/q``.
    """
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _power(base, n: int, one):
    """base**n by repeated squaring, for n >= 0."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
    """The text of a monomial, such as ``x*y^2``; "" for the unit monomial."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def format_terms(terms: Iterable[tuple[str, Rat]]) -> str:
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


class QPoly:
    """Univariate polynomial in x with exact coefficients (ints, with a
    Fraction only where a coefficient is not integral).

    Immutable; trailing zeros are trimmed so equality is independent of the
    representation.  ``p[k]`` reads the coefficient of x^k (0 when out of
    range).

    >>> p = QPoly([0, 1, 2])
    >>> str(p + p)
    '2*x + 4*x^2'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if type(c) is int else _exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rat, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> QPoly:
        return cls(())

    @classmethod
    def one(cls) -> QPoly:
        return cls((1,))

    @classmethod
    def x(cls) -> QPoly:
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c: Rat = 1) -> QPoly:
        return cls((0,) * k + (c,))

    @classmethod
    def from_counts(cls, counts: Mapping[int, Rat]) -> QPoly:
        """Build sum counts[k] * x^k from an exponent -> value mapping."""
        if not counts:
            return cls.zero()
        top = max(counts)
        return cls(counts.get(k, 0) for k in range(top + 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Rat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: QPoly | Rat) -> QPoly:
        other = _as_qpoly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly(self[k] + other[k] for k in range(n))

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other: QPoly | Rat) -> QPoly:
        return self + (-_as_qpoly(other))

    def __rsub__(self, other: Rat) -> QPoly:
        return _as_qpoly(other) - self

    def __mul__(self, other: QPoly | Rat) -> QPoly:
        if isinstance(other, (int, Fraction)):
            return QPoly(c * other for c in self.coeffs)
        if not isinstance(other, QPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return QPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QPoly:
        return _power(self, n, QPoly.one())

    def eval_at(self, v: Rat) -> Rat:
        """Evaluate at a rational point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def derivative(self) -> QPoly:
        return QPoly(k * self.coeffs[k] for k in range(1, len(self.coeffs)))

    def compose_x_squared(self) -> QPoly:
        """p(x) -> p(x^2)."""
        out = [0] * (2 * len(self.coeffs))
        for k, c in enumerate(self.coeffs):
            out[2 * k] = c
        return QPoly(out)

    def compose_scaled(self, factor: Rat) -> QPoly:
        """p(x) -> p(factor * x); factor -1 gives p(-x)."""
        return QPoly(c * factor**k for k, c in enumerate(self.coeffs))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_json(self) -> dict:
        return {"var": "x", "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: Mapping) -> QPoly:
        return cls(Fraction(s) for s in obj["coeffs"])

    def __str__(self) -> str:
        return format_terms(
            (monomial_str(("x",), (k,)), c) for k, c in enumerate(self.coeffs) if c
        )

    def __repr__(self) -> str:
        return f"QPoly({str(self)!r})"


def _as_qpoly(v: QPoly | Rat) -> QPoly:
    return v if isinstance(v, QPoly) else QPoly((v,))


# stands in for the exponent of an absent variable in the print order, so
# that within one degree a monomial holding a variable sorts before one
# without it
_ABSENT = math.inf


class Poly:
    """Sparse polynomial over named commuting variables.

    ``names`` is an ordered tuple of variable names and ``terms`` maps
    exponent tuples over ``names`` to exact coefficients, stored as in
    ``QPoly``; zero coefficients are never stored.  A binary operation or
    ``==`` on polynomials over different ``names`` works over the sorted
    union of both, so x over ("x",) equals x over ("x", "y").  Terms print by
    degree, then by their exponents in ``names`` order with an absent
    variable sorting last, and ``str`` round-trips through
    :func:`stirlab.grammar.parse_poly`.

    >>> x, y = Poly.var("x"), Poly.var("y")
    >>> str((x + y) ** 2 - 1)
    '-1 + 2*x*y + x^2 + y^2'
    """

    __slots__ = ("names", "terms")

    def __init__(
        self,
        names: Iterable[str] = (),
        terms: Mapping[tuple[int, ...], Rat] | Iterable = (),
    ):
        self.names: tuple[str, ...] = tuple(names)
        if not isinstance(terms, Mapping):
            acc: dict[tuple[int, ...], Rat] = {}
            for e, c in terms:
                acc[e] = acc.get(e, 0) + c
            terms = acc
        # a mapping's keys are distinct: adopt its values, dropping zeros
        self.terms: dict[tuple[int, ...], Rat] = {
            e: c if type(c) is int else _exact(c) for e, c in terms.items() if c
        }

    @classmethod
    def zero(cls) -> Poly:
        return cls()

    @classmethod
    def one(cls) -> Poly:
        return cls((), {(): 1})

    @classmethod
    def var(cls, name: str) -> Poly:
        return cls((name,), {(1,): 1})

    def letters(self) -> set[str]:
        """The variables with a nonzero exponent in some term."""
        return {v for e in self.terms for v, k in zip(self.names, e) if k}

    def coefficient(self, *exps: int) -> Rat:
        """The coefficient of the monomial with these exponents over ``names``
        (0 when absent)."""
        return self.terms.get(exps, 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Rat]]:
        """Terms in print order."""
        return sorted(
            self.terms.items(),
            key=lambda t: (sum(t[0]), tuple(e or _ABSENT for e in t[0])),
        )

    def terms_over(self, names: tuple[str, ...]) -> dict[tuple[int, ...], Rat]:
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
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        _, a, b = _aligned(self, other)
        return a == b

    def __add__(self, other: Poly | Rat) -> Poly:
        names, a, b = _aligned(self, _as_poly(other))
        acc = dict(a)
        for e, c in b.items():
            acc[e] = acc.get(e, 0) + c
        return Poly(names, acc)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Poly | Rat) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: Rat) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | Rat) -> Poly:
        if isinstance(other, (int, Fraction)):
            return Poly(self.names, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        names, a, b = _aligned(self, other)
        acc: dict[tuple[int, ...], Rat] = {}
        for e, u in a.items():
            for f, v in b.items():
                key = tuple(map(add, e, f))
                acc[key] = acc.get(key, 0) + u * v
        return Poly(names, acc)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Poly:
        return _power(self, n, Poly(self.names, {(0,) * len(self.names): 1}))

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

    def to_qpoly(self, name: str) -> QPoly:
        """The polynomial as a QPoly in the variable ``name``.

        Raises ValueError when another variable occurs.
        """
        others = self.letters() - {name}
        if others:
            raise ValueError(f"{self} is not a polynomial in {name} alone")
        i = self.names.index(name) if name in self.names else None
        return QPoly.from_counts(
            {0 if i is None else e[i]: c for e, c in self.terms.items()}
        )

    def to_json(self) -> list:
        # an integral coefficient stays a JSON number; a Fraction is written
        # as its string, as QPoly.to_json does
        return [
            {
                "monomial": {v: k for v, k in zip(self.names, e) if k},
                "coeff": c if type(c) is int else str(c),
            }
            for e, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        return format_terms(
            (monomial_str(self.names, e), c) for e, c in self.sorted_terms()
        )

    def __repr__(self) -> str:
        return f"Poly({str(self)!r})"


# the benchmark's tracer (perfbench/layers.py) patches multiplication on
# this name; nothing in the package uses it
TriPoly = Poly


def _as_poly(v: Poly | Rat) -> Poly:
    return v if isinstance(v, Poly) else Poly((), {(): v})


def _aligned(
    a: Poly, b: Poly
) -> tuple[tuple[str, ...], dict[tuple[int, ...], Rat], dict[tuple[int, ...], Rat]]:
    """Common variable names of two polynomials and both term dicts over them."""
    if a.names == b.names:
        return a.names, a.terms, b.terms
    names = tuple(sorted(set(a.names) | set(b.names)))
    return names, a.terms_over(names), b.terms_over(names)
