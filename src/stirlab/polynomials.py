"""Exact polynomial arithmetic over the rationals.

Three value types: ``QPoly`` (univariate in x), ``TriPoly`` (three commuting
variables x, y, z, stored sparsely), and ``TruncatedEGF`` (a series
sum a_n(x) t^n / n! known through a fixed order, with QPoly coefficients).
A coefficient is stored as an ``int`` when it is integral and as a
`fractions.Fraction` otherwise, so integer families run on integer
arithmetic and rational ones stay exact; no floating point anywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

Rat = Union[Fraction, int]

# series order used when a caller does not pick one
DEFAULT_TRUNCATION_ORDER = 8


def _exact(c: Rat) -> Rat:
    """``c`` as an int when it is integral, else as a Fraction.

    Every stored coefficient passes through here, so ``str(c)`` prints an
    integral coefficient as its integer and any other as ``p/q``.
    """
    if type(c) is int:
        return c
    c = c if isinstance(c, Fraction) else Fraction(c)
    return c.numerator if c.denominator == 1 else c


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
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xk = "x" if k == 1 else f"x^{k}"
                body = xk if mag == 1 else f"{mag}*{xk}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly({str(self)!r})"


def _as_qpoly(v: QPoly | Rat) -> QPoly:
    return v if isinstance(v, QPoly) else QPoly((v,))


_TRI_VARS = ("x", "y", "z")


class TriPoly:
    """Sparse polynomial in the commuting variables x, y, z.

    Terms map exponent triples (i, j, k) to exact coefficients, stored as
    in ``QPoly``; zero coefficients are never stored, so equality is
    structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int, int], Rat] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[tuple[int, int, int], Rat] = {}
        for e, c in items:
            if c:
                e = (int(e[0]), int(e[1]), int(e[2]))
                c = _exact(acc[e] + c) if e in acc else _exact(c)
                if c:
                    acc[e] = c
                else:
                    del acc[e]
        self.terms: dict[tuple[int, int, int], Rat] = acc

    @classmethod
    def zero(cls) -> TriPoly:
        return cls()

    @classmethod
    def one(cls) -> TriPoly:
        return cls({(0, 0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, k: int, c: Rat = 1) -> TriPoly:
        return cls({(i, j, k): c})

    def coefficient(self, i: int, j: int, k: int) -> Rat:
        return self.terms.get((i, j, k), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, int, int], Rat]]:
        """Terms in graded order, then by exponent triple."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TriPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: TriPoly) -> TriPoly:
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return TriPoly(acc)

    def __neg__(self) -> TriPoly:
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: TriPoly) -> TriPoly:
        return self + (-other)

    def __mul__(self, other: TriPoly | Rat) -> TriPoly:
        if isinstance(other, (int, Fraction)):
            return TriPoly({e: c * other for e, c in self.terms.items()})
        if not isinstance(other, TriPoly):
            return NotImplemented
        acc: dict[tuple[int, int, int], Rat] = {}
        for (a, b, c), u in self.terms.items():
            for (d, e, f), v in other.terms.items():
                key = (a + d, b + e, c + f)
                acc[key] = acc.get(key, 0) + u * v
        return TriPoly(acc)

    __rmul__ = __mul__

    def partial(self, axis: int) -> TriPoly:
        """Partial derivative with respect to axis 0 (x), 1 (y) or 2 (z)."""
        acc: dict[tuple[int, int, int], Rat] = {}
        for e, c in self.terms.items():
            if e[axis]:
                ne = list(e)
                ne[axis] -= 1
                acc[tuple(ne)] = c * e[axis]
        return TriPoly(acc)

    def swap_axes(self, a: int, b: int) -> TriPoly:
        acc = {}
        for e, c in self.terms.items():
            ne = list(e)
            ne[a], ne[b] = ne[b], ne[a]
            acc[tuple(ne)] = c
        return TriPoly(acc)

    def eval_at(self, xv: QPoly | Rat, yv: QPoly | Rat, zv: QPoly | Rat) -> QPoly:
        """Substitute QPoly (or scalar) values for x, y, z."""
        xs, ys, zs = _as_qpoly(xv), _as_qpoly(yv), _as_qpoly(zv)
        out = QPoly.zero()
        for (i, j, k), c in self.terms.items():
            out = out + (xs**i) * (ys**j) * (zs**k) * c
        return out

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    def to_json(self) -> list:
        return [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, obj: Iterable[Mapping]) -> TriPoly:
        return cls({tuple(t["e"]): Fraction(t["c"]) for t in obj})

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for e, c in self.sorted_terms():
            names = [
                (v if p == 1 else f"{v}^{p}")
                for v, p in zip(_TRI_VARS, e)
                if p
            ]
            mag = abs(c)
            body = "*".join(names) if names else ""
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
        return f"TriPoly({str(self)!r})"


class TruncatedEGF:
    """Series sum a_n(x) t^n / n! known through t^order.

    The order is fixed at construction; binary operations require equal
    orders and raise ValueError otherwise.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[QPoly | Rat]):
        cs = tuple(_as_qpoly(c) for c in coeffs)
        if not cs:
            raise ValueError("a truncated EGF needs at least the order-0 coefficient")
        self.coeffs: tuple[QPoly, ...] = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> QPoly:
        return self.coeffs[n]

    def map_coeffs(self, fn: Callable[[QPoly], QPoly]) -> TruncatedEGF:
        return TruncatedEGF(fn(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TruncatedEGF):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"TruncatedEGF([{inner}])"


def _check_orders(f: TruncatedEGF, g: TruncatedEGF) -> None:
    if f.order != g.order:
        raise ValueError(f"order mismatch: {f.order} != {g.order}")


def egf_from_sequence(polys: Sequence[QPoly | Rat]) -> TruncatedEGF:
    """EGF with the given coefficient polynomials a_0 .. a_N."""
    return TruncatedEGF(polys)


def egf_constant(p: QPoly | Rat, order: int = DEFAULT_TRUNCATION_ORDER) -> TruncatedEGF:
    """The t-constant series p(x) + 0*t + ..."""
    return TruncatedEGF([p] + [QPoly.zero()] * order)


def egf_exp_linear(c: QPoly | Rat, order: int = DEFAULT_TRUNCATION_ORDER) -> TruncatedEGF:
    """e^{t c(x)} truncated: coefficient of t^n/n! is c(x)^n."""
    cp = _as_qpoly(c)
    return TruncatedEGF(cp**n for n in range(order + 1))


def egf_add(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    _check_orders(f, g)
    return TruncatedEGF(a + b for a, b in zip(f.coeffs, g.coeffs))


def egf_sub(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    _check_orders(f, g)
    return TruncatedEGF(a - b for a, b in zip(f.coeffs, g.coeffs))


def egf_mul(f: TruncatedEGF, g: TruncatedEGF) -> TruncatedEGF:
    """Product of EGFs: the binomial convolution of the coefficients."""
    _check_orders(f, g)
    out = []
    for n in range(f.order + 1):
        acc = QPoly.zero()
        for k in range(n + 1):
            acc = acc + f.coeffs[k] * g.coeffs[n - k] * math.comb(n, k)
        out.append(acc)
    return TruncatedEGF(out)


def egf_first_mismatch(f: TruncatedEGF, g: TruncatedEGF) -> int | None:
    """Smallest n with differing coefficients, or None when equal."""
    _check_orders(f, g)
    for n, (a, b) in enumerate(zip(f.coeffs, g.coeffs)):
        if a != b:
            return n
    return None


def egf_equal(f: TruncatedEGF, g: TruncatedEGF) -> bool:
    return egf_first_mismatch(f, g) is None
