"""Sparse multivariate polynomials over exact rationals.

Everything here is exact: coefficients are `fractions.Fraction`, equality is
canonical-form equality, and two polynomials are equal iff their term maps
are equal. No floating point enters any computation.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import UmvueError

RationalLike = Fraction | int | str


# the decimal form of Fraction's text syntax: digits, fraction digits, exponent
_DECIMAL = re.compile(r"\s*[-+]?(\d*(?:_\d+)*)(?:\.(\d*(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)\s*")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like '1/4' or '2.5e-3' to an exact
    Fraction.

    Text whose numerator or denominator would have more digits than
    sys.get_int_max_str_digits() (unless 0) raises ValueError, as int() does.
    A decimal exponent is judged from the text before it is expanded, since
    Fraction('1e999999999') would build a billion-digit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        decimal = _DECIMAL.fullmatch(value)
        limit = sys.get_int_max_str_digits()
        if decimal and limit:
            whole, fraction, exponent = (part.replace("_", "") for part in decimal.groups(""))
            shift = int(exponent) - len(fraction)
            if len((whole + fraction).lstrip("0")) + max(shift, 0) > limit or -shift >= limit:
                raise ValueError(f"{value.strip()[:20]} would have more than {limit} digits")
        return Fraction(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class MissingMonomial(UmvueError):
    """A polynomial has a term outside the requested coordinate basis."""


class Monomial:
    """A product of parameter powers, e.g. theta^2*eta.

    Stored as a tuple of (name, exponent) pairs sorted by name, with zero
    exponents dropped, so equal monomials compare and hash equal. The total
    order is graded: first by total degree, then lexicographically by the
    (name, exponent) pairs.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        items = exps.items() if isinstance(exps, Mapping) else exps
        cleaned = []
        for name, e in items:
            if e < 0:
                raise ValueError(f"negative exponent for {name}")
            if e > 0:
                cleaned.append((name, int(e)))
        self.exps: tuple[tuple[str, int], ...] = tuple(sorted(cleaned))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def sort_key(self) -> tuple:
        return (self.degree, self.exps)

    def parameters(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        merged = dict(self.exps)
        for name, e in other.exps:
            merged[name] = merged.get(name, 0) + e
        return Monomial(merged)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        if not self.exps:
            return "Monomial(1)"
        body = "*".join(f"{n}^{e}" if e > 1 else n for n, e in self.exps)
        return f"Monomial({body})"


ONE = Monomial()


class Polynomial:
    """Immutable sparse polynomial: a map from Monomial to nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, RationalLike] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        self.terms = _collect((mono, as_fraction(c)) for mono, c in items).terms

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        c = as_fraction(value)
        return _raw({ONE: c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return _raw({Monomial(((name, 1),)): Fraction(1)})

    @staticmethod
    def sum(polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of many polynomials, accumulated in one term map."""
        return _collect(term for p in polys for term in p.terms.items())

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def monomials(self) -> list[Monomial]:
        """All monomials with nonzero coefficient, in canonical order."""
        return sorted(self.terms, key=Monomial.sort_key)

    def parameters(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for mono in self.terms:
            out |= mono.parameters()
        return out

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def __add__(self, other) -> "Polynomial":
        return Polynomial.sum((self, _coerce(other)))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if len(other.terms) == 1 and ONE in other.terms:
                other = other.terms[ONE]
            elif len(self.terms) == 1 and ONE in self.terms:
                self, other = other, self.terms[ONE]
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Polynomial.zero()
            return _raw({m: v * c for m, v in self.terms.items()})
        other = _coerce(other)
        return _collect((m1 * m2, c1 * c2)
                        for m1, c1 in self.terms.items() for m2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        if len(self.terms) == 1:
            ((mono, coeff),) = self.terms.items()
            return _raw({Monomial((name, e * exponent) for name, e in mono.exps): coeff ** exponent})
        result, base = Polynomial.constant(1), self
        while exponent:  # exponentiation by squaring
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def substitute(self, bindings: Mapping[str, RationalLike]) -> "Polynomial":
        """Substitute exact rationals for a subset of the parameters.

        Bindings for parameters that do not occur are ignored; the result
        contains only the remaining unbound parameters.
        """
        values = {name: as_fraction(v) for name, v in bindings.items()}
        return _collect((Monomial((n, e) for n, e in mono.exps if n not in values),
                         math.prod((values[n] ** e for n, e in mono.exps if n in values),
                                   start=coeff))
                        for mono, coeff in self.terms.items())

    def evaluate(self, bindings: Mapping[str, RationalLike]) -> Fraction:
        """Evaluate at a point; every parameter of the polynomial must be bound."""
        result = self.substitute(bindings)
        if result.parameters():
            missing = ", ".join(sorted(result.parameters()))
            raise ValueError(f"unbound parameters in evaluation: {missing}")
        return result.coefficient(ONE)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        from .expr import format_poly

        return f"Polynomial({format_poly(self)})"


def _coerce(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial.constant(as_fraction(value))


def _collect(terms: Iterable[tuple[Monomial, Fraction]]) -> Polynomial:
    """Merge like terms: add the coefficients of equal monomials, drop zero sums."""
    acc: dict[Monomial, Fraction] = {}
    for mono, c in terms:
        acc[mono] = acc[mono] + c if mono in acc else c
    return _raw({mono: c for mono, c in acc.items() if c})


def _raw(terms: dict[Monomial, Fraction]) -> Polynomial:
    # internal constructor for maps already known to be zero-free
    p = Polynomial.__new__(Polynomial)
    p.terms = terms
    return p


def coeff_vector(p: Polynomial, basis: list[Monomial]) -> tuple[Fraction, ...]:
    """Coordinates of p in an ordered monomial basis.

    Raises MissingMonomial if p has a term outside the basis.
    """
    index = {mono: i for i, mono in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for mono, coeff in p.terms.items():
        if mono not in index:
            raise MissingMonomial(f"monomial {mono!r} not in basis")
        vec[index[mono]] = coeff
    return tuple(vec)
