"""Sparse multivariate polynomials over exact rationals.

Everything here is exact: coefficients are `fractions.Fraction`, equality is
canonical-form equality, and two polynomials are equal iff their term maps
are equal. No floating point enters any computation.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import UmvueError

RationalLike = Fraction | int | str


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, Fractions and strings like '1/4' to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
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
        cleaned: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            c = as_fraction(coeff)
            if c != 0:
                cleaned[mono] = cleaned.get(mono, Fraction(0)) + c
                if cleaned[mono] == 0:
                    del cleaned[mono]
        self.terms = cleaned

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def constant(cls, value: RationalLike) -> "Polynomial":
        return cls({ONE: as_fraction(value)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({Monomial({name: 1}): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def monomials(self) -> list[Monomial]:
        """All monomials with nonzero coefficient, in canonical order."""
        return sorted(self.terms, key=Monomial.sort_key)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return [(m, self.terms[m]) for m in self.monomials()]

    def parameters(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for mono in self.terms:
            out |= mono.parameters()
        return out

    def degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        merged = dict(self.terms)
        for mono, c in other.terms.items():
            s = merged.get(mono, Fraction(0)) + c
            if s == 0:
                merged.pop(mono, None)
            else:
                merged[mono] = s
        return _raw(merged)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = as_fraction(other)
            if c == 0:
                return Polynomial.zero()
            return _raw({m: v * c for m, v in self.terms.items()})
        other = _coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return _raw(out)

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
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            factor = coeff
            kept: dict[str, int] = {}
            for name, e in mono.exps:
                if name in values:
                    factor *= values[name] ** e
                else:
                    kept[name] = e
            if factor == 0:
                continue
            key = Monomial(kept)
            total = out.get(key, Fraction(0)) + factor
            if total == 0:
                out.pop(key, None)
            else:
                out[key] = total
        return _raw(out)

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
