"""Finite categorical models with polynomial cell probabilities.

A model is a finite support, one exact polynomial per cell, and a box domain
for the parameters. Because the domain is a product of non-degenerate
intervals, a polynomial vanishing on it vanishes identically, so "for all
theta" conditions reduce to coefficient-wise zero tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import UmvueError
from .expr import format_poly, parse_poly
from .linalg import Matrix, RrefResult, Vector, kernel, rref
from .poly import Monomial, Polynomial, as_fraction, coeff_vector

Interval = tuple[Fraction, Fraction]

# validation samples this many interior points per parameter
POSITIVITY_GRID_POINTS = 5


class InvalidModel(UmvueError):
    def __init__(self, report: "ValidationReport"):
        self.report = report
        issues = "; ".join(issue.detail for issue in report.issues)
        super().__init__(f"invalid model: {issues}")


@dataclass(frozen=True)
class Statistic:
    """An exact rational value per support point, aligned with the support."""

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable) -> "Statistic":
        return cls(tuple(as_fraction(v) for v in values))

    @classmethod
    def constant(cls, value, n: int) -> "Statistic":
        return cls(tuple([as_fraction(value)] * n))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def pointwise_mul(self, other: "Statistic") -> "Statistic":
        if len(other) != len(self):
            raise ValueError("statistic lengths differ")
        return Statistic(tuple(a * b for a, b in zip(self.values, other.values)))

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty blocks of support indices covering 0..n-1.

    Canonical form: members ascending within a block, blocks ordered by
    smallest member. Construction canonicalizes, so equal partitions compare
    equal regardless of input order.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Iterable[Iterable[int]]):
        cleaned = [tuple(sorted(b)) for b in blocks]
        if any(not b for b in cleaned):
            raise ValueError("empty block")
        canonical = tuple(sorted(cleaned, key=lambda b: b[0]))
        seen: set[int] = set()
        for block in canonical:
            for k in block:
                if k in seen:
                    raise ValueError(f"index {k} in two blocks")
                seen.add(k)
        if seen and seen != set(range(max(seen) + 1)):
            raise ValueError("blocks do not cover 0..n-1")
        object.__setattr__(self, "blocks", canonical)

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls([k] for k in range(n))

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        return cls([range(n)])

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def labelled(self, labels: Sequence[str]) -> list[list[str]]:
        return [[labels[k] for k in block] for block in self.blocks]

    def __str__(self) -> str:
        return " ".join("{" + ", ".join(str(k) for k in b) + "}" for b in self.blocks)


class Structure(NamedTuple):
    """A model's coefficient matrix C, eliminated once, and what it yields."""

    basis: list[Monomial]   # row index of C
    matrix: Matrix          # C: column k holds cell k's coordinates
    reduced: RrefResult     # RREF of C with its pivots and rank
    null_space: list[Vector]


@dataclass(frozen=True)
class CategoricalModel:
    support: tuple[str, ...]
    pmf: tuple[Polynomial, ...]
    parameters: tuple[str, ...]
    domain: dict[str, Interval] = field(default_factory=dict)

    def __init__(
        self,
        support: Iterable[str],
        pmf: Iterable[Polynomial],
        parameters: Iterable[str],
        domain: Mapping[str, tuple] = (),
    ):
        object.__setattr__(self, "support", tuple(support))
        object.__setattr__(self, "pmf", tuple(pmf))
        object.__setattr__(self, "parameters", tuple(parameters))
        dom = {
            name: (as_fraction(lo), as_fraction(hi))
            for name, (lo, hi) in (domain.items() if isinstance(domain, Mapping) else domain)
        }
        object.__setattr__(self, "domain", dom)
        if self.n < 1:
            raise ValueError("empty support")
        if len(self.pmf) != self.n:
            raise ValueError("pmf length does not match support")
        if len(set(self.parameters)) != len(self.parameters):
            raise ValueError("duplicate parameter names")
        if set(dom) != set(self.parameters):
            raise ValueError("domain must cover exactly the declared parameters")
        for name, (lo, hi) in dom.items():
            if not lo < hi:
                raise ValueError(f"degenerate domain interval for {name}")

    @property
    def n(self) -> int:
        return len(self.support)

    @cached_property
    def structure(self) -> Structure:
        """The one elimination every analysis reads. It is kept on this
        instance only: an equal model loaded afresh eliminates again."""
        basis, c = coefficient_matrix(self)
        reduced = rref(c)
        return Structure(basis, c, reduced, kernel(reduced))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CategoricalModel)
            and self.support == other.support
            and self.pmf == other.pmf
            and self.parameters == other.parameters
            and self.domain == other.domain
        )


@dataclass(frozen=True)
class ValidationIssue:
    code: str  # duplicate-label | not-normalized | zero-component | non-positive | undeclared-parameter
    detail: str
    component: int | None = None
    point: tuple[tuple[str, Fraction], ...] | None = None
    residual: Polynomial | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    issues: tuple[ValidationIssue, ...]


def interior_grid(lo: Fraction, hi: Fraction, count: int = POSITIVITY_GRID_POINTS) -> list[Fraction]:
    """Deterministic rational sample points strictly inside (lo, hi)."""
    step = (hi - lo) / (count + 1)
    return [lo + step * i for i in range(1, count + 1)]


def domain_grid(m: CategoricalModel, count: int = POSITIVITY_GRID_POINTS) -> list[dict[str, Fraction]]:
    """Cartesian grid of interior sample points, one axis per parameter."""
    axes = [interior_grid(*m.domain[name], count=count) for name in m.parameters]
    return [dict(zip(m.parameters, point)) for point in product(*axes)]


def validate_model(m: CategoricalModel) -> ValidationReport:
    """Check labels, exact normalization, nonzero cells and sampled positivity.

    Positivity is only sampled on the interior grid, not proven on the whole
    box; exact normalization and nonzero-cell checks are full polynomial
    identities.
    """
    issues: list[ValidationIssue] = []

    if len(set(m.support)) != m.n:
        dupes = sorted({s for s in m.support if m.support.count(s) > 1})
        issues.append(ValidationIssue("duplicate-label", f"duplicate labels: {', '.join(dupes)}"))

    declared = set(m.parameters)
    for k, p in enumerate(m.pmf):
        extra = p.parameters() - declared
        if extra:
            issues.append(ValidationIssue(
                "undeclared-parameter",
                f"cell {k} uses undeclared parameters: {', '.join(sorted(extra))}",
                component=k,
            ))

    residual = sum(m.pmf, Polynomial.zero()) - Polynomial.constant(1)
    if not residual.is_zero():
        issues.append(ValidationIssue(
            "not-normalized",
            f"cell probabilities sum to 1 + ({format_poly(residual)})",
            residual=residual,
        ))

    for k, p in enumerate(m.pmf):
        if p.is_zero():
            issues.append(ValidationIssue("zero-component", f"cell {k} is identically zero", component=k))

    if not any(issue.code == "undeclared-parameter" for issue in issues):
        for point in domain_grid(m):
            bad = [k for k, p in enumerate(m.pmf) if not p.is_zero() and p.evaluate(point) <= 0]
            if bad:
                where = ", ".join(f"{name}={val}" for name, val in point.items())
                issues += [ValidationIssue("non-positive", f"cell {k} is not positive at {where}",
                                           component=k, point=tuple(point.items())) for k in bad]
                break

    return ValidationReport(ok=not issues, issues=tuple(issues))


def require_valid(m: CategoricalModel) -> CategoricalModel:
    report = validate_model(m)
    if not report.ok:
        raise InvalidModel(report)
    return m


def coefficient_matrix(m: CategoricalModel) -> tuple[list[Monomial], Matrix]:
    """Monomial basis and the matrix whose k-th column holds cell k's coordinates.

    The basis is the union of the monomials of all cells in canonical order,
    so identical models always produce identical (basis, matrix) pairs.
    """
    monos: set[Monomial] = set()
    for p in m.pmf:
        monos.update(p.terms)
    basis = sorted(monos, key=Monomial.sort_key)
    columns = [coeff_vector(p, basis) for p in m.pmf]
    return basis, Matrix.from_columns(columns, nrows=len(basis))


# --- model JSON format ------------------------------------------------------
#
# {
#   "parameters": ["theta"],
#   "domain": {"theta": ["0", "1/4"]},
#   "support": ["1", "2", "3", "4"],
#   "pmf": ["theta", "theta^2", ...]
# }

class ModelFormatError(UmvueError):
    pass


def model_to_dict(m: CategoricalModel) -> dict:
    return {
        "parameters": list(m.parameters),
        "domain": {name: [str(lo), str(hi)] for name, (lo, hi) in m.domain.items()},
        "support": list(m.support),
        "pmf": [format_poly(p) for p in m.pmf],
    }


def model_from_dict(data: dict) -> CategoricalModel:
    for key in ("parameters", "domain", "support", "pmf"):
        if key not in data:
            raise ModelFormatError(f"model JSON missing field {key!r}")
    if not isinstance(data["parameters"], list) or not isinstance(data["support"], list) \
            or not isinstance(data["pmf"], list) or not isinstance(data["domain"], dict):
        raise ModelFormatError("parameters, support and pmf must be arrays; domain must be an object")
    parameters = [str(p) for p in data["parameters"]]
    try:
        domain = {
            name: (as_fraction(str(lo)), as_fraction(str(hi)))
            for name, (lo, hi) in data["domain"].items()
        }
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ModelFormatError(f"bad domain: {exc}") from exc
    pmf = [parse_poly(str(expr), parameters) for expr in data["pmf"]]
    try:
        return CategoricalModel(
            support=[str(s) for s in data["support"]],
            pmf=pmf,
            parameters=parameters,
            domain=domain,
        )
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from exc


def model_to_json(m: CategoricalModel) -> str:
    return json.dumps(model_to_dict(m), indent=2) + "\n"


def model_from_json(text: str) -> CategoricalModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError("model JSON must be an object")
    return model_from_dict(data)


def load_model(path) -> CategoricalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_json(fh.read())
