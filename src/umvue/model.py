"""Finite categorical models with polynomial cell probabilities.

A model is a finite support, one exact polynomial per cell, and a box domain
for the parameters. Because the domain is a product of non-degenerate
intervals, a polynomial vanishing on it vanishes identically, so "for all
theta" conditions reduce to coefficient-wise zero tests.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import NamedTuple

from .errors import UmvueError
from .expr import format_poly, number_text, parse_poly
from .linalg import Matrix, RrefResult, kernel, rref
from .poly import Monomial, Polynomial, as_fraction

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
        return "(" + ", ".join(map(number_text, self.values)) + ")"


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
    """C eliminated once, with its pivot vectors kept on C, and what it yields.
    C is the model's own `coefficients` table, the one validation reads."""

    basis: list[Monomial]   # row index of C
    matrix: Matrix          # C: column k holds cell k's coordinates, as integer column k
    reduced: RrefResult     # C's pivots and one integer relation per non-pivot cell
    kernel: list[list[tuple[int, Fraction]]]  # each relation over its lead, as nonzero (cell, entry) pairs


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
    def coefficients(self) -> tuple[list[Monomial], Matrix]:
        """coefficient_matrix's basis and C, built once: validation, minimal
        sufficiency and `expectation` read it, and `structure` eliminates it."""
        return coefficient_matrix(self)

    @cached_property
    def structure(self) -> Structure:
        """The one elimination every analysis reads. It is kept on this
        instance only, as is matroid.mve_partition's result: an equal model
        loaded afresh eliminates again."""
        basis, c = self.coefficients
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


def interior_grid(lo: Fraction, hi: Fraction) -> list[Fraction]:
    """Deterministic rational sample points strictly inside (lo, hi)."""
    step = (hi - lo) / (POSITIVITY_GRID_POINTS + 1)
    return [lo + step * i for i in range(1, POSITIVITY_GRID_POINTS + 1)]


def validate_model(m: CategoricalModel) -> ValidationReport:
    """Check labels, exact normalization, nonzero cells and sampled positivity.

    Both read the table C (`m.coefficients`) that the analysis reuses.
    Normalization is the exact identity C.1 = the constant row. Positivity is
    only sampled on the product of the interior_grid axes, not proven on the
    whole box: each nonzero cell's sign is read exactly, in integers, off its
    integer column, and the first point with a non-positive cell is reported.
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

    basis, c = m.coefficients
    residual = Polynomial(zip(basis, c.mul_vector([1] * m.n))) - Polynomial.constant(1)
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
        # exponents per basis row: at a point a_i/b_i (b_i > 0), weighting row r by
        # prod_i a_i^e_ri * b_i^(top_i - e_ri) makes an integer column's sum its cell's
        # value times a positive integer, so the sum has the cell's sign
        exponents = [[dict(mono.exps).get(name, 0) for name in m.parameters] for mono in basis]
        cells = [(k, column.items()) for k, (_, column) in enumerate(c.integer_columns) if column]
        tops = [max((exps[i] for exps in exponents), default=0) for i in range(len(m.parameters))]
        # each axis value a/b comes with its power table a^e * b^(top - e)
        axes = [[(v, [v.numerator ** e * v.denominator ** (top - e) for e in range(top + 1)])
                 for v in interior_grid(*m.domain[name])] for name, top in zip(m.parameters, tops)]
        for point in product(*axes):
            weight = [prod([table[e] for (_, table), e in zip(point, exps)]) for exps in exponents]
            bad = [k for k, column in cells if sum(x * weight[r] for r, x in column) <= 0]
            if bad:
                coords = tuple((name, v) for name, (v, _) in zip(m.parameters, point))
                where = ", ".join(f"{name}={v}" for name, v in coords)
                issues += [ValidationIssue("non-positive", f"cell {k} is not positive at {where}",
                                           component=k, point=coords) for k in bad]
                break

    return ValidationReport(ok=not issues, issues=tuple(issues))


def require_valid(m: CategoricalModel) -> CategoricalModel:
    report = validate_model(m)
    if not report.ok:
        raise InvalidModel(report)
    return m


def coefficient_matrix(m: CategoricalModel) -> tuple[list[Monomial], Matrix]:
    """Monomial basis and the matrix C whose k-th column holds cell k's coordinates.

    The basis is the union of the monomials of all cells in canonical order,
    so identical models always produce identical (basis, matrix) pairs. C is
    built as integer columns straight from the cells' terms, with no dense rows.
    """
    basis = sorted({mono for p in m.pmf for mono in p.terms}, key=Monomial.sort_key)
    row = {mono: i for i, mono in enumerate(basis)}
    return basis, Matrix.from_sparse_columns(len(basis), [[(row[mono], x) for mono, x in p.terms.items()]
                                                          for p in m.pmf])


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
    for name, bounds in data["domain"].items():
        if not isinstance(bounds, list) or len(bounds) != 2:
            raise ModelFormatError(f"domain of {name!r} must be a two-element array [lo, hi]")
        if any(isinstance(x, float) for x in bounds):
            # a JSON float is already rounded to binary (1e-400 reads as 0)
            raise ModelFormatError(f"domain of {name!r} has a JSON float; write it as a string like \"1/2\"")
    try:
        domain = {name: (as_fraction(str(lo)), as_fraction(str(hi)))
                  for name, (lo, hi) in data["domain"].items()}
    except (ValueError, ZeroDivisionError) as exc:
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
    except (ValueError, RecursionError) as exc:  # also too deep or a too long integer
        raise ModelFormatError(f"unreadable JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelFormatError("model JSON must be an object")
    return model_from_dict(data)


def load_model(path) -> CategoricalModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"model file is not UTF-8 text: {exc}") from exc
    return model_from_json(text)
