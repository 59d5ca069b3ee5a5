"""Statistical semantics: zero-mean statistics, UMVUE checks, estimation.

A statistic is a UMVUE iff it is uncorrelated with every unbiased estimator
of zero. On finite support all second moments are finite, so the classical
moment conditions are vacuous and the criterion is purely linear-algebraic:
g passes iff g*chi is again zero-mean for every chi in a basis of the
zero-mean space. Checking a basis suffices because the map
(g, chi) -> E(g*chi) is linear in chi.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import UmvueError
from .linalg import Matrix, null_space, solve_in_span
from .matroid import GroundSetMismatch, mve_partition, refines
from .model import CategoricalModel, Partition, Statistic
from .poly import MissingMonomial, Polynomial, coeff_vector


class LengthMismatch(UmvueError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"statistic has {got} values, model has {expected} cells")


def _check_length(m: CategoricalModel, g: Statistic) -> None:
    if len(g) != m.n:
        raise LengthMismatch(m.n, len(g))


def expectation(m: CategoricalModel, g: Statistic) -> Polynomial:
    """E g as a polynomial in the parameters: sum_k g(k) * p_k."""
    _check_length(m, g)
    return sum((p * value for value, p in zip(g.values, m.pmf)), Polynomial.zero())


def zero_mean_space(m: CategoricalModel) -> list[Statistic]:
    """Exact basis of the unbiased estimators of zero; empty iff complete."""
    return [Statistic(vec) for vec in m.structure.null_space]


@dataclass(frozen=True)
class UmvueVerdict:
    is_umvue: bool
    witness: Statistic | None = None    # offending zero-mean statistic
    residual: Polynomial | None = None  # E(g * witness), nonzero on failure

    def __bool__(self) -> bool:
        return self.is_umvue


def is_umvue(m: CategoricalModel, g: Statistic) -> UmvueVerdict:
    """Zero-correlation test against a basis of the zero-mean space.

    cov(g, chi) = E(g*chi) for zero-mean chi, so g is a UMVUE iff g*chi is
    itself zero-mean for every basis vector chi.
    """
    _check_length(m, g)
    c = m.structure.matrix
    for chi in zero_mean_space(m):
        product = g.pointwise_mul(chi)
        if any(x != 0 for x in c.mul_vector(product.values)):
            return UmvueVerdict(False, witness=chi, residual=expectation(m, product))
    return UmvueVerdict(True)


def umvue_functionals(m: CategoricalModel) -> list[Polynomial]:
    """Block sums of the cell probabilities over the maximal MVE partition.

    Their span is exactly the set of parametric functions possessing UMVUEs.
    """
    return _block_sums(m, mve_partition(m))


def _block_sums(m: CategoricalModel, p: Partition) -> list[Polynomial]:
    return [sum((m.pmf[k] for k in block), Polynomial.zero()) for block in p.blocks]


def _positively_proportional(p: Polynomial, q: Polynomial) -> bool:
    """True iff p = c*q identically for some rational c > 0."""
    if p.is_zero() or q.is_zero() or set(p.terms) != set(q.terms):
        return False
    lead = q.monomials()[0]
    c = p.coefficient(lead) / q.coefficient(lead)
    return c > 0 and p == q * c


def minimal_sufficient_partition(m: CategoricalModel) -> Partition:
    """Proportionality classes: k, l share a block iff p_k = c*p_l with c > 0."""
    blocks: list[list[int]] = []
    for k in range(m.n):
        for block in blocks:
            if _positively_proportional(m.pmf[k], m.pmf[block[0]]):
                block.append(k)
                break
        else:
            blocks.append([k])
    return Partition(blocks)


def is_sufficient(m: CategoricalModel, p: Partition) -> bool:
    """True iff every block's cells are pairwise positively proportional,
    i.e. the conditional distribution within each block is parameter-free."""
    if p.n != m.n:
        raise GroundSetMismatch(f"partition covers {p.n} cells, model has {m.n}")
    return refines(p, minimal_sufficient_partition(m))


def is_complete(m: CategoricalModel, p: Partition) -> bool:
    """True iff the block-sum functionals are linearly independent, so no
    nonzero block-measurable statistic has identically zero mean."""
    if p.n != m.n:
        raise GroundSetMismatch(f"partition covers {p.n} cells, model has {m.n}")
    s = m.structure
    # a trivial kernel makes every family of block sums independent; with
    # singleton blocks the block sums are the cells themselves
    if not s.null_space or len(p.blocks) == m.n:
        return not s.null_space
    sums = [coeff_vector(q, s.basis) for q in _block_sums(m, p)]
    return not null_space(Matrix.from_columns(sums))


class Estimability(Enum):
    OK = "ok"
    NOT_ESTIMABLE = "not-estimable"  # target outside span{p_1..p_N}
    NO_UMVUE = "no-umvue"            # estimable, but no UMVUE exists


@dataclass(frozen=True)
class EstimateResult:
    status: Estimability
    statistic: Statistic | None = None
    coefficients: tuple[Fraction, ...] | None = None  # target = sum c_j * pi_j

    def __bool__(self) -> bool:
        return self.status is Estimability.OK


def umvue_for(m: CategoricalModel, target: Polynomial) -> EstimateResult:
    """The UMVUE of a parametric function, or a diagnosis.

    If the target lies in the span of the block functionals pi_j, the UMVUE
    is the statistic taking the (unique) coefficient c_j on block j.
    """
    s = m.structure
    try:
        t = coeff_vector(target, s.basis)
    except MissingMonomial:  # no cell has this monomial
        return EstimateResult(Estimability.NOT_ESTIMABLE)

    partition = mve_partition(m)
    coeffs = solve_in_span([coeff_vector(pi, s.basis) for pi in _block_sums(m, partition)], t)
    if coeffs is None:
        # the cells span every coordinate when C has full row rank
        pivot_columns = [s.matrix.column(j) for j in s.reduced.pivots]
        if s.reduced.rank < len(s.basis) and solve_in_span(pivot_columns, t) is None:
            return EstimateResult(Estimability.NOT_ESTIMABLE)
        return EstimateResult(Estimability.NO_UMVUE)

    values = [Fraction(0)] * m.n
    for c, block in zip(coeffs, partition.blocks):
        for k in block:
            values[k] = c
    return EstimateResult(Estimability.OK, Statistic(tuple(values)), tuple(coeffs))
