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
from math import gcd

from .errors import UmvueError
from .linalg import Matrix, coordinates, dense, integer_form, kernel, null_space
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
    """E g as a polynomial in the parameters: sum_k g(k) * p_k, or C.g over the basis."""
    _check_length(m, g)
    basis, c = m.coefficients
    return Polynomial({mono: x for mono, x in zip(basis, c.mul_vector(g.values)) if x})


def zero_mean_space(m: CategoricalModel) -> list[Statistic]:
    """Exact basis of the unbiased estimators of zero; empty iff complete."""
    return [Statistic(dense(v, m.n)) for v in kernel(m.structure)]


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
    itself zero-mean, C.(g*chi) = 0, for every basis vector chi. The test
    runs in integers on chi's support: chi is its elimination relation x
    divided by x's leading entry x_lead, and g scaled by s_g is integer, so
    g_int*x is the integer vector s_g*x_lead*(g*chi). Its product with C is
    zero iff C.(g*chi) is, because both scales are nonzero, and divided by
    s_g*x_lead it holds E(g*chi) in the monomial basis.
    """
    _check_length(m, g)
    relations = m.structure.relations
    if not relations:  # a complete model has no zero-mean statistic to test against
        return UmvueVerdict(True)
    basis, c = m.coefficients
    g_scale, g_pairs = integer_form(enumerate(g.values))
    g_int = dict(g_pairs)
    for relation in relations:
        product = [0] * m.n
        for k, x in relation:
            product[k] = g_int.get(k, 0) * x
        coords = c.mul_vector(product)
        if any(coords):
            lead = relation[0][1]
            residual = Polynomial({mono: y / (g_scale * lead) for mono, y in zip(basis, coords) if y})
            chi = dense([(k, Fraction(x, lead)) for k, x in relation], m.n)
            return UmvueVerdict(False, witness=Statistic(chi), residual=residual)
    return UmvueVerdict(True)


def umvue_functionals(m: CategoricalModel) -> list[Polynomial]:
    """Block sums of the cell probabilities over the maximal MVE partition.

    Their span is exactly the set of parametric functions possessing UMVUEs.
    """
    return _block_sums(m, mve_partition(m))


def _block_sums(m: CategoricalModel, p: Partition) -> list[Polynomial]:
    return [Polynomial.sum(m.pmf[k] for k in block) for block in p.blocks]


def minimal_sufficient_partition(m: CategoricalModel) -> Partition:
    """Proportionality classes: k, l share a block iff p_k = c*p_l with c > 0.

    p_k = c*p_l with c > 0 iff both have the same primitive integer column
    in C: the integer column divided by the gcd of its entries. Zero cells
    are proportional to nothing.
    """
    blocks: dict[object, list[int]] = {}
    for k, (_, column) in enumerate(m.coefficients[1].integer_columns):
        divisor = gcd(*column.values())
        key = frozenset((r, x // divisor) for r, x in column.items()) if column else k
        blocks.setdefault(key, []).append(k)
    return Partition(blocks.values())


def is_sufficient(m: CategoricalModel, p: Partition) -> bool:
    """True iff every block's cells are pairwise positively proportional,
    i.e. the conditional distribution within each block is parameter-free."""
    if p.n != m.n:
        raise GroundSetMismatch(f"partition covers {p.n} cells, model has {m.n}")
    return refines(p, minimal_sufficient_partition(m))


def is_complete(m: CategoricalModel, p: Partition) -> bool:
    """True iff the block-sum functionals are linearly independent, so no
    nonzero block-measurable statistic has identically zero mean.

    A trivial kernel makes every family of block sums independent. A
    sufficient p is complete iff it has rank C blocks, read off the one
    elimination: every block of p holds positively proportional cells, so
    its sum is a nonzero multiple of each of its columns, or zero for a zero
    cell. Every column therefore lies in the span of the |p| block sums, so
    that span is C's column space, of dimension rank C, and the sums are
    independent iff there are rank C of them. Any other p has its block
    sums eliminated.
    """
    if p.n != m.n:
        raise GroundSetMismatch(f"partition covers {p.n} cells, model has {m.n}")
    if not m.structure.relations:
        return True
    if is_sufficient(m, p):
        return len(p.blocks) == m.structure.rank
    sums = [coeff_vector(q, m.coefficients[0]) for q in _block_sums(m, p)]
    return not null_space(Matrix(zip(*sums), ncols=len(sums)))


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
    is the statistic taking the (unique) coefficient c_j on block j. Circuits
    lie in blocks, so over C's pivots pi_j and the target's share of block j
    lie on block j's pivots: there the target's coordinates are c_j times C.1's.
    C.1's coordinates are the same for every target, so they are kept on this
    instance, as mve_partition is.
    """
    basis, c = m.coefficients
    try:
        t = coeff_vector(target, basis)
    except MissingMonomial:  # no cell has this monomial
        return EstimateResult(Estimability.NOT_ESTIMABLE)

    partition = mve_partition(m)
    a = coordinates(m.structure, t)
    if a is None:
        return EstimateResult(Estimability.NOT_ESTIMABLE)
    if "sum_coordinates" not in m.__dict__:
        m.__dict__["sum_coordinates"] = coordinates(m.structure, c.mul_vector([1] * m.n))
    sums = m.__dict__["sum_coordinates"]
    values = [Fraction(0)] * m.n
    coeffs = []
    for block in partition.blocks:
        # a block whose sum is zero (only in an invalid model) gets 0
        c = next((a.get(k, 0) / sums[k] for k in block if k in sums), Fraction(0))
        if any(a.get(k, 0) != c * sums.get(k, 0) for k in block):
            return EstimateResult(Estimability.NO_UMVUE)
        coeffs.append(c)
        for k in block:
            values[k] = c
    return EstimateResult(Estimability.OK, Statistic(tuple(values)), tuple(coeffs))
