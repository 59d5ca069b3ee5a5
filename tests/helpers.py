"""Shared test utilities: seeded generators and independent oracles.

The oracles (ranks, spans, rank additivity, maximality, common refinement)
read only data: polynomial terms and the coefficient matrix C as built. Every
rank is taken by sympy, so no oracle shares the engine's elimination.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import sympy

from umvue import (
    CategoricalModel,
    Matrix,
    Partition,
    Statistic,
    coefficient_matrix,
    corpus_model,
    product_model,
    rename_parameters,
)
from umvue.poly import Monomial, Polynomial


def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_statistic(rng: random.Random, n: int) -> Statistic:
    return Statistic(tuple(random_fraction(rng) for _ in range(n)))


def block_constant_statistic(rng: random.Random, p: Partition) -> Statistic:
    values = [Fraction(0)] * p.n
    for block in p.blocks:
        c = random_fraction(rng)
        for k in block:
            values[k] = c
    return Statistic(tuple(values))


def is_block_constant(g: Statistic, p: Partition) -> bool:
    return all(len({g[k] for k in block}) == 1 for block in p.blocks)


def random_coarsening(rng: random.Random, p: Partition) -> Partition:
    """Randomly merge the blocks of p (result is coarser than or equal to p)."""
    group_count = rng.randint(1, len(p.blocks))
    merged: dict[int, list[int]] = {}
    for block in p.blocks:
        merged.setdefault(rng.randrange(group_count), []).extend(block)
    return Partition(merged.values())


def random_partition(rng: random.Random, n: int) -> Partition:
    blocks: dict[int, list[int]] = {}
    group_count = rng.randint(1, n)
    for k in range(n):
        blocks.setdefault(rng.randrange(group_count), []).append(k)
    return Partition(blocks.values())


def split_first_block(p: Partition) -> Partition:
    """p with its first block of two or more cells split into its first cell
    and the rest, a strictly finer partition; p itself if all singletons."""
    for i, block in enumerate(p.blocks):
        if len(block) > 1:
            return Partition([*p.blocks[:i], block[:1], block[1:], *p.blocks[i + 1:]])
    return p


def random_polynomial(rng: random.Random, names=("theta", "eta"), max_degree: int = 3,
                      max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, max_degree)):
            name = rng.choice(names)
            exps[name] = exps.get(name, 0) + 1
        mono = Monomial(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + random_fraction(rng)
    return Polynomial(terms)


def to_sympy(rows) -> sympy.Matrix:
    """Rows of Fractions (or ints) as a sympy matrix of Rationals."""
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_rank(rows) -> int:
    """Rank over the rationals of some rows (none has rank 0), by sympy."""
    return to_sympy(rows).rank()


def coefficient_rows(polys) -> list[list[Fraction]]:
    """Each polynomial's coefficients over the union of their monomials."""
    basis = sorted({mono for p in polys for mono in p.terms}, key=Monomial.sort_key)
    return [[p.terms.get(mono, Fraction(0)) for mono in basis] for p in polys]


def spans_equal(polys_a, polys_b) -> bool:
    """Exact mutual containment of the coefficient spans of two polynomial sets."""
    polys_a, polys_b = list(polys_a), list(polys_b)
    rows = coefficient_rows(polys_a + polys_b)
    joint = sympy_rank(rows)
    return sympy_rank(rows[:len(polys_a)]) == joint and sympy_rank(rows[len(polys_a):]) == joint


def column_ranks(m: CategoricalModel):
    """rank(cols): sympy's rank of the columns cols (a tuple) of m's C."""
    _, c = coefficient_matrix(m)
    columns = [[row[j] for row in c.rows] for j in range(c.ncols)]
    return cache(lambda cols: sympy_rank(columns[j] for j in cols))


def is_rank_additive(m: CategoricalModel, p: Partition, rank=None) -> bool:
    """Direct-sum certificate: the blocks' column ranks add up to C's rank."""
    rank = rank or column_ranks(m)
    assert p.n == m.n
    return sum(rank(block) for block in p.blocks) == rank(tuple(range(m.n)))


def proper_splits(block):
    """All unordered 2-part splits of a block into non-empty halves."""
    items = list(block)
    rest = items[1:]
    for size in range(len(items)):
        for chosen in combinations(rest, size):
            left = [items[0], *chosen]
            right = [k for k in items if k not in left]
            if right:
                yield left, right


def check_maximality(m: CategoricalModel, p: Partition) -> bool:
    """Oracle for maximality: p is rank additive, and splitting any block
    breaks rank additivity. With the other blocks unchanged, the split is
    additive exactly when the two halves' ranks add up to the block's."""
    rank = column_ranks(m)
    if not is_rank_additive(m, p, rank):
        return False
    return not any(rank(tuple(left)) + rank(tuple(right)) == rank(block)
                   for block in p.blocks for left, right in proper_splits(block))


def common_refinement(p: Partition, q: Partition) -> Partition:
    """Coarsest partition refining both: all non-empty pairwise intersections."""
    assert p.n == q.n
    intersections = (set(a) & set(b) for a in p.blocks for b in q.blocks)
    return Partition(i for i in intersections if i)


def permuted_model(m: CategoricalModel, perm: list[int]) -> CategoricalModel:
    """Reorder the support by perm (new position i holds old cell perm[i])."""
    return CategoricalModel(
        support=[m.support[k] for k in perm],
        pmf=[m.pmf[k] for k in perm],
        parameters=m.parameters,
        domain=m.domain,
    )


def permuted_partition(p: Partition, perm: list[int]) -> Partition:
    """Image of p under the same reordering (old index k moves to perm^-1[k])."""
    inverse = {old: new for new, old in enumerate(perm)}
    return Partition([[inverse[k] for k in block] for block in p.blocks])


def matrix_of(rows) -> Matrix:
    return Matrix([[Fraction(x) for x in row] for row in rows])


def paper_power(k: int) -> CategoricalModel:
    """The k-fold independent product of paper-2-3, one parameter per factor."""
    factors = [rename_parameters(corpus_model("paper-2-3"), {"theta": f"theta{i}"}) for i in range(k)]
    m = factors[0]
    for f in factors[1:]:
        m = product_model(m, f)
    return m
