import random
from collections import Counter
from fractions import Fraction

import pytest

from umvue import (
    Estimability,
    LengthMismatch,
    Partition,
    Statistic,
    corpus_model,
    expectation,
    is_complete,
    is_sufficient,
    is_umvue,
    minimal_sufficient_partition,
    mve_partition,
    random_model,
    umvue_for,
    umvue_functionals,
    zero_mean_space,
)
from umvue.model import coefficient_matrix
from umvue.poly import Polynomial

from helpers import (
    block_constant_statistic,
    coefficient_rows,
    is_block_constant,
    random_partition,
    random_statistic,
    spans_equal,
    split_first_block,
    sympy_rank,
)

T = Polynomial.variable("theta")


def p23():
    return corpus_model("paper-2-3")


def test_zero_mean_space_p23():
    (chi,) = zero_mean_space(p23())
    assert chi == Statistic.of([1, 1, -1, 0])
    # oracle: p1 + p2 - p3 vanishes identically
    assert expectation(p23(), chi).is_zero()


def test_zero_mean_space_complete_families():
    assert zero_mean_space(corpus_model("binomial", {"n": 2})) == []


def test_zero_mean_space_constant_model():
    (chi,) = zero_mean_space(corpus_model("constant", {"n": 2}))
    assert chi == Statistic.of([1, -1])


def test_is_umvue_block_indicator():
    assert is_umvue(p23(), Statistic.of([1, 1, 1, 0]))


def test_is_umvue_failure_carries_witness():
    verdict = is_umvue(p23(), Statistic.of([1, 0, 0, 0]))
    assert not verdict
    assert verdict.witness == Statistic.of([1, 1, -1, 0])
    assert verdict.residual == T


def test_is_umvue_constants_always_pass():
    for name, params in (("paper-2-3", None), ("bernoulli", None), ("constant", {"n": 3})):
        m = corpus_model(name, params)
        assert is_umvue(m, Statistic.constant(Fraction(5, 3), m.n))


def test_is_umvue_length_mismatch():
    with pytest.raises(LengthMismatch):
        is_umvue(p23(), Statistic.of([1, 2]))


def test_umvue_functionals_p23():
    pis = umvue_functionals(p23())
    assert pis == [T * 2 + T * T * 2, Polynomial.constant(1) - T * 2 - T * T * 2]
    assert spans_equal(pis, [Polynomial.constant(1), T + T * T])


def test_umvue_functionals_binomial():
    m = corpus_model("binomial", {"n": 2})
    pis = umvue_functionals(m)
    assert pis == list(m.pmf)
    assert spans_equal(pis, list(m.pmf))


def test_umvue_functionals_constant():
    assert umvue_functionals(corpus_model("constant", {"n": 3})) == [Polynomial.constant(1)]


def test_umvue_functionals_independent():
    for name in ("paper-2-3", "two-param-demo", "bernoulli"):
        m = corpus_model(name)
        pis = umvue_functionals(m)
        assert sympy_rank(coefficient_rows(pis)) == len(pis)


def test_minimal_sufficient_p23_is_trivial():
    assert minimal_sufficient_partition(p23()) == Partition.singletons(4)


def test_minimal_sufficient_proportional_cells():
    from umvue import CategoricalModel

    m = CategoricalModel(
        support=["a", "b", "c"],
        pmf=[T * Fraction(1, 2), T * Fraction(1, 2), Polynomial.constant(1) - T],
        parameters=["theta"],
        domain={"theta": (0, 1)},
    )
    assert minimal_sufficient_partition(m) == Partition([[0, 1], [2]])
    assert is_sufficient(m, Partition([[0, 1], [2]]))


def test_minimal_sufficient_binomial():
    assert minimal_sufficient_partition(corpus_model("binomial", {"n": 2})) \
        == Partition.singletons(3)


def test_is_sufficient_identity_partition():
    for name in ("paper-2-3", "bernoulli", "two-param-demo"):
        m = corpus_model(name)
        assert is_sufficient(m, Partition.singletons(m.n))


def test_is_sufficient_rejects_mixed_block():
    assert not is_sufficient(p23(), Partition([[0, 1, 2], [3]]))


def test_is_complete_examples():
    assert is_complete(corpus_model("binomial", {"n": 2}), Partition.singletons(3))
    assert not is_complete(p23(), Partition.singletons(4))
    for name in ("paper-2-3", "bernoulli"):
        m = corpus_model(name)
        assert is_complete(m, Partition.one_block(m.n))


def test_is_complete_matches_the_rank_of_the_block_sums():
    # sympy's rank of the block sums' coefficients, on sufficient partitions
    # (decided by their block count) and on others (eliminated)
    rng = random.Random(28)
    outcomes = Counter()
    for seed in range(150):
        m = random_model(seed, n=rng.randint(2, 30), max_degree=rng.randint(1, 3), n_params=rng.randint(1, 2))
        sufficient = minimal_sufficient_partition(m)
        for p in (sufficient, split_first_block(sufficient), Partition.singletons(m.n),
                  Partition.one_block(m.n), mve_partition(m), random_partition(rng, m.n)):
            sums = [Polynomial.sum(m.pmf[k] for k in block) for block in p.blocks]
            complete = is_complete(m, p)
            assert complete == (sympy_rank(coefficient_rows(sums)) == len(p.blocks)), (seed, p)
            outcomes[is_sufficient(m, p), complete] += 1
    assert len(outcomes) == 4, outcomes


def test_umvue_for_block_functional():
    result = umvue_for(p23(), Polynomial.constant(1) - T * 2 - T * T * 2)
    assert result.status is Estimability.OK
    assert result.statistic == Statistic.of([0, 0, 0, 1])


def test_umvue_for_theta_has_no_umvue():
    result = umvue_for(p23(), T)
    assert result.status is Estimability.NO_UMVUE
    assert not result


def test_umvue_for_not_estimable():
    result = umvue_for(p23(), T ** 3)
    assert result.status is Estimability.NOT_ESTIMABLE


def test_umvue_for_constant_one():
    result = umvue_for(p23(), Polynomial.constant(1))
    assert result.statistic == Statistic.constant(1, 4)


def test_umvue_for_round_trip_random():
    # for any block-constant h, the UMVUE of E h is h itself
    rng = random.Random(5)
    for seed in range(25):
        m = random_model(seed, n=rng.randint(2, 5), max_degree=2, n_params=1)
        h = block_constant_statistic(rng, mve_partition(m))
        result = umvue_for(m, expectation(m, h))
        assert result.status is Estimability.OK
        assert result.statistic == h


def test_characterization_both_directions_small():
    rng = random.Random(12)
    for seed in range(30):
        m = random_model(seed, n=4, max_degree=3, n_params=1)
        partition = mve_partition(m)
        for _ in range(8):
            g = random_statistic(rng, m.n)
            assert bool(is_umvue(m, g)) == is_block_constant(g, partition)
        g = block_constant_statistic(rng, partition)
        assert is_umvue(m, g)


def test_linear_closure():
    rng = random.Random(13)
    m = p23()
    partition = mve_partition(m)
    for _ in range(20):
        g1 = block_constant_statistic(rng, partition)
        g2 = block_constant_statistic(rng, partition)
        c1, c2 = Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5))
        combo = Statistic(tuple(c1 * a + c2 * b for a, b in zip(g1.values, g2.values)))
        assert is_umvue(m, combo)


def test_product_closure():
    rng = random.Random(14)
    m = p23()
    partition = mve_partition(m)
    for _ in range(20):
        g1 = block_constant_statistic(rng, partition)
        g2 = block_constant_statistic(rng, partition)
        assert is_umvue(m, g1.pointwise_mul(g2))


def test_rao_blackwell_consistency_corpus():
    for name, params in (
        ("paper-2-3", None),
        ("bernoulli", None),
        ("binomial", {"n": 3}),
        ("two-param-demo", None),
        ("lehmann-trunc", {"k": 3}),
    ):
        m = corpus_model(name, params)
        from umvue import refines

        assert refines(minimal_sufficient_partition(m), mve_partition(m))
        assert is_complete(m, mve_partition(m))


def test_expectation_values():
    m = p23()
    g = Statistic.of([1, 1, 1, 0])
    assert expectation(m, g) == T * 2 + T * T * 2
    _, c = coefficient_matrix(m)
    # expectation in coordinates equals the matrix-vector product
    assert c.mul_vector(g.values) == (0, 2, 2)
