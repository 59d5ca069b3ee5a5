import random
from fractions import Fraction

import pytest

from umvue import (
    NoFreeParameters,
    OutOfDomain,
    ParameterCollision,
    Partition,
    corpus_model,
    mve_partition,
    product_model,
    product_partition,
    refines,
    rename_parameters,
    slice_model,
    validate_model,
)
from umvue.expr import format_poly


def bernoulli_pair():
    b1 = corpus_model("bernoulli")
    b2 = rename_parameters(b1, {"theta": "eta"})
    return b1, b2


def test_product_of_bernoullis():
    b1, b2 = bernoulli_pair()
    prod = product_model(b1, b2)
    assert prod.support == ("1⊗1", "1⊗0", "0⊗1", "0⊗0")
    assert [format_poly(p) for p in prod.pmf] == [
        "eta*theta",
        "theta - eta*theta",
        "eta - eta*theta",
        "1 - eta - theta + eta*theta",
    ]
    assert validate_model(prod).ok


def test_product_with_constant_doubles_cells():
    m = corpus_model("paper-2-3")
    prod = product_model(m, corpus_model("constant", {"n": 2}))
    assert prod.n == 8
    for k in range(4):
        assert prod.pmf[2 * k] == m.pmf[k] * Fraction(1, 2)
        assert prod.pmf[2 * k + 1] == m.pmf[k] * Fraction(1, 2)
    blocks = sorted(len(b) for b in mve_partition(prod).blocks)
    assert blocks == [2, 6]


def test_product_with_single_point_model_is_identity():
    m = corpus_model("paper-2-3")
    prod = product_model(m, corpus_model("constant", {"n": 1}))
    assert prod.pmf == m.pmf
    assert mve_partition(prod) == mve_partition(m)


def test_product_parameter_collision():
    with pytest.raises(ParameterCollision):
        product_model(corpus_model("bernoulli"), corpus_model("bernoulli"))


def test_product_partition_examples():
    s2 = Partition.singletons(2)
    assert product_partition(s2, s2) == Partition.singletons(4)
    assert product_partition(Partition.one_block(2), s2) == Partition([[0, 2], [1, 3]])
    big = product_partition(Partition([[0, 1, 2], [3]]), Partition.one_block(2))
    assert sorted(len(b) for b in big.blocks) == [2, 6]


def test_rename_parameters():
    renamed = rename_parameters(corpus_model("two-param-demo"), {"eta": "xi"})
    assert renamed.parameters == ("theta", "xi")
    assert "xi" in renamed.domain and "eta" not in renamed.domain
    assert validate_model(renamed).ok
    with pytest.raises(ParameterCollision):
        rename_parameters(corpus_model("two-param-demo"), {"eta": "theta"})


def test_slice_product_of_bernoullis():
    prod = product_model(*bernoulli_pair())
    sliced = slice_model(prod, {"eta": Fraction(1, 3)})
    assert [format_poly(p) for p in sliced.pmf] == [
        "1/3*theta",
        "2/3*theta",
        "1/3 - 1/3*theta",
        "2/3 - 2/3*theta",
    ]
    assert sliced.parameters == ("theta",)
    assert mve_partition(sliced) == Partition([[0, 1], [2, 3]])


def test_slice_at_endpoint_rejected():
    prod = product_model(*bernoulli_pair())
    with pytest.raises(OutOfDomain):
        slice_model(prod, {"eta": 0})
    with pytest.raises(OutOfDomain):
        slice_model(prod, {"eta": 1})
    with pytest.raises(OutOfDomain):
        slice_model(prod, {"tau": Fraction(1, 2)})


def test_slice_needs_a_free_parameter():
    prod = product_model(*bernoulli_pair())
    with pytest.raises(NoFreeParameters):
        slice_model(prod, {"eta": Fraction(1, 3), "theta": Fraction(1, 3)})


def test_slice_two_param_demo():
    demo = corpus_model("two-param-demo")
    sliced = slice_model(demo, {"eta": Fraction(1, 2)})
    assert mve_partition(sliced) == Partition([[0, 1], [2, 3]])


def test_mve_coarsenings_closed_under_common_refinement():
    # coarsenings of the maximal partition stay coarser under common refinement
    from umvue import random_model

    from helpers import common_refinement, random_coarsening

    rng = random.Random(21)
    for seed in range(40):
        m = random_model(seed, n=rng.randint(3, 6), max_degree=3, n_params=1)
        mve = mve_partition(m)
        q1 = random_coarsening(rng, mve)
        q2 = random_coarsening(rng, mve)
        assert refines(mve, common_refinement(q1, q2))


def test_product_of_mve_partitions_is_mve_for_product_model():
    from umvue import Statistic, is_umvue, random_model

    for seed in range(10):
        m1 = random_model(seed, n=3, max_degree=2, n_params=1)
        m2 = rename_parameters(random_model(seed + 1000, n=3, max_degree=2, n_params=1),
                               {"theta": "tau"})
        prod = product_model(m1, m2)
        target = product_partition(mve_partition(m1), mve_partition(m2))
        assert refines(mve_partition(prod), target)
        # so statistics measurable for the product partition are product UMVUEs
        for block in target.blocks:
            indicator = Statistic.of([1 if k in block else 0 for k in range(prod.n)])
            assert is_umvue(prod, indicator)
