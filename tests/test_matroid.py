import random

import pytest

from umvue import (
    GroundSetMismatch,
    Partition,
    ZeroColumn,
    coefficient_matrix,
    common_coarsening,
    corpus_model,
    fundamental_circuit_graph,
    mve_partition,
    random_model,
    refines,
)

from helpers import (
    check_maximality,
    common_refinement,
    is_rank_additive,
    matrix_of,
    permuted_model,
    permuted_partition,
    random_partition,
    sympy_rank,
)


def edges_of(adjacency):
    return {frozenset((a, b)) for a, nbrs in enumerate(adjacency) for b in nbrs}


def test_circuit_graph_p23_example():
    _, c = coefficient_matrix(corpus_model("paper-2-3"))
    adjacency = fundamental_circuit_graph(c)
    # circuit p3 = p1 + p2 gives the triangle {0,1,2}; column 3 is isolated
    assert edges_of(adjacency) == {frozenset((0, 2)), frozenset((1, 2)), frozenset((0, 1))}
    assert adjacency[3] == set()


def test_circuit_graph_independent_columns():
    c = matrix_of([[1, 0], [0, 1]])
    assert edges_of(fundamental_circuit_graph(c)) == set()


def test_circuit_graph_proportional_pair():
    c = matrix_of([[1, 2], [2, 4]])
    assert edges_of(fundamental_circuit_graph(c)) == {frozenset((0, 1))}


def test_circuit_graph_rejects_zero_column():
    with pytest.raises(ZeroColumn):
        fundamental_circuit_graph(matrix_of([[1, 0], [1, 0]]))


def test_mve_partition_p23_example():
    assert mve_partition(corpus_model("paper-2-3")) == Partition([[0, 1, 2], [3]])


def test_mve_partition_binomial_two():
    m = corpus_model("binomial", {"n": 2})
    # oracle: the three coefficient vectors are linearly independent
    _, c = coefficient_matrix(m)
    assert sympy_rank(c.rows) == 3
    assert mve_partition(m) == Partition.singletons(3)


def test_mve_partition_constant_model():
    assert mve_partition(corpus_model("constant", {"n": 2})) == Partition.one_block(2)


def test_mve_partition_direct_sum_certificate():
    for name, params in (("paper-2-3", None), ("two-param-demo", None), ("binomial", {"n": 3})):
        m = corpus_model(name, params)
        assert is_rank_additive(m, mve_partition(m))


def test_mve_partition_maximality_p23():
    m = corpus_model("paper-2-3")
    assert check_maximality(m, mve_partition(m))


def test_mve_partition_maximality_random():
    # splitting any block of the computed partition must break rank additivity
    for seed in range(25):
        m = random_model(seed, n=4 + seed % 3, max_degree=3, n_params=1 + seed % 2)
        assert check_maximality(m, mve_partition(m))


def test_mve_partition_basis_independence():
    rng = random.Random(31)
    for seed in range(20):
        m = random_model(seed, n=5, max_degree=3, n_params=1)
        perm = list(range(5))
        rng.shuffle(perm)
        direct = mve_partition(permuted_model(m, perm))
        mapped = permuted_partition(mve_partition(m), perm)
        assert direct == mapped


def test_refines_examples():
    singles = Partition.singletons(3)
    assert refines(singles, Partition([[0, 1], [2]]))
    assert refines(Partition([[0, 1], [2]]), Partition.one_block(3))
    assert not refines(Partition([[0, 2], [1]]), Partition([[0, 1], [2]]))
    assert refines(singles, singles)


def test_refines_ground_set_mismatch():
    with pytest.raises(GroundSetMismatch):
        refines(Partition.singletons(2), Partition.singletons(3))


def test_common_refinement_examples():
    p = Partition([[0, 1], [2, 3]])
    q = Partition([[0, 2], [1, 3]])
    assert common_refinement(p, q) == Partition.singletons(4)
    assert common_refinement(p, p) == p
    assert common_refinement(Partition([[0, 1, 2], [3]]), Partition([[0, 1], [2, 3]])) \
        == Partition([[0, 1], [2], [3]])


def test_common_coarsening_examples():
    chain = common_coarsening([Partition([[0, 1], [2]]), Partition([[1, 2], [0]])])
    assert chain == Partition.one_block(3)
    single = Partition([[0, 1], [2]])
    assert common_coarsening([single]) == single
    s = Partition.singletons(3)
    assert common_coarsening([s, s]) == s


def test_lattice_laws_random():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 8)
        p = random_partition(rng, n)
        q = random_partition(rng, n)
        meet = common_refinement(p, q)
        join = common_coarsening([p, q])
        assert refines(meet, p) and refines(meet, q)
        assert refines(p, join) and refines(q, join)
        # universality on a third random partition
        s = random_partition(rng, n)
        if refines(s, p) and refines(s, q):
            assert refines(s, meet)
        if refines(p, s) and refines(q, s):
            assert refines(join, s)
