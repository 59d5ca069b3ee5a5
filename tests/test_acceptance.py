"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All numeric checks are exact (tolerance zero); the only stated
tolerances are the runtime budgets, which are asserted with wall-clock time.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from umvue import (
    Partition,
    Statistic,
    analyze_model,
    coefficient_matrix,
    common_coarsening,
    corpus_model,
    format_poly,
    is_complete,
    is_umvue,
    minimal_sufficient_partition,
    mve_partition,
    parse_poly,
    product_model,
    product_partition,
    random_model,
    refines,
    rename_parameters,
    slice_model,
    umvue_functionals,
    zero_mean_space,
)
from umvue.model import interior_grid
from umvue.poly import Polynomial

from helpers import (
    block_constant_statistic,
    common_refinement,
    is_block_constant,
    random_coarsening,
    random_polynomial,
    random_statistic,
    spans_equal,
    sympy_rank,
)

README = Path(__file__).parent.parent / "README.md"


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title}")


@lru_cache(maxsize=1)
def random_suite():
    """200 deterministic random models with N <= 6, degree <= 4, 1-2 parameters."""
    suite = []
    for seed in range(200):
        n = 2 + seed % 5
        degree = 1 + seed % 4
        n_params = 1 + (seed // 5) % 2
        model = random_model(seed, n=n, max_degree=degree, n_params=n_params)
        suite.append((model, mve_partition(model)))
    return suite


def test_c01_reference_model_reproduction():
    with criterion(1, "reference four-cell model is reproduced exactly in < 1 s"):
        start = time.monotonic()
        m = corpus_model("paper-2-3")
        assert mve_partition(m) == Partition([[0, 1, 2], [3]])
        theta = Polynomial.variable("theta")
        assert spans_equal(
            umvue_functionals(m),
            [Polynomial.constant(1), theta + theta * theta],
        )
        assert minimal_sufficient_partition(m) == Partition.singletons(4)
        assert not is_complete(m, Partition.singletons(4))
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_c02_oracle_equivalence_both_directions():
    with criterion(2, "zero-correlation test agrees with block-constancy on "
                      "200 random models x 20 statistics in < 60 s"):
        start = time.monotonic()
        rng = random.Random(20260810)
        forward = reverse = 0
        for model, partition in random_suite():
            statistics = [random_statistic(rng, model.n) for _ in range(12)]
            statistics += [block_constant_statistic(rng, partition) for _ in range(8)]
            for g in statistics:
                expected = is_block_constant(g, partition)
                assert bool(is_umvue(model, g)) == expected, (model, g)
                if expected:
                    forward += 1
                else:
                    reverse += 1
        assert forward > 0 and reverse > 0  # both directions exercised
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.3f} s"


def test_c03_product_closure():
    with criterion(3, "pointwise products of passing statistics pass, zero failures"):
        rng = random.Random(31415)
        for model, partition in random_suite():
            pool = [g for g in (random_statistic(rng, model.n) for _ in range(6))
                    if is_umvue(model, g)]
            pool += [block_constant_statistic(rng, partition) for _ in range(4)]
            for i, g1 in enumerate(pool):
                for g2 in pool[i:]:
                    assert is_umvue(model, g1.pointwise_mul(g2))


def test_c04_rao_blackwell_consistency():
    with criterion(4, "minimal-sufficient blocks sit inside MVE blocks and the "
                      "MVE partition is complete, zero failures"):
        for model, partition in random_suite():
            assert refines(minimal_sufficient_partition(model), partition)
            assert is_complete(model, partition)


def test_c05_generated_algebra_closure():
    with criterion(5, "common refinement of two MVE coarsenings stays coarser than "
                      "the MVE partition on 100 random triples"):
        rng = random.Random(2718)
        triples = 0
        for model, partition in random_suite()[:100]:
            q1 = random_coarsening(rng, partition)
            q2 = random_coarsening(rng, partition)
            assert refines(partition, common_refinement(q1, q2))
            triples += 1
        assert triples >= 100


def test_c06_product_model_closure():
    with criterion(6, "product partitions of factor MVE partitions are unions of "
                      "product-model MVE blocks on 50 pairs in < 120 s"):
        start = time.monotonic()
        pairs = 0
        for seed in range(50):
            m1 = random_model(seed, n=2 + seed % 3, max_degree=2, n_params=1 + seed % 2)
            m2 = rename_parameters(
                random_model(10_000 + seed, n=2 + (seed // 3) % 3, max_degree=2, n_params=1),
                {"theta": "tau", "eta": "xi"},
            )
            prod = product_model(m1, m2)
            coarse = product_partition(mve_partition(m1), mve_partition(m2))
            assert refines(mve_partition(prod), coarse)
            # equivalently: every coarse block is a union of product MVE blocks,
            # so block-constant statistics on it are UMVUEs in the product model
            pairs += 1
        assert pairs >= 50
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.3f} s"


def test_c06_product_partition_is_the_product_mve_partition():
    # the README proves equality for disjoint parameters; C06 asserts refinement only
    for seed in range(50):
        m1 = random_model(seed, n=2 + seed % 3, max_degree=2, n_params=1 + seed % 2)
        m2 = rename_parameters(
            random_model(10_000 + seed, n=2 + (seed // 3) % 3, max_degree=2, n_params=1),
            {"theta": "tau", "eta": "xi"},
        )
        assert mve_partition(product_model(m1, m2)) == product_partition(mve_partition(m1), mve_partition(m2))
    m = corpus_model("paper-2-3")
    square = product_model(m, rename_parameters(m, {"theta": "tau"}))
    assert mve_partition(square) == product_partition(mve_partition(m), mve_partition(m))


def test_c07_completeness_baseline():
    with criterion(7, "binomial(2) has singleton MVE partition and complete "
                      "minimal sufficient statistic"):
        m = corpus_model("binomial", {"n": 2})
        assert mve_partition(m) == Partition.singletons(3)
        assert is_complete(m, Partition.singletons(3))
        assert zero_mean_space(m) == []


def test_c08_truncated_lehmann_contrast():
    with criterion(8, "lehmann-trunc(2) is complete with singleton MVE partition "
                      "and the docs state the contrast with the infinite family"):
        m = corpus_model("lehmann-trunc", {"k": 2})
        _, c = coefficient_matrix(m)
        assert sympy_rank(c.rows) == 4  # rank-4 oracle
        assert mve_partition(m) == Partition.singletons(4)
        assert is_complete(m, Partition.singletons(4))
        docs = README.read_text(encoding="utf-8")
        assert "differs" in docs and "infinite-support" in docs
        assert "`{0}`" in docs and "`{-1, 1, 2, ...}`" in docs
        assert "all singletons" in docs


def test_c09_slicewise_structure_transfers():
    with criterion(9, "statistics measurable for the common coarsening of slice MVE "
                      "partitions pass on the full two-parameter model, zero failures"):
        demo = corpus_model("two-param-demo")
        grid = interior_grid(Fraction(0), Fraction(1))
        assert len(grid) >= 5
        slice_partitions = [
            mve_partition(slice_model(demo, {"eta": point})) for point in grid
        ]
        coarsening = common_coarsening(slice_partitions)
        assert coarsening == Partition([[0, 1], [2, 3]])

        statistics = [
            Statistic.of([1 if k in block else 0 for k in range(demo.n)])
            for block in coarsening.blocks
        ]
        rng = random.Random(999)
        statistics += [block_constant_statistic(rng, coarsening) for _ in range(20)]
        for g in statistics:
            assert is_umvue(demo, g), g


def test_c10_parser_and_report_stability():
    with criterion(10, "10^4 parse/format round trips and a byte-stable golden report"):
        rng = random.Random(26081)
        for _ in range(10_000):
            p = random_polynomial(rng)
            text = format_poly(p)
            assert parse_poly(text, ["theta", "eta"]) == p
            assert format_poly(parse_poly(text, ["theta", "eta"])) == text

        golden = (Path(__file__).parent / "data" / "paper_2_3_report.json").read_text(encoding="utf-8")
        first = analyze_model(corpus_model("paper-2-3")).to_json()
        second = analyze_model(corpus_model("paper-2-3")).to_json()
        assert first == second == golden
