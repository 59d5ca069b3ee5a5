import math
from fractions import Fraction

import pytest

from umvue import (
    BadParam,
    GenerationFailed,
    Partition,
    UnknownName,
    corpus_model,
    corpus_names,
    model_to_json,
    mve_partition,
    random_model,
    validate_model,
)
from umvue.expr import format_poly
from umvue.poly import Polynomial

T = Polynomial.variable("theta")


def test_corpus_names():
    assert set(corpus_names()) == {
        "paper-2-3", "bernoulli", "binomial", "constant", "lehmann-trunc", "two-param-demo",
    }


def test_every_corpus_model_is_valid():
    cases = [
        ("paper-2-3", None),
        ("bernoulli", None),
        ("binomial", {"n": 1}),
        ("binomial", {"n": 4}),
        ("constant", {"n": 1}),
        ("constant", {"n": 5}),
        ("lehmann-trunc", {"k": 1}),
        ("lehmann-trunc", {"k": 5}),
        ("two-param-demo", None),
    ]
    for name, params in cases:
        assert validate_model(corpus_model(name, params)).ok


def test_paper_2_3_definition():
    m = corpus_model("paper-2-3")
    assert [format_poly(p) for p in m.pmf] == [
        "theta", "theta^2", "theta + theta^2", "1 - 2*theta - 2*theta^2",
    ]
    assert m.domain["theta"] == (Fraction(0), Fraction(1, 4))


def test_binomial_two_definition():
    m = corpus_model("binomial", {"n": 2})
    assert [format_poly(p) for p in m.pmf] == [
        "1 - 2*theta + theta^2", "2*theta - 2*theta^2", "theta^2",
    ]


def test_lehmann_trunc_two_definition():
    m = corpus_model("lehmann-trunc", {"k": 2})
    one_minus = Polynomial.constant(1) - T
    assert list(m.pmf) == [
        T,
        one_minus * one_minus,
        one_minus * one_minus * T,
        one_minus * T * T,
    ]
    assert m.support == ("-1", "0", "1", "T")


def test_lehmann_trunc_normalization_identity():
    for k in range(1, 9):
        m = corpus_model("lehmann-trunc", {"k": k})
        total = sum(m.pmf, Polynomial.zero())
        assert total == Polynomial.constant(1)


def test_two_param_demo_structure():
    m = corpus_model("two-param-demo")
    assert mve_partition(m) == Partition([[0, 1], [2], [3]])


def test_unknown_name():
    with pytest.raises(UnknownName):
        corpus_model("nope")


def test_binomial_cells_match_the_closed_form():
    one_minus = Polynomial.constant(1) - T
    for n in (1, 2, 12, 40):
        expected = [T ** k * one_minus ** (n - k) * math.comb(n, k) for k in range(n + 1)]
        assert list(corpus_model("binomial", {"n": n}).pmf) == expected


def test_bad_params():
    with pytest.raises(BadParam):
        corpus_model("binomial", {})
    with pytest.raises(BadParam):
        corpus_model("binomial", {"n": 0})
    with pytest.raises(BadParam):
        corpus_model("paper-2-3", {"n": 1})
    with pytest.raises(BadParam):
        corpus_model("lehmann-trunc", {"k": -1})
    with pytest.raises(BadParam):
        corpus_model("lehmann-trunc", {"k": 512})


def test_random_model_contract():
    m = random_model(1, n=3, max_degree=2, n_params=1)
    assert validate_model(m).ok
    assert m.n == 3


def test_random_model_deterministic():
    a = random_model(42, n=5, max_degree=3, n_params=2)
    b = random_model(42, n=5, max_degree=3, n_params=2)
    assert a == b
    assert model_to_json(a) == model_to_json(b)
    assert a != random_model(43, n=5, max_degree=3, n_params=2)


def test_random_model_larger_sizes_stay_valid():
    for seed in range(30):
        m = random_model(seed, n=6, max_degree=4, n_params=2)
        assert validate_model(m).ok


def test_random_model_bad_args():
    with pytest.raises(BadParam):
        random_model(0, n=1, max_degree=2, n_params=1)
    with pytest.raises(BadParam):
        random_model(0, n=3, max_degree=0, n_params=1)
    with pytest.raises(BadParam):
        random_model(0, n=3, max_degree=2, n_params=3)


def test_random_model_plants_dependencies():
    # over a modest seed range, non-trivial partitions occur with useful frequency
    nontrivial = 0
    for seed in range(40):
        m = random_model(seed, n=5, max_degree=3, n_params=1)
        if any(len(b) > 1 for b in mve_partition(m).blocks):
            nontrivial += 1
    assert nontrivial >= 10


def test_generation_failed_is_exported():
    assert issubclass(GenerationFailed, Exception)
