import random
from fractions import Fraction

import pytest

from umvue import (
    CategoricalModel,
    InvalidModel,
    Partition,
    coefficient_matrix,
    corpus_model,
    model_from_json,
    model_to_json,
    require_valid,
    validate_model,
)
from umvue.model import interior_grid
from umvue.poly import ONE, Monomial, Polynomial

from helpers import random_partition

T = Polynomial.variable("theta")


def bernoulli() -> CategoricalModel:
    return CategoricalModel(
        support=["1", "0"],
        pmf=[T, Polynomial.constant(1) - T],
        parameters=["theta"],
        domain={"theta": (0, 1)},
    )


def test_p23_model_is_valid():
    assert validate_model(corpus_model("paper-2-3")).ok


def test_bernoulli_is_valid():
    assert validate_model(bernoulli()).ok


def test_not_normalized_reports_residual():
    m = CategoricalModel(
        support=["a", "b"],
        pmf=[T, Polynomial.constant(1) - T * 2],
        parameters=["theta"],
        domain={"theta": (0, Fraction(1, 4))},
    )
    report = validate_model(m)
    assert not report.ok
    (issue,) = [i for i in report.issues if i.code == "not-normalized"]
    assert issue.residual == -T
    with pytest.raises(InvalidModel):
        require_valid(m)


def test_zero_component_detected():
    m = CategoricalModel(
        support=["a", "b"],
        pmf=[Polynomial.constant(1), Polynomial.zero()],
        parameters=[],
        domain={},
    )
    codes = {i.code for i in validate_model(m).issues}
    assert "zero-component" in codes


def test_duplicate_labels_detected():
    m = CategoricalModel(
        support=["a", "a"],
        pmf=[T, Polynomial.constant(1) - T],
        parameters=["theta"],
        domain={"theta": (0, 1)},
    )
    codes = {i.code for i in validate_model(m).issues}
    assert "duplicate-label" in codes


def test_non_positive_detected_on_grid():
    # theta - 1/2 changes sign inside (0, 1)
    m = CategoricalModel(
        support=["a", "b"],
        pmf=[T - Fraction(1, 2), Polynomial.constant(Fraction(3, 2)) - T],
        parameters=["theta"],
        domain={"theta": (0, 1)},
    )
    report = validate_model(m)
    assert not report.ok
    bad = [i for i in report.issues if i.code == "non-positive"]
    assert bad and bad[0].component == 0


def test_a_cell_that_vanishes_at_a_grid_point_is_not_positive():
    # (theta - 1/2)^2 is positive at every grid point but the third, where it is 0
    square = (T - Fraction(1, 2)) * (T - Fraction(1, 2))
    m = CategoricalModel(["a", "b"], [square, 1 - square], ["theta"], {"theta": (0, 1)})
    bad = [(i.component, i.point) for i in validate_model(m).issues if i.code == "non-positive"]
    assert bad == [(0, (("theta", Fraction(1, 2)),))]


def test_undeclared_parameter_detected():
    m = CategoricalModel(
        support=["a", "b"],
        pmf=[Polynomial.variable("eta"), Polynomial.constant(1) - Polynomial.variable("eta")],
        parameters=["theta"],
        domain={"theta": (0, 1)},
    )
    codes = {i.code for i in validate_model(m).issues}
    assert "undeclared-parameter" in codes


def test_interior_grid_is_strictly_inside():
    points = interior_grid(Fraction(0), Fraction(1, 4))
    assert len(points) == 5
    assert all(Fraction(0) < x < Fraction(1, 4) for x in points)
    assert points == sorted(points)


def test_domain_grid_of_parameter_free_model():
    # the grid over an empty domain is the one empty point, and it is checked
    m = CategoricalModel(
        support=["a", "b"],
        pmf=[Polynomial.constant(2), Polynomial.constant(-1)],
        parameters=[],
        domain={},
    )
    bad = [(i.component, i.point) for i in validate_model(m).issues if i.code == "non-positive"]
    assert bad == [(1, ())]


def test_coefficient_matrix_p23():
    basis, c = coefficient_matrix(corpus_model("paper-2-3"))
    assert basis == [ONE, Monomial({"theta": 1}), Monomial({"theta": 2})]
    assert c.columns() == [
        (0, 1, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, -2, -2),
    ]


def test_coefficient_matrix_bernoulli():
    basis, c = coefficient_matrix(bernoulli())
    assert basis == [ONE, Monomial({"theta": 1})]
    assert c.columns() == [(0, 1), (1, -1)]


def test_coefficient_matrix_constant():
    basis, c = coefficient_matrix(corpus_model("constant", {"n": 2}))
    assert basis == [ONE]
    assert c.columns() == [(Fraction(1, 2),), (Fraction(1, 2),)]


def test_column_sums_encode_normalization():
    for name in ("paper-2-3", "bernoulli", "two-param-demo"):
        m = corpus_model(name)
        basis, c = coefficient_matrix(m)
        total = [sum(c.rows[i][k] for k in range(c.ncols)) for i in range(c.nrows)]
        expected = [1 if mono == ONE else 0 for mono in basis]
        assert total == expected


def test_coefficient_matrix_deterministic():
    a = coefficient_matrix(corpus_model("paper-2-3"))
    b = coefficient_matrix(corpus_model("paper-2-3"))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_partition_canonicalization():
    p = Partition([[3], [1, 0], [2]])
    assert p.blocks == ((0, 1), (2,), (3,))
    assert Partition(p.blocks) == p  # idempotent
    assert Partition([[2], [0, 1], [3]]) == p  # insensitive to block order


def test_partition_rejects_bad_blocks():
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        Partition([[0], [2]])
    with pytest.raises(ValueError):
        Partition([[0], []])


def test_partition_canonicalization_random():
    rng = random.Random(4)
    for _ in range(100):
        p = random_partition(rng, rng.randint(1, 8))
        shuffled = list(p.blocks)
        rng.shuffle(shuffled)
        shuffled = [list(reversed(b)) for b in shuffled]
        assert Partition(shuffled) == p


def test_model_json_round_trip():
    m = corpus_model("paper-2-3")
    text = model_to_json(m)
    assert model_from_json(text) == m
    # rationals stay strings in the serialized form
    assert '"1/4"' in text
