"""One elimination per model instance, shared by every analysis."""

import random
import sys
import time
from fractions import Fraction

import pytest

import umvue
from umvue import (
    CategoricalModel,
    Estimability,
    Matrix,
    Partition,
    Polynomial,
    Statistic,
    UmvueVerdict,
    ZeroColumn,
    analyze_model,
    coefficient_matrix,
    corpus_model,
    expectation,
    is_complete,
    is_umvue,
    minimal_sufficient_partition,
    mve_partition,
    parse_poly,
    random_model,
    require_valid,
    rref,
    umvue_for,
    umvue_functionals,
    validate_model,
    zero_mean_space,
)
from umvue.corpus import CORPUS

from helpers import block_constant_statistic, from_sympy, paper_power, to_sympy


@pytest.fixture
def eliminations(monkeypatch):
    """Every matrix passed to umvue.linalg.rref, under any name it is bound to."""
    seen = []
    original = umvue.linalg.rref

    def counting(m):
        seen.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("umvue") and getattr(module, "rref", None) is original:
            monkeypatch.setattr(module, "rref", counting)
    return seen


@pytest.mark.parametrize("name, params", [("lehmann-trunc", {"k": 10}), ("paper-2-3", None)])
def test_analyze_eliminates_the_coefficient_matrix_once(eliminations, name, params):
    m = corpus_model(name, params)
    analyze_model(m)
    assert eliminations == [coefficient_matrix(m)[1]]


def test_is_umvue_reuses_the_elimination(eliminations):
    m = corpus_model("paper-2-3")
    analyze_model(m)
    count = len(eliminations)
    for k in range(20):
        is_umvue(m, Statistic.of([k, k, k, 1]))
        is_umvue(m, Statistic.of([k, 0, 0, 1]))
    assert len(eliminations) == count


def test_an_equal_model_eliminates_again(eliminations):
    first = corpus_model("paper-2-3")
    analyze_model(first)
    second = corpus_model("paper-2-3")
    assert second == first and second is not first
    analyze_model(second)
    assert len(eliminations) == 2


def test_the_mve_partition_is_joined_once_per_model(monkeypatch):
    calls = []
    original = umvue.matroid._fundamental_circuits

    def counting(reduced):
        calls.append(reduced)
        return original(reduced)

    monkeypatch.setattr(umvue.matroid, "_fundamental_circuits", counting)
    m = corpus_model("paper-2-3")
    analyze_model(m)
    for target in ("1", "theta", "theta + theta^2", "theta^2"):
        umvue_for(m, parse_poly(target, ["theta"]))
    assert len(calls) == 1
    fresh = corpus_model("paper-2-3")
    assert mve_partition(fresh) == mve_partition(m)
    assert len(calls) == 2


def span_model() -> CategoricalModel:
    """A model with a circuit block {0, 1, 2} whose C misses theta^3 in its
    column space: rank 4 over the basis 1, theta, ..., theta^4."""
    cells = ["theta", "theta^2", "theta + theta^2", "theta^3 + theta^4",
             "1 - 2*theta - 2*theta^2 - theta^3 - theta^4"]
    return CategoricalModel("abcde", [parse_poly(p, ["theta"]) for p in cells], ["theta"], {"theta": (0, Fraction(1, 10))})


def test_span_questions_read_the_one_elimination(eliminations):
    m = span_model()
    analyze_model(m)
    assert len(eliminations) == 1
    targets = [("theta + theta^2", ["theta"]), ("theta", ["theta"]), ("theta^3", ["theta"]), ("zz", ["zz"])]
    statuses = [umvue_for(m, parse_poly(text, names)).status for text, names in targets]
    assert statuses == [Estimability.OK, Estimability.NO_UMVUE, Estimability.NOT_ESTIMABLE, Estimability.NOT_ESTIMABLE]
    assert expectation(m, Statistic.of([1, 1, 1, 0, 0])) == parse_poly("2*theta + 2*theta^2", ["theta"])
    assert len(eliminations) == 1
    fresh = span_model()
    assert expectation(fresh, Statistic.of([0, 0, 0, 1, 1])) == parse_poly("1 - 2*theta - 2*theta^2", ["theta"])
    assert len(eliminations) == 1


def test_validation_builds_the_table_every_reader_uses(monkeypatch):
    tables = []
    original = umvue.model.coefficient_matrix

    def counting(m):
        tables.append(m)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("umvue") and getattr(module, "coefficient_matrix", None) is original:
            monkeypatch.setattr(module, "coefficient_matrix", counting)
    m = span_model()
    assert "coefficients" not in vars(m)
    assert validate_model(m).ok
    assert "coefficients" in vars(m) and "structure" not in vars(m)
    require_valid(m)
    analyze_model(m)
    assert is_umvue(m, Statistic.of([1, 1, 1, 0, 0])) and not is_umvue(m, Statistic.of([1, 0, 0, 0, 0]))
    assert umvue_for(m, parse_poly("theta + theta^2", ["theta"])).status is Estimability.OK
    assert expectation(m, Statistic.of([0, 0, 0, 1, 0])) == parse_poly("theta^3 + theta^4", ["theta"])
    assert tables == [m]


def test_umvue_for_reduces_the_block_sums_once_per_model(monkeypatch):
    reduced = []
    original = umvue.analysis.coordinates

    def counting(structure, v):
        reduced.append(v)
        return original(structure, v)

    monkeypatch.setattr(umvue.analysis, "coordinates", counting)
    m = span_model()
    target = parse_poly("theta + theta^2", ["theta"])
    first = umvue_for(m, target)
    assert len(reduced) == 2  # the target and C.1
    assert umvue_for(m, target) == first
    assert len(reduced) == 3  # the target only
    assert umvue_for(span_model(), target) == first
    assert len(reduced) == 5  # an equal model reduces C.1 again


def test_an_all_zero_model_keeps_its_columns():
    m = CategoricalModel(["a", "b"], [Polynomial.zero()] * 2, ["theta"], {"theta": (0, 1)})
    assert zero_mean_space(m) == [Statistic.of([1, 0]), Statistic.of([0, 1])]
    assert not is_complete(m, Partition.one_block(2))
    with pytest.raises(ZeroColumn):
        mve_partition(m)


def test_a_zero_column_raises_on_every_call():
    t = Polynomial.variable("theta")
    m = CategoricalModel(["a", "b", "c"], [t, Polynomial.zero(), 1 - t], ["theta"], {"theta": (0, 1)})
    for _ in range(2):
        with pytest.raises(ZeroColumn):
            mve_partition(m)


def structure_cases():
    yield from (corpus_model("binomial", {"n": n}) for n in range(1, 25))
    yield from (corpus_model("lehmann-trunc", {"k": k}) for k in range(1, 31))
    yield from (paper_power(k) for k in (2, 3))
    rng = random.Random(12)
    for seed in range(50):
        yield random_model(seed, n=rng.randint(2, 30), max_degree=rng.randint(1, 3), n_params=rng.randint(1, 2))


def test_the_elimination_matches_sympy_on_model_matrices():
    for m in structure_cases():
        c = coefficient_matrix(m)[1]
        oracle, pivots = to_sympy(c.rows).rref()
        reduced = m.structure
        assert reduced.pivots == pivots
        assert [list(row) for row in reduced.matrix.rows] == \
            [[from_sympy(x) for x in oracle.row(i)] for i in range(c.nrows)]


def analysis_cases():
    models = [corpus_model(name, dict.fromkeys(keys, size))
              for name, (_, keys) in CORPUS.items() for size in ((1, 2, 5, 12) if keys else (None,))]
    return [*models, paper_power(2), span_model()]


def analyze_every_way(m: CategoricalModel, rng: random.Random) -> set:
    """Every analysis a caller can ask of a valid model, and the outcomes seen:
    is_umvue passing and, raised at the last cell, failing with a witness and
    residual; umvue_for on every block sum, a cell, the last basis monomial
    (in span_model, outside C's column space) and a monomial no cell has."""
    require_valid(m)
    analyze_model(m)
    partition = mve_partition(m)
    g = block_constant_statistic(rng, partition)
    raised = Statistic(g.values[:-1] + (g.values[-1] + 1,))
    assert is_umvue(m, g)
    outcomes = {is_umvue(m, raised).is_umvue}
    basis = m.coefficients[0]
    for target in [*umvue_functionals(m), m.pmf[0],Polynomial({basis[-1]: Fraction(1)}), parse_poly("zz", ["zz"])]:
        status = umvue_for(m, target).status
        outside = status is Estimability.NOT_ESTIMABLE and set(target.terms) <= set(basis)
        outcomes.add("outside the column space" if outside else status)
    expectation(m, g)
    for p in (partition, minimal_sufficient_partition(m), Partition.one_block(m.n)):
        is_complete(m, p)
    return outcomes


def test_the_analysis_path_builds_no_dense_rref(monkeypatch):
    def refuse(self):
        raise AssertionError("the analysis read a dense RREF")

    monkeypatch.setattr(umvue.linalg.RrefResult, "matrix", property(refuse))
    rng = random.Random(17)
    outcomes = set().union(*(analyze_every_way(m, rng) for m in analysis_cases()))
    assert False in outcomes  # the witness and residual are read too


def test_the_analyses_leave_the_table_as_built():
    rng = random.Random(27)
    outcomes = set()
    for m in analysis_cases():
        outcomes |= analyze_every_way(m, rng)
        c = m.coefficients[1]
        fresh = coefficient_matrix(m)[1]
        slots = [getattr(c, name) for name in Matrix.__slots__]
        assert slots == [getattr(fresh, name) for name in Matrix.__slots__]
        assert c._rows is None
        rref(c)
        assert [getattr(c, name) for name in Matrix.__slots__] == slots
    assert outcomes == {True, False, *Estimability, "outside the column space"}


@pytest.mark.parametrize("name, params", [("binomial", {"n": 256}), ("lehmann-trunc", {"k": 511})])
def test_large_complete_families_analyze_without_a_cliff(name, params):
    m = corpus_model(name, params)
    start = time.monotonic()
    report = analyze_model(m)
    assert time.monotonic() - start < 30
    assert report.mve_partition == tuple((label,) for label in m.support)
    assert report.zero_mean_basis == ()
    assert report.is_minimal_sufficient_complete
    assert report.is_mve_equal_minimal_sufficient


def test_is_umvue_on_paper_2_3_to_the_fifth_without_a_cliff():
    m = paper_power(5)
    g = block_constant_statistic(random.Random(5), mve_partition(m))
    start = time.monotonic()
    verdict = is_umvue(m, g)
    assert time.monotonic() - start < 30
    assert verdict == UmvueVerdict(True)
