"""One elimination per model instance, shared by every analysis."""

import sys

import pytest

import umvue
from umvue import analyze_model, coefficient_matrix, corpus_model, is_umvue, Statistic


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
