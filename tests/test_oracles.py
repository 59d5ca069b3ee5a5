"""The test oracles share no elimination with the engine.

With every binding of the engine's elimination patched to raise, the
maximality and span oracles in helpers.py must still give their answers.
"""

import sys

import pytest

import umvue.linalg
from umvue import Partition, corpus_model, mve_partition, umvue_functionals
from umvue.poly import Polynomial

from helpers import check_maximality, common_refinement, is_rank_additive, spans_equal

T = Polynomial.variable("theta")


def refuse_elimination(monkeypatch):
    """Rebind rref and its reduction step, wherever umvue imported them, to raise."""
    originals = (umvue.linalg.rref, umvue.linalg._combine)

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called the engine's elimination")

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "umvue" or name.startswith("umvue.")):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, refuse)


def test_patch_reaches_the_engine(monkeypatch):
    refuse_elimination(monkeypatch)
    with pytest.raises(AssertionError, match="elimination"):
        mve_partition(corpus_model("paper-2-3"))


def test_oracles_answer_without_the_engine(monkeypatch):
    m = corpus_model("paper-2-3")
    mve = mve_partition(m)
    pis = umvue_functionals(m)
    assert mve == Partition([[0, 1, 2], [3]])
    with monkeypatch.context() as patch:
        refuse_elimination(patch)
        fresh = corpus_model("paper-2-3")
        assert check_maximality(fresh, mve)
        assert is_rank_additive(fresh, mve)
        # strictly finer: {0, 1} {2} {3} is not rank additive
        assert not check_maximality(fresh, Partition([[0, 1], [2], [3]]))
        # strictly coarser: one block splits into {0, 1, 2} {3} additively
        assert not check_maximality(fresh, Partition.one_block(4))
        assert spans_equal(pis, [Polynomial.constant(1), T + T * T])
        assert not spans_equal(pis, [Polynomial.constant(1), T])
        assert common_refinement(mve, Partition([[0, 3], [1, 2]])) == Partition([[0], [1, 2], [3]])
