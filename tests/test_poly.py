import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from umvue.poly import ONE, MissingMonomial, Monomial, Polynomial, coeff_vector

from helpers import random_polynomial

T = Polynomial.variable("theta")
E = Polynomial.variable("eta")


def test_add_term_union():
    assert T + T * T == Polynomial({Monomial({"theta": 1}): 1, Monomial({"theta": 2}): 1})


def test_add_cancels_to_zero():
    p = T + T * T
    assert (p + (-p)).is_zero()


def test_add_cross_terms():
    # (1 - 2*theta) + (2*theta + theta^2) = 1 + theta^2, cross-checked by
    # evaluation at theta in {0, 1, 2}
    a = Polynomial.constant(1) - T * 2
    b = T * 2 + T * T
    total = a + b
    assert total == Polynomial.constant(1) + T * T
    for x in (0, 1, 2):
        point = {"theta": Fraction(x)}
        assert total.evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_mul_square():
    one_minus = Polynomial.constant(1) - T
    sq = one_minus * one_minus
    assert sq == Polynomial.constant(1) - T * 2 + T * T
    for x in (0, 2, 5):
        point = {"theta": Fraction(x)}
        assert sq.evaluate(point) == (1 - x) ** 2


def test_mul_annihilator_and_identity():
    p = T * 3 + E * T
    assert (p * Polynomial.zero()).is_zero()
    assert p * Polynomial.constant(1) == p


def test_substitute_partial():
    p = T * E + T * T
    assert p.substitute({"eta": Fraction(1, 2)}) == T * Fraction(1, 2) + T * T


def test_substitute_full():
    assert T.substitute({"theta": Fraction(1, 4)}) == Polynomial.constant(Fraction(1, 4))


def test_substitute_rational_point():
    p = Polynomial.constant(1) - T * 2 - T * T * 2
    assert p.substitute({"theta": Fraction(1, 5)}) == Polynomial.constant(Fraction(13, 25))
    assert p.evaluate({"theta": Fraction(1, 5)}) == Fraction(13, 25)


def test_substitute_ignores_unknown_names():
    assert T.substitute({"eta": 7}) == T


def test_pow():
    assert T ** 0 == Polynomial.constant(1)
    assert (T + 1) ** 2 == T * T + T * 2 + 1


def test_pow_matches_repeated_multiplication():
    rng = random.Random(4242)
    for _ in range(200):
        p = random_polynomial(rng, max_degree=2, max_terms=3)
        k = rng.randint(0, 9)
        product = Polynomial.constant(1)
        for _ in range(k):
            product = product * p
        assert p ** k == product


def test_coeff_vector_read_off():
    basis = [ONE, Monomial({"theta": 1}), Monomial({"theta": 2})]
    assert coeff_vector(T + T * T, basis) == (0, 1, 1)
    p4 = Polynomial.constant(1) - T * 2 - T * T * 2
    assert coeff_vector(p4, basis) == (1, -2, -2)
    assert coeff_vector(Polynomial.zero(), basis) == (0, 0, 0)


def test_coeff_vector_missing_monomial():
    with pytest.raises(MissingMonomial):
        coeff_vector(T * T * T, [ONE, Monomial({"theta": 1})])


def test_monomial_order_is_graded():
    monos = [Monomial({"theta": 2}), ONE, Monomial({"theta": 1, "eta": 1}),
             Monomial({"theta": 1}), Monomial({"eta": 1})]
    ordered = sorted(monos, key=Monomial.sort_key)
    assert ordered[0] == ONE
    degrees = [m.degree for m in ordered]
    assert degrees == sorted(degrees)


def test_field_axioms_random_triples():
    # distributivity a(b+c) = ab + ac over 10^4 random rational triples
    rng = random.Random(20260810)
    for _ in range(10_000):
        a, b, c = (Fraction(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        if a != 0:
            assert a * (1 / a) == 1


def test_canonical_form_stable_under_rebuild():
    rng = random.Random(7)
    for _ in range(200):
        p = random_polynomial(rng)
        rebuilt = Polynomial(dict(p.terms))
        assert rebuilt == p
        assert not any(c == 0 for c in p.terms.values())


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_poly_distributive(sa, sb, sc):
    a = random_polynomial(random.Random(sa))
    b = random_polynomial(random.Random(sb))
    c = random_polynomial(random.Random(sc))
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_coeff_vector_linear(seed_p, seed_q):
    rng = random.Random(seed_p * 10**7 + seed_q)
    p = random_polynomial(rng)
    q = random_polynomial(rng)
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    monos = set(p.terms) | set(q.terms)
    basis = sorted(monos, key=Monomial.sort_key)
    combo = coeff_vector(p * a + q * b, basis)
    vp = coeff_vector(p, basis)
    vq = coeff_vector(q, basis)
    assert combo == tuple(a * x + b * y for x, y in zip(vp, vq))
