import random
from fractions import Fraction

import pytest

from umvue.expr import (
    MAX_POWER_DEGREE,
    ParseError,
    UnknownParameter,
    ZeroDenominator,
    format_poly,
    parse_poly,
)
from umvue.poly import Polynomial

from helpers import random_polynomial

T = Polynomial.variable("theta")
E = Polynomial.variable("eta")


def test_parse_four_cell_pmf_entry():
    p = parse_poly("1 - 2*theta - 2*theta^2", ["theta"])
    assert p == Polynomial.constant(1) - T * 2 - T * T * 2


def test_parse_product_with_power():
    p = parse_poly("(1-theta)^2 * theta", ["theta"])
    assert p == T - T * T * 2 + T * T * T
    assert p.evaluate({"theta": Fraction(2)}) == (1 - 2) ** 2 * 2


def test_parse_power_zero():
    assert parse_poly("theta^0", ["theta"]) == Polynomial.constant(1)


def test_parse_rational_literals():
    assert parse_poly("1/4", []) == Polynomial.constant(Fraction(1, 4))
    assert parse_poly("1/2^2", []) == Polynomial.constant(Fraction(1, 4))
    assert parse_poly("-1/2*eta*theta", ["theta", "eta"]) == E * T * Fraction(-1, 2)


def test_parse_unary_minus():
    assert parse_poly("-theta^2", ["theta"]) == -(T * T)
    assert parse_poly("2*-3", []) == Polynomial.constant(-6)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("theta + ", ["theta"])
    assert err.value.position == 8

    with pytest.raises(ParseError):
        parse_poly("theta theta", ["theta"])  # implicit multiplication is not allowed

    with pytest.raises(ParseError):
        parse_poly("(theta", ["theta"])

    with pytest.raises(ParseError):
        parse_poly("theta^(2)", ["theta"])

    with pytest.raises(ParseError):
        parse_poly("theta/2", ["theta"])  # '/' only inside rational literals


def test_unknown_parameter():
    with pytest.raises(UnknownParameter):
        parse_poly("eta", ["theta"])


def test_zero_denominator():
    with pytest.raises(ZeroDenominator):
        parse_poly("1/0", [])


def test_format_zero():
    assert format_poly(Polynomial.zero()) == "0"


def test_format_examples():
    assert format_poly(T + T * T) == "theta + theta^2"
    assert format_poly(E * T * Fraction(-1, 2)) == "-1/2*eta*theta"
    assert format_poly(Polynomial.constant(1) - T * 2 - T * T * 2) == "1 - 2*theta - 2*theta^2"


def test_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        p = random_polynomial(rng)
        assert parse_poly(format_poly(p), ["theta", "eta"]) == p


def test_format_parse_is_canonicalizing():
    # whitespace and association do not matter; formatting is idempotent
    text = "theta^2+ theta - ( theta^2 )"
    p = parse_poly(text.replace("+", " + "), ["theta"])
    assert format_poly(p) == "theta"
    assert format_poly(parse_poly(format_poly(p), ["theta"])) == format_poly(p)


def test_power_degree_bound():
    assert parse_poly("theta^512", ["theta"]).degree() == MAX_POWER_DEGREE == 512
    assert parse_poly("(1+theta)^2", ["theta"]) == parse_poly("1 + 2*theta + theta^2", ["theta"])
    for text in ("theta^513", "(theta^2)^257", "(1+theta)^2000", "2^513"):
        with pytest.raises(ParseError):
            parse_poly(text, ["theta"])
