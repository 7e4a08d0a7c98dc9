from fractions import Fraction

import pytest

from spgame.costs import INF, cost_to_json, integer_image, is_finite, parse_cost
from spgame.errors import InputError


def test_parse_int():
    assert parse_cost(3) == 3
    assert parse_cost(-2) == -2


def test_parse_strings():
    assert parse_cost("7") == 7
    assert parse_cost("3/4") == Fraction(3, 4)
    assert parse_cost("2.5") == Fraction(5, 2)
    assert parse_cost("-1/3") == Fraction(-1, 3)


def test_parse_fraction_passthrough():
    assert parse_cost(Fraction(9, 6)) == Fraction(3, 2)


@pytest.mark.parametrize("value", [7, "7", "14/2", "7.0", Fraction(14, 2)])
def test_parse_integral_values_are_ints(value):
    cost = parse_cost(value)
    assert type(cost) is int and cost == 7


def test_parse_fractional_values_stay_fractions():
    assert type(parse_cost("7/2")) is Fraction
    assert type(parse_cost("0.25")) is Fraction


@pytest.mark.parametrize("bad", [1.5, float("inf"), True, False, None, [1]])
def test_parse_rejects_inexact(bad):
    with pytest.raises(InputError):
        parse_cost(bad)


def test_parse_rejects_garbage_string():
    with pytest.raises(InputError):
        parse_cost("three")


def test_is_finite():
    assert is_finite(0)
    assert is_finite(Fraction(-1, 2))
    assert not is_finite(INF)


def test_json_forms():
    assert cost_to_json(4) == 4
    assert cost_to_json(Fraction(8, 2)) == 4
    assert cost_to_json(Fraction(1, 3)) == "1/3"
    assert cost_to_json(INF) == "inf"


def test_json_round_trip():
    for v in (0, 17, Fraction(22, 7), Fraction(-3, 2)):
        assert parse_cost(cost_to_json(v)) == v


def test_integer_image_scales_by_lcm_of_denominators():
    scale, ints = integer_image((Fraction(1, 2), 3, Fraction(5, 3), Fraction(4)))
    assert scale == 6
    assert ints == (3, 18, 10, 24)
    assert all(type(c) is int for c in ints)


def test_integer_image_turns_integral_fractions_into_ints():
    scale, ints = integer_image((Fraction(3), Fraction(4), 5))
    assert scale == 1 and ints == (3, 4, 5)
    assert all(type(c) is int for c in ints)


def test_integer_image_keeps_all_int_weights():
    weights = (3, 4, 5)
    scale, ints = integer_image(weights)
    assert scale == 1 and ints is weights
    assert integer_image([3, 4, 5]) == (1, (3, 4, 5))


def test_integer_image_rejects_floats():
    with pytest.raises(InputError):
        integer_image((1, 0.5))
