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


@pytest.mark.parametrize(
    "cost, expected",
    [
        (Fraction(-7, 3), "-7/3"),
        (Fraction(-6, 3), -2),
        (Fraction(0), 0),
        (Fraction(10**30 + 1, 10**20), f"{10**30 + 1}/{10**20}"),
        (Fraction(-(10**40), 7), f"-{10**40}/7"),
        (Fraction(10**25, 5), 2 * 10**24),
    ],
)
def test_json_forms_of_fractions(cost, expected):
    got = cost_to_json(cost)
    assert type(got) is type(expected) and got == expected


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


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# ASCII and other Unicode decimal digits, "²" (a digit but not decimal),
# and every character of another spelling `Fraction` parses
COST_CHARS = "0123456789٣५０²_+- eE/."


def fraction_reference(value: str):
    """What `parse_cost` must return for a string: `Fraction(value)`,
    an `int` when integral, or "reject"."""
    try:
        f = Fraction(value)
    except (ValueError, ZeroDivisionError):
        return "reject"
    return f.numerator if f.denominator == 1 else f


@given(st.text(st.sampled_from(COST_CHARS), max_size=8))
@example("")
@example(".")
@example("5.")
@example(".5")
@example("0/0")
@example("3/0")
@example("0/7")
@example("10/4")
@example("007.250")
@example("1_0/2")
@example("1e3")
@example(" 5 ")
@example("+5")
@example("-5/2")
@example("٣/५")
@example("1" * 3000 + "." + "1" * 3000)
@example("1" * 5000)
@example("1/" + "1" * 5000)
def test_parse_cost_strings_match_fraction(value):
    try:
        got = parse_cost(value)
    except InputError:
        got = "reject"
    want = fraction_reference(value)
    assert type(got) is type(want) and got == want


# JSON costs: strings over COST_CHARS, most of which do not parse, and ints
JSON_COSTS = st.text(st.sampled_from(COST_CHARS), max_size=8) | st.integers(
    -(10**6), 10**6
)


def chain_game(r1, r2):
    """A plain game file: one arc per cost pair, along a path to `t`."""
    n = len(r1)
    heads = [f"v{u}" for u in range(1, n)] + ["t"]
    return {
        "vertices": [{"id": f"v{u}", "owner": "P1"} for u in range(n)]
        + [{"id": "t", "owner": "T"}],
        "arcs": [
            {"id": e, "tail": f"v{e}", "head": heads[e], "r1": a, "r2": b}
            for e, (a, b) in enumerate(zip(r1, r2))
        ],
        "start": "v0",
    }


# no deadline: `Fraction` reads an exponent such as "0e999999" by building
# 10**999999, a third of a second, and a failing file is parsed three times
@settings(deadline=None)
@given(
    st.lists(JSON_COSTS, min_size=1, max_size=8).flatmap(
        lambda r1: st.tuples(
            st.just(r1), st.lists(JSON_COSTS, min_size=len(r1), max_size=len(r1))
        )
    )
)
@example((["1/2", "3", "0.25", "007.250"], [7, "14/2", "1e1", " 5 "]))
@example((["+5", "1_0/2"], ["7.0", "2/3"]))
@example((["1/3", "1/0"], ["1", "1"]))
@example((["1/2"] * 5 + ["3/4"], ["1/3"] * 6))  # repeated costs
@example((["2", "x"], [True, "1"]))
def test_loader_reads_each_metric_as_its_integer_image(columns):
    """Each metric loads as `ints[e] == parse_cost(v) * scale`, with the
    scale `integer_image` gives the parsed values, or the load raises the
    row-by-row loader's error for the first bad row."""
    from spgame.jsonio import game_from_json

    r1, r2 = columns
    parsed, error = ([], []), None
    for pos, (a, b) in enumerate(zip(r1, r2)):
        try:
            parsed[0].append(parse_cost(a))
            parsed[1].append(parse_cost(b))
        except InputError as exc:
            error = f"arc {pos}: bad cost ({exc})"
            break
    if error is not None:
        with pytest.raises(InputError) as got:
            game_from_json(chain_game(r1, r2))
        assert str(got.value) == error
        return
    game = game_from_json(chain_game(r1, r2))
    for metric, values in zip((game.r1, game.r2), parsed):
        scale, _ = integer_image(values)
        assert metric.scale == scale
        assert [type(c) for c in metric.ints] == [int] * len(values)
        assert list(metric.ints) == [v * scale for v in values]
