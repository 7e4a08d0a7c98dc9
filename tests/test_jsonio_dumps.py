"""Property test of `jsonio.dumps` against its reference,
`json.dumps(value, indent=2, sort_keys=True) + "\\n"`."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spgame.jsonio import dumps  # noqa: E402


def reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


TEXT = st.text(st.characters(blacklist_categories=()), max_size=6) | st.sampled_from(
    ['"', "\\", '\\"', "\x00", "\x1f", "\x7f", "\n\t", "é", " ", "\ud800", "😀", ""]
)
INTS = st.integers() | st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)])
# `spgame bench` rows: ints and millisecond floats rounded to 3 places
BENCH_ROWS = st.fixed_dictionaries(
    {
        "edges": st.integers(0, 10**6),
        "vertices": st.integers(0, 10**6),
        "python_ms": st.floats(0, 1e5).map(lambda x: round(x, 3)),
        "python_kernel_ms": st.floats(0, 1e5).map(lambda x: round(x, 3)),
    }
)
SCALARS = TEXT | INTS | st.booleans() | st.none() | st.floats()
VALUES = st.recursive(
    SCALARS | st.lists(INTS),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.lists(st.integers() | st.booleans(), max_size=4),
    max_leaves=12,
) | st.fixed_dictionaries({"results": st.lists(BENCH_ROWS, max_size=3)})


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == reference(value)


class Count(int):
    pass


class Name(str):
    pass


def test_dumps_hands_unwritten_values_to_json_dumps():
    # keys that are not strings, and subclasses of the written types
    for value in (
        {1: [2], 0: "a"},
        {None: 1},
        {"a": {2.5: 0}},
        [Count(3), 4],
        {Name("k"): Name("v")},
    ):
        assert dumps(value) == reference(value)
    with pytest.raises(TypeError):
        dumps({"a": Fraction(1, 2)})
    cycle = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference"):
        dumps(cycle)
