"""Property test of the CLI error contract on mutated situation files:
`spgame verify` exits 0-3, never lets an exception escape, and writes
exactly one JSON object, to stdout on success and to stderr otherwise."""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spgame.cli import main  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"

VALID = {
    "chain.json": {"sigma1": {"s": 0, "b": 4}, "sigma2": {"a": 2}},
    "interdict3.json": {
        "removed": {"s": [], "a": []},
        "offered": {"s": [0, 1], "a": [2, 3]},
    },
}

KEYS = st.sampled_from(
    ["s", "a", "b", "t", "sigma1", "sigma2", "removed", "offered"]
) | st.text(max_size=2)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.integers()
    | st.floats()
    | st.text(max_size=3)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)


def mutate(draw, node):
    """One random edit somewhere below `node`: replace a value, or delete,
    add or edit an entry of a list or an object."""
    actions = ["replace"]
    if isinstance(node, (dict, list)):
        actions += ["add"] + (["delete", "descend"] if node else [])
    action = draw(st.sampled_from(actions))
    if action == "replace":
        return draw(VALUES)
    if isinstance(node, dict):
        if action == "add":
            node[draw(KEYS)] = draw(VALUES)
            return node
        key = draw(st.sampled_from(sorted(node)))
    else:
        if action == "add":
            node.insert(draw(st.integers(0, len(node))), draw(VALUES))
            return node
        key = draw(st.integers(0, len(node) - 1))
    if action == "delete":
        del node[key]
    else:
        node[key] = mutate(draw, node[key])
    return node


@st.composite
def situation_files(draw):
    game = draw(st.sampled_from(sorted(VALID)))
    obj = json.loads(json.dumps(VALID[game]))
    for _ in range(draw(st.integers(1, 3))):
        obj = mutate(draw, obj)
    text = json.dumps(obj)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return game, text


@settings(max_examples=200, deadline=None)
@given(situation_files())
def test_verify_keeps_error_contract_on_mutated_situations(case):
    game, text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "sit.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(DATA / game), "--situation", str(path)])
    assert code in (0, 1, 2, 3)
    written, silent = (out, err) if code == 0 else (err, out)
    assert silent.getvalue() == ""
    assert isinstance(json.loads(written.getvalue()), dict)
