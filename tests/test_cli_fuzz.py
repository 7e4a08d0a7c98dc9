"""Property test of the CLI error contract on mutated situation files
under `spgame verify` and mutated game files under every other command:
the CLI exits 0-3, never lets an exception escape, and writes exactly one
JSON object, to stdout on success and to stderr otherwise."""

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


def values(keys, scalars):
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(keys, inner, max_size=3),
        max_leaves=6,
    )


VALUES = values(KEYS, SCALARS)

GAME_KEYS = st.sampled_from(
    [
        "vertices", "arcs", "start", "terminal", "oracles", "id", "owner",
        "tail", "head", "r1", "r2", "vertex", "kind", "k", "costs", "budget",
        "maximal", "s", "a", "b", "t", "0", "1",
    ]
) | st.text(max_size=2)
GAME_SCALARS = SCALARS | st.sampled_from(
    [
        "P1", "P2", "T", "s", "a", "t", "cardinality", "budget", "explicit",
        "sp", "1/2", "2.5", "0", "-1", "1/0", "7.0",
    ]
)
GAME_VALUES = values(GAME_KEYS, GAME_SCALARS)


def mutate(draw, node, keys=KEYS, values=VALUES):
    """One random edit somewhere below `node`: replace a value, or delete,
    add or edit an entry of a list or an object."""
    actions = ["replace"]
    if isinstance(node, (dict, list)):
        actions += ["add"] + (["delete", "descend"] if node else [])
    action = draw(st.sampled_from(actions))
    if action == "replace":
        return draw(values)
    if isinstance(node, dict):
        if action == "add":
            node[draw(keys)] = draw(values)
            return node
        key = draw(st.sampled_from(sorted(node)))
    else:
        if action == "add":
            node.insert(draw(st.integers(0, len(node))), draw(values))
            return node
        key = draw(st.integers(0, len(node) - 1))
    if action == "delete":
        del node[key]
    else:
        node[key] = mutate(draw, node[key], keys, values)
    return node


def truncated(draw, obj) -> str:
    text = json.dumps(obj)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@st.composite
def situation_files(draw):
    game = draw(st.sampled_from(sorted(VALID)))
    obj = json.loads(json.dumps(VALID[game]))
    for _ in range(draw(st.integers(1, 3))):
        obj = mutate(draw, obj)
    return game, truncated(draw, obj)


@st.composite
def game_files(draw):
    game = draw(st.sampled_from(sorted(VALID)))
    obj = json.loads((DATA / game).read_text())
    for _ in range(draw(st.integers(1, 3))):
        obj = mutate(draw, obj, GAME_KEYS, GAME_VALUES)
    return truncated(draw, obj)


COMMANDS = st.sampled_from(
    [
        ["solve"],
        ["solve", "--certificate"],
        ["phi", "--player", "1"],
        ["phi", "--player", "2"],
        ["phi", "--dual"],
        ["phi", "--metric", "r1"],
        ["solve-interdiction"],
        ["solve-interdiction", "--certificate"],
    ]
)


# the commands that rewrite or scan a game rather than solve it, with caps
# that keep a mutated game's scan or reduction small
OTHER_COMMANDS = st.sampled_from(
    [
        ["search", "--cap", "2000"],
        ["normalize"],
        ["normalize", "--bipartize"],
        ["reduce", "--cap", "200"],
    ]
)


def assert_contract(text: str, argv):
    """Write `text` to a temporary file, run the CLI on `argv(path)` and
    check the error contract."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv(str(path)))
    assert code in (0, 1, 2, 3)
    written, silent = (out, err) if code == 0 else (err, out)
    assert silent.getvalue() == ""
    assert isinstance(json.loads(written.getvalue()), dict)


@settings(max_examples=200, deadline=None)
@given(situation_files())
def test_verify_keeps_error_contract_on_mutated_situations(case):
    game, text = case
    assert_contract(
        text, lambda path: ["verify", str(DATA / game), "--situation", path]
    )


# more examples than for situations: the game files have more fields, and
# a fault in one of them (a null or non-object oracle row) is hit less often
@settings(max_examples=500, deadline=None)
@given(game_files(), COMMANDS)
def test_commands_keep_error_contract_on_mutated_games(text, command):
    assert_contract(text, lambda path: [command[0], path, *command[1:]])


@settings(max_examples=300, deadline=None)
@given(game_files(), OTHER_COMMANDS)
def test_other_commands_keep_error_contract_on_mutated_games(text, command):
    assert_contract(text, lambda path: [command[0], path, *command[1:]])
