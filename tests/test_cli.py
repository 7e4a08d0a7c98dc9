import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import spgame
from spgame import cli, dijkstra, interdiction
from spgame.cli import main
from spgame.generators import InstanceGenerator
from spgame.jsonio import dumps, game_to_json, situation_to_json


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_json(tmp_path, obj, name="g.json"):
    p = tmp_path / name
    p.write_text(dumps(obj))
    return str(p)


@pytest.fixture
def chain(data_dir):
    return str(data_dir / "chain.json")


@pytest.fixture
def interdict(data_dir):
    return str(data_dir / "interdict3.json")


def test_solve_chain(capsys, chain):
    code, out, err = run(capsys, "solve", chain)
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["kind"] == "terminal"
    assert obj["costs"] == {"r1": 3, "r2": "7/2"}
    assert obj["play"]["vertices"] == ["s", "a", "b", "t"]
    assert "certificate" not in obj


def test_solve_deterministic_bytes(capsys, chain):
    _, out1, _ = run(capsys, "solve", chain)
    _, out2, _ = run(capsys, "solve", chain)
    assert out1 == out2
    assert out1.endswith("\n")


def test_solve_certificate_and_dot(capsys, tmp_path, chain):
    dot = tmp_path / "g.dot"
    code, out, _ = run(
        capsys, "solve", chain, "--certificate", "--dot", str(dot)
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["certificate"]["method"] in ("one-sided", "aligned-zero")
    text = dot.read_text()
    assert text.startswith("digraph") and "->" in text


def test_solve_rejects_nonpositive_costs(capsys, tmp_path):
    obj = {
        "vertices": [
            {"id": "s", "owner": "P1"},
            {"id": "t", "owner": "T"},
        ],
        "start": "s",
        "arcs": [{"id": 0, "tail": "s", "head": "t", "r1": 0, "r2": 1}],
    }
    code, out, err = run(capsys, "solve", write_json(tmp_path, obj))
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "InputError"
    assert "positive" in payload["message"]


NONPOSITIVE_COSTS = [
    ("1/2", 3),
    ("-1/3", 1),
    (2, "7.5"),
    ("0", 1),
    (1, "0/5"),
    (-2, 1),
    ("0.0", 1),
    (1, "-0.25"),
]


@pytest.mark.parametrize("argv", [["solve"], ["phi", "--player", "1"], ["search"]])
def test_nonpositive_costs_error_is_pinned(capsys, tmp_path, argv):
    obj = {
        "vertices": [{"id": "s", "owner": "P1"}, {"id": "t", "owner": "T"}],
        "start": "s",
        "arcs": [
            {"id": e, "tail": "s", "head": "t", "r1": a, "r2": b}
            for e, (a, b) in enumerate(NONPOSITIVE_COSTS)
        ],
    }
    code, out, err = run(capsys, argv[0], write_json(tmp_path, obj), *argv[1:])
    assert (code, out) == (1, "")
    assert err == (
        '{\n  "error": "InputError",\n'
        '  "message": "non-positive cost on arcs [1, 3, 4, 5, 6]"\n}\n'
    )


def rational_game(seed):
    """A generated game respelled with rational costs of mixed
    denominators, in all three spellings."""
    obj = game_to_json(InstanceGenerator(seed).sp_game(max_vertices=7))
    for e, arc in enumerate(obj["arcs"]):
        if e % 3 == 0:
            arc["r1"] = f"{arc['r1']}/{e % 4 + 2}"
        elif e % 3 == 1:
            arc["r1"] = f"{arc['r1']}.{e % 7}5"
        arc["r2"] = f"{arc['r2'] * 3}/{e % 5 + 2}"
    return obj


# stdout of each command on `rational_game(6)`, compact; the CLI writes
# it indented by 2 with sorted keys
RATIONAL_GAME_OUTPUT = {
    ("solve", "--certificate"): (
        '{"certificate": {"infinite_region": [1, 3], "method": "one-sided", '
        '"path": [2, 6, 8], "potential": ["37/4", "inf", "21/4", "inf", 4, 0], '
        '"weak_player": 2}, "costs": {"r1": "37/4", "r2": "253/20"}, '
        '"kind": "terminal", "play": {"arcs": [2, 6, 8], "cycle_start": null, '
        '"kind": "terminal", "r1": "37/4", "r2": "253/20", '
        '"vertices": ["v0", "v3", "v5", "v6"]}, "situation": {"sigma1": '
        '{"v0": 2, "v3": 6, "v4": 7, "v5": 8}, "sigma2": {"v2": 3}}}'
    ),
    ("phi", "--player", "1"): (
        '{"B": ["v2", "v4"], "blocked": {"v2": [4]}, "phi": {"v0": "37/4", '
        '"v2": "inf", "v3": "21/4", "v4": "inf", "v5": 4, "v6": 0}}'
    ),
    ("phi", "--player", "2"): (
        '{"B": ["v0", "v3", "v4", "v5"], "blocked": {"v0": [1], "v5": [8]}, '
        '"phi": {"v0": "inf", "v2": "5/2", "v3": "inf", "v4": "inf", '
        '"v5": "inf", "v6": 0}}'
    ),
}


@pytest.mark.parametrize("argv", list(RATIONAL_GAME_OUTPUT))
def test_rational_game_output_is_pinned(capsys, tmp_path, argv):
    path = write_json(tmp_path, rational_game(6))
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (0, "")
    expected = json.loads(RATIONAL_GAME_OUTPUT[argv])
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_plain_commands_skip_cycle_checks(capsys, monkeypatch, chain):
    # positive costs imply positive cycles: the CLI's input check must not
    # pay for validate()'s min-mean-cycle rows
    def refuse(*args):
        raise AssertionError("min_mean_cycle called")

    monkeypatch.setattr("spgame.game.min_mean_cycle", refuse)
    assert run(capsys, "solve", chain)[0] == 0
    assert run(capsys, "phi", chain, "--player", "1")[0] == 0


def with_none_vertex(obj):
    """Add a vertex named `None`, with an arc to `t` in a plain game, so a
    missing or null vertex field must not be read as its name."""
    if "oracles" in obj:
        obj["vertices"].append({"id": "None"})
    else:
        obj["vertices"].append({"id": "None", "owner": "P1"})
        obj["arcs"].append(
            {"id": len(obj["arcs"]), "tail": "None", "head": "t", "r1": 1, "r2": 1}
        )
    return obj


def extra_sink(obj):
    """Add a vertex `x` with no out-arcs, and an arc into it from `a`."""
    owner = {} if "oracles" in obj else {"owner": "P2"}
    obj["vertices"].append({"id": "x", **owner})
    obj["arcs"].append(
        {"id": len(obj["arcs"]), "tail": "a", "head": "x", "r1": 1, "r2": 1}
    )
    return obj


def terminal_with_arc(obj):
    """Give the terminal `t` an arc back to `s` (and, in an interdiction
    game, a rule)."""
    obj["arcs"].append(
        {"id": len(obj["arcs"]), "tail": "t", "head": "s", "r1": 1, "r2": 1}
    )
    if "oracles" in obj:
        obj["oracles"].append({"vertex": "t", "kind": "cardinality", "k": 0})
    return obj


def null_vertex_id(obj):
    """Make the id of vertex `a` null and name it `"None"` in its arcs, so
    a loader reading null as the name `None` accepts the file."""
    obj["vertices"][1]["id"] = None
    for arc in obj["arcs"]:
        for end in ("tail", "head"):
            if arc[end] == "a":
                arc[end] = "None"
    return obj


@pytest.mark.parametrize(
    "game, mutate, field",
    [
        ("chain", lambda obj: obj["vertices"][0].pop("id"), "vertices[0].id"),
        ("chain", lambda obj: obj["vertices"].__setitem__(0, "s"), "vertices[0].id"),
        ("chain", lambda obj: obj.__setitem__("arcs", {"0": obj["arcs"][0]}), "arcs"),
        ("chain", lambda obj: obj["arcs"][0].__setitem__("id", "x"), "arcs[0].id"),
        ("chain", lambda obj: obj["arcs"].__setitem__(0, "s->a"), "arcs[0]"),
        ("interdict", lambda obj: obj.__setitem__("oracles", None), "oracles"),
        ("interdict", lambda obj: obj["oracles"].__setitem__(0, 5), "oracles[0]"),
        (
            "chain",
            lambda obj: obj["vertices"][0].__setitem__("owner", []),
            "vertices[0].owner",
        ),
        (
            "chain",
            lambda obj: with_none_vertex(obj).pop("start"),
            "missing or unknown start vertex",
        ),
        (
            "chain",
            lambda obj: with_none_vertex(obj).__setitem__("start", None),
            "missing or unknown start vertex",
        ),
        (
            "interdict",
            lambda obj: with_none_vertex(obj).pop("terminal"),
            "missing or unknown terminal vertex",
        ),
        (
            "interdict",
            lambda obj: with_none_vertex(obj)["oracles"][0].pop("vertex"),
            "oracle spec for unknown vertex",
        ),
        (
            "interdict",
            lambda obj: with_none_vertex(obj)["oracles"][0].__setitem__("vertex", None),
            "oracle spec for unknown vertex",
        ),
        ("chain", null_vertex_id, "vertices[1].id"),
        (
            "chain",
            lambda obj: with_none_vertex(obj)["arcs"][6].__setitem__("tail", None),
            "arc 6: tail is null",
        ),
        (
            "chain",
            lambda obj: with_none_vertex(obj)["arcs"][5].__setitem__("head", None),
            "arc 5: head is null",
        ),
        (
            "chain",
            lambda obj: obj["vertices"].append({"id": "s", "owner": "P2"}),
            "duplicate vertex id 's'",
        ),
        (
            "interdict",
            lambda obj: obj["oracles"].append(
                {"vertex": "a", "kind": "sp", "owner": "P2"}
            ),
            "duplicate oracle spec for vertex 'a'",
        ),
        (
            "interdict",
            lambda obj: obj["arcs"][0].__setitem__("r1", 0),
            "non-positive cost on arc 0",
        ),
        (
            "interdict",
            lambda obj: obj["arcs"][0].__setitem__("r2", "-1/2"),
            "non-positive cost on arc 0",
        ),
        ("chain", extra_sink, "vertex 4 has no outgoing arcs but is not terminal"),
        ("interdict", extra_sink, "vertex 3 is a sink but not the terminal"),
        ("chain", terminal_with_arc, "terminal vertex 3 has outgoing arcs"),
        ("interdict", terminal_with_arc, "terminal vertex has outgoing arcs"),
    ],
    ids=[
        "vertex-no-id",
        "vertex-string",
        "arcs-not-list",
        "arc-id-string",
        "arc-string",
        "oracles-null",
        "oracle-not-object",
        "owner-unhashable",
        "start-missing-beside-None",
        "start-null-beside-None",
        "terminal-missing-beside-None",
        "oracle-vertex-missing-beside-None",
        "oracle-vertex-null-beside-None",
        "vertex-id-null",
        "tail-null-beside-None",
        "head-null-beside-None",
        "vertex-id-duplicate",
        "oracle-row-duplicate",
        "interdiction-cost-zero",
        "interdiction-cost-negative",
        "plain-extra-sink",
        "interdiction-extra-sink",
        "plain-terminal-with-arc",
        "interdiction-terminal-with-arc",
    ],
)
def test_malformed_game_is_input_error(
    capsys, tmp_path, request, game, mutate, field
):
    with open(request.getfixturevalue(game)) as fh:
        obj = json.load(fh)
    mutate(obj)
    code, out, err = run(capsys, "solve", write_json(tmp_path, obj))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert report["message"].startswith(field)


@pytest.mark.parametrize("cost", ["1e5000", "1e-5000"])
def test_cost_past_the_digit_limit_is_input_error(capsys, tmp_path, chain, cost):
    # a numerator or denominator of 5001 digits loads nowhere: `str` could
    # not write it back
    with open(chain) as fh:
        obj = json.load(fh)
    obj["arcs"][1]["r1"] = cost
    code, out, err = run(capsys, "solve", write_json(tmp_path, obj))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert report["message"] == f"arc 1: bad cost (not a cost: {cost!r})"


BIG = "9" * 4300  # the most digits `int` reads and `str` writes by default


def big_chain():
    return {
        "vertices": [
            {"id": "s", "owner": "P1"},
            {"id": "a", "owner": "P1"},
            {"id": "t", "owner": "T"},
        ],
        "start": "s",
        "arcs": [
            {"id": 0, "tail": "s", "head": "a", "r1": BIG, "r2": 1},
            {"id": 1, "tail": "a", "head": "t", "r1": BIG, "r2": 1},
        ],
    }


@pytest.mark.parametrize(
    "argv", [["solve"], ["solve", "--certificate"], ["phi", "--player", "1"]]
)
def test_sum_past_the_digit_limit_is_input_error(capsys, tmp_path, argv):
    # each cost loads, but the play cost and the potential at s have 4301
    # digits, which `str` cannot write
    code, out, err = run(capsys, *argv, write_json(tmp_path, big_chain()))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "InputError",
        "message": "cannot write a cost of more than 4300 digits",
    }


def test_costs_at_the_digit_limit_are_written(capsys, tmp_path):
    code, out, err = run(
        capsys, "normalize", "--bipartize", write_json(tmp_path, big_chain())
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["vertices"][-1] == {"id": "s~a#0", "owner": "P2"}
    assert [(a["r1"], a["r2"]) for a in obj["arcs"]] == [
        (f"{BIG}/2", "1/2"),
        (f"{BIG}/2", "1/2"),
        (int(BIG), 1),
    ]


@pytest.mark.parametrize("which", ["game", "situation"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, chain, which):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    if which == "game":
        argv = ["solve", str(deep)]
    else:
        argv = ["verify", chain, "--situation", str(deep)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert report["message"].startswith(f"invalid JSON in {deep}")


@pytest.mark.parametrize("bad", [True, 1.0, "x"])
def test_bad_cost_is_input_error_after_valid_spellings(capsys, tmp_path, chain, bad):
    # costs are parsed once per distinct string: a bad value must not pass
    # as an earlier arc's valid 1 or "1", nor the second time it occurs
    with open(chain) as fh:
        obj = json.load(fh)
    for arc, value in zip(obj["arcs"], [1, "1", 1, "1", bad, bad]):
        arc["r1"] = value
    code, out, err = run(capsys, "solve", write_json(tmp_path, obj))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert report["message"].startswith("arc 4: bad cost")


# `solve --certificate` on tests/data/mixed.json, as printed before costs
# were solved on their integer image
MIXED_SOLVE = {
    "certificate": {
        "infinite_region": [],
        "method": "one-sided",
        "path": [1, 5],
        "potential": [2, "25/6", "5/4", "13/6", 0],
        "weak_player": 2,
    },
    "costs": {"r1": 2, "r2": "8/5"},
    "kind": "terminal",
    "play": {
        "arcs": [1, 5],
        "cycle_start": None,
        "kind": "terminal",
        "r1": 2,
        "r2": "8/5",
        "vertices": ["s", "b", "t"],
    },
    "situation": {"sigma1": {"b": 5, "s": 1}, "sigma2": {"a": 4, "c": 8}},
}


def test_solve_mixed_denominators_output_is_pinned(capsys, data_dir):
    code, out, err = run(
        capsys, "solve", str(data_dir / "mixed.json"), "--certificate"
    )
    assert code == 0 and err == ""
    assert out == dumps(MIXED_SOLVE)


def test_solve_certificate_failure_exits_3(capsys, monkeypatch, chain):
    real = dijkstra._sweep

    def start_too_far(graph, t, weights, oracle):
        potential, blocked, witness, order = real(graph, t, weights, oracle)
        # vertex 0 is the start; one more than its true worst-case distance
        # sends player 1 down an arc they would rather not take
        return (potential[0] + 1,) + potential[1:], blocked, witness, order

    monkeypatch.setattr(dijkstra, "_sweep", start_too_far)
    code, out, err = run(capsys, "solve", chain)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "InternalInvariantError"


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.json"))
    assert code == 1
    assert json.loads(err)["error"] == "OSError"


def test_solve_wrong_kind_of_file(capsys, interdict):
    code, _, err = run(capsys, "solve", interdict)
    assert code == 1
    assert json.loads(err)["error"] == "InputError"


def test_solve_interdiction(capsys, interdict):
    code, out, _ = run(capsys, "solve-interdiction", interdict, "--certificate")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "terminal"
    assert obj["costs"] == {"r1": 2, "r2": 2}
    assert obj["path"] == [0, 2]
    assert obj["certificate"]["branch"] == "primal"
    assert obj["situation"]["removed"] == {"a": [], "s": []}


def test_solve_interdiction_certificate_failure_exits_3(
    capsys, monkeypatch, interdict
):
    real = interdiction._one_sided_strategies

    def nothing_offered_at_start(graph, s, *rest):
        removed, offered, p = real(graph, s, *rest)
        return removed, {**offered, s: frozenset()}, p

    monkeypatch.setattr(
        interdiction, "_one_sided_strategies", nothing_offered_at_start
    )
    code, out, err = run(capsys, "solve-interdiction", interdict)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "InternalInvariantError"


def test_phi_plain_requires_player(capsys, chain):
    code, _, err = run(capsys, "phi", chain)
    assert code == 1
    assert "player" in json.loads(err)["message"]


def test_phi_plain(capsys, chain):
    code, out, _ = run(capsys, "phi", chain, "--player", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["phi"]["t"] == 0
    assert obj["B"] == []


def test_phi_interdiction_metrics_and_dual(capsys, interdict):
    code, out, _ = run(capsys, "phi", interdict)
    assert code == 0
    assert json.loads(out)["phi"] == {"s": 5, "a": 3, "t": 0}

    code, out, _ = run(capsys, "phi", interdict, "--metric", "r1", "--dual")
    assert code == 0
    assert json.loads(out)["phi"]["t"] == 0


@pytest.mark.parametrize(
    "rule, field",
    [
        ({"kind": "cardinality", "k": 1.5}, "k"),
        ({"kind": "cardinality", "k": "one"}, "k"),
        ({"kind": "cardinality"}, "k"),
        ({"kind": "budget", "budget": 1}, "costs"),
        ({"kind": "budget", "costs": {"2": 1, "3": 1}}, "budget"),
        ({"kind": "budget", "costs": {"2": 1, "x": 1}, "budget": 1}, "costs"),
        (
            {"kind": "budget", "costs": {"2": 1, "3": 1, "0": 5, "99": 4}, "budget": 1},
            "costs",
        ),
        ({"kind": "explicit"}, "maximal"),
        ({"kind": "budget", "costs": {"2": 1}, "budget": 1}, "costs"),
        ({"kind": "explicit", "maximal": [2, 3]}, "maximal"),
        ({"kind": "explicit", "maximal": [[2], [3, 0]]}, "maximal"),
        ({"kind": "sp", "owner": "P3"}, "owner"),
    ],
    ids=[
        "k-fraction", "k-string", "no-k", "no-costs", "no-budget", "cost-key",
        "foreign-cost-key", "no-maximal", "missing-cost-key", "maximal-flat",
        "maximal-foreign-arc", "sp-owner",
    ],
)
def test_bad_oracle_rule_is_input_error(capsys, tmp_path, interdict, rule, field):
    with open(interdict) as fh:
        obj = json.load(fh)
    obj["oracles"][1] = {"vertex": "a", **rule}
    code, out, err = run(capsys, "phi", write_json(tmp_path, obj))
    assert code == 1 and out == ""
    report = json.loads(err)
    assert report["error"] == "InputError"
    assert "'a'" in report["message"] and repr(field) in report["message"]


def test_verify_plain(capsys, tmp_path, chain):
    sit = tmp_path / "sit.json"
    sit.write_text(dumps({"sigma1": {"s": 0, "b": 4}, "sigma2": {"a": 2}}))
    code, out, _ = run(capsys, "verify", chain, "--situation", str(sit))
    assert code == 0
    assert json.loads(out) == {"is_ne": True}

    sit.write_text(dumps({"sigma1": {"s": 1, "b": 4}, "sigma2": {"a": 2}}))
    code, out, _ = run(capsys, "verify", chain, "--situation", str(sit))
    assert code == 0
    obj = json.loads(out)
    assert obj["is_ne"] is False
    assert obj["player"] == 1
    assert obj["improved_cost"] == 3
    assert obj["deviation"]["sigma1"]["s"] == 0
    assert obj["deviation_play"]["r1"] == 3


def test_verify_interdiction(capsys, tmp_path, interdict):
    sit = tmp_path / "sit.json"
    sit.write_text(
        dumps(
            {
                "removed": {"s": [], "a": []},
                "offered": {"s": [0, 1], "a": [2, 3]},
            }
        )
    )
    code, out, _ = run(capsys, "verify", interdict, "--situation", str(sit))
    assert code == 0
    assert json.loads(out)["is_ne"] is True


@pytest.mark.parametrize(
    "game, text, field",
    [
        ("chain", '{"sigma1": {"s": 0', "invalid JSON"),
        ("chain", "[1, 2]", "expected a JSON object"),
        ("chain", '{"sigma1": {"s": "x"}}', "sigma1.s"),
        ("interdict", '{"removed": {"s": 5}}', "removed.s"),
        (
            "interdict",
            '{"removed": {"s": []}, "offered": {"s": [0, 1]}}',
            "every non-terminal vertex",
        ),
        (
            "interdict",
            '{"removed": {"s": [], "a": []}, "offered": {"s": [0, 2], "a": [2, 3]}}',
            "offered set at vertex 0: arcs [2] do not leave it",
        ),
    ],
    ids=[
        "truncated",
        "top-level-list",
        "arc-not-int",
        "arcs-not-list",
        "missing-vertex",
        "foreign-arc",
    ],
)
def test_bad_situation_is_input_error(capsys, tmp_path, request, game, text, field):
    sit = tmp_path / "sit.json"
    sit.write_text(text)
    code, out, err = run(
        capsys, "verify", request.getfixturevalue(game), "--situation", str(sit)
    )
    assert code == 1 and out == ""
    report = json.loads(err)
    assert isinstance(report, dict) and field in report["message"]


def test_verify_cap_exit_code(capsys, tmp_path):
    game = InstanceGenerator(seed=21).sp_game(max_vertices=6)
    from spgame.game import situations

    path = write_json(tmp_path, game_to_json(game))
    sit = next(iter(situations(game)))
    spath = write_json(tmp_path, situation_to_json(game, sit), "s.json")
    code, _, err = run(
        capsys, "verify", path, "--situation", spath, "--cap", "1"
    )
    assert code == 2
    assert json.loads(err)["error"] == "CapExceeded"


def test_reduce_writes_game_and_mapping(capsys, tmp_path, interdict):
    out_file = tmp_path / "reduced.json"
    mapping = tmp_path / "map.json"
    code, out, _ = run(
        capsys,
        "reduce",
        interdict,
        "-o",
        str(out_file),
        "--mapping",
        str(mapping),
    )
    assert code == 0
    assert out == ""
    copies = json.loads(mapping.read_text())["copies"]
    assert len(copies) == 6  # three removal options at each inner vertex
    assert {c["vertex"] for c in copies} == {"s", "a"}

    # the reduced game is a plain game realizing the same equilibrium costs
    code, out, _ = run(capsys, "solve", str(out_file))
    assert code == 0
    assert json.loads(out)["costs"] == {"r1": 2, "r2": 2}


def test_reduce_to_stdout(capsys, interdict):
    code, out, _ = run(capsys, "reduce", interdict)
    assert code == 0
    obj = json.loads(out)
    assert len(obj["vertices"]) == 3 + 6


def test_reduce_cap_exit(capsys, interdict):
    code, _, err = run(capsys, "reduce", interdict, "--cap", "2")
    assert code == 2
    assert json.loads(err)["error"] == "CapExceeded"


# stdout pinned byte for byte on games with budget rules (rational removal
# costs and budgets) and explicit rules; both files take the dual branch
PINNED_COMMANDS = {
    "solve-interdiction": ["solve-interdiction", "--certificate"],
    "phi": ["phi"],
    "phi-dual": ["phi", "--dual"],
    "phi-r1-dual": ["phi", "--metric", "r1", "--dual"],
    "reduce": ["reduce"],
}


@pytest.mark.parametrize("command", sorted(PINNED_COMMANDS))
@pytest.mark.parametrize("game", ["interdict_budget", "interdict_explicit"])
def test_interdiction_output_is_pinned(capsys, data_dir, game, command):
    argv = PINNED_COMMANDS[command]
    code, out, err = run(
        capsys, argv[0], str(data_dir / f"{game}.json"), *argv[1:]
    )
    assert code == 0 and err == ""
    expected = data_dir / "expected" / f"{game}.{command}.json"
    assert out == expected.read_text(encoding="utf-8")


# stdout pinned byte for byte on rational plain games: `spellings` writes
# its costs in every spelling `parse_cost` accepts and has a vertex that
# normalize prunes and same-owner arcs that bipartize splits; `mixed`
# normalizes to itself
PINNED_PLAIN_COMMANDS = {
    "solve": ["solve", "--certificate"],
    "phi-1": ["phi", "--player", "1"],
    "phi-2": ["phi", "--player", "2"],
    "normalize": ["normalize"],
    "normalize-bipartize": ["normalize", "--bipartize"],
    "search": ["search"],
}


@pytest.mark.parametrize("command", sorted(PINNED_PLAIN_COMMANDS))
@pytest.mark.parametrize("game", ["spellings", "mixed"])
def test_plain_output_is_pinned(capsys, data_dir, game, command):
    argv = PINNED_PLAIN_COMMANDS[command]
    code, out, err = run(
        capsys, argv[0], str(data_dir / f"{game}.json"), *argv[1:]
    )
    assert code == 0 and err == ""
    expected = data_dir / "expected" / f"{game}.{command}.json"
    assert out == expected.read_text(encoding="utf-8")


def test_search_rejects_negative_costs(capsys, tmp_path, chain):
    # Dijkstra is not valid on negative costs: the scan's distance test
    # accepted a situation the literal verifier rejected
    with open(chain) as fh:
        obj = json.load(fh)
    r1 = ["1/2", "1/2", -3, 2, 1, "1/2"]
    r2 = [1, 1, 0, 1, "1/2", 0]
    for arc, a, b in zip(obj["arcs"], r1, r2):
        arc["r1"], arc["r2"] = a, b
    code, out, err = run(capsys, "search", write_json(tmp_path, obj))
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "InputError",
        "message": "non-positive cost on arcs [2, 5]",
    }


def sp_and_cardinality_files(tmp_path, interdict):
    """`interdict3.json` with `sp` rows (owner P1 at `s`, P2 at `a`), and
    with the cardinality rows they stand for: k = deg - 1 at `s`, 0 at `a`."""
    with open(interdict) as fh:
        obj = json.load(fh)
    obj["oracles"] = [
        {"vertex": "s", "kind": "sp", "owner": "P1"},
        {"vertex": "a", "kind": "sp", "owner": "P2"},
    ]
    sp = write_json(tmp_path, obj, "sp.json")
    obj["oracles"] = [
        {"vertex": "s", "kind": "cardinality", "k": 1},
        {"vertex": "a", "kind": "cardinality", "k": 0},
    ]
    return sp, write_json(tmp_path, obj, "cardinality.json")


@pytest.mark.parametrize(
    "argv", [["solve-interdiction", "--certificate"], ["phi", "--dual"]]
)
def test_sp_rows_print_as_their_cardinality_rows(capsys, tmp_path, interdict, argv):
    sp, cardinality = sp_and_cardinality_files(tmp_path, interdict)
    got = run(capsys, argv[0], sp, *argv[1:])
    assert got[0] == 0 and got[2] == ""
    assert got == run(capsys, argv[0], cardinality, *argv[1:])


def test_search(capsys, chain):
    code, out, _ = run(capsys, "search", chain)
    assert code == 0
    obj = json.loads(out)
    assert obj["found"] is True
    assert obj["scanned"] >= 1
    assert obj["play"]["kind"] == "terminal"


def test_normalize_merges_and_prunes(capsys, tmp_path):
    obj = {
        "vertices": [
            {"id": "s", "owner": "P1"},
            {"id": "x", "owner": "T"},
            {"id": "y", "owner": "T"},
            {"id": "dead", "owner": "P2"},
        ],
        "start": "s",
        "arcs": [
            {"id": 0, "tail": "s", "head": "x", "r1": 1, "r2": 1},
            {"id": 1, "tail": "s", "head": "y", "r1": 2, "r2": 2},
            {"id": 2, "tail": "dead", "head": "y", "r1": 1, "r2": 1},
        ],
    }
    path = write_json(tmp_path, obj)
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    written = json.loads(out)
    names = [v["id"] for v in written["vertices"]]
    assert len(names) == 2
    assert "t" in names and "dead" not in names
    assert len(written["arcs"]) == 2


def test_normalize_bipartize(capsys, tmp_path):
    obj = {
        "vertices": [
            {"id": "s", "owner": "P1"},
            {"id": "a", "owner": "P1"},
            {"id": "t", "owner": "T"},
        ],
        "start": "s",
        "arcs": [
            {"id": 0, "tail": "s", "head": "a", "r1": 2, "r2": 2},
            {"id": 1, "tail": "a", "head": "t", "r1": 1, "r2": 1},
        ],
    }
    path = write_json(tmp_path, obj)
    out_file = tmp_path / "b.json"
    code, out, _ = run(
        capsys, "normalize", path, "--bipartize", "-o", str(out_file)
    )
    assert code == 0 and out == ""
    written = json.loads(out_file.read_text())
    # the same-owner arc s->a gains a midpoint owned by the other player
    assert len(written["vertices"]) == 4
    owners = {v["id"]: v["owner"] for v in written["vertices"]}
    assert any(o == "P2" for o in owners.values())


def outcome(capsys, argv):
    """Exit code (or the `SystemExit` a usage error raises), stdout and
    stderr of one in-process call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "calls, first_code",
    [
        ([["phi", "{interdict}", "--dual"], ["phi", "{interdict}"]], 0),
        ([["phi"], ["solve", "{chain}", "--certificate"]], ("SystemExit", 2)),
    ],
    ids=["dual-then-primal", "usage-error-then-solve"],
)
def test_reused_parser_carries_nothing_between_calls(
    capsys, chain, interdict, calls, first_code
):
    calls = [[a.format(chain=chain, interdict=interdict) for a in c] for c in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    cli.build_parser.cache_clear()
    assert [outcome(capsys, argv) for argv in calls] == fresh
    assert fresh[0][0] == first_code and fresh[0] != fresh[1]


def test_second_call_builds_no_parser(capsys, monkeypatch, chain):
    main(["solve", chain])
    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["solve", chain]) == 0
    assert built == []
    # the spy does see the parser being built
    cli.build_parser.cache_clear()
    main(["solve", chain])
    assert built
    capsys.readouterr()


def run_in_c_locale(cwd, *argv):
    """`python -m spgame.cli argv` with the ASCII C locale and UTF-8 mode
    off, so `open` defaults to ASCII."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("LC_", "PYTHONIOENCODING", "PYTHONUTF8"))
    }
    src = str(pathlib.Path(spgame.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.update(PYTHONUTF8="0", LC_ALL="C")
    return subprocess.run(
        [sys.executable, "-m", "spgame.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
    )


def accented_chain(data_dir) -> dict:
    """chain.json with its start vertex renamed "s" -> "sé"."""
    text = (data_dir / "chain.json").read_text(encoding="utf-8")
    return json.loads(text.replace('"s"', '"sé"'))


def test_files_read_as_utf8_whatever_the_locale(
    capsys, monkeypatch, tmp_path, data_dir
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(
        json.dumps(accented_chain(data_dir), ensure_ascii=False), encoding="utf-8"
    )
    (tmp_path / "sit.json").write_text(
        '{"sigma1": {"sé": 0, "b": 4}, "sigma2": {"a": 2}}', encoding="utf-8"
    )
    for argv in (
        ["solve", "g.json"],
        ["verify", "g.json", "--situation", "sit.json"],
    ):
        proc = run_in_c_locale(tmp_path, *argv)
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        assert proc.stdout == run(capsys, *argv)[1].encode("ascii"), argv


def test_dot_written_as_utf8_whatever_the_locale(tmp_path, data_dir):
    (tmp_path / "g.json").write_text(json.dumps(accented_chain(data_dir)))
    proc = run_in_c_locale(tmp_path, "solve", "g.json", "--dot", "g.dot")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert '"sé" [shape=box, style=bold];' in (tmp_path / "g.dot").read_text(
        encoding="utf-8"
    )
