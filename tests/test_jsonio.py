import json
import random
import re
from fractions import Fraction as F

import pytest

from spgame import jsonio
from spgame.costs import parse_cost
from spgame.errors import InputError
from spgame.game import PLAYER1, PLAYER2, TERMINAL, SPGame
from spgame.graph import Digraph
from spgame.independence import CardinalityRule, IndependenceOracle
from spgame.interdiction import InterdictionGame
from spgame.jsonio import (
    dumps,
    export_dot,
    game_from_json,
    game_to_json,
    interdiction_from_json,
    interdiction_situation_from_json,
    interdiction_situation_to_json,
    interdiction_to_json,
    jsonable,
    load_any,
    load_path,
    ne_result_to_json,
    potentials_to_json,
    situation_from_json,
    situation_to_json,
)
from spgame.generators import InstanceGenerator
from spgame.ne import solve


def test_load_game_fixture(data_dir):
    game = load_path(str(data_dir / "chain.json"))
    assert game.names == ("s", "a", "b", "t")
    assert game.owner == (PLAYER1, 2, PLAYER1, 0) or game.graph.n == 4
    assert game.r2[2] == F(1, 2)
    assert game.start == 0


def test_load_interdiction_fixture(data_dir):
    game = load_path(str(data_dir / "interdict3.json"))
    assert isinstance(game, InterdictionGame)
    assert isinstance(game.oracle.rules[0], CardinalityRule)


def test_game_roundtrip():
    gen = InstanceGenerator(seed=515)
    for _ in range(10):
        game = gen.sp_game(max_vertices=6)
        back = game_from_json(game_to_json(game))
        assert back == game


def test_interdiction_roundtrip_all_rule_kinds():
    gen = InstanceGenerator(seed=616)
    seen = set()
    for _ in range(25):
        inst = gen.interdiction_game(max_vertices=5)
        seen.update(type(r).__name__ for r in inst.oracle.rules.values())
        back = interdiction_from_json(interdiction_to_json(inst))
        assert back.graph == inst.graph
        assert back.r1 == inst.r1 and back.r2 == inst.r2
        for u, rule in inst.oracle.rules.items():
            assert type(back.oracle.rules[u]) is type(rule)
            assert back.oracle.rules[u] == rule
    assert seen == {"CardinalityRule", "BudgetRule", "ExplicitRule"}


def test_load_any_dispatch():
    gen = InstanceGenerator(seed=717)
    game = gen.sp_game(max_vertices=4)
    inst = gen.interdiction_game(max_vertices=4)
    assert load_any(game_to_json(game)) == game
    assert isinstance(load_any(interdiction_to_json(inst)), InterdictionGame)


def test_arc_ids_must_be_positional():
    game = InstanceGenerator(seed=1).sp_game(max_vertices=4)
    obj = game_to_json(game)
    obj["arcs"][0]["id"] = 99
    with pytest.raises(InputError):
        game_from_json(obj)


def test_unknown_owner_rejected():
    obj = {
        "vertices": [
            {"id": "s", "owner": "P3"},
            {"id": "t", "owner": "T"},
        ],
        "start": "s",
        "arcs": [{"id": 0, "tail": "s", "head": "t", "r1": 1, "r2": 1}],
    }
    with pytest.raises(InputError, match="owner"):
        game_from_json(obj)


def test_unknown_rule_kind_rejected():
    game = InstanceGenerator(seed=2).interdiction_game(max_vertices=3)
    obj = interdiction_to_json(game)
    obj["oracles"][0] = {"vertex": "v0", "kind": "matroid"}
    with pytest.raises(InputError):
        interdiction_from_json(obj)


def test_situation_roundtrip():
    gen = InstanceGenerator(seed=818)
    game = gen.sp_game(max_vertices=5)
    from spgame.game import situations

    sit = next(iter(situations(game)))
    back = situation_from_json(game, situation_to_json(game, sit))
    assert back == sit


def test_interdiction_situation_roundtrip():
    gen = InstanceGenerator(seed=919)
    inst = gen.interdiction_game(max_vertices=4)
    from spgame.interdiction import solve_interdiction

    sit = solve_interdiction(inst).situation
    back = interdiction_situation_from_json(
        inst, interdiction_situation_to_json(inst, sit)
    )
    assert back.removed == sit.removed
    assert back.offered == sit.offered


def test_result_serialization_shape():
    game = InstanceGenerator(seed=3).sp_game(max_vertices=5)
    res = solve(game)
    obj = ne_result_to_json(game, res, certificate=True)
    assert obj["kind"] == res.kind
    assert "situation" in obj and "certificate" in obj
    json.dumps(obj)  # serializable without custom encoders

    bare = ne_result_to_json(game, res)
    assert "certificate" not in bare


def test_potentials_serialization():
    from spgame.dijkstra import shortest_longest_distances

    game = InstanceGenerator(seed=4).sp_game(max_vertices=5)
    pot = shortest_longest_distances(game, PLAYER1)
    obj = potentials_to_json(game.names, pot)
    assert set(obj["phi"]) == set(game.names)
    for u in pot.infinite_vertices:
        assert obj["phi"][game.names[u]] == "inf"
        assert game.names[u] in obj["B"]
    json.dumps(obj)


def test_jsonable_handles_nested_values():
    obj = jsonable(
        {"a": F(1, 3), "b": (F(2), [frozenset({1})]), "c": float("inf")}
    )
    assert obj == {"a": "1/3", "b": [2, [[1]]], "c": "inf"}


def test_dumps_deterministic():
    gen1 = InstanceGenerator(seed=42)
    gen2 = InstanceGenerator(seed=42)
    a = dumps(game_to_json(gen1.sp_game(max_vertices=6)))
    b = dumps(game_to_json(gen2.sp_game(max_vertices=6)))
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a)  # stays valid JSON


def test_export_dot_markers():
    game = InstanceGenerator(seed=5).sp_game(max_vertices=5)
    res = solve(game)
    dot = export_dot(game, play=res.play, situation=res.situation)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot  # terminal vertex
    assert "penwidth=2" in dot or res.play.arcs == ()
    assert dot.count("->") == game.graph.m


def test_export_dot_escapes_quotes_and_backslashes():
    names = ('a"b', "c\\d", 'e\\"')
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    game = SPGame(g, (PLAYER1, PLAYER2, TERMINAL), 0, (1, 1, 3), (1, 1, 3), names)
    dot = export_dot(game)
    # a DOT quoted string: no bare `"` inside, `\` escapes one character
    ident = r'"(?:[^"\\]|\\.)*"'
    line = re.compile(rf"  {ident}( -> {ident})? \[[^\]]*\];")
    body = dot.splitlines()[1:-1]
    assert len(body) == 6 and all(line.fullmatch(x) for x in body), dot
    assert body[0].startswith('  "a\\"b" ')
    assert body[1].startswith('  "c\\\\d" ')
    assert body[5].startswith('  "a\\"b" -> "e\\\\\\"" ')


def reference_arc_table(obj, index):
    """The row-by-row arc loader `jsonio._arc_table` replaced, kept as the
    reference for its columns and its errors."""
    pairs = []
    r1 = []
    r2 = []
    parsed = {}

    def cost(value):
        if type(value) is not str:
            return parse_cost(value)
        c = parsed.get(value)
        if c is None:
            c = parsed[value] = parse_cost(value)
        return c

    arcs = obj.get("arcs", [])
    if not isinstance(arcs, list):
        raise InputError("arcs: expected a list of arc objects")
    for pos, row in enumerate(arcs):
        if not isinstance(row, dict):
            raise InputError(f"arcs[{pos}]: expected an arc object")
        if "id" in row and jsonio._json_int(row["id"], f"arcs[{pos}].id") != pos:
            raise InputError(
                f"arc ids must match list positions (arc {pos} has id "
                f"{row['id']!r})"
            )
        try:
            ends = []
            for end in ("tail", "head"):
                if row[end] is None:  # not the vertex named "None"
                    raise InputError(f"arc {pos}: {end} is null")
                ends.append(index[str(row[end])])
            pairs.append(tuple(ends))
        except KeyError as exc:
            raise InputError(f"arc {pos}: unknown endpoint {exc}") from exc
        try:
            r1.append(cost(row["r1"]))
            r2.append(cost(row["r2"]))
        except (KeyError, InputError) as exc:
            raise InputError(f"arc {pos}: bad cost ({exc})") from exc
    return pairs, r1, r2


def spelled_cost(rng, spelling):
    """A positive cost as an int, a decimal string or a fraction string;
    the strings are sometimes integral ("7.0", "14/2")."""
    if spelling == "int":
        return rng.randint(1, 9)
    q = rng.choice([1, 2, 4, 5])
    p = rng.randint(1, 40)
    if spelling == "decimal":
        return f"{p / q}"
    return f"{p}/{q}"


def random_arc_rows(rng, spellings):
    n = rng.randint(1, 8)
    names = [f"v{u}" for u in range(n)]
    rows = []
    for e in range(rng.randint(0, 25)):
        row = {
            "tail": rng.choice(names),
            "head": rng.choice(names),
            "r1": spelled_cost(rng, rng.choice(spellings)),
            "r2": spelled_cost(rng, rng.choice(spellings)),
        }
        ids = rng.random()
        if ids < 0.8:
            row["id"] = e
        elif ids < 0.9:
            row["id"] = str(e)
        rows.append(row)
    return {"arcs": rows}, {name: u for u, name in enumerate(names)}


@pytest.mark.parametrize(
    "spellings", [("int",), ("decimal",), ("fraction",), ("int", "decimal", "fraction")]
)
def test_bulk_arc_table_matches_row_by_row_loader(spellings):
    rng = random.Random(f"arc-table:{spellings}")
    for _ in range(200):
        obj, index = random_arc_rows(rng, spellings)
        pairs, r1, r2 = reference_arc_table(obj, index)
        tails, heads, b1, b2 = jsonio._arc_table(obj, index)
        n = len(index)
        assert Digraph.from_columns(n, tails, heads) == Digraph.from_arcs(n, pairs)
        assert (b1, b2) == (r1, r2)
        assert [type(c) for c in b1 + b2] == [type(c) for c in r1 + r2]


BAD_ARC_VALUES = [None, True, False, 1.0, -1.5, "x", "1/0", "", [], {}, "v0", 0, 3, "3"]


def test_bulk_arc_table_raises_the_row_by_row_error():
    rng = random.Random("arc-table-errors")
    for _ in range(500):
        obj, index = random_arc_rows(rng, ("int", "decimal", "fraction"))
        rows = obj["arcs"]
        for _ in range(rng.randint(1, 3)):
            objects = [pos for pos, row in enumerate(rows) if isinstance(row, dict)]
            if not objects:
                break
            pos = rng.choice(objects)
            field = rng.choice(["id", "tail", "head", "r1", "r2"])
            action = rng.random()
            if action < 0.1:
                rows[pos] = rng.choice(BAD_ARC_VALUES)
            elif action < 0.3:
                rows[pos].pop(field, None)
            else:
                rows[pos][field] = rng.choice(BAD_ARC_VALUES)
        try:
            expected = reference_arc_table(obj, index)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                jsonio._arc_table(obj, index)
            assert str(got.value) == str(exc)
        else:
            tails, heads, r1, r2 = jsonio._arc_table(obj, index)
            assert list(zip(tails, heads)) == expected[0]
            assert (r1, r2) == (expected[1], expected[2])


def reference_oracle(obj):
    """The oracle of `obj`'s rule rows, each converted on its own by
    `_rule_from_json` and imaged by `IndependenceOracle`: the reference for
    the rows `interdiction_from_json` writes straight into the columns, and
    for its errors."""
    names, index = jsonio._vertex_table(obj)
    tails, heads, _, _ = jsonio._arc_table(obj, index)
    graph = Digraph.from_columns(len(names), tails, heads)
    rules = {}
    for pos, row in enumerate(obj["oracles"]):
        if not isinstance(row, dict):
            raise InputError(f"oracles[{pos}]: expected an oracle object")
        u = jsonio._vertex_index(index, row.get("vertex"))
        if u is None:
            raise InputError(
                f"oracle spec for unknown vertex {str(row.get('vertex'))!r}"
            )
        if u in rules:
            raise InputError(f"duplicate oracle spec for vertex {names[u]!r}")
        rules[u] = jsonio._rule_from_json(row, graph, u)
    return IndependenceOracle(graph, rules)


def respelled_budget_key(rng, e):
    return rng.choice([str(e), f"0{e}", f" {e}", f"+{e}", e])


def respelled_budget_cost(rng, c):
    return rng.choice([c, str(c), f"{c}.0", f"{2 * c}/2", f"{c}.5", f"{3 * c + 1}/3"])


# keys and costs that are bad or spelled unusually
ODD_BUDGET_KEYS = ["x", "1.5", "", "1e3", True, 1.0, None, "٣"]
ODD_BUDGET_COSTS = [None, True, 1.5, "x", "1/0", [], "-1", 0, "0", -2, "+3", "٣"]
BAD_RULE_ROWS = [
    5,
    {"kind": "cardinality", "k": "x"},
    {"kind": "cardinality", "k": -1},
    {"kind": "cardinality", "k": 3},  # out of range: no vertex has 4 arcs
    {"kind": "budget", "costs": {}, "budget": 1},
    {"kind": "explicit", "maximal": [[99]]},
    {"kind": "sp", "owner": "T"},
    {"kind": "matroid"},
]


def mutate_rule_rows(rng, obj, terminal) -> None:
    """Change `obj`'s rule rows in one of the ways the loader must read as
    the reference does: respelled or odd budget tables, rational budgets,
    `sp` rows, a row at the terminal, a bad row before a duplicate."""
    rows = obj["oracles"]
    action = rng.random()
    if action < 0.4:
        respell = rng.random() < 0.6
        for row in rows:
            if row["kind"] == "budget":
                items = list(row["costs"].items())
                if rng.random() < 0.3:
                    rng.shuffle(items)
                if respell:
                    items = [
                        (respelled_budget_key(rng, int(e)), respelled_budget_cost(rng, c))
                        for e, c in items
                    ]
                    row["budget"] = respelled_budget_cost(rng, row["budget"])
                row["costs"] = dict(items)
        budget_rows = [row for row in rows if row["kind"] == "budget"]
        if budget_rows and rng.random() < 0.5:
            row = rng.choice(budget_rows)
            table = row["costs"]
            action = rng.random()
            if action < 0.1:
                row["costs"] = rng.choice([list(table), None, "x", 1])
            elif action < 0.55:
                table[rng.choice(ODD_BUDGET_KEYS)] = 1
            else:
                odd = ODD_BUDGET_COSTS if respell else [0, -2, "3", 1.5]
                table[rng.choice(list(table))] = rng.choice(odd)
    elif action < 0.55:
        for row in rng.sample(rows, rng.randint(1, len(rows))):
            owner = rng.choice(["P1", "P2", "P1", "P2", "P3", None])
            vertex = row["vertex"]
            row.clear()
            row.update(vertex=vertex, kind="sp", owner=owner)
    elif action < 0.7:
        rule = rng.choice(
            [
                {"kind": "cardinality", "k": 0},
                {"kind": "budget", "costs": {}, "budget": rng.choice([0, 1, -1])},
                {"kind": "explicit", "maximal": [[]]},
                {"kind": "sp", "owner": "P2"},
            ]
        )
        rows.insert(rng.randint(0, len(rows)), {"vertex": terminal, **rule})
    elif action < 0.85:
        # rational budgets, in the oracle's columns at scales above 1
        for row in rows:
            if row["kind"] == "budget":
                q = rng.choice([2, 3, 10])
                row["costs"] = {e: f"{c}/{q}" for e, c in row["costs"].items()}
                row["budget"] = f"{row['budget'] * q + rng.randint(0, q - 1)}/{q ** 2}"
    else:
        pos = rng.randrange(len(rows))
        rows.append(dict(rows[pos]))  # a duplicate, after a bad row or not
        if rng.random() < 0.8:
            bad = rng.choice(BAD_RULE_ROWS)
            if isinstance(bad, dict):
                bad = {"vertex": rows[pos]["vertex"], **bad}
            rows[pos] = bad


def test_rule_rows_load_as_the_row_by_row_reference():
    rng = random.Random("rule-rows")
    checked = errors = 0
    for seed in range(400):
        game = InstanceGenerator(seed).interdiction_game()
        obj = interdiction_to_json(game)
        mutate_rule_rows(rng, obj, game.names[game.terminal])
        try:
            expected = reference_oracle(obj)
        except InputError as exc:
            errors += 1
            with pytest.raises(InputError) as got:
                interdiction_from_json(obj)
            assert str(got.value) == str(exc)
            continue
        oracle = interdiction_from_json(obj).oracle
        assert oracle.rules == expected.rules
        for u, rule in oracle.rules.items():
            if hasattr(rule, "costs"):
                want = expected.rules[u]
                assert list(rule.costs.items()) == list(want.costs.items())
                assert [type(c) for c in [*rule.costs.values(), rule.budget]] == [
                    type(c) for c in [*want.costs.values(), want.budget]
                ]
        assert oracle.cap == expected.cap
        assert oracle.weight == expected.weight
        checked += 1
    assert checked > 150 and errors > 60


def test_budget_tables_match_entry_by_entry_conversion():
    rng = random.Random("budget-tables")
    checked = errors = 0
    for seed in range(300):
        generator = InstanceGenerator(seed)
        game = generator.interdiction_game(kinds=("budget", "cardinality"))
        obj = interdiction_to_json(game)
        for row in obj["oracles"]:
            if row["kind"] == "budget":
                row["costs"] = {
                    respelled_budget_key(rng, int(e)): respelled_budget_cost(rng, c)
                    for e, c in row["costs"].items()
                }
        budget_rows = [row for row in obj["oracles"] if row["kind"] == "budget"]
        if budget_rows and rng.random() < 0.5:
            row = rng.choice(budget_rows)
            table = row["costs"]
            action = rng.random()
            if action < 0.1:
                row["costs"] = rng.choice([list(table), None, "x", 1])
            elif action < 0.55:
                table[rng.choice(ODD_BUDGET_KEYS)] = 1
            else:
                table[rng.choice(list(table))] = rng.choice(ODD_BUDGET_COSTS)
        try:
            expected = reference_oracle(obj)
        except InputError as exc:
            errors += 1
            with pytest.raises(InputError) as got:
                interdiction_from_json(obj)
            assert str(got.value) == str(exc)
        else:
            rules = interdiction_from_json(obj).oracle.rules
            assert rules == expected.rules
            for u, rule in rules.items():
                if hasattr(rule, "costs"):
                    want = expected.rules[u].costs
                    assert list(rule.costs.items()) == list(want.items())
                    assert [type(c) for c in rule.costs.values()] == [
                        type(c) for c in want.values()
                    ]
            checked += 1
    assert checked > 100 and errors > 20


def test_sp_rows_load_as_cardinality_bounds(data_dir):
    obj = json.loads((data_dir / "interdict3.json").read_text())
    obj["oracles"] = [
        {"vertex": "s", "kind": "sp", "owner": "P1"},
        {"vertex": "a", "kind": "sp", "owner": "P2"},
    ]
    for oracle in (interdiction_from_json(obj).oracle, reference_oracle(obj)):
        assert oracle.cap == [1, 0, 0]  # no rule at `t`: cap 0
        assert oracle.rules == {0: CardinalityRule(1), 1: CardinalityRule(0)}


def test_budget_keys_shifted_between_tables_are_foreign(data_dir):
    # the tables' keys, read one after the other, are the arcs of their
    # vertices in order, but arc 2 is listed under `s`, which it does not
    # leave
    obj = json.loads((data_dir / "interdict3.json").read_text())
    s_costs, a_costs = {"0": 1, "1": 1, "2": 1}, {"3": 1}
    obj["oracles"] = [
        {"vertex": "s", "kind": "budget", "costs": s_costs, "budget": 1},
        {"vertex": "a", "kind": "budget", "costs": a_costs, "budget": 1},
    ]
    with pytest.raises(InputError, match=r"vertex 's': field 'costs' names arcs \[2\]"):
        interdiction_from_json(obj)
