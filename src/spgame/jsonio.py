"""JSON game formats and DOT export.

A plain game file carries owned vertices, arcs with two costs, and a start
vertex; an interdiction game file adds a terminal and per-vertex oracle
specs and drops owners.  Costs are integers or exact decimal/fraction
strings; floats are rejected.  Each cost column is read straight into its
integer image (`Metric`).  Arc order in the file is the arc index, the
package-wide tie-breaker, so identical files give identical results.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any, Mapping

from ._gc import paused
from .costs import INF, Cost, Metric, cost_to_json, parse_cost, parse_ratios
from .dijkstra import Potentials
from .errors import InputError, InternalInvariantError
from .game import PLAYER1, PLAYER2, TERMINAL, Play, SPGame, Situation
from .graph import Digraph
from .independence import (
    BudgetRule,
    CardinalityRule,
    ExplicitRule,
    IndependenceOracle,
    explicit_rule,
)
from .interdiction import (
    InterdictionGame,
    InterdictionNEResult,
    InterdictionSituation,
)
from .ne import NEResult

_OWNER_TO_JSON = {PLAYER1: "P1", PLAYER2: "P2", TERMINAL: "T"}
_OWNER_FROM_JSON = {v: k for k, v in _OWNER_TO_JSON.items()}


def _as_int(value) -> int | None:
    """An integer written as a JSON integer or a string of one (object keys
    are strings), else None."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    return None


def _json_int(value, where: str) -> int:
    """`_as_int(value)`; anything else is an InputError naming `where`."""
    i = _as_int(value)
    if i is None:
        raise InputError(f"{where} needs integers, got {value!r}")
    return i


def _vertex_table(obj) -> tuple[list[str], dict[str, int]]:
    if "vertices" not in obj or not isinstance(obj["vertices"], list):
        raise InputError("missing vertex list")
    names = []
    index: dict[str, int] = {}
    for pos, row in enumerate(obj["vertices"]):
        # a null id is no id: str(None) would name the vertex "None"
        if not isinstance(row, dict) or row.get("id") is None:
            raise InputError(f"vertices[{pos}].id: each vertex needs an id")
        vid = str(row["id"])
        if vid in index:
            raise InputError(f"duplicate vertex id {vid!r}")
        index[vid] = len(names)
        names.append(vid)
    return names, index


def _vertex_index(index, value) -> int | None:
    """The index of the vertex a `start`, `terminal` or oracle `vertex`
    field names; None when the field is missing, null or unknown."""
    return None if value is None else index.get(str(value))


def _arc_table(obj, index) -> tuple[list[int], list[int], Metric, Metric]:
    """The arc rows as four columns: tails, heads, r1 and r2.  Each check
    runs over a whole column; only when one fails are the rows walked one
    by one, to raise the error of the first bad row."""
    arcs = obj.get("arcs", [])
    if not isinstance(arcs, list):
        raise InputError("arcs: expected a list of arc objects")
    columns = _arc_columns(arcs, index)
    if columns is None:
        _arc_rows_error(arcs, index)
        raise InternalInvariantError("bulk arc checks refused a valid file")
    return columns


def _arc_columns(arcs, index):
    """`_arc_table`'s columns, or None if a bulk check fails."""
    if not set(map(type, arcs)) <= {dict}:
        return None
    ids = [row.get("id", pos) for pos, row in enumerate(arcs)]
    # exact ints at their positions; ids written as strings take the
    # per-value test
    if not set(map(type, ids)) <= {int} or ids != list(range(len(ids))):
        if not all(_as_int(i) == pos for pos, i in enumerate(ids)):
            return None
    try:
        tails = [row["tail"] for row in arcs]
        heads = [row["head"] for row in arcs]
        r1 = [row["r1"] for row in arcs]
        r2 = [row["r2"] for row in arcs]
        # tested before str(), which would read null as the vertex "None"
        if None in tails or None in heads:
            return None
        tails = [index[str(v)] for v in tails]
        heads = [index[str(v)] for v in heads]
    except KeyError:
        return None
    ratio = parse_ratios(r1, r2)
    if ratio is None:
        return None
    return tails, heads, Metric.from_ratios(r1, ratio), Metric.from_ratios(r2, ratio)


def _arc_rows_error(arcs, index) -> None:
    """Raise the InputError of the first arc row that fails a check."""
    for pos, row in enumerate(arcs):
        if not isinstance(row, dict):
            raise InputError(f"arcs[{pos}]: expected an arc object")
        if "id" in row and _json_int(row["id"], f"arcs[{pos}].id") != pos:
            raise InputError(
                f"arc ids must match list positions (arc {pos} has id "
                f"{row['id']!r})"
            )
        try:
            for end in ("tail", "head"):
                if row[end] is None:
                    raise InputError(f"arc {pos}: {end} is null")
                index[str(row[end])]
        except KeyError as exc:
            raise InputError(f"arc {pos}: unknown endpoint {exc}") from exc
        try:
            parse_cost(row["r1"]), parse_cost(row["r2"])
        except (KeyError, InputError) as exc:
            raise InputError(f"arc {pos}: bad cost ({exc})") from exc


def game_from_json(obj: Mapping) -> SPGame:
    names, index = _vertex_table(obj)
    owner = []
    for pos, row in enumerate(obj["vertices"]):
        o = row.get("owner")
        if not isinstance(o, str) or o not in _OWNER_FROM_JSON:
            raise InputError(f"vertices[{pos}].owner: must be P1, P2 or T, got {o!r}")
        owner.append(_OWNER_FROM_JSON[o])
    tails, heads, r1, r2 = _arc_table(obj, index)
    start = _vertex_index(index, obj.get("start"))
    if start is None:
        raise InputError("missing or unknown start vertex")
    return SPGame(
        Digraph.from_columns(len(names), tails, heads),
        tuple(owner),
        start,
        r1,
        r2,
        tuple(names),
    )


def game_to_json(game: SPGame) -> dict:
    return {
        "vertices": [
            {"id": game.names[u], "owner": _OWNER_TO_JSON[game.owner[u]]}
            for u in range(game.graph.n)
        ],
        "arcs": [
            {
                "id": e,
                "tail": game.names[game.graph.tails[e]],
                "head": game.names[game.graph.heads[e]],
                "r1": cost_to_json(c1),
                "r2": cost_to_json(c2),
            }
            for e, (c1, c2) in enumerate(zip(game.r1, game.r2))
        ],
        "start": game.names[game.start],
    }


def _rule_field(row, name):
    if name not in row:
        raise InputError(f"vertex {row['vertex']!r}: missing field {name!r}")
    return row[name]


def _rule_int(row, name, value) -> int:
    i = _as_int(value)
    if i is not None:
        return i
    # the message is formatted only for a bad value
    return _json_int(value, f"vertex {row['vertex']!r}: field {name!r}")


def _rule_cost(row, name, value) -> Cost:
    try:
        return parse_cost(value)
    except InputError as exc:
        raise InputError(f"vertex {row['vertex']!r}: field {name!r}: {exc}") from exc


def _rule_from_json(row, graph, u) -> object:
    """The rule of one oracle row, converted field by field and entry by
    entry, so that an error names the first bad one."""
    kind = row.get("kind")
    deg = len(graph.out[u])
    if kind == "cardinality":
        k = _rule_int(row, "k", _rule_field(row, "k"))
        if not 0 <= k < deg:
            raise InputError(
                f"vertex {row['vertex']!r}: cardinality bound {k} out of "
                f"range for {deg} arcs"
            )
        return CardinalityRule(k)
    if kind == "budget":
        table = _rule_field(row, "costs")
        if not isinstance(table, dict):
            raise InputError(
                f"vertex {row['vertex']!r}: field 'costs' must map arc ids to costs"
            )
        costs = {
            _rule_int(row, "costs", key): _rule_cost(row, "costs", val)
            for key, val in table.items()
        }
        foreign = sorted(set(costs).difference(graph.out[u]))
        if foreign:
            raise InputError(
                f"vertex {row['vertex']!r}: field 'costs' names arcs {foreign} "
                "that do not leave it"
            )
        missing = [e for e in graph.out[u] if e not in costs]
        if missing:
            raise InputError(
                f"vertex {row['vertex']!r}: field 'costs' is missing arcs {missing}"
            )
        bad = [e for e, c in costs.items() if c <= 0]
        if bad:
            raise InputError(
                f"vertex {row['vertex']!r}: non-positive removal costs on {bad}"
            )
        return BudgetRule(costs, _rule_cost(row, "budget", _rule_field(row, "budget")))
    if kind == "explicit":
        maximal = _rule_field(row, "maximal")
        if not isinstance(maximal, list) or not all(
            isinstance(s, list) for s in maximal
        ):
            raise InputError(
                f"vertex {row['vertex']!r}: field 'maximal' must be a list of "
                "arc-id lists"
            )
        sets = [frozenset(_rule_int(row, "maximal", e) for e in s) for s in maximal]
        ground = set(graph.out[u])
        for s in sets:
            if not s <= ground:
                raise InputError(
                    f"vertex {row['vertex']!r}: field 'maximal' names arcs "
                    f"{sorted(s - ground)} that do not leave it"
                )
        return explicit_rule(sets)
    if kind == "sp":
        owner = row.get("owner")
        if owner not in ("P1", "P2"):
            raise InputError(
                f"vertex {row['vertex']!r}: field 'owner' must be P1 or P2"
            )
        return CardinalityRule(deg - 1 if owner == "P1" else 0)
    raise InputError(f"unknown oracle kind {kind!r}")


def _oracle(rows, graph, index, names) -> IndependenceOracle:
    """The oracle of the rule rows, in one pass.  A cardinality row with an
    int `k` in range, and a budget row whose `costs` table maps its
    vertex's arcs in order to positive ints (as `interdiction_to_json`
    writes it) with an int budget, go straight into the oracle's columns;
    every other row is converted by `_rule_from_json` and imaged by
    `IndependenceOracle`.  The first bad row in file order raises."""
    out = graph.out
    weight, cap, scale = [1] * graph.m, [None] * graph.n, {}
    rules = {}
    for pos, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InputError(f"oracles[{pos}]: expected an oracle object")
        u = _vertex_index(index, row.get("vertex"))
        if u is None:
            raise InputError(
                f"oracle spec for unknown vertex {str(row.get('vertex'))!r}"
            )
        if cap[u] is not None or u in rules:
            raise InputError(f"duplicate oracle spec for vertex {names[u]!r}")
        arcs = out[u]
        kind = row.get("kind")
        if kind == "cardinality":
            k = row.get("k")
            if type(k) is int and 0 <= k < len(arcs):
                cap[u] = k
                continue
        elif kind == "budget":
            table, budget = row.get("costs"), row.get("budget")
            if type(table) is dict and type(budget) is int and arcs:
                costs = list(table.values())
                if (
                    list(table) == list(map(str, arcs))
                    and set(map(type, costs)) == {int}
                    and min(costs) > 0
                ):
                    for e, c in zip(arcs, costs):
                        weight[e] = c
                    cap[u], scale[u] = budget, 1
                    continue
        rules[u] = _rule_from_json(row, graph, u)
    return IndependenceOracle(graph, rules, (weight, cap, scale))


def interdiction_from_json(obj: Mapping) -> InterdictionGame:
    names, index = _vertex_table(obj)
    tails, heads, r1, r2 = _arc_table(obj, index)
    graph = Digraph.from_columns(len(names), tails, heads)
    ends = {}
    for key in ("start", "terminal"):
        ends[key] = _vertex_index(index, obj.get(key))
        if ends[key] is None:
            raise InputError(f"missing or unknown {key} vertex")
    rows = obj.get("oracles", [])
    if not isinstance(rows, list):
        raise InputError("oracles: expected a list of oracle objects")
    return InterdictionGame(
        graph,
        ends["start"],
        ends["terminal"],
        r1,
        r2,
        _oracle(rows, graph, index, names),
        tuple(names),
    )


def _rule_to_json(rule, name) -> dict:
    if isinstance(rule, CardinalityRule):
        return {"vertex": name, "kind": "cardinality", "k": rule.k}
    if isinstance(rule, BudgetRule):
        return {
            "vertex": name,
            "kind": "budget",
            "costs": {str(e): cost_to_json(c) for e, c in sorted(rule.costs.items())},
            "budget": cost_to_json(rule.budget),
        }
    if isinstance(rule, ExplicitRule):
        return {
            "vertex": name,
            "kind": "explicit",
            "maximal": [sorted(s) for s in rule.maximal],
        }
    raise InputError(
        f"oracle rule at vertex {name!r} has no JSON form "
        f"({type(rule).__name__})"
    )


def interdiction_to_json(game: InterdictionGame) -> dict:
    g = game.graph
    return {
        "vertices": [{"id": game.names[u]} for u in range(g.n)],
        "arcs": [
            {
                "id": e,
                "tail": game.names[g.tails[e]],
                "head": game.names[g.heads[e]],
                "r1": cost_to_json(game.r1[e]),
                "r2": cost_to_json(game.r2[e]),
            }
            for e in range(g.m)
        ],
        "start": game.names[game.start],
        "terminal": game.names[game.terminal],
        "oracles": [
            _rule_to_json(rule, game.names[u])
            for u, rule in sorted(game.oracle.rules.items())
        ],
    }


def load_any(obj: Mapping):
    """Dispatch on file shape: oracle specs mean an interdiction game."""
    if "oracles" in obj:
        return interdiction_from_json(obj)
    return game_from_json(obj)


def load_object(path: str) -> dict:
    """The JSON object a file holds; anything else is an InputError."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        # bad JSON, bad UTF-8, or arrays and objects nested too deep
        except (ValueError, RecursionError) as exc:
            raise InputError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    return obj


@paused
def load_path(path: str):
    return load_any(load_object(path))


# ---------------------------------------------------------------------------
# results


def jsonable(value) -> Any:
    """Recursive conversion of result payloads (fractions, metrics, sets,
    tuples) into JSON-ready structures; a `Metric` is the list of its exact
    values."""
    if isinstance(value, (Fraction, float)):
        return cost_to_json(value)
    if type(value) is Metric:
        return list(map(cost_to_json, value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def situation_to_json(game: SPGame, sit: Situation) -> dict:
    return {
        "sigma1": {game.names[u]: e for u, e in sorted(sit.sigma1.items())},
        "sigma2": {game.names[u]: e for u, e in sorted(sit.sigma2.items())},
    }


def _situation_part(names, obj, key, convert) -> dict:
    """`obj[key]` as a map from vertex index to `convert(value, field)`;
    a malformed entry is an InputError naming its field."""
    if not isinstance(obj, Mapping):
        raise InputError("situation: expected a JSON object")
    part = obj.get(key, {})
    if not isinstance(part, Mapping):
        raise InputError(f"{key}: expected an object keyed by vertex id")
    index = {name: u for u, name in enumerate(names)}
    out = {}
    for name, value in part.items():
        if name not in index:
            raise InputError(f"{key}.{name}: unknown vertex {name!r} in situation")
        out[index[name]] = convert(value, f"{key}.{name}")
    return out


def situation_from_json(game: SPGame, obj: Mapping) -> Situation:
    return Situation(
        _situation_part(game.names, obj, "sigma1", _json_int),
        _situation_part(game.names, obj, "sigma2", _json_int),
    )


def play_to_json(game: SPGame, play: Play) -> dict:
    return {
        "kind": play.kind,
        "arcs": list(play.arcs),
        "vertices": [game.names[u] for u in play.vertices(game)],
        "cycle_start": play.cycle_start,
        "r1": cost_to_json(play.cost1),
        "r2": cost_to_json(play.cost2),
    }


@paused
def ne_result_to_json(game: SPGame, res: NEResult, certificate: bool = False) -> dict:
    out = {
        "kind": res.kind,
        "costs": {"r1": cost_to_json(res.cost1), "r2": cost_to_json(res.cost2)},
        "situation": situation_to_json(game, res.situation),
        "play": play_to_json(game, res.play),
    }
    if certificate:
        out["certificate"] = jsonable(res.certificate)
    return out


def interdiction_situation_to_json(
    game: InterdictionGame, sit: InterdictionSituation
) -> dict:
    return {
        "removed": {
            game.names[u]: sorted(arcs) for u, arcs in sorted(sit.removed.items())
        },
        "offered": {
            game.names[u]: sorted(arcs) for u, arcs in sorted(sit.offered.items())
        },
    }


def interdiction_situation_from_json(
    game: InterdictionGame, obj: Mapping
) -> InterdictionSituation:
    def arc_set(arcs, where) -> frozenset:
        if not isinstance(arcs, list):
            raise InputError(f"{where}: expected a list of arc ids")
        return frozenset(_json_int(e, where) for e in arcs)

    return InterdictionSituation(
        _situation_part(game.names, obj, "removed", arc_set),
        _situation_part(game.names, obj, "offered", arc_set),
    )


def interdiction_result_to_json(
    game: InterdictionGame, res: InterdictionNEResult, certificate: bool = False
) -> dict:
    out = {
        "kind": res.kind,
        "costs": {"r1": cost_to_json(res.cost1), "r2": cost_to_json(res.cost2)},
        "situation": interdiction_situation_to_json(game, res.situation),
        "path": list(res.path) if res.path is not None else None,
    }
    if certificate:
        out["certificate"] = jsonable(res.certificate)
    return out


def potentials_to_json(names, pot: Potentials) -> dict:
    return {
        "phi": dict(zip(names, map(cost_to_json, pot.potential))),
        "blocked": {
            names[u]: sorted(pot.blocked[u])
            for u in range(len(names))
            if pot.blocked[u]
        },
        "B": sorted(names[u] for u in pot.infinite_vertices),
    }


def _encode(value, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2, sort_keys=True)` writes it,
    with `indent` the newline and spaces before the value's line.  A value
    or key of another type is a TypeError."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is int:
        return int.__repr__(value)
    if t is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        sep = "," + inner + "  "
        items = []
        # ints and non-empty int lists, most of a `phi` output, inline
        for k in sorted(value):
            v = value[k]
            if type(v) is int:
                text = int.__repr__(v)
            elif type(v) is list and set(map(type, v)) == {int}:
                text = "[" + sep[1:] + sep.join(map(int.__repr__, v)) + inner + "]"
            else:
                text = _encode(v, inner)
            items.append(_encode_str(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        if set(map(type, value)) == {int}:
            body = ("," + inner).join(map(int.__repr__, value))
        else:
            body = ("," + inner).join([_encode(v, inner) for v in value])
        return "[" + inner + body + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if t is float:
        if value != value:
            return "NaN"
        if value == INF:
            return "Infinity"
        if value == -INF:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"{t.__name__} is not written directly")


@paused
def dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True) + "\\n"`, byte for byte.
    With an indent, `json` runs its pure-Python encoder, which walks the
    document one generator step per token; this writer builds each
    container with one join.  It writes str, int, float, bool, None and
    lists, tuples and str-keyed dicts of them.  Any other value or key
    (TypeError), an int too long for `str` (ValueError) or a cycle
    (RecursionError) hands the whole document to `json.dumps`, which
    writes it or raises its own error."""
    try:
        text = _encode(obj, "\n")
    except (TypeError, ValueError, RecursionError):
        text = json.dumps(obj, indent=2, sort_keys=True)
    return text + "\n"


# ---------------------------------------------------------------------------
# DOT


def _dot_id(name: str) -> str:
    """A name as a quoted DOT identifier, with `\\` and `"` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(
    game,
    play: Play | None = None,
    situation: Situation | None = None,
) -> str:
    """Graphviz rendering; play arcs red and bold, other strategy arcs
    dashed blue.  Works for plain games (owner shapes) and interdiction
    games (plain circles)."""
    g = game.graph
    ids = [_dot_id(name) for name in game.names]
    lines = ["digraph game {"]
    owners = getattr(game, "owner", None)
    for u in range(g.n):
        shape = "circle"
        if owners is not None:
            shape = {
                PLAYER1: "box",
                PLAYER2: "ellipse",
                TERMINAL: "doublecircle",
            }[owners[u]]
        elif u == getattr(game, "terminal", None):
            shape = "doublecircle"
        extra = ", style=bold" if u == game.start else ""
        lines.append(f"  {ids[u]} [shape={shape}{extra}];")
    play_arcs = set(play.arcs) if play is not None else set()
    strategy_arcs = set()
    if situation is not None:
        strategy_arcs = set(situation.sigma1.values()) | set(
            situation.sigma2.values()
        )
    for e in range(g.m):
        u, v = g.tails[e], g.heads[e]
        label = f"{cost_to_json(game.r1[e])}/{cost_to_json(game.r2[e])}"
        attrs = [f'label="{label}"']
        if e in play_arcs:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        elif e in strategy_arcs:
            attrs.append("color=blue")
            attrs.append("style=dashed")
        lines.append(
            f'  {ids[u]} -> {ids[v]} [{", ".join(attrs)}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
