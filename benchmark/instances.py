"""Seeded instance generators for the benchmark workloads.

Everything here is self-contained: no `spgame.generators` function is
called, so a change under `src/` cannot change the benchmark's inputs.
The program only ever sees the JSON files these functions write.  Each
generator is a pure function of its `random.Random`, and every workload
seeds one per file from (workload, seed, file index), so the same seed
always gives byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

TERMINAL = "t"

# mixed denominators: sums of many such costs stay exact but need real
# Fraction arithmetic (lcm up to 2520)
_DENOMINATORS = (2, 3, 4, 5, 7, 8, 9, 10)


def int_cost(rng: random.Random) -> int:
    return rng.randint(1, 100)


def rational_cost(rng: random.Random):
    """A positive rational in one of the three spellings the file format
    accepts: an integer, a decimal string, or a "p/q" string."""
    roll = rng.random()
    if roll < 0.2:
        return rng.randint(1, 100)
    if roll < 0.4:
        return f"{rng.randint(1, 100)}.{rng.choice(('25', '5', '75', '125'))}"
    q = rng.choice(_DENOMINATORS)
    return f"{rng.randint(q, 100 * q)}/{q}"


BODY_DEGREE = 4


def layered_body(rng: random.Random, arcs: int, back_share: float = 0.05):
    """Layered digraph flowing to the terminal with a share of backward
    arcs.  Returns (vertex names, arc pairs, first-layer names); every
    vertex has out-degree `BODY_DEGREE`, the last layer points at the
    terminal."""
    deg = BODY_DEGREE
    width = max(2, int((arcs / deg) ** 0.5 / 2))
    layers = max(2, arcs // (deg * width))
    names = [f"v{i}" for i in range(layers * width)]
    pairs = []
    for layer in range(layers):
        for slot in range(width):
            u = names[layer * width + slot]
            for _ in range(deg):
                if layer + 1 == layers:
                    v = TERMINAL
                elif layer > 0 and rng.random() < back_share:
                    v = names[rng.randrange(layer) * width + rng.randrange(width)]
                else:
                    v = names[(layer + 1) * width + rng.randrange(width)]
                pairs.append((u, v))
    return names, pairs, names[:width]


def _arc_rows(pairs, cost1, cost2):
    return [
        {"id": e, "tail": u, "head": v, "r1": cost1(), "r2": cost2()}
        for e, (u, v) in enumerate(pairs)
    ]


# ---------------------------------------------------------------------------
# plain games


def plain_game(rng: random.Random, arcs: int, rational: bool) -> dict:
    """Layered body with back arcs behind a super-source `s` that points at
    every first-layer vertex; random owners; independent r1 and r2."""
    names, pairs, first = layered_body(rng, arcs)
    pairs = [("s", v) for v in first] + pairs
    owners = {u: rng.choice(("P1", "P2")) for u in names}
    # player 1 picks the first move, so the first sweep finds the start
    # finite and `solve` always takes its one-sweep branch
    owners["s"] = "P1"
    cost = rational_cost if rational else int_cost
    vertices = [{"id": u, "owner": owners[u]} for u in ["s"] + names]
    vertices.append({"id": TERMINAL, "owner": "T"})
    return {
        "vertices": vertices,
        "arcs": _arc_rows(pairs, lambda: cost(rng), lambda: cost(rng)),
        "start": "s",
    }


# ---------------------------------------------------------------------------
# interdiction games


def _cardinality(u, k):
    return {"vertex": u, "kind": "cardinality", "k": k}


def _budget(rng, u, arc_ids, share):
    """Budget rule whose budget covers about `share` of the total removal
    cost, so the blocker can remove roughly that share of the arcs."""
    costs = {str(e): rng.randint(1, 9) for e in arc_ids}
    total = sum(costs.values())
    budget = min(total - 1, max(0, int(total * share)))
    return {"vertex": u, "kind": "budget", "costs": costs, "budget": budget}


def _explicit(rng, u, arc_ids):
    gens = []
    for _ in range(rng.randint(1, 3)):
        sub = [e for e in arc_ids if rng.random() < 0.5]
        if len(sub) == len(arc_ids):
            sub.remove(rng.choice(sub))
        gens.append(sub)
    return {"vertex": u, "kind": "explicit", "maximal": gens}


def _out_arcs(pairs):
    out: dict[str, list[int]] = {}
    for e, (u, _) in enumerate(pairs):
        out.setdefault(u, []).append(e)
    return out


def small_interdiction_game(rng: random.Random) -> dict:
    """Desk-scale interdiction game: 5-6 inner vertices of out-degree 2-3
    with a random mix of cardinality, budget and explicit rules, small
    enough for the brute-force equilibrium check."""
    inner = [f"u{i}" for i in range(rng.randint(5, 6))]
    pairs = []
    for i, u in enumerate(inner):
        heads = inner[i + 1 :] + [TERMINAL]
        back = inner[:i]
        for _ in range(rng.randint(2, 3)):
            if back and rng.random() < 0.2:
                pairs.append((u, rng.choice(back)))
            else:
                pairs.append((u, rng.choice(heads)))
    out = _out_arcs(pairs)
    oracles = []
    for u in inner:
        arc_ids = out[u]
        kind = rng.choice(("cardinality", "budget", "explicit"))
        if kind == "cardinality":
            oracles.append(_cardinality(u, rng.randint(0, len(arc_ids) - 1)))
        elif kind == "budget":
            oracles.append(_budget(rng, u, arc_ids, rng.random()))
        else:
            oracles.append(_explicit(rng, u, arc_ids))
    return {
        "vertices": [{"id": u} for u in inner + [TERMINAL]],
        "arcs": _arc_rows(pairs, lambda: rational_cost(rng), lambda: rational_cost(rng)),
        "start": inner[0],
        "terminal": TERMINAL,
        "oracles": oracles,
    }


# Which solver branch a hub game takes is fixed by the start vertex alone.
# The start `s` has `a` arcs into a trap (two vertices that only point at
# each other, never finite) and `b` arcs elsewhere, one of them straight to
# the terminal.  With a cardinality bound k at `s`, the primal sweep leaves
# `s` infinite iff k >= b, and the dual one (bound a + b - k - 1) iff k < a.


HUBS = 3
HUB_DEGREE = 1_000


def hub_interdiction_game(rng: random.Random, arcs: int, body: str, branch: str) -> dict:
    """Layered body under one rule family (`k1`: cardinality 1, fully
    finite; `randk`: random cardinality bounds, mostly cut off; `budget`:
    budget rules), plus `HUBS` vertices of out-degree `HUB_DEGREE` into
    the body whose rules (the first a budget, the rest cardinality) let
    the blocker remove about half of their arcs, plus the start gadget
    that fixes the solver branch."""
    # back arcs are what cut most of a random-k body off; the k=1 body has
    # none, so it stays fully finite under the dual rules too instead of
    # depending on where a few back arcs happened to land
    back_share = 0.0 if body == "k1" else 0.05
    names, pairs, first = layered_body(rng, arcs, back_share=back_share)
    hub_names = [f"h{i}" for i in range(HUBS)]
    for h in hub_names:
        pairs.extend((h, rng.choice(names)) for _ in range(HUB_DEGREE))
    # body vertices feed the hubs so the hubs sit on routes to the terminal
    for h in hub_names:
        for _ in range(8):
            pairs.append((rng.choice(names), h))
    trap = ("x0", "x1")
    pairs.extend([(trap[0], trap[1]), (trap[1], trap[0])])
    elsewhere = [TERMINAL] + hub_names + rng.sample(first, 3)
    b = len(elsewhere)
    a, k = {"primal": (0, 0), "dual": (1, b), "cyclic": (b + 1, b)}[branch]
    pairs.extend(("s", v) for v in elsewhere)
    pairs.extend(("s", trap[0]) for _ in range(a))
    out = _out_arcs(pairs)
    oracles = [_cardinality("s", k), _cardinality(trap[0], 0), _cardinality(trap[1], 0)]
    oracles.append(_budget(rng, hub_names[0], out[hub_names[0]], 0.5))
    oracles.extend(_cardinality(h, HUB_DEGREE // 2) for h in hub_names[1:])
    for u in names:
        deg = len(out[u])
        if body == "k1":
            oracles.append(_cardinality(u, 1))
        elif body == "randk":
            oracles.append(_cardinality(u, rng.randint(0, deg - 1)))
        else:
            oracles.append(_budget(rng, u, out[u], rng.uniform(0.2, 0.6)))
    rows = _arc_rows(pairs, lambda: int_cost(rng), lambda: int_cost(rng))
    # the direct arc keeps `s` connected but is never the cheap way home
    for row in rows:
        if row["tail"] == "s" and row["head"] == TERMINAL:
            row["r1"] = row["r2"] = 1_000_000
    vertices = ["s"] + names + hub_names + list(trap) + [TERMINAL]
    return {
        "vertices": [{"id": u} for u in vertices],
        "arcs": rows,
        "start": "s",
        "terminal": TERMINAL,
        "oracles": oracles,
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    """Files to write and the ops to run on them, in round order.  `files`
    maps a file name to a zero-argument builder, so only one instance is
    held in memory at a time.  An op is (subcommand label, argv, file
    name); one round runs every op once.

    `tail` is the workload's tail percentile.  It is fixed per workload so
    that runs stay comparable, and a run makes at least `min_ops` ops so
    that ten of them lie beyond it."""

    name: str
    why: str
    tail: float
    files: dict = field(default_factory=dict)
    ops: list = field(default_factory=list)

    @property
    def min_ops(self) -> int:
        return math.ceil(1000 / (100 - self.tail))


def _interleave(per_file: list) -> list:
    """One round from per-file op lists: every file's first op, then every
    file's second op, and so on.  Ops of a similar cost are then spread
    over the round instead of bunched, so the ops a percentile lands on are
    sampled at several moments of a run, not one."""
    longest = max(len(ops) for ops in per_file)
    return [ops[i] for i in range(longest) for ops in per_file if i < len(ops)]


def _builder(make, workload: str, seed: int, index: int, *args):
    """Zero-argument builder; each call reseeds, so it always returns the
    same instance."""
    return lambda: make(random.Random(f"{workload}:{seed}:{index}"), *args)


# Twenty-four plain sizes with one op each make the plain latencies a dense
# ladder rather than a few clusters: a percentile moves by one rung when two
# neighbours swap, and the ops near it run at many moments of a run.  The
# sixteen tiny interdiction ops put the median near the 190-arc game and p90
# near the 560-arc one.
CLI_DESK_PLAIN_ARCS = tuple(100 + 560 * i // 23 for i in range(24))
CLI_DESK_PLAIN_OPS = (
    ("solve", ["solve", "{}", "--certificate"]),
    ("phi", ["phi", "{}", "--player", "1"]),
    ("phi", ["phi", "{}", "--player", "2"]),
)
CLI_DESK_INTERDICTION = 8


def cli_desk(seed: int) -> Workload:
    w = Workload(
        "cli-desk",
        "The path a person at a desk runs: in-process CLI `solve`/`phi` on "
        "plain games of 100-700 arcs and `solve-interdiction`/`phi --dual` "
        "on small interdiction games.  `game.validate` (Karp's O(n*m) "
        "min-mean-cycle in Fractions) dominates; it runs on no other "
        "workload.  Sizes are kept where it is the largest stage.",
        tail=90,
    )
    plain = []
    for idx, arcs in enumerate(CLI_DESK_PLAIN_ARCS):
        fname = f"plain-{arcs}.json"
        w.files[fname] = _builder(plain_game, w.name, seed, idx, arcs, True)
        label, argv = CLI_DESK_PLAIN_OPS[idx % len(CLI_DESK_PLAIN_OPS)]
        plain.append((label, [a.format(fname) for a in argv], fname))
    # a stride through the sizes, so neighbouring sizes run far apart in time
    n = len(plain)
    w.ops = [plain[7 * k % n] for k in range(n)]
    for i in range(CLI_DESK_INTERDICTION):
        fname = f"interdict-small-{i}.json"
        w.files[fname] = _builder(small_interdiction_game, w.name, seed, n + i)
        w.ops.append(
            ("solve-interdiction", ["solve-interdiction", fname, "--certificate"], fname)
        )
        w.ops.append(("phi-dual", ["phi", fname, "--dual"], fname))
    return w


# the 100k-arc op sits between the 25k-arc ones, which the median lands on
PLAIN_LARGE_FILES = (
    (25_000, False),
    (25_000, True),
    (100_000, True),
    (25_000, False),
    (25_000, True),
)


def plain_large(seed: int) -> Workload:
    w = Workload(
        "plain-large",
        "The `spgame solve` pipeline (load, normalize, solve, serialize) on "
        "25k-100k-arc plain games, half integer and half rational costs.  "
        "The heap sweep, the equilibrium construction and Fraction costs do "
        "the work; oracle queries are cheap (out-degree <= 5) and "
        "`validate` never runs.",
        tail=50,
    )
    for idx, (arcs, rational) in enumerate(PLAIN_LARGE_FILES):
        fname = f"plain-{arcs // 1000}k-{'rat' if rational else 'int'}-{idx}.json"
        w.files[fname] = _builder(plain_game, w.name, seed, idx, arcs, rational)
        w.ops.append(("solve", ["solve", fname], fname))
    return w


# two instances of each kind: how much of a random-k body is cut off varies
# from instance to instance, and a round averages over two of them
INTERDICT_HUBS_FILES = (
    ("k1", "primal"),
    ("randk", "dual"),
    ("budget", "cyclic"),
) * 2
INTERDICT_HUBS_ARCS = 16_000


def interdict_hubs(seed: int) -> Workload:
    w = Workload(
        "interdict-hubs",
        "In-process CLI `solve-interdiction`, `phi` and `phi --dual` on "
        "~19k-arc interdiction games with hub vertices of out-degree 1,000.  "
        "The oracle rebuilds a frozenset per query, so hub queries make the "
        "sweep quadratic in degree; bodies with k=1 (all finite) and random "
        "k (mostly cut off) measure the sweep with a busy and an idle heap, "
        "and the start gadget covers the primal, dual and cyclic branches.",
        tail=50,
    )
    per_file = []
    for idx, (body, branch) in enumerate(INTERDICT_HUBS_FILES):
        fname = f"hubs-{body}-{branch}-{idx}.json"
        w.files[fname] = _builder(
            hub_interdiction_game, w.name, seed, idx, INTERDICT_HUBS_ARCS, body, branch
        )
        ops = [
            ("solve-interdiction", ["solve-interdiction", fname, "--certificate"], fname),
            ("phi", ["phi", fname], fname),
            ("phi-dual", ["phi", fname, "--dual"], fname),
        ]
        if body == "k1":
            # two more ops, so one round reaches the twenty ops the median
            # tail needs, and the median falls among `phi` ops on fully
            # finite bodies
            ops.append(("phi", ["phi", fname, "--metric", "r1"], fname))
        per_file.append(ops)
    w.ops = _interleave(per_file)
    return w


WORKLOADS = {
    "cli-desk": cli_desk,
    "plain-large": plain_large,
    "interdict-hubs": interdict_hubs,
}


def write_files(workload: Workload, directory: str) -> int:
    """Write every instance file; returns the total bytes written."""
    os.makedirs(directory, exist_ok=True)
    total = 0
    for fname, build in workload.files.items():
        text = json.dumps(build(), separators=(",", ":"))
        with open(os.path.join(directory, fname), "w") as fh:
            fh.write(text)
        total += len(text)
    return total
