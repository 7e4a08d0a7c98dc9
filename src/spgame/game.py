"""Two-person shortest path games on digraphs.

A game is a digraph whose non-terminal vertices are owned by player 1 or
player 2, a start vertex, and one positive rational cost per arc and
player, each player's held as a `Metric` (integer image and scale).  A
pair of positional strategies traces a unique play from the start:
either a path ending at a terminal (each player pays the sum of their
own arc costs) or a lasso (both pay infinity, since costs are positive).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping

from ._gc import paused
from .costs import INF, Cost, Metric, _exact, integer_image
from .errors import InputError, NoTerminalPath
from .graph import Digraph, min_mean_cycle, reachable_from, reaches

TERMINAL = 0
PLAYER1 = 1
PLAYER2 = 2


def opponent(player: int) -> int:
    return 3 - player


@dataclass(frozen=True)
class SPGame:
    """`r1` and `r2` are `Metric`s; costs given as a sequence of ints and
    Fractions are imaged once, here."""

    graph: Digraph
    owner: tuple[int, ...]
    start: int
    r1: Metric
    r2: Metric
    names: tuple[str, ...] = ()

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "r1", Metric.of(self.r1))
        object.__setattr__(self, "r2", Metric.of(self.r2))
        if len(self.owner) != g.n:
            raise InputError("owner list length does not match vertex count")
        if not 0 <= self.start < g.n:
            raise InputError("start vertex out of range")
        if len(self.r1) != g.m or len(self.r2) != g.m:
            raise InputError("cost list length does not match arc count")
        for u in range(g.n):
            has_out = bool(g.out[u])
            if self.owner[u] == TERMINAL and has_out:
                raise InputError(f"terminal vertex {u} has outgoing arcs")
            if self.owner[u] != TERMINAL and not has_out:
                raise InputError(f"vertex {u} has no outgoing arcs but is not terminal")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"v{u}" for u in range(g.n))
            )
        elif len(self.names) != g.n:
            raise InputError("name list length does not match vertex count")

    def cost(self, player: int) -> Metric:
        return self.r1 if player == PLAYER1 else self.r2

    def vertices_of(self, player: int) -> tuple[int, ...]:
        return tuple(u for u in range(self.graph.n) if self.owner[u] == player)

    @property
    def terminals(self) -> tuple[int, ...]:
        return self.vertices_of(TERMINAL)

    @property
    def terminal(self) -> int:
        ts = self.terminals
        if len(ts) != 1:
            raise InputError(f"expected a unique terminal, found {len(ts)}")
        return ts[0]

    def name(self, u: int) -> str:
        return self.names[u]


@dataclass(frozen=True)
class Situation:
    """One chosen outgoing arc per non-terminal vertex, split by owner."""

    sigma1: Mapping[int, int]
    sigma2: Mapping[int, int]

    def move(self, u: int) -> int | None:
        if u in self.sigma1:
            return self.sigma1[u]
        return self.sigma2.get(u)


@dataclass(frozen=True)
class Play:
    """Arc sequence traced by a situation.  `cycle_start` is None for a
    terminal play; otherwise arcs[cycle_start:] repeat forever."""

    arcs: tuple[int, ...]
    cycle_start: int | None
    cost1: Cost
    cost2: Cost

    @property
    def is_terminal(self) -> bool:
        return self.cycle_start is None

    @property
    def kind(self) -> str:
        return "terminal" if self.is_terminal else "lasso"

    @property
    def stem(self) -> tuple[int, ...]:
        return self.arcs if self.is_terminal else self.arcs[: self.cycle_start]

    @property
    def cycle(self) -> tuple[int, ...]:
        return () if self.is_terminal else self.arcs[self.cycle_start :]

    def cost(self, player: int) -> Cost:
        return self.cost1 if player == PLAYER1 else self.cost2

    def vertices(self, game: SPGame) -> tuple[int, ...]:
        seq = [game.start]
        for e in self.arcs:
            seq.append(game.graph.heads[e])
        return tuple(seq)


def validate_situation(game: SPGame, sit: Situation) -> None:
    g = game.graph
    for player, sigma in ((PLAYER1, sit.sigma1), (PLAYER2, sit.sigma2)):
        owned = set(game.vertices_of(player))
        if set(sigma) != owned:
            raise InputError(
                f"player {player} strategy must cover exactly their vertices"
            )
        for u, e in sigma.items():
            if not (0 <= e < g.m) or g.tails[e] != u:
                raise InputError(f"strategy entry {u}->{e} is not an outgoing arc")


def effective_cost(arcs, weights) -> Cost:
    """Sum of `weights` over an arc sequence (exact): an `int` when every
    weight summed is one.  A `Metric` is summed on its integer image."""
    if type(weights) is Metric:
        return weights.value(sum(map(weights.ints.__getitem__, arcs)))
    return sum(weights[e] for e in arcs)


def play_of(game: SPGame, sit: Situation) -> Play:
    """Trace the unique play of a situation from the start vertex."""
    g = game.graph
    at: dict[int, int] = {}  # vertex -> position in arc sequence
    arcs: list[int] = []
    u = game.start
    while game.owner[u] != TERMINAL:
        if u in at:
            start = at[u]
            return Play(tuple(arcs), start, INF, INF)
        at[u] = len(arcs)
        e = sit.move(u)
        if e is None or g.tails[e] != u:
            raise InputError(f"situation has no valid move at vertex {u}")
        arcs.append(e)
        u = g.heads[e]
    seq = tuple(arcs)
    return Play(
        seq,
        None,
        effective_cost(seq, game.r1),
        effective_cost(seq, game.r2),
    )


def situations(game: SPGame) -> Iterator[Situation]:
    """All situations, in lowest-arc-index lexicographic order."""
    from itertools import product

    v1 = game.vertices_of(PLAYER1)
    v2 = game.vertices_of(PLAYER2)
    outs = game.graph.out
    for choice in product(*(outs[u] for u in v1 + v2)):
        k = len(v1)
        yield Situation(
            dict(zip(v1, choice[:k])), dict(zip(v2, choice[k:]))
        )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def positive_costs(game: SPGame) -> CheckResult:
    """The `positive_costs` row of `validate`: a cost's sign is its
    image's, so a `min` over each int column decides it, and only a
    failing game's arcs are walked."""
    r1, r2 = game.r1.ints, game.r2.ints
    bad = []
    if min(r1, default=1) <= 0 or min(r2, default=1) <= 0:
        bad = [e for e, (a, b) in enumerate(zip(r1, r2)) if a <= 0 or b <= 0]
    return CheckResult(
        "positive_costs",
        not bad,
        "" if not bad else f"non-positive cost on arcs {bad[:5]}",
    )


def validate(game: SPGame) -> ValidationReport:
    """Structural report: positivity, reachability both ways, absence of
    non-positive cycles, and existence of a terminal play.  Positive costs
    imply positive cycles, so Karp's min-mean-cycle runs only when some
    cost is not positive."""
    g = game.graph
    positive = positive_costs(game)
    checks = [positive]

    ts = game.terminals
    checks.append(
        CheckResult(
            "single_terminal", len(ts) == 1, f"{len(ts)} terminal vertices"
        )
    )

    seen = reachable_from(g, game.start)
    unreachable = sorted(set(range(g.n)) - seen)
    checks.append(
        CheckResult(
            "start_reaches_all",
            not unreachable,
            "" if not unreachable else f"unreachable vertices {unreachable[:5]}",
        )
    )

    to_t: set[int] = set()
    for t in ts:
        to_t |= reaches(g, t)
    stranded = sorted(set(range(g.n)) - to_t)
    checks.append(
        CheckResult(
            "all_reach_terminal",
            not stranded,
            "" if not stranded else f"vertices never reaching a terminal {stranded[:5]}",
        )
    )

    path_ok = any(t in seen for t in ts)
    checks.append(
        CheckResult("terminal_play_exists", path_ok, "" if path_ok else "no play can terminate")
    )

    for label, weights in (("r1", game.r1), ("r2", game.r2)):
        if positive.ok:  # no need for Karp's O(n*m) table
            checks.append(
                CheckResult(
                    f"positive_cycles_{label}", True, "implied by positive costs"
                )
            )
            continue
        mmc = min_mean_cycle(g, weights)
        ok = mmc is None or mmc > 0
        checks.append(
            CheckResult(
                f"positive_cycles_{label}",
                ok,
                "acyclic" if mmc is None else f"min mean cycle {mmc}",
            )
        )

    return ValidationReport(tuple(checks))


# ---------------------------------------------------------------------------
# normalization


@paused
def normalize_with_maps(game: SPGame, bipartize: bool = False):
    """Like `normalize` but also returns the vertex and arc index maps
    from the input game to the result.  `vmap` has an entry for every
    surviving vertex; `amap` has one for every surviving arc, arcs into
    merged-away terminals included, and sends a split arc to its first
    half.  A game with one terminal, no vertex the start cannot reach and,
    with `bipartize`, no arc between two vertices of one player comes back
    as it is, with identity maps."""
    g = game.graph
    owner = game.owner
    ts = game.terminals
    if not ts:
        raise NoTerminalPath("game has no terminal vertex")
    # terminals have no out-arcs, so merging them changes no other
    # vertex's reachability: one search on the input graph decides both
    seen = reachable_from(g, game.start)
    if not any(owner[u] == TERMINAL for u in seen):
        raise NoTerminalPath("no terminal vertex is reachable from the start")
    tails, heads = g.tails, g.heads
    if len(ts) == 1 and len(seen) == g.n and not (
        bipartize and any(owner[u] == owner[v] for u, v in zip(tails, heads))
    ):
        return game, dict(enumerate(range(g.n))), dict(enumerate(range(g.m)))
    t0 = game.start if game.start in ts else ts[0]
    names = list(game.names)
    if len(ts) > 1:
        taken = {names[u] for u in range(g.n) if owner[u] != TERMINAL or u == t0}
        taken.discard(names[t0])
        tname = "t"
        while tname in taken:
            tname += "*"
        names[t0] = tname

    vmap = {}
    for u in range(g.n):
        if u == t0 or (owner[u] != TERMINAL and u in seen):
            vmap[u] = len(vmap)
    index = [-1] * g.n  # -1: pruned
    for u, w in vmap.items():
        index[u] = w
    for t in ts:
        index[t] = vmap[t0]
    new_owner = [owner[u] for u in vmap]
    new_names = [names[u] for u in vmap]
    taken = set(new_names) if bipartize else None  # names midpoints avoid
    new_tails, new_heads = [], []
    source = []  # per new arc, the input arc it comes from; ~e: half of e
    split = False
    amap = {}
    for e, (u, v) in enumerate(zip(tails, heads)):
        a, b = index[u], index[v]
        if a < 0:
            continue
        amap[e] = len(new_tails)
        # tails are never terminals, so equal owners mean one player moves twice
        if bipartize and new_owner[a] == new_owner[b]:
            mid = len(new_owner)
            new_owner.append(opponent(new_owner[a]))
            # len(amap) - 1 is the arc's index after pruning
            mname = f"{new_names[a]}~{new_names[b]}#{len(amap) - 1}"
            while mname in taken:
                mname += "*"
            taken.add(mname)
            new_names.append(mname)
            new_tails += (a, mid)
            new_heads += (mid, b)
            source += (~e, ~e)
            split = True
        else:
            new_tails.append(a)
            new_heads.append(b)
            source.append(e)
    out = SPGame(
        Digraph.from_columns(len(new_owner), new_tails, new_heads),
        tuple(new_owner),
        vmap[game.start],
        _compressed(game.r1, source, split),
        _compressed(game.r2, source, split),
        tuple(new_names),
    )
    return out, vmap, amap


def _compressed(metric: Metric, source, split: bool) -> Metric:
    """`metric` on the arcs `source` lists; if `split`, `~e` stands for
    half of arc `e`, and the scale doubles."""
    if not split:
        ints = metric.ints
        return Metric.reduced([ints[e] for e in source], metric.scale)
    scale, ints = integer_image(metric)
    halved = [2 * ints[e] if e >= 0 else ints[~e] for e in source]
    return Metric.reduced(halved, 2 * scale)


def normalize(game: SPGame, bipartize: bool = False) -> SPGame:
    """Merge all terminals into one and drop the vertices the start cannot
    reach, in one pass; with `bipartize`, also split every arc joining two
    vertices of the same player so moves alternate.

    Vertices and arcs keep their input order.  With two or more terminals,
    the kept one is the start if it is a terminal, else the lowest-index
    terminal, and it is renamed `t` (then `t*`, `t**`, ... while another
    non-terminal vertex has the name).  A split arc `e` from `u` to `v`
    gets the midpoint `"{u}~{v}#{e}"` (then with `*`, `**`, ... appended
    while a kept vertex or an earlier midpoint has the name), numbered
    after every kept vertex and owned by the other player, with `e` the
    arc's index after pruning, and each half costs half as much.  Play
    costs of corresponding situations are preserved exactly.  Raises NoTerminalPath if the game
    has no terminal or no play can terminate."""
    out, _, _ = normalize_with_maps(game, bipartize)
    return out


# ---------------------------------------------------------------------------
# the decreasing-cost family used in tests and docs


def caterpillar(depth: int) -> SPGame:
    """One-player game on a path of `depth` + 1 choice vertices: the k-th
    main arc costs 4**-k and the exit arc after k moves costs 2 * 4**-k, so
    terminating later is always strictly cheaper.  Both players are charged
    the same costs; all choice vertices belong to player 1."""
    if depth < 1:
        raise InputError("depth must be at least 1")
    n = depth + 2  # choice vertices 0..depth, terminal = depth + 1
    t = n - 1
    pairs = []
    costs: list[int | Fraction] = []
    for k in range(depth + 1):
        pairs.append((k, t))
        costs.append(_exact(2 * Fraction(1, 4) ** k))
        if k < depth:
            pairs.append((k, k + 1))
            costs.append(_exact(Fraction(1, 4) ** k))
    owner = tuple([PLAYER1] * (depth + 1) + [TERMINAL])
    names = tuple([f"p{k}" for k in range(depth + 1)] + ["t"])
    g = Digraph.from_arcs(n, pairs)
    return SPGame(g, owner, 0, tuple(costs), tuple(costs), names)
