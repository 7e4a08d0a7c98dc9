"""Shortest path interdiction games.

Player 1 removes an independent set of outgoing arcs at every vertex;
player 2 offers a dependent set at every vertex (so at least one offered
arc always survives).  On the surviving subgraph each player pays their
own cost of a common shortest (start, terminal)-path if one exists under
both metrics; otherwise both pay infinity.

`solve_interdiction` builds a pure Nash equilibrium: via worst-case
distances in player 2's metric when the removal oracle cannot disconnect
the terminal, via the complementary (dual) system otherwise, and as a pair
of mutually blocking strategies when both directions disconnect.

Each result is certified by `verify_potentials` on every sweep the
construction reads plus one builder, `_certified`; unlike plain games
there is no polynomial best-response check (see `InterdictionNEResult`).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Any, Mapping

from .costs import INF, Cost, Metric, _exact, is_finite
from .dijkstra import (
    Potentials,
    dist_to_target,
    interdicted_distances,
    tight_path,
)
from .errors import (
    CapExceeded,
    InputError,
    InternalInvariantError,
)
from .game import PLAYER1, PLAYER2, TERMINAL, SPGame, Situation, effective_cost
from .graph import Digraph
from .independence import IndependenceOracle, independent_sets
from .transform import reduce_costs


@dataclass(frozen=True)
class InterdictionGame:
    """`r1` and `r2` are `Metric`s, as in `SPGame`."""

    graph: Digraph
    start: int
    terminal: int
    r1: Metric
    r2: Metric
    oracle: IndependenceOracle
    names: tuple[str, ...] = ()

    def __post_init__(self):
        g = self.graph
        object.__setattr__(self, "r1", Metric.of(self.r1))
        object.__setattr__(self, "r2", Metric.of(self.r2))
        if g.out[self.terminal]:
            raise InputError("terminal vertex has outgoing arcs")
        for u in range(g.n):
            if u != self.terminal and not g.out[u]:
                raise InputError(f"vertex {u} is a sink but not the terminal")
        if len(self.r1) != g.m or len(self.r2) != g.m:
            raise InputError("cost list length does not match arc count")
        r1, r2 = self.r1.ints, self.r2.ints
        if min(r1, default=1) <= 0 or min(r2, default=1) <= 0:
            e = next(e for e in range(g.m) if r1[e] <= 0 or r2[e] <= 0)
            raise InputError(f"non-positive cost on arc {e}")
        if self.oracle.graph is not g:
            raise InputError("oracle is bound to a different graph")
        if not self.names:
            object.__setattr__(
                self, "names", tuple(f"v{u}" for u in range(g.n))
            )

    def cost(self, player: int) -> Metric:
        return self.r1 if player == PLAYER1 else self.r2

    def name(self, u: int) -> str:
        return self.names[u]


@dataclass(frozen=True)
class InterdictionSituation:
    """Player 1's removal set and player 2's offered set per vertex."""

    removed: Mapping[int, frozenset]
    offered: Mapping[int, frozenset]


@dataclass(frozen=True)
class InterdictionNEResult:
    """An equilibrium of `solve_interdiction`.

    Each sweep the construction reads passed `verify_potentials`: at every
    vertex u with removal set D(u), (a) D(u) is independent, (b) removed
    arcs cost at most phi(u) through their head, (c) kept arcs at least
    phi(u), (d) a kept arc attains phi(u), (e) the arcs within phi(u) are
    dependent.  By (c) and (a), with downward closure, an infinite-region
    vertex can sever all its arcs into the finite region; by (e) a
    finite-region vertex cannot.  In reduced costs, (b)-(e) make the
    offered nonpositive arcs dependent and the path arc the cheapest
    survivor of the removal.  `_certified` then requires an admissible
    situation whose common optimum is the path (none if cyclic).

    That pair is the whole certificate.  Unlike plain games, player 1's
    best response picks one independent set per vertex so that a path
    becomes a common shortest path under both metrics, and no polynomial
    check for it is known here: the paper's theorem on verified
    potentials carries the equilibrium property, and
    `bruteforce.verify_ne_interdiction` stays the desk-scale ground truth.
    `certificate` names the method, the branch and the path (or both
    sweeps' infinite regions), not enough to re-derive the equilibrium."""

    kind: str  # "terminal" | "cyclic"
    situation: InterdictionSituation
    path: tuple[int, ...] | None
    cost1: Cost
    cost2: Cost
    certificate: dict = field(default_factory=dict)

    def cost(self, player: int) -> Cost:
        return self.cost1 if player == PLAYER1 else self.cost2


def validate_interdiction_situation(
    game: InterdictionGame, sit: InterdictionSituation
) -> None:
    g = game.graph
    inner = {u for u in range(g.n) if u != game.terminal}
    if set(sit.removed) != inner or set(sit.offered) != inner:
        raise InputError(
            "situation must assign removal and offer sets to every "
            "non-terminal vertex"
        )
    for u in inner:
        for label, arcs in (
            ("removed", sit.removed[u]),
            ("offered", sit.offered[u]),
        ):
            foreign = sorted(set(arcs).difference(g.out[u]))
            if foreign:
                raise InputError(
                    f"{label} set at vertex {u}: arcs {foreign} do not leave it"
                )
        if not game.oracle.admits(u, sit.removed[u]):
            raise InputError(f"removal set at vertex {u} is not independent")
        if game.oracle.admits(u, sit.offered[u]):
            raise InputError(f"offered set at vertex {u} is not dependent")


def playable_arcs(game: InterdictionGame, sit: InterdictionSituation) -> set:
    arcs = set()
    for u, offered in sit.offered.items():
        arcs |= offered - sit.removed[u]
    return arcs


def interdiction_cost(
    game: InterdictionGame, sit: InterdictionSituation
) -> tuple[Cost, Cost, tuple[int, ...] | None]:
    """Cost pair of a situation, and a common shortest path if the players
    agree on one (the lowest-index one: `tight_path` over the common arcs).

    Exact, from the two distances to the terminal alone.  Call an arc
    e = (u, v) common when back_i(u) = r_i(e) + back_i(v) for both metrics
    i.  Along a path of common arcs from s these equalities telescope, so
    its costs are back_1(s) and back_2(s): it is a common optimum.
    Conversely every arc of a common optimum is common, since each of its
    suffixes is itself shortest.  Every vertex u such a path visits has
    fwd_i(u) + back_i(u) = back_i(s), so there the common arcs are exactly
    the arcs on some shortest (s, t)-path in both metrics.

    Distances and sums run on the metrics' integer images; the two costs
    are made exact on return."""
    g = game.graph
    s, t = game.start, game.terminal
    r1, r2 = game.r1.ints, game.r2.ints
    arcs = playable_arcs(game, sit)
    ok = arcs.__contains__
    back1 = dist_to_target(g, t, r1, arc_ok=ok)
    if not is_finite(back1[s]):
        return INF, INF, None
    back2 = dist_to_target(g, t, r2, arc_ok=ok)
    common = set()
    for e in arcs:
        u, v = g.tails[e], g.heads[e]
        if (
            is_finite(back1[v])
            and back1[u] == r1[e] + back1[v]
            and is_finite(back2[v])
            and back2[u] == r2[e] + back2[v]
        ):
            common.add(e)
    on_common = common.__contains__
    dist = dist_to_target(g, t, r1, arc_ok=on_common)
    if not is_finite(dist[s]):
        return INF, INF, None
    p = tight_path(g, s, t, r1, dist, arc_ok=on_common)
    if sum([r1[e] for e in p]) != back1[s] or sum([r2[e] for e in p]) != back2[s]:
        raise InternalInvariantError("extracted path is not optimal for both")
    return game.r1.value(back1[s]), game.r2.value(back2[s]), p


# ---------------------------------------------------------------------------
# equilibrium construction


def _one_sided_strategies(
    graph: Digraph,
    s: int,
    t: int,
    oracle: IndependenceOracle,
    r_choose,
    r_path,
    pot: Potentials,
):
    """Equilibrium strategies when the blocker cannot make the chooser's
    worst-case distance at `s` infinite, from a sweep that passed
    `verify_potentials` (see `InterdictionNEResult`; nothing is re-checked).

    Reduced chooser costs over the finite region put every removed arc at
    <= 0, every kept arc at >= 0 with a zero witness, and the nonpositive
    arcs form a subgraph in which the path player's cheapest (s, t)-path
    is the equilibrium play.  On that path the blocker removes only the
    arcs strictly cheaper (in reduced cost) than the path arc, which makes
    the path arc the cheapest surviving option."""
    B = pot.infinite_vertices
    U = pot.finite_vertices
    scope = [
        e
        for e in range(graph.m)
        if graph.tails[e] in U and graph.heads[e] in U
    ]
    red = reduce_costs(graph, r_choose, pot.potential, scope)

    good = {e for e in scope if red[e] <= 0}
    dist = dist_to_target(graph, t, r_path, arc_ok=good.__contains__)
    if not is_finite(dist[s]):
        raise InternalInvariantError(
            "no terminal path through nonpositive arcs"
        )
    p = tight_path(graph, s, t, r_path, dist, arc_ok=good.__contains__)

    removed: dict[int, frozenset] = {}
    offered: dict[int, frozenset] = {}
    on_path = {graph.tails[e]: e for e in p}
    for u in range(graph.n):
        if u == t:
            continue
        if u in B:
            removed[u] = frozenset(
                e for e in graph.out[u] if graph.heads[e] in U
            )
            offered[u] = frozenset(_dependent_prefix(oracle, u))
            continue
        offered[u] = frozenset(
            e for e in graph.out[u] if e in red and red[e] <= 0
        )
        if u in on_path:
            e = on_path[u]
            removed[u] = frozenset(
                x for x in pot.blocked[u] if red[x] < red[e]
            )
        else:
            removed[u] = pot.blocked[u]
    return removed, offered, p


def _dependent_prefix(oracle: IndependenceOracle, u: int) -> tuple[int, ...]:
    """The shortest dependent prefix of `u`'s outgoing arcs: where the
    running sum of the arcs' weights first exceeds the cap (weights are
    positive), or where a side rule's growth step first refuses an arc."""
    arcs = oracle.graph.out[u]
    if u in oracle.side:
        add = oracle.growth_step(u)
        k = next(i for i, e in enumerate(arcs) if not add(e))
    else:
        spent = list(accumulate(map(oracle.weight.__getitem__, arcs)))
        k = bisect_right(spent, oracle.cap[u])
    return arcs[: k + 1]


def solve_interdiction(game: InterdictionGame) -> InterdictionNEResult:
    """Pure Nash equilibrium of an interdiction game, certified as
    described in `InterdictionNEResult`."""
    g = game.graph
    s, t = game.start, game.terminal
    # sweeps and reduced costs on the integer images
    r1, r2 = game.r1.image, game.r2.image
    pot2 = interdicted_distances(g, t, r2, game.oracle, check=True)
    if is_finite(pot2[s]):
        removed, offered, p = _one_sided_strategies(
            g, s, t, game.oracle, r2.ints, r1.ints, pot2
        )
        cert: dict[str, Any] = {"method": "one-sided", "branch": "primal"}
        return _certified(game, removed, offered, p, cert)

    dual = game.oracle.dual()
    potd = interdicted_distances(g, t, r1, dual, check=True)
    if is_finite(potd[s]):
        dremoved, doffered, p = _one_sided_strategies(
            g, s, t, dual, r1.ints, r2.ints, potd
        )
        removed = {
            u: frozenset(g.out[u]) - doffered[u] for u in dremoved
        }
        offered = {
            u: frozenset(g.out[u]) - dremoved[u] for u in dremoved
        }
        cert = {"method": "one-sided", "branch": "dual"}
        return _certified(game, removed, offered, p, cert)

    # both directions disconnect: mutual blocking, everyone pays infinity
    removed = {u: pot2.blocked[u] for u in range(g.n) if u != t}
    offered = {
        u: frozenset(g.out[u]) - potd.blocked[u]
        for u in range(g.n)
        if u != t
    }
    cert = {
        "method": "cyclic",
        "infinite_region_primal": tuple(sorted(pot2.infinite_vertices)),
        "infinite_region_dual": tuple(sorted(potd.infinite_vertices)),
    }
    return _certified(game, removed, offered, None, cert)


def _certified(game, removed, offered, p, cert) -> InterdictionNEResult:
    """The one builder of `InterdictionNEResult`: the situation must be
    admissible and realize the path `p` in both players' costs, or, when
    `p` is None, have no common optimum (both pay infinity)."""
    sit = InterdictionSituation(dict(removed), dict(offered))
    try:
        validate_interdiction_situation(game, sit)
    except InputError as exc:
        raise InternalInvariantError(f"constructed situation: {exc}") from exc
    # the costs are finite exactly when a common optimum exists
    c1, c2, _ = interdiction_cost(game, sit)
    want = (INF, INF)
    if p is not None:
        want = (effective_cost(p, game.r1), effective_cost(p, game.r2))
    if (c1, c2) != want:
        raise InternalInvariantError(
            "constructed situation does not realize the intended play"
        )
    if p is None:
        return InterdictionNEResult("cyclic", sit, None, INF, INF, cert)
    return InterdictionNEResult("terminal", sit, p, c1, c2, {**cert, "path": p})


# ---------------------------------------------------------------------------
# reduction to a plain game


@dataclass(frozen=True)
class ReductionResult:
    """Plain-game encoding of an interdiction game.

    Original vertices become player 1's (choosing a removal set = moving
    to a copy vertex); each copy (u, I) belongs to player 2, whose arcs
    realize the surviving original arcs.  A fixed potential shift keeps
    every cost positive without changing any (s, t)-path cost."""

    sp_game: SPGame
    start: int
    copy_of: dict  # (u, I) -> copy vertex id
    choose_arc: dict  # sp arc id -> (u, I)
    move_arc: dict  # sp arc id -> (u, I, original arc id)

    def lift_situation(self, sit: Situation) -> InterdictionSituation:
        """Plain-game situation -> interdiction situation: the removal set
        is read off player 1's move, the offered set collects player 2's
        choices over every copy of the vertex."""
        removed = {}
        offered: dict[int, set] = {}
        for u, e in sit.sigma1.items():
            removed[u] = frozenset(self.choose_arc[e][1])
        for _, e in sit.sigma2.items():
            u, _, orig = self.move_arc[e]
            offered.setdefault(u, set()).add(orig)
        return InterdictionSituation(
            removed, {u: frozenset(a) for u, a in offered.items()}
        )

    def push_situation(self, sit: InterdictionSituation) -> Situation:
        """Interdiction situation -> plain-game situation (lowest-index
        realization of the offered sets)."""
        sigma1 = {}
        sigma2 = {}
        g = self.sp_game.graph
        for u, I in sit.removed.items():
            copy = self.copy_of.get((u, frozenset(I)))
            if copy is None:
                raise InputError(
                    f"removal set at vertex {u} is not one of the encoded "
                    "independent sets"
                )
            # a copy vertex's only in-arc is its choose arc
            sigma1[u] = g.inc[copy][0]
        for e, (u, I, orig) in sorted(self.move_arc.items()):
            copy = g.tails[e]
            if copy in sigma2:
                continue
            if orig in sit.offered[u]:
                sigma2[copy] = e
        return Situation(sigma1, sigma2)


def reduce_to_sp(game: InterdictionGame, cap: int = 100_000) -> ReductionResult:
    """Encode an interdiction game as a plain game by enumerating every
    removal set.  Exponential in general; guarded by `cap` on the total
    number of copies."""
    g = game.graph
    t = game.terminal
    fams: dict[int, list[frozenset]] = {}
    total = 0
    for u in range(g.n):
        if u == t:
            continue
        fams[u] = independent_sets(game.oracle, u)
        total += len(fams[u])
        if total > cap:
            raise CapExceeded(
                f"reduction needs {total}+ copies, cap is {cap}"
            )

    delta = _exact(Fraction(min(min(game.r1), min(game.r2)), 2))
    n = g.n
    owner = [PLAYER1] * g.n
    owner[t] = TERMINAL
    names = list(game.names)
    pairs: list[tuple[int, int]] = []
    r1: list[Cost] = []
    r2: list[Cost] = []
    copy_of = {}
    choose_arc = {}
    move_arc = {}
    for u in sorted(fams):
        for I in fams[u]:
            copy = n
            n += 1
            owner.append(PLAYER2)
            names.append(f"{game.names[u]}|{'+'.join(map(str, sorted(I))) or 'o'}")
            copy_of[(u, I)] = copy
            choose_arc[len(pairs)] = (u, I)
            pairs.append((u, copy))
            r1.append(delta)
            r2.append(delta)
            for e in g.out[u]:
                if e in I:
                    continue
                move_arc[len(pairs)] = (u, I, e)
                pairs.append((copy, g.heads[e]))
                r1.append(_exact(game.r1[e] - delta))
                r2.append(_exact(game.r2[e] - delta))

    sp = SPGame(
        Digraph.from_arcs(n, pairs),
        tuple(owner),
        game.start,
        tuple(r1),
        tuple(r2),
        tuple(names),
    )
    return ReductionResult(sp, game.start, copy_of, choose_arc, move_arc)
