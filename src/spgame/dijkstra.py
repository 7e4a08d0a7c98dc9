"""Worst-case shortest distances to a target under per-vertex blocking.

`interdicted_distances` runs a Dijkstra-like sweep maintaining, for every
unfinalized vertex, the set of outgoing arcs the blocker would remove.
Arcs enter a heap keyed by (arc cost + finalized head distance, arc index);
when the cheapest arc out of an unfinalized vertex cannot be added to the
vertex's removal set without making it dependent, that arc's key is the
vertex's final value: the blocker can force the mover to pay at least this
much, and no admissible removal can force more.  Vertices never finalized
get value infinity — there the blocker can cut the target off entirely.

The sweep performs O(|E|) heap operations and, per extraction, one try
to add the extracted arc to the vertex's removal set.  Under cardinality
and budget rules and their duals the try is one integer subtraction: the
vertex's `room`, counted down from the oracle's `cap[u]` by each removed
arc's `weight[e]`, must stay non-negative.  Other rules take one call of
the vertex's growth step (`IndependenceOracle.growth_step`): O(number of
maximal sets) for explicit rules and their duals, one rule query on the
grown set for any other rule.  Ties are broken by arc index, so results
are deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .costs import INF, Cost, divide_back, integer_image, is_finite
from .errors import InputError, InternalInvariantError, InvalidSubset, OracleViolation
from .graph import Digraph
from .independence import IndependenceOracle, sp_blocking_oracle


@dataclass(frozen=True)
class Potentials:
    """Result of a sweep: per-vertex worst-case distance to the target,
    per-vertex removal set the blocker builds, the arc whose key finalized
    each finite vertex, and the finalization order."""

    target: int
    potential: tuple[Cost, ...]
    blocked: tuple[frozenset, ...]
    witness: tuple[int | None, ...]
    order: tuple[int, ...] = field(repr=False, default=())

    @property
    def infinite_vertices(self) -> frozenset:
        return frozenset(
            u for u, p in enumerate(self.potential) if not is_finite(p)
        )

    @property
    def finite_vertices(self) -> frozenset:
        return frozenset(
            u for u, p in enumerate(self.potential) if is_finite(p)
        )

    def __getitem__(self, u: int) -> Cost:
        return self.potential[u]


def _sweep(graph, t, weights, oracle):
    n = graph.n
    finalized = [False] * n
    value: list = [None] * n
    witness: list = [None] * n
    order = [t]
    value[t] = 0
    finalized[t] = True
    tails = graph.tails
    cost, room, side = oracle.weight, oracle.cap.copy(), oracle.side
    growth: dict = {}  # growth steps of the popped side vertices
    removed = []
    heap = [(weights[e], e) for e in graph.inc[t] if not finalized[tails[e]]]
    heapq.heapify(heap)
    while heap:
        key, e = heapq.heappop(heap)
        u = tails[e]
        if finalized[u]:
            continue
        # a side vertex's room is 0, so its arcs go to its growth step
        left = room[u] - cost[e]
        if left >= 0:
            room[u] = left
            removed.append(e)
            continue
        if u in side:
            add = growth.get(u)
            if add is None:
                add = growth[u] = oracle.growth_step(u)
            if add(e):
                removed.append(e)
                continue
        value[u] = key
        witness[u] = e
        finalized[u] = True
        order.append(u)
        for e2 in graph.inc[u]:
            if not finalized[tails[e2]]:
                heapq.heappush(heap, (weights[e2] + key, e2))
    potential = tuple(value[u] if finalized[u] else INF for u in range(n))
    blocked: dict = {}
    for e in removed:
        blocked.setdefault(tails[e], []).append(e)
    removal = [frozenset()] * n
    for u, arcs in blocked.items():
        removal[u] = frozenset(arcs)
    return potential, tuple(removal), witness, order


def interdicted_distances(
    graph: Digraph,
    t: int,
    weights: Sequence,
    oracle: IndependenceOracle,
    check: bool = True,
) -> Potentials:
    """Worst-case shortest distance from every vertex to `t` when the
    blocker removes one independent arc set per vertex.  Weights must be
    non-negative exact rationals (zeros allowed).

    The sweep and `verify_potentials` run on the weights' integer image
    (`integer_image`: a game's `Metric` gives its own in O(1), any other
    sequence is imaged here), which has the same heap order, ties and
    removal sets; finite potentials are divided back by its scale once,
    on return.  The solvers pass `Metric.image`, of scale 1, and so get
    the potentials on the image, with nothing divided.  Each
    extraction costs a heap pop and, under cardinality and budget rules
    and their duals, one int subtraction from the vertex's remaining cap;
    under explicit rules and their duals, O(number of maximal sets)."""
    if graph.out[t]:
        raise InputError("target vertex must have no outgoing arcs")
    for u in range(graph.n):
        if u != t and not graph.out[u]:
            raise InputError(f"vertex {u} is a sink but not the target")
    scale, ints = integer_image(weights)
    low = min(ints, default=0)
    if low < 0:
        raise InputError(f"negative weight on arc {ints.index(low)}")
    potential, blocked, witness, order = _sweep(graph, t, ints, oracle)
    pot = Potentials(t, potential, blocked, tuple(witness), tuple(order))
    if check:
        verify_potentials(graph, t, ints, oracle, pot)
    return replace(pot, potential=divide_back(potential, scale))


def verify_potentials(graph, t, weights, oracle, pot: Potentials) -> None:
    """Self-check run after every sweep: the best-response conditions that
    make the output a certificate.  For each vertex u with removal set
    D(u): removed arcs are at most phi(u) through their head (removing a
    costlier arc would be wasted), kept arcs are at least phi(u), some kept
    arc attains it (the mover pays exactly phi(u) against D(u)), and the
    arcs costing at most phi(u) form a dependent set (no admissible removal
    forces the mover above phi(u)).  Independence is read off the oracle's
    columns (`IndependenceOracle.admits`): two sums per vertex."""
    phi = pot.potential
    if phi[t] != 0:
        raise InternalInvariantError("target potential must be zero")
    heads = graph.heads
    for u in range(graph.n):
        if u == t:
            continue
        removed = pot.blocked[u]
        if removed and not frozenset(removed).issubset(graph.out[u]):
            raise InvalidSubset(f"query at vertex {u} contains non-outgoing arcs")
        if not oracle.admits(u, removed):
            raise OracleViolation(
                f"removal set at vertex {u} is not independent"
            )
        kept_tight = None
        cheap = []
        top = phi[u]
        for e in graph.out[u]:
            pv = phi[heads[e]]
            through = weights[e] + pv if pv != INF else INF
            if e in removed:
                if through > top:
                    raise InternalInvariantError(
                        f"arc {e} removed at {u} though costlier than phi({u})"
                    )
            else:
                if through < top:
                    raise InternalInvariantError(
                        f"arc {e} kept but cheaper than phi({u})"
                    )
                if through == top:
                    kept_tight = e
            if through <= top:
                cheap.append(e)
        if kept_tight is None:
            raise InternalInvariantError(f"no kept arc attains phi({u})")
        if oracle.admits(u, cheap):
            raise InternalInvariantError(
                f"blocker could remove every arc within phi({u}) at {u}"
            )


def shortest_longest_distances(game, player: int) -> Potentials:
    """Worst-case shortest distances for `player`'s own costs: the player
    picks arcs at their vertices, the opponent forces arcs at theirs.  The
    sweep runs on the metric's integer image (`interdicted_distances`)."""
    from .game import opponent

    return interdicted_distances(
        game.graph,
        game.terminal,
        game.cost(player),
        sp_blocking_oracle(game, opponent(player)),
    )


# ---------------------------------------------------------------------------
# plain one-metric Dijkstra helpers (no blocking), used by constructions


def dist_to_target(
    graph: Digraph,
    t: int,
    weights: Sequence,
    arc_ok: Callable[[int], bool] | None = None,
) -> list:
    """Exact shortest distance from every vertex to `t` over arcs passing
    `arc_ok`; unreachable vertices get INF."""
    dist = [INF] * graph.n
    dist[t] = 0
    heap = [(0, t)]
    done = [False] * graph.n
    while heap:
        d, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for e in graph.inc[v]:
            if arc_ok is not None and not arc_ok(e):
                continue
            u = graph.tails[e]
            nd = weights[e] + d
            if not done[u] and nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def tight_path(
    graph: Digraph,
    s: int,
    t: int,
    weights: Sequence,
    dist_to_t: Sequence,
    arc_ok: Callable[[int], bool] | None = None,
) -> tuple[int, ...]:
    """Deterministic shortest (s, t)-path extraction: from each vertex take
    the lowest-index allowed arc that lies on a shortest path."""
    if not is_finite(dist_to_t[s]):
        raise InputError("target not reachable from source")
    arcs = []
    u = s
    guard = 0
    while u != t:
        step = None
        for e in graph.out[u]:
            if arc_ok is not None and not arc_ok(e):
                continue
            v = graph.heads[e]
            if is_finite(dist_to_t[v]) and weights[e] + dist_to_t[v] == dist_to_t[u]:
                step = e
                break
        if step is None:
            raise InternalInvariantError(
                f"no tight arc out of vertex {u} during path extraction"
            )
        arcs.append(step)
        u = graph.heads[step]
        guard += 1
        if guard > graph.n + graph.m:
            raise InternalInvariantError("path extraction looped")
    return tuple(arcs)
