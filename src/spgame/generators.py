"""Seeded random instances for tests and benchmarks.

All draws go through one `random.Random(seed)`, so a seed pins down the
full instance stream regardless of platform.
"""

from __future__ import annotations

import random

from .costs import is_finite
from .dijkstra import shortest_longest_distances
from .errors import InputError, NoTerminalPath
from .game import PLAYER1, PLAYER2, TERMINAL, SPGame, normalize
from .graph import Digraph
from .independence import (
    BudgetRule,
    CardinalityRule,
    IndependenceOracle,
    explicit_rule,
)
from .interdiction import InterdictionGame


class InstanceGenerator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- plain games --------------------------------------------------------

    def sp_game(
        self,
        max_vertices: int = 8,
        max_out_degree: int = 3,
        cost_range: tuple[int, int] = (1, 10),
        require: str | None = None,
        bipartize: bool = False,
        max_attempts: int = 100_000,
    ) -> SPGame:
        """One normalized positive game.  `require` filters draws:
        "both_force" keeps games where each player can force infinite
        cost; "aligned" keeps games whose worst-case distances are finite
        everywhere for both metrics (nobody can block or force)."""
        if require not in (None, "both_force", "aligned"):
            raise InputError(f"unknown filter {require!r}")
        rng = self.rng
        lo, hi = cost_range
        for _ in range(max_attempts):
            n = rng.randint(3, max_vertices)
            t = n - 1
            owner = [
                rng.choice((PLAYER1, PLAYER2)) for _ in range(n - 1)
            ] + [TERMINAL]
            pairs = []
            costs1 = []
            costs2 = []
            for u in range(n - 1):
                for _ in range(rng.randint(1, max_out_degree)):
                    pairs.append((u, rng.randrange(n)))
                    costs1.append(rng.randint(lo, hi))
                    costs2.append(rng.randint(lo, hi))
            raw = SPGame(
                Digraph.from_arcs(n, pairs),
                tuple(owner),
                0,
                tuple(costs1),
                tuple(costs2),
            )
            try:
                game = normalize(raw, bipartize=bipartize)
            except NoTerminalPath:
                continue
            if require is None:
                return game
            pot1 = shortest_longest_distances(game, PLAYER1)
            pot2 = shortest_longest_distances(game, PLAYER2)
            if require == "both_force":
                if not is_finite(pot1[game.start]) and not is_finite(
                    pot2[game.start]
                ):
                    return game
            else:
                if not pot1.infinite_vertices and not pot2.infinite_vertices:
                    return game
        raise InputError(f"no instance matching {require!r} after {max_attempts} draws")

    # -- interdiction games -------------------------------------------------

    def interdiction_game(
        self,
        max_vertices: int = 5,
        max_ground: int = 12,
        kinds: tuple[str, ...] = ("explicit", "cardinality", "budget"),
        cost_range: tuple[int, int] = (1, 10),
    ) -> InterdictionGame:
        rng = self.rng
        lo, hi = cost_range
        n = rng.randint(3, max_vertices)
        t = n - 1
        pairs = []
        costs1 = []
        costs2 = []
        budget_left = max_ground
        for u in range(n - 1):
            remaining = n - 1 - u  # vertices still needing at least one arc
            top = min(3, budget_left - (remaining - 1))
            deg = rng.randint(1, max(1, top))
            budget_left -= deg
            for _ in range(deg):
                pairs.append((u, rng.randrange(n)))
                costs1.append(rng.randint(lo, hi))
                costs2.append(rng.randint(lo, hi))
        graph = Digraph.from_arcs(n, pairs)
        rules = {}
        for u in range(n - 1):
            rules[u] = self._random_rule(graph.out[u], rng.choice(kinds))
        oracle = IndependenceOracle(graph, rules)
        return InterdictionGame(
            graph, 0, t, tuple(costs1), tuple(costs2), oracle
        )

    def _random_rule(self, arcs, kind: str):
        rng = self.rng
        deg = len(arcs)
        if kind == "cardinality":
            return CardinalityRule(rng.randint(0, deg - 1))
        if kind == "budget":
            costs = {e: rng.randint(1, 5) for e in arcs}
            return BudgetRule(costs, rng.randint(0, sum(costs.values()) - 1))
        if kind == "explicit":
            gens = []
            for _ in range(rng.randint(1, 3)):
                sub = [e for e in arcs if rng.random() < 0.5]
                if len(sub) == deg:
                    sub.remove(rng.choice(sub))
                gens.append(sub)
            return explicit_rule(gens)
        raise InputError(f"unknown oracle kind {kind!r}")


def layered_graph(
    edges: int, seed: int, back_arc_share: float = 0.05
) -> tuple[Digraph, int, tuple[int, ...]]:
    """Benchmark graph: a layered digraph flowing toward a single sink,
    with a sprinkling of backward arcs.  Returns (graph, sink, weights);
    arc count is close to `edges`."""
    rng = random.Random(seed)
    deg = 4
    width = max(2, int((edges / deg) ** 0.5 / 2))
    layers = max(2, edges // (deg * width))
    n = layers * width + 1
    t = n - 1

    def vertex(layer, slot):
        return layer * width + slot

    pairs = []
    weights = []
    for layer in range(layers):
        for slot in range(width):
            u = vertex(layer, slot)
            for _ in range(deg):
                if layer + 1 < layers:
                    if rng.random() < back_arc_share and layer > 0:
                        v = vertex(rng.randrange(layer), rng.randrange(width))
                    else:
                        v = vertex(layer + 1, rng.randrange(width))
                else:
                    v = t
                pairs.append((u, v))
                weights.append(rng.randint(1, 100))
    return Digraph.from_arcs(n, pairs), t, tuple(weights)
