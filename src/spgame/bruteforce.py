"""Exhaustive ground-truth checks, sized for verification, not for speed.

Everything here answers questions by enumeration: all unilateral strategy
deviations, all admissible removal subgraphs, all situations with terminal
plays.  These are the oracles the constructive solvers are tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Sequence

from .costs import Cost, is_finite
from .dijkstra import dist_to_target
from .errors import CapExceeded
from .game import (
    PLAYER1,
    PLAYER2,
    Play,
    SPGame,
    Situation,
    play_of,
)
from .graph import Digraph
from .independence import (
    IndependenceOracle,
    dependent_sets,
    independent_sets,
    maximal_independent_sets,
)
from .interdiction import (
    InterdictionGame,
    InterdictionSituation,
    interdiction_cost,
)
from .ne import response_distances


def default_cap() -> int:
    raw = os.environ.get("SPGAME_CAP", "")
    return int(raw) if raw.isdigit() else 1_000_000


@dataclass(frozen=True)
class VerifyResult:
    is_ne: bool
    player: int | None = None
    deviation: object = None
    improved_cost: Cost | None = None

    def __bool__(self) -> bool:
        return self.is_ne


def verify_ne(game: SPGame, sit: Situation, cap: int | None = None) -> VerifyResult:
    """Literal deviation check: replay the game under every alternative
    strategy of each player, keeping the other fixed."""
    cap = cap if cap is not None else default_cap()
    base = play_of(game, sit)
    for player in (PLAYER1, PLAYER2):
        own = game.vertices_of(player)
        outs = [game.graph.out[u] for u in own]
        count = prod(len(o) for o in outs) if outs else 1
        if count > cap:
            raise CapExceeded(
                f"player {player} has {count} strategies, cap is {cap}"
            )
        fixed = sit.sigma2 if player == PLAYER1 else sit.sigma1
        for choice in product(*outs):
            sigma = dict(zip(own, choice))
            trial = (
                Situation(sigma, fixed)
                if player == PLAYER1
                else Situation(fixed, sigma)
            )
            play = play_of(game, trial)
            if play.cost(player) < base.cost(player):
                return VerifyResult(False, player, trial, play.cost(player))
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# interdiction


def _removal_assignments(game, cap, maximal_only=False):
    inner = [u for u in range(game.graph.n) if u != game.terminal]
    fams = [
        maximal_independent_sets(game.oracle, u)
        if maximal_only
        else independent_sets(game.oracle, u)
        for u in inner
    ]
    count = prod(len(f) for f in fams) if fams else 1
    if count > cap:
        raise CapExceeded(f"{count} removal assignments, cap is {cap}")
    return inner, fams


def verify_ne_interdiction(
    game: InterdictionGame, sit: InterdictionSituation, cap: int | None = None
) -> VerifyResult:
    """Deviation check over all removal-set assignments of player 1 and
    all offered-set assignments of player 2."""
    cap = cap if cap is not None else default_cap()
    c1, c2, _ = interdiction_cost(game, sit)

    inner, fams = _removal_assignments(game, cap)
    for choice in product(*fams):
        trial = InterdictionSituation(dict(zip(inner, choice)), sit.offered)
        cost = interdiction_cost(game, trial)[0]
        if cost < c1:
            return VerifyResult(False, PLAYER1, trial, cost)

    offers = [dependent_sets(game.oracle, u) for u in inner]
    count = prod(len(f) for f in offers) if offers else 1
    if count > cap:
        raise CapExceeded(f"{count} offer assignments, cap is {cap}")
    for choice in product(*offers):
        trial = InterdictionSituation(sit.removed, dict(zip(inner, choice)))
        cost = interdiction_cost(game, trial)[1]
        if cost < c2:
            return VerifyResult(False, PLAYER2, trial, cost)
    return VerifyResult(True)


def exhaustive_phi(
    graph: Digraph,
    t: int,
    weights: Sequence,
    oracle: IndependenceOracle,
    cap: int | None = None,
    maximal_only: bool = False,
) -> tuple[Cost, ...]:
    """Ground truth for the sweep: per vertex, the maximum over all
    admissible removal assignments of the plain shortest distance to `t`.
    Enumerates every assignment (or only maximal removal sets, which give
    the same maxima since removing more never shortens a path)."""
    cap = cap if cap is not None else default_cap()
    inner = [u for u in range(graph.n) if graph.out[u]]
    fams = [
        maximal_independent_sets(oracle, u)
        if maximal_only
        else independent_sets(oracle, u)
        for u in inner
    ]
    count = prod(len(f) for f in fams) if fams else 1
    if count > cap:
        raise CapExceeded(f"{count} removal assignments, cap is {cap}")
    best = [None] * graph.n
    for choice in product(*fams):
        removed = set().union(*choice) if choice else set()
        dist = dist_to_target(
            graph, t, weights, arc_ok=lambda e: e not in removed
        )
        for u in range(graph.n):
            if best[u] is None or dist[u] > best[u]:
                best[u] = dist[u]
    return tuple(best)


# ---------------------------------------------------------------------------
# terminal equilibrium search


@dataclass(frozen=True)
class SearchResult:
    found: bool
    situation: Situation | None
    play: Play | None
    scanned: int
    terminal_plays: int


def search_terminal_ne(
    game: SPGame, cap: int | None = None
) -> SearchResult:
    """Scan all situations for one whose play terminates and admits no
    improving deviation.  A situation is an equilibrium iff each player's
    play cost matches their best-response distance against the other's
    fixed strategy, so the scan needs one shortest-path run per strategy,
    not per situation; any hit is confirmed with the literal `verify_ne`
    before being returned."""
    cap = cap if cap is not None else default_cap()
    g = game.graph
    v1 = game.vertices_of(PLAYER1)
    v2 = game.vertices_of(PLAYER2)
    s1_count = prod(len(g.out[u]) for u in v1) if v1 else 1
    s2_count = prod(len(g.out[u]) for u in v2) if v2 else 1
    if s1_count * s2_count > cap:
        raise CapExceeded(
            f"{s1_count * s2_count} situations, cap is {cap}"
        )

    all_s1 = [
        dict(zip(v1, choice))
        for choice in product(*(g.out[u] for u in v1))
    ]
    all_s2 = [
        dict(zip(v2, choice))
        for choice in product(*(g.out[u] for u in v2))
    ]
    # best-response value for the *other* player against each strategy
    s = game.start
    # distances on the integer images, compared with the play's sums there
    value_against_s1 = [response_distances(game, PLAYER2, f)[s] for f in all_s1]
    value_against_s2 = [response_distances(game, PLAYER1, f)[s] for f in all_s2]
    r1, r2 = game.r1.ints, game.r2.ints

    scanned = 0
    terminal_plays = 0
    for i, sigma1 in enumerate(all_s1):
        if not is_finite(value_against_s1[i]):
            scanned += len(all_s2)
            continue  # no play under sigma1 can terminate
        for j, sigma2 in enumerate(all_s2):
            scanned += 1
            sit = Situation(sigma1, sigma2)
            play = play_of(game, sit)
            if not play.is_terminal:
                continue
            terminal_plays += 1
            if (
                sum(map(r1.__getitem__, play.arcs)) == value_against_s2[j]
                and sum(map(r2.__getitem__, play.arcs)) == value_against_s1[i]
            ):
                check = verify_ne(game, sit, cap=cap)
                if not check.is_ne:
                    raise AssertionError(
                        "distance test accepted a situation the literal "
                        "verifier rejects"
                    )
                return SearchResult(True, sit, play, scanned, terminal_plays)
    return SearchResult(False, None, None, scanned, terminal_plays)
