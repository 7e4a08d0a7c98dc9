"""Equilibrium construction for two-person positive shortest path games.

Every finite positive game has a pure positional Nash equilibrium, found by
case analysis on who can force the play to cycle forever:

* if some player cannot force infinite cost, the other player's worst-case
  distances yield reduced costs whose zero arcs carry a terminal
  equilibrium (built here, certified by the best-response check);
* if both players can force, the two forcing strategies together form a
  cyclic equilibrium where both pay infinity.

The module also exposes the no-blocking pipeline: when worst-case
distances are finite everywhere for both metrics, both reduced cost maps
align (zero minima at the owner's vertices, zero maxima at the other's)
and a combined zero-arc construction produces a terminal equilibrium
directly from the two maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._gc import paused
from .costs import INF, Cost, is_finite
from .dijkstra import (
    Potentials,
    dist_to_target,
    interdicted_distances,
    shortest_longest_distances,
    tight_path,
)
from .errors import (
    BlockerExists,
    InternalInvariantError,
    PreconditionViolated,
    WeakPlayerCanForce,
)
from .game import (
    PLAYER1,
    PLAYER2,
    TERMINAL,
    Play,
    SPGame,
    Situation,
    opponent,
    play_of,
)
from .independence import sp_blocking_oracle
from .transform import reduce_costs


@dataclass(frozen=True)
class ForceResult:
    answer: bool
    strategy: dict | None = None


@dataclass(frozen=True)
class BlockResult:
    answer: bool
    cut_vertices: frozenset = frozenset()
    strategy: dict | None = None


@dataclass(frozen=True)
class NEResult:
    """An equilibrium that passed the best-response check.  The check
    covers `situation`, `play` and the costs, and so the certificate's
    `path`, which is the play.  The certificate's `potential` and infinite
    regions are the sweep output the construction started from; `solve`
    does not re-check them, so they are hints (`shortest_longest_distances`
    recomputes them with `verify_potentials`)."""

    kind: str  # "terminal" | "cyclic"
    situation: Situation
    play: Play
    cost1: Cost
    cost2: Cost
    certificate: dict = field(default_factory=dict)

    def cost(self, player: int) -> Cost:
        return self.cost1 if player == PLAYER1 else self.cost2


# ---------------------------------------------------------------------------
# best responses: the certificate of every equilibrium built here


def _response_arcs(game: SPGame, player: int, fixed_sigma) -> list[bool]:
    """Per arc: may `player` use it while the opponent's vertices are fixed
    to `fixed_sigma`?"""
    opp = opponent(player)
    owner = game.owner
    allowed = [owner[u] != opp for u in game.graph.tails]
    for e in fixed_sigma.values():
        allowed[e] = True
    return allowed


def response_distances(game: SPGame, player: int, fixed_sigma) -> list:
    """Shortest distance in `player`'s costs, on their integer image, from
    every vertex to the terminal when the opponent's vertices are fixed to
    `fixed_sigma`: the best `player` can do from each vertex against that
    strategy.  With positive costs an optimal play is a simple path, so a
    positional strategy attains it."""
    allowed = _response_arcs(game, player, fixed_sigma)
    return dist_to_target(
        game.graph, game.terminal, game.cost(player).ints, arc_ok=allowed.__getitem__
    )


def best_response_value(game: SPGame, sit: Situation, player: int) -> Cost:
    """Cheapest cost `player` can achieve from the start against the fixed
    opponent part of `sit`."""
    fixed = sit.sigma2 if player == PLAYER1 else sit.sigma1
    distance = response_distances(game, player, fixed)[game.start]
    return game.cost(player).value(distance)


def verify_ne_by_distances(game: SPGame, sit: Situation) -> bool:
    """Polynomial equilibrium check: no player's best response against the
    other's fixed strategy beats their cost in the play of `sit`."""
    base = play_of(game, sit)
    return all(
        base.cost(p) <= best_response_value(game, sit, p)
        for p in (PLAYER1, PLAYER2)
    )


def _certified(
    game: SPGame, sit: Situation, certificate: dict, known: dict | None = None
) -> NEResult:
    """The one place results are built: trace the play, then require that
    neither player has a cheaper best response, comparing sums of the
    integer images.  `known` holds best-response values the construction
    already took from `response_distances` against `sit`.  A terminal
    play's arcs are recorded as the certificate's path."""
    play = play_of(game, sit)
    known = known or {}
    for player, fixed in ((PLAYER1, sit.sigma2), (PLAYER2, sit.sigma1)):
        metric = game.cost(player)
        if player in known:
            best = known[player]
        else:
            best = response_distances(game, player, fixed)[game.start]
        cost = INF
        if play.is_terminal:
            cost = sum(map(metric.ints.__getitem__, play.arcs))
        if best < cost:
            raise InternalInvariantError(
                f"player {player} can deviate from cost {play.cost(player)} "
                f"to {metric.value(best)}"
            )
    if not play.is_terminal:
        kind = "cyclic"
    else:
        kind = "terminal"
        certificate = {**certificate, "path": play.arcs}
    return NEResult(kind, sit, play, play.cost1, play.cost2, certificate)


# ---------------------------------------------------------------------------
# forcing and blocking


def _forcing_strategy(game: SPGame, pot: Potentials, blocker: int) -> dict:
    """One arc per blocker vertex that keeps every play starting in the
    infinite region inside it forever."""
    g = game.graph
    B = pot.infinite_vertices
    sigma = {}
    for u in game.vertices_of(blocker):
        if u in B:
            pick = next((e for e in g.out[u] if g.heads[e] in B), g.out[u][0])
        else:
            pick = g.out[u][0]
        sigma[u] = pick
    return sigma


def _certified_forcing(
    game: SPGame, pot: Potentials, player: int, cut
) -> dict:
    """`player`'s forcing strategy, checked to leave the opponent no path
    to the terminal from any vertex of `cut`."""
    sigma = _forcing_strategy(game, pot, player)
    dist = response_distances(game, opponent(player), sigma)
    if any(is_finite(dist[u]) for u in cut):
        raise InternalInvariantError(
            f"player {player}'s forcing strategy leaves a terminal path"
        )
    return sigma


def can_force_infinite(game: SPGame, player: int) -> ForceResult:
    """Can `player` fix a strategy under which no play from the start
    reaches the terminal?  True iff the opponent's worst-case distance at
    the start is infinite; returns a forcing strategy as witness."""
    pot = shortest_longest_distances(game, opponent(player))
    if is_finite(pot[game.start]):
        return ForceResult(False)
    return ForceResult(
        True, _certified_forcing(game, pot, player, (game.start,))
    )


def can_block(game: SPGame, player: int) -> BlockResult:
    """Can `player` cut the terminal off from some nonempty vertex set not
    containing the start?  A single positional strategy cuts every vertex
    of the infinite region simultaneously."""
    pot = shortest_longest_distances(game, opponent(player))
    cut = pot.infinite_vertices - {game.start}
    if not cut:
        return BlockResult(False)
    return BlockResult(
        True, frozenset(cut), _certified_forcing(game, pot, player, cut)
    )


# ---------------------------------------------------------------------------
# reduced-cost alignment


def aligned_reduced_costs(
    game: SPGame,
) -> tuple[dict, dict, Potentials, Potentials]:
    """Both players' worst-case distances, turned into reduced cost maps.
    Requires every distance finite (raises BlockerExists otherwise).

    The maps are aligned with no further check: both sweeps passed
    `verify_potentials` under the plain-game oracle (nothing removable at
    the owner's vertices, every arc but one at the opponent's).  For the
    owner, kept arcs cost at least phi(u) and one attains it, so the
    owner's reduced costs have minimum exactly zero; for the opponent, the
    arcs within phi(u) form a dependent set, which under that oracle means
    every arc, and a kept arc attains phi(u), so the opponent's reduced
    costs have maximum exactly zero.  The maps are on the metrics'
    integer images (see `Potentials`): each player's reduced costs times
    their metric's positive scale, with the same signs and zeros."""
    pot1 = shortest_longest_distances(game, PLAYER1)
    pot2 = shortest_longest_distances(game, PLAYER2)
    for player, pot in ((PLAYER1, pot1), (PLAYER2, pot2)):
        if pot.infinite_vertices:
            raise BlockerExists(
                f"worst-case distance for player {player} is infinite at "
                f"vertices {sorted(pot.infinite_vertices)}"
            )
    red1 = reduce_costs(game.graph, game.r1.ints, pot1.potential.ints)
    red2 = reduce_costs(game.graph, game.r2.ints, pot2.potential.ints)
    return red1, red2, pot1, pot2


def ne_from_zero_reduced_costs(
    game: SPGame, red1: dict, red2: dict
) -> NEResult:
    """Terminal equilibrium from two aligned reduced cost maps, each a
    dict from arc to reduced cost as `reduce_costs` returns it.

    Preconditions, checked per non-terminal vertex u with owner i: the
    owner's reduced costs have minimum zero; some arc has owner-reduced
    cost zero and other-reduced cost at most zero; and some arc has
    other-reduced cost exactly zero.  The chosen zero/nonpositive arcs form
    an acyclic choice graph whose path from the start is the equilibrium
    play; off the play each owner offers the opponent a zero-cost arc."""
    g = game.graph
    own = {PLAYER1: red1, PLAYER2: red2}

    chosen: dict[int, int] = {}
    for u in range(g.n):
        i = game.owner[u]
        if i == TERMINAL:
            continue
        red_i, red_j = own[i], own[opponent(i)]
        for e in g.out[u]:
            if e not in red_i or e not in red_j:
                raise PreconditionViolated(f"arc {e} has no reduced cost")
        if min(red_i[e] for e in g.out[u]) != 0:
            raise PreconditionViolated(
                f"vertex {u}: owner's reduced costs do not bottom out at 0"
            )
        pick = next(
            (
                e
                for e in g.out[u]
                if red_i[e] == 0 and red_j[e] <= 0
            ),
            None,
        )
        if pick is None:
            raise PreconditionViolated(
                f"vertex {u}: no arc with zero own reduced cost and "
                "nonpositive other reduced cost"
            )
        if all(red_j[e] != 0 for e in g.out[u]):
            raise PreconditionViolated(
                f"vertex {u}: no arc with zero reduced cost for the opponent"
            )
        chosen[u] = pick

    # the chosen arcs form one outgoing arc per non-terminal vertex; a cycle
    # would have zero total cost in the owner metrics, impossible in a
    # positive game — but verify rather than trust the caller's maps
    on_path = set()
    u = game.start
    while game.owner[u] != TERMINAL:
        if u in on_path:
            raise PreconditionViolated(
                "chosen zero-cost arcs close a cycle; reduced maps are not "
                "aligned with a positive game"
            )
        on_path.add(u)
        u = g.heads[chosen[u]]

    sigma = {PLAYER1: {}, PLAYER2: {}}
    for u in range(g.n):
        i = game.owner[u]
        if i == TERMINAL:
            continue
        if u in on_path:
            sigma[i][u] = chosen[u]
        else:
            red_j = own[opponent(i)]
            sigma[i][u] = next(
                (e for e in g.out[u] if red_j[e] == 0), g.out[u][0]
            )
    sit = Situation(sigma[PLAYER1], sigma[PLAYER2])
    return _certified(game, sit, {"method": "aligned-zero"})


# ---------------------------------------------------------------------------
# one-sided construction and the general solver


def terminal_ne_against_forcer(
    game: SPGame, weak_player: int, pot: Potentials | None = None
) -> NEResult:
    """Terminal equilibrium when `weak_player` cannot force infinite cost.

    The other player's worst-case distances split the graph into the
    finite region U (containing the start) and the infinite region B.  The
    strong player moves along arcs of zero reduced cost inside U; the weak
    player answers with their own cheapest path against that strategy,
    deviates onto zero arcs off the play, and stays inside B if the play is
    ever pushed there.  `pot`, if given, holds those distances as
    `shortest_longest_distances` returns them, on the strong metric's
    integer image; potentials built from exact values at another scale
    are converted to it.  The certificate holds them as given, a `Metric`
    that the writer prints as exact values."""
    m = opponent(weak_player)  # the player whose metric drives the region
    if pot is None:
        pot = shortest_longest_distances(game, m)
    g = game.graph
    t = game.terminal
    s = game.start
    if not is_finite(pot[s]):
        raise WeakPlayerCanForce(
            f"player {weak_player} can force infinite cost"
        )
    B = pot.infinite_vertices

    metric = game.cost(m)
    phi = pot.potential.ints
    if pot.potential.scale != metric.scale:
        phi = [v if v == INF else int(v * metric.scale) for v in pot.potential]
    red = reduce_costs(g, metric.ints, phi)

    def zero_arc(u: int) -> int:
        return next(
            (e for e in g.out[u] if red.get(e) == 0), g.out[u][0]
        )

    # inside B every arc of the strong player stays inside B
    sigma_m = {
        u: g.out[u][0] if u in B else zero_arc(u)
        for u in game.vertices_of(m)
    }

    # the play is the weak player's cheapest path against sigma_m; these are
    # `response_distances`, with the arc mask kept for the path extraction
    allowed = _response_arcs(game, weak_player, sigma_m).__getitem__
    weights = game.cost(weak_player).ints
    wdist = dist_to_target(g, t, weights, arc_ok=allowed)
    if not is_finite(wdist[s]):
        raise InternalInvariantError(
            "no terminal path in the zero-arc subgraph"
        )
    p = tight_path(g, s, t, weights, wdist, arc_ok=allowed)
    path_arc_at = {g.tails[e]: e for e in p}

    sigma_w: dict[int, int] = {}
    for u in game.vertices_of(weak_player):
        if u in path_arc_at:
            sigma_w[u] = path_arc_at[u]
        elif u in B:
            sigma_w[u] = next(
                (e for e in g.out[u] if g.heads[e] in B), g.out[u][0]
            )
        else:
            sigma_w[u] = zero_arc(u)

    sit = (
        Situation(sigma_m, sigma_w)
        if m == PLAYER1
        else Situation(sigma_w, sigma_m)
    )
    cert = {
        "method": "one-sided",
        "weak_player": weak_player,
        "potential": pot.potential,
        "infinite_region": tuple(sorted(B)),
    }
    return _certified(game, sit, cert, {weak_player: wdist[s]})


@paused
def solve(game: SPGame) -> NEResult:
    """Nash equilibrium of a normalized positive game: a terminal one when
    some player cannot force infinite cost, else the cyclic pair of
    forcing strategies.  The sweeps run without `verify_potentials`; the
    best-response check certifies the result instead.

    The sweeps, distances and paths run on the metrics' integer images
    (`Metric.ints`), which have the same equilibria, heap order and
    tie-breaks; exact values are made once, for the play's costs, and the
    certificate's potential only when it is written."""
    pots = {}
    for weak in (PLAYER2, PLAYER1):
        strong = opponent(weak)
        pot = pots[strong] = interdicted_distances(
            game.graph,
            game.terminal,
            game.cost(strong),
            sp_blocking_oracle(game, weak),
            check=False,
        )
        if is_finite(pot[game.start]):
            return terminal_ne_against_forcer(game, weak, pot)
    pot1, pot2 = pots[PLAYER1], pots[PLAYER2]
    sit = Situation(
        _forcing_strategy(game, pot2, PLAYER1),
        _forcing_strategy(game, pot1, PLAYER2),
    )
    cert = {
        "method": "cyclic",
        "infinite_region_1": tuple(sorted(pot2.infinite_vertices)),
        "infinite_region_2": tuple(sorted(pot1.infinite_vertices)),
    }
    return _certified(game, sit, cert)
