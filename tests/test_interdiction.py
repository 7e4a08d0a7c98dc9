import heapq
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from spgame import interdiction
from spgame.bruteforce import verify_ne_interdiction
from spgame.costs import INF, is_finite
from spgame.dijkstra import dist_to_target, interdicted_distances
from spgame.errors import (
    CapExceeded,
    InputError,
    InternalInvariantError,
    OracleViolation,
)
from spgame.game import PLAYER1, PLAYER2, TERMINAL, effective_cost
from spgame.generators import InstanceGenerator
from spgame.graph import Digraph, min_mean_cycle
from spgame.independence import (
    BudgetRule,
    CardinalityRule,
    IndependenceOracle,
    cardinality_oracle,
)
from spgame.interdiction import (
    InterdictionGame,
    InterdictionSituation,
    interdiction_cost,
    playable_arcs,
    reduce_to_sp,
    solve_interdiction,
    validate_interdiction_situation,
)
from spgame.jsonio import load_path
from spgame.ne import solve


def two_hop():
    """s -> a -> t with a direct bypass and two exits at a; one removal
    allowed per vertex."""
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w1 = (F(1), F(5), F(1), F(3))
    return InterdictionGame(
        g, 0, 2, w1, w1, cardinality_oracle(g, {0: 1, 1: 1})
    )


def full_offer(game):
    g = game.graph
    return {
        u: frozenset(g.out[u]) for u in range(g.n) if u != game.terminal
    }


# ---------------------------------------------------------------------------
# situation evaluation


def test_playable_arcs_is_offer_minus_removal():
    game = two_hop()
    sit = InterdictionSituation(
        {0: frozenset({1}), 1: frozenset({2})}, full_offer(game)
    )
    assert playable_arcs(game, sit) == {0, 3}


def test_cost_of_common_path():
    game = two_hop()
    sit = InterdictionSituation(
        {0: frozenset(), 1: frozenset()}, full_offer(game)
    )
    assert interdiction_cost(game, sit) == (2, 2, (0, 2))


def test_cost_no_common_optimum():
    g = Digraph.from_arcs(2, [(0, 1), (0, 1)])
    game = InterdictionGame(
        g, 0, 1, (F(1), F(2)), (F(2), F(1)), cardinality_oracle(g, 1)
    )
    sit = InterdictionSituation({0: frozenset()}, {0: frozenset({0, 1})})
    assert interdiction_cost(game, sit) == (INF, INF, None)


def test_cost_disconnected_playable_set():
    # surviving arcs at the middle vertex all point back to the start
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (1, 0), (1, 0)])
    game = InterdictionGame(
        g,
        0,
        2,
        (F(1),) * 4,
        (F(1),) * 4,
        cardinality_oracle(g, {0: 0, 1: 1}),
    )
    sit = InterdictionSituation(
        {0: frozenset(), 1: frozenset({1})},
        {0: frozenset({0}), 1: frozenset({1, 2, 3})},
    )
    assert interdiction_cost(game, sit) == (INF, INF, None)


def test_cost_of_long_chain_takes_lowest_arcs():
    # 4,000 links of two equal parallel arcs: every arc is a common
    # optimum, and the lowest-index path takes the first arc of each pair
    links = 4000
    g = Digraph.from_arcs(
        links + 1, [(u, u + 1) for u in range(links) for _ in range(2)]
    )
    game = InterdictionGame(
        g, 0, links, (F(1),) * g.m, (F(3, 2),) * g.m, cardinality_oracle(g, 1)
    )
    sit = InterdictionSituation(
        {u: frozenset() for u in range(links)}, full_offer(game)
    )
    assert interdiction_cost(game, sit) == (
        links,
        F(3, 2) * links,
        tuple(range(0, g.m, 2)),
    )


def four_pass_cost(game, sit):
    """Reference: an arc is common when it lies on a shortest (s, t)-path
    in both metrics, by forward plus backward distance; the path walks the
    lowest-index common arc into a vertex that still reaches t."""
    g = game.graph
    s, t = game.start, game.terminal
    arcs = playable_arcs(game, sit)

    def forward(weights):
        dist = [INF] * g.n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for e in g.out[u]:
                v = g.heads[e]
                if e in arcs and d + weights[e] < dist[v]:
                    dist[v] = d + weights[e]
                    heapq.heappush(heap, (dist[v], v))
        return dist

    back = [
        dist_to_target(g, t, w, arc_ok=arcs.__contains__)
        for w in (game.r1, game.r2)
    ]
    if not is_finite(back[0][s]):
        return INF, INF, None
    fwd = [forward(game.r1), forward(game.r2)]
    common = {
        e
        for e in arcs
        if all(
            is_finite(f[g.tails[e]])
            and is_finite(b[g.heads[e]])
            and f[g.tails[e]] + w[e] + b[g.heads[e]] == b[s]
            for f, b, w in zip(fwd, back, (game.r1, game.r2))
        )
    }
    reach, stack = {t}, [t]
    while stack:
        for e in g.inc[stack.pop()]:
            if e in common and g.tails[e] not in reach:
                reach.add(g.tails[e])
                stack.append(g.tails[e])
    if s not in reach:
        return INF, INF, None
    path, u = [], s
    while u != t:
        e = min(x for x in g.out[u] if x in common and g.heads[x] in reach)
        path.append(e)
        u = g.heads[e]
    return (
        effective_cost(path, game.r1),
        effective_cost(path, game.r2),
        tuple(path),
    )


def random_situations(seed, games):
    """Arbitrary removal and offer draws per vertex, mostly inadmissible;
    every other game has costs in 1-2, so shortest paths tie often."""
    gen = InstanceGenerator(seed=seed)
    rng = random.Random(seed)
    for i in range(games):
        tied = i % 2 == 1
        game = gen.interdiction_game(
            max_vertices=7,
            max_ground=16,
            cost_range=(1, 2) if tied else (1, 10),
        )
        g = game.graph
        inner = [u for u in range(g.n) if u != game.terminal]
        for _ in range(5):
            draw = [
                {
                    u: frozenset(e for e in g.out[u] if rng.random() < q)
                    for u in inner
                }
                for q in (0.25, 0.8)
            ]
            yield tied, game, InterdictionSituation(*draw)


def test_cost_matches_four_pass_reference():
    # 480 games x 5 draws = 2,400 situations
    found = {"inadmissible": 0, "common": 0, "tied_common": 0}
    for tied, game, sit in random_situations(seed=4242, games=480):
        got = interdiction_cost(game, sit)
        assert got == four_pass_cost(game, sit)
        try:
            validate_interdiction_situation(game, sit)
        except InputError:
            found["inadmissible"] += 1
        if got[2] is not None:
            found["common"] += 1
            found["tied_common"] += tied
    assert found["inadmissible"] >= 1500, found
    assert found["common"] >= 600 and found["tied_common"] >= 300, found


def test_situation_validation():
    game = two_hop()
    validate_interdiction_situation(
        game,
        InterdictionSituation(
            {0: frozenset(), 1: frozenset({2})}, full_offer(game)
        ),
    )
    with pytest.raises(InputError):  # missing a vertex
        validate_interdiction_situation(
            game, InterdictionSituation({0: frozenset()}, full_offer(game))
        )
    with pytest.raises(InputError):  # removal set too big
        validate_interdiction_situation(
            game,
            InterdictionSituation(
                {0: frozenset({0, 1}), 1: frozenset()}, full_offer(game)
            ),
        )
    with pytest.raises(InputError):  # offered set must be dependent
        validate_interdiction_situation(
            game,
            InterdictionSituation(
                {0: frozenset(), 1: frozenset()},
                {0: frozenset({0}), 1: frozenset({2, 3})},
            ),
        )


# ---------------------------------------------------------------------------
# solver branches


def test_solve_primal_worked_example():
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w = (F(1), F(5), F(1), F(3))
    game = InterdictionGame(g, 0, 2, w, w, cardinality_oracle(g, 1))
    res = solve_interdiction(game)
    assert res.kind == "terminal"
    assert res.certificate["branch"] == "primal"
    assert (res.cost1, res.cost2) == (2, 2)
    assert res.path == (0, 2)
    assert verify_ne_interdiction(game, res.situation).is_ne


def test_solve_dual_branch():
    # primal sweep dies at once (the lone exit is removable), the dual
    # direction pins every vertex to a single surviving arc
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (1, 0)])
    game = InterdictionGame(
        g,
        0,
        2,
        (F(1), F(1), F(1)),
        (F(1), F(1), F(1)),
        IndependenceOracle(g, {0: CardinalityRule(0), 1: CardinalityRule(1)}),
    )
    res = solve_interdiction(game)
    assert res.kind == "terminal"
    assert res.certificate["branch"] == "dual"
    assert (res.cost1, res.cost2) == (2, 2)
    assert verify_ne_interdiction(game, res.situation).is_ne


def test_solve_cyclic_branch():
    g = Digraph.from_arcs(
        3, [(0, 1), (0, 1), (0, 1), (1, 2), (1, 0), (1, 0)]
    )
    game = InterdictionGame(
        g,
        0,
        2,
        (F(1),) * 6,
        (F(1),) * 6,
        cardinality_oracle(g, 1),
    )
    res = solve_interdiction(game)
    assert res.kind == "cyclic"
    assert res.path is None
    assert (res.cost1, res.cost2) == (INF, INF)
    assert verify_ne_interdiction(game, res.situation).is_ne


def test_solve_battery_verified():
    gen = InstanceGenerator(seed=606)
    branches = {"primal": 0, "dual": 0, "cyclic": 0}
    for _ in range(60):
        game = gen.interdiction_game(max_vertices=5)
        res = solve_interdiction(game)
        if res.kind == "terminal":
            branches[res.certificate["branch"]] += 1
        else:
            branches["cyclic"] += 1
        assert verify_ne_interdiction(game, res.situation).is_ne
    assert branches["primal"] > 0 and branches["cyclic"] > 0


def test_solve_interdiction_commutes_with_scaling_one_metric():
    factor = F(7, 3)
    gen = InstanceGenerator(seed=606)
    for _ in range(40):
        game = gen.interdiction_game(max_vertices=6)
        base = solve_interdiction(game)
        for player, metric in ((PLAYER1, "r1"), (PLAYER2, "r2")):
            scaled = tuple(c * factor for c in getattr(game, metric))
            res = solve_interdiction(replace(game, **{metric: scaled}))
            assert (res.kind, res.situation, res.path, res.certificate) == (
                base.kind,
                base.situation,
                base.path,
                base.certificate,
            )
            assert res.cost(player) == base.cost(player) * factor
            other = PLAYER2 if player == PLAYER1 else PLAYER1
            assert res.cost(other) == base.cost(other)


def test_int_budget_games_need_no_fraction_arithmetic(monkeypatch):
    # all-int removal costs and budgets keep every sum an int: the oracle
    # checks, dual(), verify_potentials and the situation check
    games = [
        InstanceGenerator(seed=i).interdiction_game(
            max_vertices=6, kinds=("budget",)
        )
        for i in range(50)
    ]

    def no_fraction(*args):
        raise AssertionError("Fraction arithmetic on an all-int game")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(F, op, no_fraction)
    for game in games:
        solve_interdiction(game)
        interdicted_distances(
            game.graph, game.terminal, game.r1, game.oracle.dual(), check=True
        )


# ---------------------------------------------------------------------------
# the certificate against faulty sweeps and constructions


def desk_games(seed, count=400):
    gen = InstanceGenerator(seed=seed)
    return [gen.interdiction_game(max_vertices=5) for _ in range(count)]


@pytest.mark.parametrize(
    "faults, some_verified",
    [(("raise", "to_inf", "from_inf"), False), (("unblock",), True)],
    ids=["potential", "removal"],
)
def test_certificate_rejects_or_verifies_under_faulty_sweep(
    faulty_sweep, faults, some_verified
):
    # verify_potentials catches every wrong potential; a dropped removal
    # arc can leave a sweep that still passes it, and the equilibrium
    # built from that sweep must then hold
    games = desk_games(808)
    faulty_sweep(8, faults)
    outcomes = {"rejected": 0, "verified": 0}
    for game in games:
        try:
            res = solve_interdiction(game)
        except (InternalInvariantError, OracleViolation):
            outcomes["rejected"] += 1
            continue
        assert verify_ne_interdiction(game, res.situation).is_ne
        assert (res.cost1, res.cost2) == interdiction_cost(game, res.situation)[:2]
        outcomes["verified"] += 1
    assert outcomes["rejected"], outcomes
    assert bool(outcomes["verified"]) == some_verified, outcomes


def test_broken_construction_is_internal_error(monkeypatch):
    real = interdiction._one_sided_strategies
    calls = []

    def nothing_offered_at_start(graph, s, *rest):
        removed, offered, p = real(graph, s, *rest)
        calls.append(s)
        return removed, {**offered, s: frozenset()}, p

    monkeypatch.setattr(
        interdiction, "_one_sided_strategies", nothing_offered_at_start
    )
    outcomes = {"rejected": 0, "cyclic": 0}
    for game in desk_games(909):
        calls.clear()
        try:
            res = solve_interdiction(game)
        except InternalInvariantError:
            assert calls
            outcomes["rejected"] += 1
            continue
        # only the cyclic branch builds its situation without the fault
        assert not calls and res.kind == "cyclic"
        outcomes["cyclic"] += 1
    assert outcomes["rejected"] and outcomes["cyclic"], outcomes


# ---------------------------------------------------------------------------
# reduction to a plain game


def test_reduction_copy_and_arc_counts():
    game = two_hop()
    rr = reduce_to_sp(game)
    sp = rr.sp_game
    # vertex 0: independent sets {}, {0}, {1}; vertex 1: {}, {2}, {3}
    assert len(rr.copy_of) == 6
    assert sp.graph.n == 3 + 6
    # each copy: one entry arc plus one arc per surviving original arc
    assert sp.graph.m == 6 + (2 + 1 + 1) + (2 + 1 + 1)
    assert sp.owner[rr.copy_of[(0, frozenset())]] == PLAYER2
    assert sp.owner[0] == PLAYER1 and sp.owner[2] == TERMINAL


def test_reduction_preserves_path_costs():
    game = two_hop()
    rr = reduce_to_sp(game)
    sp = rr.sp_game
    delta = F(1, 2)
    for e, (u, i_set) in rr.choose_arc.items():
        assert sp.r1[e] == delta and sp.r2[e] == delta
        assert sp.graph.tails[e] == u
    for e, (u, i_set, orig) in rr.move_arc.items():
        assert sp.r1[e] == game.r1[orig] - delta
        assert sp.r2[e] == game.r2[orig] - delta
        assert sp.graph.heads[e] == game.graph.heads[orig]


def test_reduction_of_int_cost_game_stays_exact(data_dir):
    game = load_path(str(data_dir / "interdict3.json"))
    assert all(type(c) is int for c in game.r1 + game.r2)
    sp = reduce_to_sp(game).sp_game
    assert F(1, 2) in sp.r1
    assert not any(isinstance(c, float) for c in sp.r1 + sp.r2)
    # with an even least cost the shift is integral, and so is every cost
    doubled = replace(
        game,
        r1=tuple(2 * c for c in game.r1),
        r2=tuple(2 * c for c in game.r2),
    )
    sp = reduce_to_sp(doubled).sp_game
    assert all(type(c) is int for c in sp.r1 + sp.r2)


def test_reduction_cycles_stay_positive():
    gen = InstanceGenerator(seed=909)
    for _ in range(10):
        game = gen.interdiction_game(max_vertices=4, max_ground=8)
        sp = reduce_to_sp(game).sp_game
        for w in (sp.r1, sp.r2):
            mmc = min_mean_cycle(sp.graph, w)
            assert mmc is None or mmc > 0


def test_reduction_solve_lift_verify():
    gen = InstanceGenerator(seed=707)
    for _ in range(15):
        game = gen.interdiction_game(max_vertices=4, max_ground=8)
        rr = reduce_to_sp(game)
        res = solve(rr.sp_game)
        lifted = rr.lift_situation(res.situation)
        validate_interdiction_situation(game, lifted)
        assert verify_ne_interdiction(game, lifted).is_ne


def test_reduction_push_traces_chosen_play():
    game = two_hop()
    rr = reduce_to_sp(game)
    sit = InterdictionSituation(
        {0: frozenset(), 1: frozenset()}, full_offer(game)
    )
    pushed = rr.push_situation(sit)
    from spgame.game import play_of

    play = play_of(rr.sp_game, pushed)
    assert play.is_terminal
    assert (play.cost1, play.cost2) == interdiction_cost(game, sit)[:2]


def test_reduction_push_rejects_unknown_removal():
    game = two_hop()
    rr = reduce_to_sp(game)
    bad = InterdictionSituation(
        {0: frozenset({0, 1}), 1: frozenset()}, full_offer(game)
    )
    with pytest.raises(InputError):
        rr.push_situation(bad)


def test_reduction_cap():
    game = two_hop()
    with pytest.raises(CapExceeded):
        reduce_to_sp(game, cap=3)
