from dataclasses import replace
from fractions import Fraction as F

import pytest

from spgame import cli, dijkstra, ne
from spgame.bruteforce import verify_ne
from spgame.costs import INF
from spgame.dijkstra import shortest_longest_distances
from spgame.errors import (
    BlockerExists,
    InternalInvariantError,
    OracleViolation,
    PreconditionViolated,
    WeakPlayerCanForce,
)
from spgame.game import (
    PLAYER1,
    PLAYER2,
    TERMINAL,
    SPGame,
    caterpillar,
    normalize,
    opponent,
    play_of,
)
from spgame.generators import InstanceGenerator
from spgame.graph import Digraph
from spgame.jsonio import dumps, interdiction_to_json, load_path
from spgame.ne import (
    aligned_reduced_costs,
    best_response_value,
    can_block,
    can_force_infinite,
    ne_from_zero_reduced_costs,
    solve,
    terminal_ne_against_forcer,
)
from spgame.transform import ReducedCosts


def loop_gadget():
    """P2 at the start may spin forever or leave; spinning hurts both."""
    g = Digraph.from_arcs(2, [(0, 0), (0, 1)])
    return SPGame(
        g, (PLAYER2, TERMINAL), 0, (F(1), F(4)), (F(1), F(4))
    )


def both_force_gadget():
    """Each player owns a loop back; either alone can keep the play cycling."""
    g = Digraph.from_arcs(3, [(0, 0), (0, 1), (1, 0), (1, 2)])
    return SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1), F(1), F(1), F(1)),
        (F(1), F(1), F(1), F(1)),
    )


# ---------------------------------------------------------------------------
# forcing and blocking predicates


def test_loop_gadget_forcing():
    game = loop_gadget()
    assert can_force_infinite(game, PLAYER2).answer
    assert not can_force_infinite(game, PLAYER1).answer
    assert not can_block(game, PLAYER2).answer
    res = solve(game)
    assert res.kind == "terminal"
    assert (res.cost1, res.cost2) == (4, 4)
    assert verify_ne(game, res.situation).is_ne


def test_forcing_strategy_witness_really_forces():
    game = both_force_gadget()
    from spgame.game import Situation

    fr1 = can_force_infinite(game, PLAYER1)
    fr2 = can_force_infinite(game, PLAYER2)
    assert fr1.answer and fr2.answer
    # against either witness the opponent's best reply is still infinite
    sit = Situation(fr1.strategy, fr2.strategy)
    assert best_response_value(game, sit, PLAYER1) == INF
    assert best_response_value(game, sit, PLAYER2) == INF


def test_block_cut_region():
    game = both_force_gadget()
    br = can_block(game, PLAYER2)
    assert br.answer
    assert br.cut_vertices == {1}

    assert not can_block(game, PLAYER1).answer


def test_both_force_solve_is_cyclic():
    game = both_force_gadget()
    res = solve(game)
    assert res.kind == "cyclic"
    assert res.cost1 == INF and res.cost2 == INF
    assert not res.play.is_terminal
    assert res.certificate["method"] == "cyclic"
    assert verify_ne(game, res.situation).is_ne


# ---------------------------------------------------------------------------
# one-sided terminal construction


def test_weak_player_guard():
    game = both_force_gadget()
    with pytest.raises(WeakPlayerCanForce):
        terminal_ne_against_forcer(game, PLAYER1)


def test_one_sided_certificate_bounds():
    gen = InstanceGenerator(seed=101)
    seen = 0
    for _ in range(60):
        game = gen.sp_game(max_vertices=7)
        res = solve(game)
        assert verify_ne(game, res.situation).is_ne
        if res.kind != "terminal":
            continue
        cert = res.certificate
        if cert["method"] != "one-sided":
            continue
        seen += 1
        weak = cert["weak_player"]
        strong = PLAYER1 if weak == PLAYER2 else PLAYER2
        pot = shortest_longest_distances(game, strong)
        # the strong player never pays more than their guaranteed value
        assert res.cost(strong) <= pot[game.start]
        assert tuple(cert["potential"]) == pot.potential
    assert seen >= 20


def test_strong_player_cost_equals_guarantee_on_gadget():
    # P1 guarantees 7 (P2 maximizes at vertex 1), play must realize it
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (1, 2)])
    game = SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1), F(2), F(6)),
        (F(1), F(5), F(3)),
    )
    res = solve(game)
    assert res.kind == "terminal"
    assert verify_ne(game, res.situation).is_ne
    pot1 = shortest_longest_distances(game, PLAYER1)
    assert res.cost1 == pot1[game.start] == 7


# ---------------------------------------------------------------------------
# aligned construction


def test_aligned_pipeline_on_uniform_costs():
    game = caterpillar(3)
    red1, red2, pot1, pot2 = aligned_reduced_costs(game)
    assert pot1[game.start] == F(43, 32)
    res = ne_from_zero_reduced_costs(game, red1, red2)
    assert res.kind == "terminal"
    assert res.certificate["method"] == "aligned-zero"
    assert res.cost1 == F(43, 32)
    assert verify_ne(game, res.situation).is_ne


def test_aligned_pipeline_battery():
    gen = InstanceGenerator(seed=202)
    for _ in range(30):
        game = gen.sp_game(max_vertices=7, require="aligned")
        red1, red2, _, _ = aligned_reduced_costs(game)
        res = ne_from_zero_reduced_costs(game, red1, red2)
        assert res.kind == "terminal"
        assert verify_ne(game, res.situation).is_ne


def test_aligned_maps_rest_on_verified_sweeps(faulty_sweep):
    # with no alignment check of its own, a wrong potential must either be
    # caught by verify_potentials or still give aligned maps
    gen = InstanceGenerator(seed=203)
    games = [
        gen.sp_game(max_vertices=7, require="aligned") for _ in range(100)
    ]
    faulty_sweep(6, ("raise", "lower", "to_inf"))
    rejected = 0
    for game in games:
        try:
            red1, red2, _, _ = aligned_reduced_costs(game)
        except (InternalInvariantError, OracleViolation):
            rejected += 1
            continue
        for u in range(game.graph.n):
            if game.owner[u] == TERMINAL:
                continue
            for player, red in ((PLAYER1, red1), (PLAYER2, red2)):
                vals = [red[e] for e in game.graph.out[u]]
                assert (min if game.owner[u] == player else max)(vals) == 0
    assert rejected, rejected


def test_aligned_rejects_blockable_games():
    with pytest.raises(BlockerExists):
        aligned_reduced_costs(both_force_gadget())


def test_zero_construction_rejects_inconsistent_maps():
    # two exits with opposed preferences; feed a map computed as if the
    # owner's vertex were minimized under the opponent metric
    g = Digraph.from_arcs(2, [(0, 1), (0, 1)])
    game = SPGame(
        g, (PLAYER1, TERMINAL), 0, (F(1), F(2)), (F(2), F(1))
    )
    red1, red2, _, _ = aligned_reduced_costs(game)
    ne_from_zero_reduced_costs(game, red1, red2)  # genuine maps work
    fake2 = ReducedCosts({0: F(1), 1: F(0)}, frozenset({0, 1}))
    with pytest.raises(PreconditionViolated):
        ne_from_zero_reduced_costs(game, red1, fake2)


def test_zero_construction_rejects_cyclic_maps():
    g = Digraph.from_arcs(3, [(0, 1), (1, 0), (0, 2), (1, 2)])
    game = SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1),) * 4,
        (F(1),) * 4,
    )
    flat = ReducedCosts({e: F(0) for e in range(4)}, frozenset(range(4)))
    with pytest.raises(PreconditionViolated):
        ne_from_zero_reduced_costs(game, flat, flat)


def test_zero_construction_rejects_partial_scope():
    game = loop_gadget()
    short = ReducedCosts({1: F(0)}, frozenset({1}))
    with pytest.raises(PreconditionViolated):
        ne_from_zero_reduced_costs(game, short, short)


# ---------------------------------------------------------------------------
# solve battery with independent verification


def test_solve_battery_all_kinds():
    gen = InstanceGenerator(seed=303)
    kinds = {"terminal": 0, "cyclic": 0}
    for _ in range(80):
        game = gen.sp_game(max_vertices=7)
        res = solve(game)
        kinds[res.kind] += 1
        assert verify_ne(game, res.situation).is_ne
        if res.kind == "terminal":
            assert res.play.cost1 == res.cost1
            assert res.play.cost2 == res.cost2
    assert kinds["terminal"] and kinds["cyclic"]


def test_solve_cyclic_battery():
    gen = InstanceGenerator(seed=404)
    for _ in range(15):
        game = gen.sp_game(max_vertices=6, require="both_force")
        res = solve(game)
        assert res.kind == "cyclic"
        assert verify_ne(game, res.situation).is_ne


# ---------------------------------------------------------------------------
# the integer image


def with_cost(game, player, costs):
    r1, r2 = (costs, game.r2) if player == PLAYER1 else (game.r1, costs)
    return SPGame(game.graph, game.owner, game.start, r1, r2, game.names)


@pytest.mark.parametrize("factor", [F(7, 3), 5, F(1, 12)])
def test_solve_commutes_with_scaling_one_metric(factor):
    gen = InstanceGenerator(seed=606)
    for _ in range(40):
        game = gen.sp_game(max_vertices=7)
        base = solve(game)
        for player in (PLAYER1, PLAYER2):
            scaled = [c * factor for c in game.cost(player)]
            res = solve(with_cost(game, player, tuple(scaled)))
            assert (res.kind, res.situation) == (base.kind, base.situation)
            assert res.cost(player) == base.cost(player) * factor
            assert res.cost(opponent(player)) == base.cost(opponent(player))
            if base.kind == "terminal":
                strong = opponent(base.certificate["weak_player"])
                k = factor if strong == player else 1
                assert res.certificate["potential"] == tuple(
                    p * k for p in base.certificate["potential"]
                )


def test_solve_sweeps_see_only_int_weights(monkeypatch, tmp_path, data_dir):
    seen = []

    def spy(real):
        def wrapper(graph, t, weights, *args, **kwargs):
            seen.append(all(type(w) is int for w in weights))
            return real(graph, t, weights, *args, **kwargs)

        return wrapper

    # every sweep, whoever calls it, goes through dijkstra._sweep
    monkeypatch.setattr(dijkstra, "_sweep", spy(dijkstra._sweep))
    monkeypatch.setattr(ne, "dist_to_target", spy(ne.dist_to_target))
    games = [load_path(str(data_dir / f)) for f in ("chain.json", "mixed.json")]
    gen = InstanceGenerator(seed=707)
    for i in range(40):
        game = gen.sp_game(max_vertices=7)
        # integral Fraction costs, and a truly rational r1 in every other game
        k = 1 + i % 5 if i % 2 else 1
        game = with_cost(game, PLAYER1, tuple(F(c, k) for c in game.r1))
        game = with_cost(game, PLAYER2, tuple(map(F, game.r2)))
        games.append(game)
    for game in games:
        game = normalize(game)
        solve(game)
        for player in (PLAYER1, PLAYER2):
            shortest_longest_distances(game, player)
    paths = [str(data_dir / "interdict3.json")]
    for i in range(20):
        game = gen.interdiction_game(max_vertices=6)
        # both metrics truly rational
        game = replace(
            game,
            r1=tuple(F(c, 3) for c in game.r1),
            r2=tuple(F(c, 2 + i % 3) for c in game.r2),
        )
        path = tmp_path / f"g{i}.json"
        path.write_text(dumps(interdiction_to_json(game)))
        paths.append(str(path))
    for path in paths:
        for argv in (
            ["solve-interdiction", path],
            ["phi", path],
            ["phi", path, "--dual"],
            ["phi", path, "--metric", "r1"],
        ):
            assert cli.main(argv) == 0
    assert seen and all(seen)


# ---------------------------------------------------------------------------
# the best-response certificate against a faulty sweep


def test_certificate_rejects_or_verifies_under_faulty_sweep(faulty_sweep):
    gen = InstanceGenerator(seed=505)
    games = [gen.sp_game() for _ in range(400)]
    faulty_sweep(5)
    outcomes = {"rejected": 0, "verified": 0}
    for game in games:
        try:
            res = solve(game)
        except InternalInvariantError:
            outcomes["rejected"] += 1
            continue
        # the check covers the situation, the play, its costs and the path;
        # the potential and the regions stay unchecked hints (see NEResult)
        assert verify_ne(game, res.situation).is_ne
        play = play_of(game, res.situation)
        assert (res.play, res.cost1, res.cost2) == (play, play.cost1, play.cost2)
        if res.kind == "terminal":
            assert res.certificate["path"] == play.arcs
        outcomes["verified"] += 1
    assert outcomes["rejected"] and outcomes["verified"], outcomes


def test_one_sided_takes_the_potentials_it_is_documented_to(data_dir):
    # `pot` holds exact distances, as `shortest_longest_distances` gives
    # them, also on a game whose metrics have scales 168 and 180
    game = load_path(str(data_dir / "mixed.json"))
    assert (game.r1.scale, game.r2.scale) == (168, 180)
    for weak in (PLAYER1, PLAYER2):
        pot = shortest_longest_distances(game, opponent(weak))
        given = terminal_ne_against_forcer(game, weak, pot)
        assert given == terminal_ne_against_forcer(game, weak)
        assert given.certificate["potential"] == pot.potential
