from fractions import Fraction as F

import pytest

from spgame import bruteforce
from spgame.bruteforce import (
    VerifyResult,
    default_cap,
    exhaustive_phi,
    search_terminal_ne,
    verify_ne,
    verify_ne_interdiction,
)
from spgame.costs import INF
from spgame.dijkstra import interdicted_distances
from spgame.errors import CapExceeded, InternalInvariantError
from spgame.game import PLAYER1, PLAYER2, TERMINAL, SPGame, Situation, situations
from spgame.generators import InstanceGenerator
from spgame.graph import Digraph
from spgame.independence import cardinality_oracle
from spgame.interdiction import InterdictionSituation, solve_interdiction
from spgame.ne import best_response_value, verify_ne_by_distances


def exit_choice_game():
    """P1 chooses the route, P2 chooses the exit toll."""
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    return SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1), F(4), F(1), F(6)),
        (F(1), F(4), F(5), F(2)),
    )


def test_verify_ne_detects_deviation():
    game = exit_choice_game()
    # P2 tolls the cheap-for-P1 exit; P1 takes the bypass: cost1 = 4
    good = Situation({0: 1}, {1: 3})
    res = verify_ne(game, good)
    assert res.is_ne and bool(res)

    # if P2 offered the cheap exit instead, P1 should reroute
    bad = Situation({0: 1}, {1: 2})
    res = verify_ne(game, bad)
    assert not res.is_ne
    assert res.player == PLAYER1
    assert res.improved_cost == 2
    assert res.deviation.sigma1 == {0: 0}


def test_verify_ne_player2_deviation():
    game = exit_choice_game()
    # P2 offering toll 5 while routing happens through vertex 1 is not
    # stable: switching to the other exit saves P2 three units
    sit = Situation({0: 0}, {1: 2})
    res = verify_ne(game, sit)
    assert not res.is_ne
    assert res.player == PLAYER2
    assert res.improved_cost == 3
    assert res.deviation.sigma2 == {1: 3}


def test_verify_agrees_with_distance_form():
    gen = InstanceGenerator(seed=808)
    for _ in range(25):
        game = gen.sp_game(max_vertices=5)
        for sit in list(situations(game))[:40]:
            assert verify_ne(game, sit).is_ne == verify_ne_by_distances(
                game, sit
            )


def test_best_response_value_is_a_lower_bound():
    gen = InstanceGenerator(seed=111)
    for _ in range(15):
        game = gen.sp_game(max_vertices=5)
        sits = list(situations(game))
        for sit in sits[:20]:
            from spgame.game import play_of

            play = play_of(game, sit)
            for player in (PLAYER1, PLAYER2):
                assert (
                    best_response_value(game, sit, player)
                    <= play.cost(player)
                )


def test_verify_cap():
    game = exit_choice_game()
    with pytest.raises(CapExceeded):
        verify_ne(game, Situation({0: 0}, {1: 2}), cap=1)


def test_default_cap_env(monkeypatch):
    monkeypatch.setenv("SPGAME_CAP", "123")
    assert default_cap() == 123
    monkeypatch.setenv("SPGAME_CAP", "junk")
    assert default_cap() == 1_000_000


# ---------------------------------------------------------------------------
# exhaustive phi


def test_exhaustive_phi_matches_sweep_small():
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w = (F(1), F(5), F(1), F(3))
    oracle = cardinality_oracle(g, 1)
    brute = exhaustive_phi(g, 2, w, oracle)
    assert brute == (5, 3, 0)
    assert brute == interdicted_distances(g, 2, w, oracle).potential


def test_exhaustive_phi_maximal_only_agrees():
    gen = InstanceGenerator(seed=212)
    for _ in range(15):
        inst = gen.interdiction_game(max_vertices=5, max_ground=8)
        full = exhaustive_phi(inst.graph, inst.terminal, inst.r2, inst.oracle)
        maxi = exhaustive_phi(
            inst.graph,
            inst.terminal,
            inst.r2,
            inst.oracle,
            maximal_only=True,
        )
        assert full == maxi


def test_exhaustive_phi_cap():
    g = Digraph.from_arcs(2, [(0, 1)] * 8)
    oracle = cardinality_oracle(g, 4)
    with pytest.raises(CapExceeded):
        exhaustive_phi(g, 1, (F(1),) * 8, oracle, cap=10)


# ---------------------------------------------------------------------------
# interdiction verifier


def test_verify_interdiction_flags_blocker_deviation():
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w = (F(1), F(5), F(1), F(3))
    game_w = (w, w)
    from spgame.interdiction import InterdictionGame

    game = InterdictionGame(
        g, 0, 2, *game_w, cardinality_oracle(g, 1)
    )
    res = solve_interdiction(game)
    assert verify_ne_interdiction(game, res.situation).is_ne

    worse = InterdictionSituation(
        {0: frozenset({0}), 1: frozenset()},
        res.situation.offered,
    )
    check = verify_ne_interdiction(game, worse)
    assert not check.is_ne
    assert check.player == PLAYER1


# ---------------------------------------------------------------------------
# exhaustive search


def test_search_finds_known_equilibrium():
    game = exit_choice_game()
    res = search_terminal_ne(game)
    assert res.found
    assert res.play.is_terminal
    assert verify_ne(game, res.situation).is_ne
    assert res.scanned >= 1 and res.terminal_plays >= 1


def test_search_exhausts_when_no_play_terminates():
    # the terminal exists but nothing points at it
    g = Digraph.from_arcs(3, [(0, 1), (1, 0), (1, 1)])
    game = SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1), F(1), F(1)),
        (F(1), F(1), F(1)),
    )
    res = search_terminal_ne(game)
    assert not res.found
    assert res.situation is None and res.play is None
    assert res.scanned == 2
    assert res.terminal_plays == 0


def test_search_disagreeing_with_literal_check_is_internal_error(monkeypatch):
    # a hit the literal check rejects is a fault of the scan: exit code 3
    monkeypatch.setattr(bruteforce, "verify_ne", lambda *a, **k: VerifyResult(False))
    with pytest.raises(InternalInvariantError, match="literal verifier"):
        search_terminal_ne(exit_choice_game())


def test_search_cap():
    gen = InstanceGenerator(seed=313)
    game = gen.sp_game(max_vertices=7)
    with pytest.raises(CapExceeded):
        search_terminal_ne(game, cap=1)


def test_search_battery_agrees_with_solver():
    # where the solver says terminal, the scan must find something too
    gen = InstanceGenerator(seed=414)
    from spgame.ne import solve

    hits = 0
    for _ in range(30):
        game = gen.sp_game(max_vertices=5)
        res = solve(game)
        found = search_terminal_ne(game)
        if res.kind == "terminal":
            assert found.found
            hits += 1
    assert hits
