import itertools
import json
import random
from fractions import Fraction as F

import pytest

from spgame import jsonio
from spgame.errors import InputError, NoTerminalPath
from spgame.game import (
    PLAYER1,
    PLAYER2,
    TERMINAL,
    CheckResult,
    SPGame,
    Situation,
    caterpillar,
    effective_cost,
    normalize,
    normalize_with_maps,
    opponent,
    play_of,
    positive_costs,
    situations,
    validate,
    validate_situation,
)
from spgame.generators import InstanceGenerator
from spgame.graph import Digraph, min_mean_cycle, reachable_from, reaches
from spgame.costs import INF


def tiny(owner, arcs, r1, r2, start=0):
    g = Digraph.from_arcs(len(owner), arcs)
    return SPGame(g, tuple(owner), start, tuple(map(F, r1)), tuple(map(F, r2)))


# ---------------------------------------------------------------------------
# digraph


def test_digraph_indexing():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 1), (1, 1)])
    assert g.m == 4
    assert g.arc(2) == (0, 1)
    assert g.out_arcs(0) == (0, 2)
    assert g.in_arcs(1) == (0, 2, 3)
    assert g.out_arcs(1) == (1, 3)  # loop appears in both
    assert g.sinks == (2,)
    assert Digraph.from_arcs(4, [(2, 0)]).sinks == (0, 1, 3)


def test_digraph_rejects_bad_endpoint():
    with pytest.raises(InputError):
        Digraph.from_arcs(2, [(0, 2)])


def test_reachability():
    g = Digraph.from_arcs(4, [(0, 1), (1, 2), (3, 2)])
    assert reachable_from(g, 0) == {0, 1, 2}
    assert reaches(g, 2) == {0, 1, 2, 3}


def test_min_mean_cycle_values():
    g = Digraph.from_arcs(2, [(0, 1), (1, 0)])
    assert min_mean_cycle(g, (F(1), F(2))) == F(3, 2)

    g = Digraph.from_arcs(2, [(0, 1), (1, 0), (0, 0)])
    assert min_mean_cycle(g, (F(1), F(2), F(5))) == F(3, 2)
    assert min_mean_cycle(g, (F(1), F(2), F(1))) == F(1)


def test_min_mean_cycle_acyclic_is_none():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    assert min_mean_cycle(g, (F(1), F(1), F(1))) is None


def test_min_mean_cycle_exact_fractions():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert min_mean_cycle(g, (F(1, 3), F(1, 7), F(1, 2))) == F(41, 126)


# ---------------------------------------------------------------------------
# game structure


def test_opponent():
    assert opponent(PLAYER1) == PLAYER2
    assert opponent(PLAYER2) == PLAYER1


def test_terminal_must_be_sink():
    with pytest.raises(InputError):
        tiny([TERMINAL, PLAYER1], [(0, 1), (1, 0)], [1, 1], [1, 1])


def test_sink_must_be_terminal():
    with pytest.raises(InputError):
        tiny([PLAYER1, PLAYER2], [(0, 1)], [1], [1])


# vertex 0 and vertex 1 or 2 each break a rule; vertex 0 is named
@pytest.mark.parametrize(
    "owner, arcs, message",
    [
        (
            [PLAYER1, TERMINAL, PLAYER2],
            [(1, 0), (2, 0)],
            "^vertex 0 has no outgoing arcs but is not terminal$",
        ),
        (
            [TERMINAL, PLAYER1, PLAYER2],
            [(0, 2), (1, 2)],
            "^terminal vertex 0 has outgoing arcs$",
        ),
    ],
)
def test_lowest_vertex_off_the_sinks_raises(owner, arcs, message):
    with pytest.raises(InputError, match=message):
        tiny(owner, arcs, [1, 1], [1, 1])


def test_cost_length_checked():
    g = Digraph.from_arcs(2, [(0, 1)])
    with pytest.raises(InputError):
        SPGame(g, (PLAYER1, TERMINAL), 0, (F(1), F(2)), (F(1),))


def test_default_names():
    game = tiny([PLAYER1, TERMINAL], [(0, 1)], [1], [1])
    assert game.names == ("v0", "v1")


# ---------------------------------------------------------------------------
# plays


def test_terminal_play_costs():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 2), (0, 2)],
        [1, 2, 7],
        [3, 4, 7],
    )
    sit = Situation({0: 0}, {1: 1})
    play = play_of(game, sit)
    assert play.is_terminal and play.kind == "terminal"
    assert play.arcs == (0, 1)
    assert (play.cost1, play.cost2) == (3, 7)
    assert play.vertices(game) == (0, 1, 2)


def test_lasso_play_is_infinite():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 0), (1, 2)],
        [1, 1, 1],
        [1, 1, 1],
    )
    play = play_of(game, Situation({0: 0}, {1: 1}))
    assert not play.is_terminal
    assert play.cycle_start == 0
    assert play.stem == ()
    assert play.cycle == (0, 1)
    assert play.cost1 == INF and play.cost2 == INF


def test_lasso_with_stem():
    game = tiny(
        [PLAYER1, PLAYER2, PLAYER1, TERMINAL],
        [(0, 1), (1, 2), (2, 1), (2, 3)],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    )
    play = play_of(game, Situation({0: 0, 2: 2}, {1: 1}))
    assert play.stem == (0,)
    assert play.cycle == (1, 2)


def test_effective_cost_is_exact():
    w = (F(1, 3), F(1, 3), F(1, 3))
    assert effective_cost((0, 1, 2), w) == 1


def test_play_costs_stay_int_on_int_costs(data_dir):
    # chain.json has int costs except r2 = 1/2 on arc 2
    game = jsonio.load_path(str(data_dir / "chain.json"))
    terminal_plays = 0
    for sit in situations(game):
        play = play_of(game, sit)
        if play.is_terminal:
            terminal_plays += 1
            assert type(play.cost1) is int
            assert (type(play.cost2) is int) == (2 not in play.arcs)
    assert terminal_plays > 1


def test_situations_enumeration():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (0, 2), (1, 2), (1, 0), (1, 1)],
        [1] * 5,
        [1] * 5,
    )
    sits = list(situations(game))
    assert len(sits) == 2 * 3
    # deterministic order: arc indices ascending, player 1 slot first
    assert sits[0].sigma1 == {0: 0} and sits[0].sigma2 == {1: 2}
    assert sits[-1].sigma1 == {0: 1} and sits[-1].sigma2 == {1: 4}


def test_validate_situation_coverage():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 2)],
        [1, 1],
        [1, 1],
    )
    validate_situation(game, Situation({0: 0}, {1: 1}))
    with pytest.raises(InputError):
        validate_situation(game, Situation({}, {1: 1}))
    with pytest.raises(InputError):
        validate_situation(game, Situation({0: 1}, {1: 1}))


# ---------------------------------------------------------------------------
# validation report


def test_validate_good_game():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 2), (0, 2)],
        [1, 2, 3],
        [1, 2, 3],
    )
    report = validate(game)
    assert report.ok
    assert {c.name for c in report.checks} == {
        "positive_costs",
        "single_terminal",
        "start_reaches_all",
        "all_reach_terminal",
        "terminal_play_exists",
        "positive_cycles_r1",
        "positive_cycles_r2",
    }


def test_validate_flags_nonpositive_costs():
    game = tiny(
        [PLAYER1, TERMINAL],
        [(0, 1), (0, 0)],
        [1, 0],
        [1, 1],
    )
    report = validate(game)
    assert not report.check("positive_costs").ok
    assert not report.check("positive_cycles_r1").ok
    assert report.check("positive_cycles_r2").ok


def reference_positive_costs(game):
    """The scan `positive_costs` replaced: every cost compared with 0."""
    bad = [e for e in range(game.graph.m) if game.r1[e] <= 0 or game.r2[e] <= 0]
    return CheckResult(
        "positive_costs",
        not bad,
        "" if not bad else f"non-positive cost on arcs {bad[:5]}",
    )


MIXED_COSTS = [1, 7, 0, -2, F(1, 3), F(-1, 3), F(0), F(4, 2), F(-6, 3), F(10**20, 3)]
FLOAT_COSTS = [0.5, 0.0, -0.0, -1.5, 1e-300, -1e-300, 3.0, INF]


@pytest.mark.parametrize("pool", [MIXED_COSTS, FLOAT_COSTS, MIXED_COSTS + FLOAT_COSTS])
def test_positive_costs_matches_comparison_with_zero(pool):
    rng = random.Random(f"positive-costs:{len(pool)}")
    failed = truncated = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        arcs = [
            (u, rng.randrange(n)) for u in range(n - 1) for _ in range(rng.randint(1, 3))
        ]
        owner = [rng.choice((PLAYER1, PLAYER2)) for _ in range(n - 1)] + [TERMINAL]
        r1 = [rng.choice(pool) if rng.random() < 0.5 else 1 for _ in arcs]
        r2 = [rng.choice(pool) if rng.random() < 0.5 else F(5, 2) for _ in arcs]
        game = SPGame(Digraph.from_arcs(n, arcs), tuple(owner), 0, tuple(r1), tuple(r2))
        got = positive_costs(game)
        assert got == reference_positive_costs(game)
        failed += not got.ok
        truncated += sum(a <= 0 or b <= 0 for a, b in zip(r1, r2)) > 5
    assert 0 < failed < 300 and truncated


def test_validate_positive_game_skips_min_mean_cycle(monkeypatch):
    def refuse(*args):
        raise AssertionError("min_mean_cycle called")

    monkeypatch.setattr("spgame.game.min_mean_cycle", refuse)
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 0), (1, 2)],
        [1, 2, 3],
        [1, 2, 3],
    )
    report = validate(game)
    assert report.ok
    for name in ("positive_cycles_r1", "positive_cycles_r2"):
        assert report.check(name).detail == "implied by positive costs"


def test_validate_flags_stranded_vertices():
    game = tiny(
        [PLAYER1, PLAYER1, TERMINAL],
        [(0, 2), (1, 1)],
        [1, 1],
        [1, 1],
    )
    report = validate(game)
    assert not report.check("all_reach_terminal").ok
    assert not report.check("start_reaches_all").ok


# ---------------------------------------------------------------------------
# normalization


def test_merge_terminals():
    game = tiny(
        [PLAYER1, TERMINAL, TERMINAL],
        [(0, 1), (0, 2)],
        [1, 2],
        [1, 2],
    )
    out = normalize(game)
    assert len(out.terminals) == 1
    assert out.names[out.terminal] == "t"
    assert out.graph.m == 2
    assert out.graph.heads == (out.terminal, out.terminal)


def test_merged_terminal_keeps_its_own_name_t():
    g = Digraph.from_arcs(3, [(0, 1), (0, 2)])
    game = SPGame(g, (PLAYER1, TERMINAL, TERMINAL), 0, (1, 2), (1, 2), ("s", "t", "x"))
    assert normalize(game).names == ("s", "t")


def test_prune_unreachable():
    game = tiny(
        [PLAYER1, TERMINAL, PLAYER2],
        [(0, 1), (2, 1)],
        [1, 1],
        [1, 1],
    )
    out, vmap, amap = normalize_with_maps(game)
    assert out.graph.n == 2
    assert 2 not in vmap
    assert amap == {0: 0}


def test_normalize_requires_reachable_terminal():
    game = tiny(
        [PLAYER1, PLAYER2, TERMINAL],
        [(0, 1), (1, 0), (1, 1)],
        [1, 1, 1],
        [1, 1, 1],
    )
    with pytest.raises(NoTerminalPath):
        normalize(game)


def raw_games(seed, count):
    """Unnormalized games: 2-3 terminals, and vertices the start (vertex 0)
    may not reach.  Draws whose start reaches no terminal are skipped."""
    rng = random.Random(seed)
    games = []
    while len(games) < count:
        k = rng.randint(2, 3)
        n = rng.randint(k + 2, 6)
        owner = [rng.choice((PLAYER1, PLAYER2)) for _ in range(n - k)]
        owner += [TERMINAL] * k
        pairs = [
            (u, rng.randrange(1, n))
            for u in range(n - k)
            for _ in range(rng.randint(1, 2))
        ]
        r1 = [rng.choice((rng.randint(1, 5), F(rng.randint(1, 5), 3))) for _ in pairs]
        r2 = [rng.randint(1, 5) for _ in pairs]
        game = tiny(owner, pairs, r1, r2)
        try:
            normalize(game)
        except NoTerminalPath:
            continue
        games.append(game)
    return games


def test_normalize_preserves_play_costs():
    # forward-map every situation and compare exact play costs; a midpoint
    # has one move, the second half of its arc
    gen = InstanceGenerator(seed=42)
    games = [gen.sp_game(max_vertices=5, max_out_degree=3) for _ in range(25)]
    games += raw_games(seed=7, count=25)
    checked = merged = pruned = 0
    for game, bipartize in itertools.product(games, (False, True)):
        out, vmap, amap = normalize_with_maps(game, bipartize=bipartize)
        merged += len(game.terminals) > 1
        pruned += any(
            game.owner[u] != TERMINAL and u not in vmap for u in range(game.graph.n)
        )
        mids = {w: out.graph.out[w][0] for w in range(len(vmap), out.graph.n)}
        for sit in situations(game):
            sigmas = [
                {vmap[u]: amap[e] for u, e in sigma.items() if u in vmap}
                for sigma in (sit.sigma1, sit.sigma2)
            ]
            for w, e in mids.items():
                sigmas[out.owner[w] - 1][w] = e
            a = play_of(game, sit)
            b = play_of(out, Situation(*sigmas))
            assert (a.cost1, a.cost2) == (b.cost1, b.cost2)
            checked += 1
    assert checked > 300 and merged == 50 and pruned > 10


def pinned_raw_game():
    """Three terminals x, y, z (x kept); `u` is unreachable from the start
    `s`; a non-terminal is already named `t`; arcs 3 and 5 enter dropped
    terminals; the same-owner arcs 2 and 6 have pruned indices 1 and 5."""
    names = ("u", "s", "t", "x", "q", "y", "z")
    owner = (PLAYER1, PLAYER1, PLAYER2, TERMINAL, PLAYER1, TERMINAL, TERMINAL)
    arcs = [(0, 1), (1, 2), (1, 4), (2, 5), (4, 3), (2, 6), (4, 1)]
    r1 = (1, 3, 2, 4, 1, 1, 1)
    r2 = (1, F(1, 2), 2, 1, 5, 7, 1)
    g = Digraph.from_arcs(len(names), arcs)
    return SPGame(g, owner, 1, r1, r2, names)


def test_normalize_pinned_game():
    out, vmap, amap = normalize_with_maps(pinned_raw_game())
    assert out.names == ("s", "t", "t*", "q")
    assert out.owner == (PLAYER1, PLAYER2, TERMINAL, PLAYER1)
    assert out.start == 0
    assert out.graph.tails == (0, 0, 1, 3, 1, 3)
    assert out.graph.heads == (1, 3, 2, 2, 2, 0)
    assert out.r1 == (3, 2, 4, 1, 1, 1)
    assert out.r2 == (F(1, 2), 2, 1, 5, 7, 1)
    assert [type(c) for c in out.r2] == [F, int, int, int, int, int]
    assert vmap == {1: 0, 2: 1, 3: 2, 4: 3}
    assert amap == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}


def test_normalize_pinned_game_bipartized():
    out, vmap, amap = normalize_with_maps(pinned_raw_game(), bipartize=True)
    assert out.names == ("s", "t", "t*", "q", "s~q#1", "q~s#5")
    assert out.owner == (PLAYER1, PLAYER2, TERMINAL, PLAYER1, PLAYER2, PLAYER2)
    assert out.start == 0
    assert out.graph.tails == (0, 0, 4, 1, 3, 1, 3, 5)
    assert out.graph.heads == (1, 4, 3, 2, 2, 2, 5, 0)
    assert out.r1 == (3, 1, 1, 4, 1, 1, F(1, 2), F(1, 2))
    assert out.r2 == (F(1, 2), 1, 1, 1, 5, 7, F(1, 2), F(1, 2))
    assert [type(c) for c in out.r1] == [int, int, int, int, int, int, F, F]
    assert vmap == {1: 0, 2: 1, 3: 2, 4: 3}
    assert amap == {1: 0, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6}


def test_bipartize_midpoint_name_collision():
    # vertices already hold the names `s~a#0` and `s~a#0*` that the split
    # arc 0 from s to a would give its midpoint
    names = ("s", "a", "s~a#0", "s~a#0*", "t")
    owner = (PLAYER1, PLAYER1, PLAYER2, PLAYER2, TERMINAL)
    arcs = [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]
    cost = (2, 1, 1, 1, 1)
    game = SPGame(Digraph.from_arcs(5, arcs), owner, 0, cost, cost, names)
    out = normalize(game, bipartize=True)
    assert out.names == names + ("s~a#0**", "s~a#0~s~a#0*#3")
    from spgame.ne import solve

    text = jsonio.dumps(jsonio.game_to_json(out))
    back = jsonio.game_from_json(json.loads(text))
    assert back.names == out.names
    res = solve(back)
    assert (res.cost1, res.cost2) == (3, 3)


@pytest.mark.parametrize("bipartize", [False, True])
def test_normalize_builds_one_graph_and_one_game(monkeypatch, bipartize):
    game = pinned_raw_game()
    built = []
    from_columns, post_init = Digraph.from_columns, SPGame.__post_init__

    def spy_from_columns(n, tails, heads):
        built.append("graph")
        return from_columns(n, tails, heads)

    def spy_post_init(self):
        built.append("game")
        post_init(self)

    monkeypatch.setattr(Digraph, "from_columns", staticmethod(spy_from_columns))
    monkeypatch.setattr(SPGame, "__post_init__", spy_post_init)
    normalize(game, bipartize=bipartize)
    assert sorted(built) == ["game", "graph"]


def test_bipartize_alternates_owners():
    gen = InstanceGenerator(seed=5)
    for _ in range(10):
        game = gen.sp_game(max_vertices=6)
        out = normalize(game, bipartize=True)
        g = out.graph
        for e in range(g.m):
            u, v = g.arc(e)
            assert not (
                out.owner[v] != TERMINAL and out.owner[u] == out.owner[v]
            )


def test_bipartize_halves_int_costs_exactly():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    game = SPGame(g, (PLAYER1, PLAYER1, TERMINAL), 0, (3, 4), (5, 2))
    out = normalize(game, bipartize=True)
    assert out.r1 == (F(3, 2), F(3, 2), 4)
    assert out.r2 == (F(5, 2), F(5, 2), 2)
    assert not any(isinstance(c, float) for c in out.r1 + out.r2)
    # even costs halve to ints, not to integral Fractions
    game = SPGame(g, (PLAYER1, PLAYER1, TERMINAL), 0, (6, 4), (F(4), 2))
    out = normalize(game, bipartize=True)
    assert out.r1 == (3, 3, 4) and out.r2 == (2, 2, 2)
    assert all(type(c) is int for c in out.r1 + out.r2)


def test_bipartize_preserves_solution_costs():
    from spgame.ne import solve

    game = caterpillar(3)
    plain = solve(game)
    split = solve(normalize(game, bipartize=True))
    assert (plain.cost1, plain.cost2) == (split.cost1, split.cost2)


# ---------------------------------------------------------------------------
# caterpillar family


def test_caterpillar_requires_depth():
    with pytest.raises(InputError):
        caterpillar(0)


def test_caterpillar_structure():
    game = caterpillar(4)
    assert game.graph.n == 6
    assert game.names[-1] == "t"
    assert game.owner.count(TERMINAL) == 1
    # the first exit and main arc cost 2 and 1, as ints
    assert game.r1[:2] == (2, 1)
    assert all(type(c) is int or c.denominator > 1 for c in game.r1)


def test_caterpillar_exit_costs_decrease():
    depth = 5
    game = caterpillar(depth)
    g = game.graph
    values = []
    for k in range(depth + 1):
        sigma = {}
        for u in range(depth + 1):
            exits = [e for e in g.out[u] if g.heads[e] == game.terminal]
            mains = [e for e in g.out[u] if g.heads[e] != game.terminal]
            sigma[u] = exits[0] if u >= k or not mains else mains[0]
        play = play_of(game, Situation(sigma, {}))
        assert play.cost1 == F(4, 3) + F(2, 3) * F(1, 4) ** k
        values.append(play.cost1)
    assert values == sorted(values, reverse=True)
    assert len(set(values)) == len(values)
