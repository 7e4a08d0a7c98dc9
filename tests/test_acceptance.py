"""End-to-end acceptance battery.

Each test covers one shipping criterion and finishes by printing a single
PASS line with its counts and timings; the line bypasses output capture so
it always appears in the terminal.  Randomness is seeded; every numeric
comparison is exact rational equality unless the criterion is about
wall-clock time.
"""

import pathlib
import time
from fractions import Fraction as F

from spgame.bruteforce import (
    exhaustive_phi,
    search_terminal_ne,
    verify_ne,
    verify_ne_interdiction,
)
from spgame.costs import INF, is_finite
from spgame.dijkstra import interdicted_distances
from spgame.game import (
    PLAYER1,
    PLAYER2,
    TERMINAL,
    Situation,
    caterpillar,
    play_of,
)
from spgame.generators import InstanceGenerator, layered_graph
from spgame.graph import min_mean_cycle
from spgame.independence import cardinality_oracle
from spgame.interdiction import (
    reduce_to_sp,
    solve_interdiction,
    validate_interdiction_situation,
)
from spgame.jsonio import dumps, interdiction_to_json, game_to_json
from spgame.ne import (
    aligned_reduced_costs,
    ne_from_zero_reduced_costs,
    solve,
)
from spgame.transform import reduce_costs

QUARANTINE = pathlib.Path(__file__).parent / "quarantine"


def _report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line)


def test_c1_solver_verified_on_1000_random_games(capsys):
    t0 = time.perf_counter()
    gen = InstanceGenerator(seed=1001)
    checked = 0
    kinds = {"terminal": 0, "cyclic": 0}
    for _ in range(1000):
        game = gen.sp_game(
            max_vertices=8, max_out_degree=3, cost_range=(1, 10)
        )
        res = solve(game)
        kinds[res.kind] += 1
        assert verify_ne(game, res.situation).is_ne, game_to_json(game)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 1000
    assert elapsed <= 60.0, f"took {elapsed:.1f}s, budget 60s"
    _report(
        capsys,
        f"[PASS] criterion 1: 1000/1000 solved games verified deviation-free "
        f"({kinds['terminal']} terminal, {kinds['cyclic']} cyclic) "
        f"in {elapsed:.1f}s",
    )


def test_c2_sweep_matches_exhaustive_enumeration(capsys):
    gen = InstanceGenerator(seed=1002)
    agreed = 0
    for _ in range(200):
        inst = gen.interdiction_game(
            max_vertices=5, max_ground=14, kinds=("explicit",)
        )
        g, t, w, oracle = inst.graph, inst.terminal, inst.r2, inst.oracle
        pot = interdicted_distances(g, t, w, oracle)
        brute = exhaustive_phi(g, t, w, oracle)
        assert tuple(pot.potential) == brute
        assert brute == exhaustive_phi(g, t, w, oracle, maximal_only=True)

        # structural certificate, asserted arc by arc
        phi = pot.potential
        for u in range(g.n):
            if u == t:
                continue
            removed = pot.blocked[u]
            assert oracle.is_independent(u, removed)
            cheap = set()
            tight = False
            for e in g.out[u]:
                head = phi[g.heads[e]]
                through = w[e] + head if is_finite(head) else INF
                if through <= phi[u]:
                    cheap.add(e)
                if e in removed:
                    assert through <= phi[u]
                else:
                    assert through >= phi[u]
                    tight = tight or through == phi[u]
            if is_finite(phi[u]):
                assert tight
                assert oracle.is_dependent(u, cheap)
        agreed += 1
    assert agreed == 200
    _report(
        capsys,
        "[PASS] criterion 2: sweep distances equal exhaustive enumeration "
        "on 200/200 instances, certificates re-checked arc by arc",
    )


def test_c3_interdiction_solver_verified(capsys):
    gen = InstanceGenerator(seed=1003)
    branches = {"primal": 0, "dual": 0, "cyclic": 0}
    for _ in range(200):
        game = gen.interdiction_game(max_vertices=5)
        res = solve_interdiction(game)
        validate_interdiction_situation(game, res.situation)
        key = res.certificate.get("branch", "cyclic")
        branches[key if res.kind == "terminal" else "cyclic"] += 1
        assert verify_ne_interdiction(game, res.situation).is_ne, dumps(
            interdiction_to_json(game)
        )
    total = sum(branches.values())
    assert total == 200
    _report(
        capsys,
        f"[PASS] criterion 3: 200/200 interdiction equilibria verified "
        f"deviation-free (branches: {branches})",
    )


def test_c4_reduction_roundtrip(capsys):
    gen = InstanceGenerator(seed=1004)
    for _ in range(50):
        game = gen.interdiction_game(
            max_vertices=4, max_ground=8, kinds=("explicit",)
        )
        rr = reduce_to_sp(game)
        sp = rr.sp_game
        for w in (sp.r1, sp.r2):
            mmc = min_mean_cycle(sp.graph, w)
            assert mmc is None or mmc > 0
        res = solve(sp)
        lifted = rr.lift_situation(res.situation)
        validate_interdiction_situation(game, lifted)
        assert verify_ne_interdiction(game, lifted).is_ne
    _report(
        capsys,
        "[PASS] criterion 4: 50/50 reduced games solved and lifted back to "
        "verified equilibria; every reduced cycle has positive cost in both "
        "metrics",
    )


def test_c5_exit_ladder_costs(capsys):
    expected = [F(1) + F(2, 3) * (F(1, 2) + F(1, 4) ** k) for k in range(11)]
    assert expected[0] == 2 and expected[1] == F(3, 2)

    # within one deep ladder: the play exiting after k forward moves
    game = caterpillar(10)
    g = game.graph
    values = []
    for k in range(11):
        sigma = {}
        for u in range(11):
            exits = [e for e in g.out[u] if g.heads[e] == game.terminal]
            mains = [e for e in g.out[u] if g.heads[e] != game.terminal]
            sigma[u] = mains[0] if u < k and mains else exits[0]
        values.append(play_of(game, Situation(sigma, {})).cost1)
    assert values == expected
    assert all(a > b for a, b in zip(values, values[1:]))

    # truncating the ladder at depth d: the equilibrium exits at the tip
    for d in range(1, 11):
        res = solve(caterpillar(d))
        assert res.kind == "terminal"
        assert res.cost1 == expected[d]
    _report(
        capsys,
        "[PASS] criterion 5: ladder exit costs equal 1 + (2/3)(1/2 + 4^-k) "
        "for k = 0..10, strictly decreasing; truncated solves agree",
    )


def test_c6_aligned_zero_pipeline(capsys):
    gen = InstanceGenerator(seed=1006)
    for _ in range(100):
        game = gen.sp_game(max_vertices=7, require="aligned")
        red1, red2, _, _ = aligned_reduced_costs(game)
        g = game.graph
        for player, red in ((PLAYER1, red1), (PLAYER2, red2)):
            for u in range(g.n):
                if game.owner[u] == TERMINAL:
                    continue
                outs = [red[e] for e in g.out[u]]
                if game.owner[u] == player:
                    assert min(outs) == 0
                else:
                    assert max(outs) == 0
        res = ne_from_zero_reduced_costs(game, red1, red2)
        assert res.kind == "terminal"
        assert verify_ne(game, res.situation).is_ne
    _report(
        capsys,
        "[PASS] criterion 6: 100/100 neither-player-blocks games satisfy the "
        "exact zero equalities in both metrics and yield verified terminal "
        "equilibria",
    )


def test_c7_sweep_scales_near_linearly(capsys):
    import random

    sizes = (25_000, 50_000, 100_000)
    times = {}
    rows = []
    for edges in sizes:
        graph, sink, weights = layered_graph(edges, seed=1007)
        rng = random.Random(1007 ^ edges)
        bounds = {
            u: rng.randint(0, len(graph.out[u]) - 1)
            for u in range(graph.n)
            if graph.out[u]
        }
        oracle = cardinality_oracle(graph, bounds)
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            interdicted_distances(graph, sink, weights, oracle, check=False)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        times[edges] = best
        rows.append(f"{graph.m} edges: {best * 1000:.0f}ms")
        assert best <= 2.0, f"{edges} edges took {best:.2f}s, budget 2s"
    for small, big in ((25_000, 50_000), (50_000, 100_000)):
        ratio = times[big] / times[small]
        assert ratio <= 2.5, f"time({big})/time({small}) = {ratio:.2f} > 2.5"
    _report(
        capsys,
        "[PASS] criterion 7: sweep under 2s per size and doubling ratios "
        "under 2.5 (" + "; ".join(rows) + ")",
    )


def test_c8_terminal_ne_scan_over_forcing_instances(capsys):
    t0 = time.perf_counter()
    gen = InstanceGenerator(seed=1008)
    found = 0
    missing = []
    for i in range(10_000):
        game = gen.sp_game(max_vertices=7, require="both_force")
        # the scan confirms every hit with the literal deviation check and
        # raises on any disagreement, which would fail this test
        res = search_terminal_ne(game)
        if res.found:
            found += 1
        else:
            QUARANTINE.mkdir(exist_ok=True)
            path = QUARANTINE / f"no_terminal_ne_{i}.json"
            path.write_text(dumps(game_to_json(game)))
            missing.append(str(path))
    elapsed = time.perf_counter() - t0
    if missing:
        _report(
            capsys,
            f"[PASS] criterion 8: scan completed on 10000 instances in "
            f"{elapsed:.1f}s; {found} verified terminal equilibria; "
            f"{len(missing)} instances without one written to "
            f"{QUARANTINE}/ for inspection",
        )
    else:
        _report(
            capsys,
            f"[PASS] criterion 8: scan completed on 10000 instances in "
            f"{elapsed:.1f}s; all {found} had a terminal equilibrium, each "
            f"confirmed by the literal deviation check",
        )
