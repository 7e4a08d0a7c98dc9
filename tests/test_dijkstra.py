import heapq
import random
from fractions import Fraction as F

import pytest

from spgame.bruteforce import exhaustive_phi
from spgame.costs import INF
from spgame.dijkstra import (
    Potentials,
    dist_to_target,
    interdicted_distances,
    shortest_longest_distances,
    tight_path,
    verify_potentials,
)
from spgame.errors import InputError, InternalInvariantError, OracleViolation
from spgame.game import PLAYER1, PLAYER2, TERMINAL, SPGame
from spgame.generators import InstanceGenerator
from spgame.graph import Digraph
from spgame.independence import (
    BudgetRule,
    CardinalityRule,
    DualRule,
    ExplicitRule,
    IndependenceOracle,
    cardinality_oracle,
    explicit_rule,
)


def diamond():
    """s has a cheap and a direct arc, a has two exits of cost 1 and 3;
    one removal allowed everywhere."""
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w = (F(1), F(5), F(1), F(3))
    oracle = cardinality_oracle(g, {0: 1, 1: 1})
    return g, w, oracle


# ---------------------------------------------------------------------------
# worked example, frozen by hand


def test_sweep_worked_example():
    g, w, oracle = diamond()
    pot = interdicted_distances(g, 2, w, oracle)
    assert pot.potential == (F(5), F(3), 0)
    assert pot.blocked == (frozenset({0}), frozenset({2}), frozenset())
    assert pot.witness == (1, 3, None)
    assert pot.order == (2, 1, 0)
    assert pot[0] == 5
    assert pot.finite_vertices == {0, 1, 2}


def test_sweep_detects_blocked_region():
    # both exits of a can never both survive: k=1 of 2 leaves one, but
    # giving the blocker both (k=2 is illegal) -- instead strand a vertex
    g = Digraph.from_arcs(3, [(0, 2), (1, 0)])
    oracle = cardinality_oracle(g, 0)
    pot = interdicted_distances(g, 2, (F(1), F(1)), oracle)
    assert pot[1] == 2 and pot[0] == 1

    g = Digraph.from_arcs(3, [(0, 2), (1, 1)])
    pot = interdicted_distances(g, 2, (F(1), F(2)), cardinality_oracle(g, 0))
    assert pot[1] == INF
    assert pot.infinite_vertices == {1}
    assert pot.witness[1] is None


def test_zero_weights_allowed():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    pot = interdicted_distances(g, 2, (0, 0), cardinality_oracle(g, 0))
    assert pot.potential == (0, 0, 0)


@pytest.mark.parametrize("bad", [-1, 0.5, F(-1, 2)])
def test_invalid_weights_rejected(bad):
    g = Digraph.from_arcs(2, [(0, 1)])
    message = "exact" if isinstance(bad, float) else "negative weight on arc 0"
    with pytest.raises(InputError, match=message):
        interdicted_distances(g, 1, (bad,), cardinality_oracle(g, 0))


def test_finalization_order_is_monotone():
    gen = InstanceGenerator(seed=9)
    for _ in range(30):
        inst = gen.interdiction_game(max_vertices=7)
        pot = interdicted_distances(
            inst.graph, inst.terminal, inst.r2, inst.oracle
        )
        vals = [pot[u] for u in pot.order]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# degenerate oracles reduce to classical shortest paths


def test_cardinality_zero_is_plain_dijkstra():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 8)
        arcs = [
            (u, rng.randrange(n))
            for u in range(n - 1)
            for _ in range(rng.randint(1, 3))
        ]
        arcs.append((n - 2 if n > 1 else 0, n - 1))
        g = Digraph.from_arcs(n, arcs)
        w = [F(rng.randint(1, 9)) for _ in arcs]
        pot = interdicted_distances(g, n - 1, w, cardinality_oracle(g, 0))
        assert list(pot.potential) == dist_to_target(g, n - 1, w)


def test_arc_filter_respected():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (0, 2)])
    w = (F(1), F(1), F(3))
    assert dist_to_target(g, 2, w) == [2, 1, 0]
    assert dist_to_target(g, 2, w, arc_ok=lambda e: e != 1) == [3, INF, 0]


# ---------------------------------------------------------------------------
# agreement with the exhaustive oracle


def test_matches_exhaustive_enumeration():
    gen = InstanceGenerator(seed=77)
    for _ in range(40):
        inst = gen.interdiction_game(max_vertices=6, kinds=("explicit",))
        pot = interdicted_distances(
            inst.graph, inst.terminal, inst.r2, inst.oracle
        )
        brute = exhaustive_phi(inst.graph, inst.terminal, inst.r2, inst.oracle)
        assert list(pot.potential) == list(brute)


def test_enlarging_independence_never_shrinks_phi():
    # a blocker that may remove more can only push distances up
    gen = InstanceGenerator(seed=13)
    compared = 0
    for _ in range(25):
        inst = gen.interdiction_game(max_vertices=7, kinds=("cardinality",))
        g, t, w = inst.graph, inst.terminal, inst.r2
        base = interdicted_distances(g, t, w, inst.oracle)
        wider_rules = {
            u: CardinalityRule(min(len(g.out[u]) - 1, rule.k + 1))
            for u, rule in inst.oracle.rules.items()
        }
        if all(
            wider_rules[u].k == inst.oracle.rules[u].k for u in wider_rules
        ):
            continue
        wide = interdicted_distances(
            g, t, w, IndependenceOracle(g, wider_rules)
        )
        for u in range(g.n):
            assert wide[u] >= base[u]
        compared += 1
    assert compared >= 10


# ---------------------------------------------------------------------------
# certificate checking


def test_verify_accepts_genuine_potentials():
    g, w, oracle = diamond()
    pot = interdicted_distances(g, 2, w, oracle, check=False)
    verify_potentials(g, 2, w, oracle, pot)


def test_verify_rejects_corrupted_value():
    g, w, oracle = diamond()
    pot = interdicted_distances(g, 2, w, oracle, check=False)
    bad = Potentials(
        target=pot.target,
        potential=(F(4), pot.potential[1], pot.potential[2]),
        blocked=pot.blocked,
        witness=pot.witness,
        order=pot.order,
    )
    with pytest.raises(InternalInvariantError):
        verify_potentials(g, 2, w, oracle, bad)


def test_verify_rejects_overfull_removal_set():
    g, w, oracle = diamond()
    pot = interdicted_distances(g, 2, w, oracle, check=False)
    bad = Potentials(
        target=pot.target,
        potential=pot.potential,
        blocked=(frozenset({0, 1}), pot.blocked[1], pot.blocked[2]),
        witness=pot.witness,
        order=pot.order,
    )
    with pytest.raises(OracleViolation):
        verify_potentials(g, 2, w, oracle, bad)


def test_verify_rejects_false_infinity():
    g, w, oracle = diamond()
    bad = Potentials(
        target=2,
        potential=(INF, F(3), 0),
        blocked=(frozenset(), frozenset({2}), frozenset()),
        witness=(None, 3, None),
        order=(2, 1),
    )
    with pytest.raises(InternalInvariantError):
        verify_potentials(g, 2, w, oracle, bad)


def test_verify_reads_exact_values_at_another_scale():
    # potentials built from exact values get their own scale (2), not the
    # weights' (6); they are checked on exact values, and still caught
    # once one of them is wrong
    g = Digraph.from_arcs(3, [(0, 1), (0, 2), (1, 2), (1, 2)])
    w = (F(1, 3), F(5, 2), F(1, 2), F(3, 2))
    oracle = cardinality_oracle(g, {0: 1, 1: 1})
    pot = interdicted_distances(g, 2, w, oracle, check=False)
    assert pot.potential.scale == 6
    exact = Potentials(2, tuple(pot.potential), pot.blocked, (None,) * 3)
    assert exact.potential == pot.potential == (F(5, 2), F(3, 2), 0)
    assert exact.potential.scale == 2
    verify_potentials(g, 2, w, oracle, exact)
    for wrong in ((F(7, 3), F(3, 2), 0), (F(5, 2), F(1, 2), 0), (INF, F(3, 2), 0)):
        bad = Potentials(2, wrong, pot.blocked, (None,) * 3)
        with pytest.raises(InternalInvariantError):
            verify_potentials(g, 2, w, oracle, bad)


def test_sweep_rejects_a_bad_target_or_sink():
    g = Digraph.from_arcs(3, [(0, 2), (1, 2), (2, 0)])
    with pytest.raises(InputError, match="^target vertex must have no outgoing arcs$"):
        interdicted_distances(g, 2, (1, 1, 1), cardinality_oracle(g, 0))
    g = Digraph.from_arcs(3, [(0, 2)])
    with pytest.raises(InputError, match="^vertex 1 is a sink but not the target$"):
        interdicted_distances(g, 2, (1,), cardinality_oracle(g, 0))


# ---------------------------------------------------------------------------
# the growth step against one oracle query per extraction


def reference_sweep(graph, t, weights, rules):
    """The sweep with one rule query per extraction: is the vertex's
    removal set plus the extracted arc independent under `rules[u]`, a
    rule object (not the oracle's columns)?"""
    n = graph.n
    finalized = [False] * n
    value = [None] * n
    blocked = [frozenset()] * n
    witness = [None] * n
    order = [t]
    value[t] = 0
    finalized[t] = True
    heap = [(weights[e], e) for e in graph.inc[t]]
    heapq.heapify(heap)
    while heap:
        key, e = heapq.heappop(heap)
        u = graph.tails[e]
        if finalized[u]:
            continue
        grown = blocked[u] | {e}
        if rules[u].independent(grown):
            blocked[u] = grown
            continue
        value[u], witness[u], finalized[u] = key, e, True
        order.append(u)
        for e2 in graph.inc[u]:
            if not finalized[graph.tails[e2]]:
                heapq.heappush(heap, (weights[e2] + key, e2))
    potential = tuple(value[u] if finalized[u] else INF for u in range(n))
    return potential, tuple(blocked), tuple(witness), tuple(order)


def random_rule(rng, arcs, kind):
    deg = len(arcs)
    if kind == "cardinality":
        return CardinalityRule(rng.randint(0, deg - 1))
    if kind == "budget":
        costs = {e: F(rng.randint(1, 6), rng.randint(1, 4)) for e in arcs}
        return BudgetRule(costs, sum(costs.values()) * F(rng.randint(0, 9), 10))
    sets = []
    for _ in range(rng.randint(1, 3)):
        sub = [e for e in arcs if rng.random() < 0.6]
        if len(sub) == deg:
            sub.pop(rng.randrange(deg))
        sets.append(sub)
    return explicit_rule(sets)


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize(
    "kinds",
    [("cardinality",), ("budget",), ("explicit",), ("cardinality", "budget", "explicit")],
)
def test_sweep_matches_reference_loop(kinds, dual):
    rng = random.Random(f"{kinds}{dual}")
    for _ in range(60):
        n = rng.randint(2, 9)
        arcs = [
            (u, rng.randrange(n))
            for u in range(n - 1)
            for _ in range(rng.randint(1, 6))
        ]
        g = Digraph.from_arcs(n, arcs)
        w = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in arcs]
        rules = {
            u: random_rule(rng, g.out[u], rng.choice(kinds))
            for u in range(n - 1)
        }
        oracle = IndependenceOracle(g, rules)
        if dual:
            oracle = oracle.dual()
            rules = {u: DualRule(r, frozenset(g.out[u])) for u, r in rules.items()}
        pot = interdicted_distances(g, n - 1, w, oracle, check=False)
        potential, blocked, witness, order = reference_sweep(g, n - 1, w, rules)
        assert pot.potential == potential
        assert pot.blocked == blocked
        assert pot.witness == witness
        assert pot.order == order


class AtMost:
    """At most `k` arcs, known to the oracle only through `independent`:
    not a `CardinalityRule`, so it stays a side rule with the generic
    growth step."""

    def __init__(self, k):
        self.k = k

    def independent(self, arcs):
        return len(arcs) <= self.k


@pytest.mark.parametrize("dual", [False, True])
def test_generic_growth_step_sweeps_as_cardinality(dual):
    rng = random.Random(f"generic-rule{dual}")
    for _ in range(60):
        n = rng.randint(2, 9)
        arcs = [
            (u, rng.randrange(n))
            for u in range(n - 1)
            for _ in range(rng.randint(1, 6))
        ]
        g = Digraph.from_arcs(n, arcs)
        w = [F(rng.randint(0, 6), rng.randint(1, 3)) for _ in arcs]
        k = {u: rng.randrange(len(g.out[u])) for u in range(n - 1)}
        generic = IndependenceOracle(g, {u: AtMost(b) for u, b in k.items()})
        assert set(generic.side) == set(k)
        bounds = cardinality_oracle(g, k)
        if dual:
            generic, bounds = generic.dual(), bounds.dual()
            assert all(type(r) is DualRule for r in generic.side.values())
        got = interdicted_distances(g, n - 1, w, generic, check=True)
        want = interdicted_distances(g, n - 1, w, bounds, check=True)
        assert got.potential == want.potential
        assert got.blocked == want.blocked
        assert got.witness == want.witness
        assert got.order == want.order


@pytest.mark.parametrize(
    "kind", ["cardinality", "budget", "dual-budget", "explicit", "dual-explicit"]
)
def test_hub_sweep_queries_stay_linear(monkeypatch, kind):
    # four hubs of 4,000 parallel arcs each, chained to the target; a sweep
    # that re-queries the growing removal set pays the sum of its sizes,
    # which is quadratic in the degree
    deg = 4_000
    rng = random.Random(11)
    g = Digraph.from_arcs(5, [(u, u + 1) for u in range(4) for _ in range(deg)])
    w = [rng.randint(1, 100) for _ in range(g.m)]
    rules = {}
    for u in range(4):
        costs = {e: F(rng.randint(1, 5)) for e in g.out[u]}
        total = sum(costs.values())
        if kind == "cardinality":
            rules[u] = CardinalityRule(deg // 2)
        elif kind == "budget":
            rules[u] = BudgetRule(costs, total / 2)
        elif kind == "dual-budget":
            rules[u] = DualRule(BudgetRule(costs, total / 3), frozenset(g.out[u]))
        else:
            halves = [rng.sample(g.out[u], deg // 2) for _ in range(3)]
            rules[u] = explicit_rule(halves)
            if kind == "dual-explicit":
                rules[u] = DualRule(rules[u], frozenset(g.out[u]))
    oracle = IndependenceOracle(g, rules)

    passed = [0]
    for cls in (CardinalityRule, BudgetRule, ExplicitRule, DualRule):
        def counted(self, arcs, _inner=cls.independent):
            passed[0] += len(arcs)
            return _inner(self, arcs)

        monkeypatch.setattr(cls, "independent", counted)
    pot = interdicted_distances(g, 4, w, oracle, check=False)
    assert pot.finite_vertices == {0, 1, 2, 3, 4}
    m = g.m
    assert passed[0] <= 4 * m


# ---------------------------------------------------------------------------
# game-level wrapper


def test_shortest_longest_against_hand_solution():
    # at its own vertices a player picks, at the opponent's it suffers
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (1, 2), (0, 2)])
    game = SPGame(
        g,
        (PLAYER1, PLAYER2, TERMINAL),
        0,
        (F(1), F(1), F(6), F(9)),
        (F(1), F(1), F(6), F(9)),
    )
    pot1 = shortest_longest_distances(game, 1)
    assert pot1.potential == (F(7), F(6), 0)
    pot2 = shortest_longest_distances(game, 2)
    assert pot2.potential == (F(9), F(1), 0)


def test_tight_path_extraction():
    g = Digraph.from_arcs(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)])
    w = (F(1), F(1), F(1), F(1), F(2))
    d = dist_to_target(g, 3, w)
    assert d[0] == 2
    path = tight_path(g, 0, 3, w, d)
    assert path == (0, 1)
    filtered = tight_path(g, 0, 3, w, dist_to_target(g, 3, w, lambda e: e > 1), lambda e: e > 1)
    assert filtered in ((2, 3), (4,))


def test_tight_path_unreachable():
    g = Digraph.from_arcs(2, [(1, 0)])
    with pytest.raises(InputError):
        tight_path(g, 0, 1, (F(1),), dist_to_target(g, 1, (F(1),)))
