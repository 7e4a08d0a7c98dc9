import random
from fractions import Fraction as F

from spgame.costs import INF
from spgame.dijkstra import dist_to_target
from spgame.graph import Digraph
from spgame.transform import reduce_costs


def random_graph(rng, n):
    arcs = [(u, rng.randrange(n)) for u in range(n) for _ in range(2)]
    g = Digraph.from_arcs(n, arcs)
    w = [F(rng.randint(1, 9), rng.randint(1, 3)) for _ in arcs]
    return g, w


def test_zero_potential_is_identity():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2)])
    w = (F(3), F(1, 2))
    red = reduce_costs(g, w, (0, 0, 0))
    assert [red[e] for e in range(2)] == list(w)
    assert 0 in red and 5 not in red


def test_path_costs_telescope():
    rng = random.Random(11)
    for _ in range(20):
        g, w = random_graph(rng, 6)
        phi = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        red = reduce_costs(g, w, phi)
        # any walk u0 -> uk shifts by phi(uk) - phi(u0)
        u = rng.randrange(6)
        walk = []
        for _ in range(5):
            e = rng.choice(g.out[u])
            walk.append(e)
            u = g.heads[e]
        shift = phi[u] - phi[g.tails[walk[0]]]
        assert sum(red[e] for e in walk) == sum(w[e] for e in walk) + shift


def test_cycle_costs_invariant():
    g = Digraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    w = (F(1), F(2), F(3))
    red = reduce_costs(g, w, (F(7), F(-2), F(1, 3)))
    assert red[0] + red[1] + red[2] == 6


def test_shortest_path_potentials_make_tight_arcs_zero():
    rng = random.Random(23)
    for _ in range(20):
        g, w = random_graph(rng, 6)
        dist = dist_to_target(g, 5, w)
        red = reduce_costs(g, w, dist)
        for e, c in red.items():
            assert c >= 0
            tight = w[e] + dist[g.heads[e]] == dist[g.tails[e]]
            assert (c == 0) == tight


def test_arcs_touching_infinite_potential_are_left_out():
    # exactly the arcs with two finite endpoints get a reduced cost, and an
    # infinite potential is no error
    g = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)])
    w = tuple(F(e + 1) for e in range(g.m))
    red = reduce_costs(g, w, (F(1, 2), 0, INF, 3))
    assert type(red) is dict
    assert red == {0: F(1, 2), 3: F(3, 2), 5: F(6)}
    assert reduce_costs(Digraph.from_arcs(2, [(0, 1)]), (F(1),), (0, INF)) == {}
