"""Potential-based cost reduction.

Shifting an arc cost by the potential difference of its endpoints leaves
every cycle cost unchanged and shifts every (s, t)-path cost by the same
constant, so it preserves which paths are cheapest and which cycles are
positive.  Constructions in this package read equilibrium structure off
arcs whose reduced cost is zero.
"""

from __future__ import annotations

from typing import Sequence

from .costs import Cost, is_finite
from .graph import Digraph


def reduce_costs(
    graph: Digraph, weights: Sequence, potential: Sequence
) -> dict[int, Cost]:
    """reduced(u, v) = cost(u, v) + potential(v) - potential(u) for every
    arc whose two endpoints have finite potential; an arc that touches a
    vertex of infinite potential has no reduced cost and is left out."""
    finite = [is_finite(p) for p in potential]
    return {
        e: weights[e] + potential[v] - potential[u]
        for e, (u, v) in enumerate(zip(graph.tails, graph.heads))
        if finite[u] and finite[v]
    }
