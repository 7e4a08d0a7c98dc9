"""Directed multigraphs with stable arc indices.

Vertices are dense integers 0..n-1.  Arcs are numbered in insertion order
and that index is the universal tie-breaker everywhere in the package, so
results are deterministic for a fixed input encoding.  Loops and parallel
arcs are allowed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError


@dataclass(frozen=True)
class Digraph:
    n: int
    tails: tuple[int, ...]
    heads: tuple[int, ...]
    out: tuple[tuple[int, ...], ...] = field(repr=False)
    inc: tuple[tuple[int, ...], ...] = field(repr=False)
    # the vertices without out-arcs, lowest first
    sinks: tuple[int, ...] = field(repr=False, compare=False)

    @staticmethod
    def from_arcs(n: int, pairs: Iterable[tuple[int, int]]) -> "Digraph":
        pairs = list(pairs)
        return Digraph.from_columns(n, [u for u, _ in pairs], [v for _, v in pairs])

    @staticmethod
    def from_columns(n: int, tails: Sequence[int], heads: Sequence[int]) -> "Digraph":
        """The digraph whose arc `e` runs from `tails[e]` to `heads[e]`;
        the one place that builds the adjacency lists and finds the
        sinks."""
        tails, heads = tuple(tails), tuple(heads)
        if len(tails) != len(heads):
            raise InputError("tail and head columns differ in length")
        if tails and (
            min(min(tails), min(heads)) < 0 or max(max(tails), max(heads)) >= n
        ):
            e = next(
                e
                for e, (u, v) in enumerate(zip(tails, heads))
                if not (0 <= u < n and 0 <= v < n)
            )
            raise InputError(f"arc {e}: endpoint out of range")
        out: list[list[int]] = [[] for _ in range(n)]
        inc: list[list[int]] = [[] for _ in range(n)]
        # one loop, so `out` and `inc` share each arc's index object
        for e, (u, v) in enumerate(zip(tails, heads)):
            out[u].append(e)
            inc[v].append(e)
        return Digraph(
            n,
            tails,
            heads,
            tuple([tuple(a) for a in out]),
            tuple([tuple(a) for a in inc]),
            tuple([u for u, a in enumerate(out) if not a]),
        )

    @property
    def m(self) -> int:
        return len(self.tails)

    def arc(self, e: int) -> tuple[int, int]:
        return self.tails[e], self.heads[e]

    def out_arcs(self, u: int) -> tuple[int, ...]:
        return self.out[u]

    def in_arcs(self, v: int) -> tuple[int, ...]:
        return self.inc[v]


def reachable_from(graph: Digraph, source: int) -> set[int]:
    """Vertices reachable from `source` (including it)."""
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        for e in graph.out[u]:
            v = graph.heads[e]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reaches(graph: Digraph, target: int) -> set[int]:
    """Vertices from which `target` is reachable (including it)."""
    seen = {target}
    stack = [target]
    while stack:
        v = stack.pop()
        for e in graph.inc[v]:
            u = graph.tails[e]
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def min_mean_cycle(graph: Digraph, weights: Sequence) -> Fraction | None:
    """Minimum mean weight over all directed cycles, or None if the graph
    is acyclic.  Exact over rationals (walk-based dynamic program)."""
    n, m = graph.n, graph.m
    if n == 0 or m == 0:
        return None
    # d[k][v] = min weight of a k-arc walk ending at v, any start vertex
    prev = [Fraction(0)] * n
    table = [prev]
    for _ in range(n):
        cur = [None] * n
        for e in range(m):
            u, v = graph.tails[e], graph.heads[e]
            if prev[u] is None:
                continue
            w = prev[u] + weights[e]
            if cur[v] is None or w < cur[v]:
                cur[v] = w
        table.append(cur)
        prev = cur
    best = None
    last = table[n]
    for v in range(n):
        if last[v] is None:
            continue
        worst = None
        for k in range(n):
            if table[k][v] is None:
                continue
            mean = Fraction(last[v] - table[k][v], n - k)
            if worst is None or mean > worst:
                worst = mean
        if worst is not None and (best is None or worst < best):
            best = worst
    return best
