"""Span tracing around the public functions at each module boundary.

Nothing under `src/` is touched: `Tracer.install` rebinds each traced
function in every `spgame` module namespace that holds it (so
`spgame.cli.validate` and `spgame.game.validate` are both covered), and
`uninstall` puts the originals back.  Spans carry an op id, a span id, a
parent span id, a name, a start and an end; they are kept in memory and
written out when the run ends.  A span's self time is its duration minus
the time its child spans cover.

`IndependenceOracle.is_independent` is counted and timed rather than
spanned: it runs tens of thousands of times per op, and its time stays in
the self time of the span that made the query.  The heap counters come
from the finalization order the sweep returns (see `sweep_counters`), so
the sweep kernel itself carries no hook.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter

from spgame import dijkstra, game, independence, interdiction, jsonio, ne, transform
from spgame import cli as spgame_cli


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    queries: int = 0
    query_s: float = 0.0
    # (args, result), kept until the op ends for counters derived from them
    payload: tuple = field(default=(), repr=False)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_ms": self.self_s * 1000,
            "queries": self.queries,
            "query_ms": self.query_s * 1000,
        }


def sweep_counters(graph, order) -> tuple[int, int]:
    """(heap pushes, finalized vertices) of one sweep, from its
    finalization order.  When vertex v is finalized the kernel pushes every
    arc into v whose tail is not finalized yet, and the heap drains, so
    pops equal pushes; a pop either queries the oracle or is stale."""
    pos = {v: i for i, v in enumerate(order)}
    tails = graph.tails
    never = len(order)
    pushes = 0
    for i, v in enumerate(order):
        for e in graph.inc[v]:
            if pos.get(tails[e], never) > i:
                pushes += 1
    return pushes, len(order)


# span name -> functions it wraps (module attribute or class method)
SPANNED = {
    "cli": [spgame_cli.main],
    "jsonio.load": [jsonio.load_path],
    "jsonio.dump": [
        jsonio.dumps,
        jsonio.ne_result_to_json,
        jsonio.interdiction_result_to_json,
        jsonio.potentials_to_json,
    ],
    "game.validate": [game.validate],
    "game.normalize": [game.normalize],
    "independence.oracle_build": [
        independence.sp_blocking_oracle,
        (independence.IndependenceOracle, "__init__"),
    ],
    "independence.dual": [(independence.IndependenceOracle, "dual")],
    "dijkstra.sweep": [dijkstra.interdicted_distances],
    "dijkstra.verify": [dijkstra.verify_potentials],
    "dijkstra.shortest_path": [dijkstra.shortest_longest_distances],
    "transform.reduce_costs": [transform.reduce_costs],
    "ne.solve": [ne.solve],
    "interdiction.solve": [interdiction.solve_interdiction],
    "interdiction.cost": [interdiction.interdiction_cost],
    "interdiction.validate_situation": [interdiction.validate_interdiction_situation],
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.layers = LayerTotals()
        self._stack: list[Span] = []
        self._op = -1
        self._bindings = self._find_bindings()

    # -- installation ------------------------------------------------------

    def _find_bindings(self):
        """(owner, attribute, original, replacement) for every place a
        traced function is bound."""
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "spgame" or name.startswith("spgame."))
        ]
        out = []
        for name, targets in SPANNED.items():
            for target in targets:
                if isinstance(target, tuple):
                    cls, attr = target
                    fn = getattr(cls, attr)
                    out.append((cls, attr, fn, self._wrap(name, fn)))
                    continue
                wrapper = self._wrap(name, target)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is target:
                            out.append((m, attr, target, wrapper))
        cls = independence.IndependenceOracle
        query = cls.is_independent
        out.append((cls, "is_independent", query, self._wrap_query(query)))
        return out

    def install(self) -> None:
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.payload = (args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_query(self, fn):
        stack = self._stack

        def is_independent(oracle, u, arcs):
            t0 = perf_counter()
            result = fn(oracle, u, arcs)
            span = stack[-1]
            span.query_s += perf_counter() - t0
            span.queries += 1
            return result

        is_independent.__wrapped__ = fn
        return is_independent

    def start_op(self) -> Span:
        """Open the root span of one op; every span of the op shares its
        op id."""
        self._op += 1
        return self._open("op")

    def finish_op(self, root: Span) -> None:
        """Close the root span and fold the op's spans into the per-layer
        totals, dropping the references they held."""
        self._close(root)
        for span in self.spans[root.id :]:
            self.layers.add(span)
            span.payload = ()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "jsonio.load.self_ms": "ms",
    "jsonio.dump.self_ms": "ms",
    "jsonio.bytes_in": "bytes",
    "game.validate.self_ms": "ms",
    "game.normalize.self_ms": "ms",
    "independence.queries": "count",
    "independence.query_ms": "ms",
    "independence.dual.self_ms": "ms",
    "independence.oracle_build.self_ms": "ms",
    "dijkstra.sweeps": "count",
    "dijkstra.sweep.self_ms": "ms",
    "dijkstra.sweep.query_ms": "ms",
    "dijkstra.verify.self_ms": "ms",
    "dijkstra.shortest_path.self_ms": "ms",
    "dijkstra.heap_pushes": "count",
    "dijkstra.stale_pops": "count",
    "dijkstra.useful_pop_ratio": "ratio",
    "dijkstra.finalized_share": "ratio",
    "transform.reduce_costs.self_ms": "ms",
    "ne.solve.self_ms": "ms",
    "ne.branch.one_sided": "count",
    "ne.branch.cyclic": "count",
    "interdiction.solve.self_ms": "ms",
    "interdiction.cost.self_ms": "ms",
    "interdiction.validate_situation.self_ms": "ms",
    "interdiction.branch.primal": "count",
    "interdiction.branch.dual": "count",
    "interdiction.branch.cyclic": "count",
    "cli.self_ms": "ms",
    # filled in by the run itself
    "bruteforce.certificate_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}


class LayerTotals:
    """Sums over every traced op; `per_op` turns them into the per-layer
    metrics: means per op, except the two ratios, which are taken over all
    sweeps of the run."""

    def __init__(self):
        self.total = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        self.pushes = self.finalized = self.vertices = self.sweep_queries = 0

    def add(self, span: Span) -> None:
        total = self.total
        key = f"{span.name}.self_ms"
        if key in total:
            total[key] += span.self_s * 1000
        total["independence.queries"] += span.queries
        total["independence.query_ms"] += span.query_s * 1000
        if not span.payload:
            return
        args, result = span.payload
        if span.name == "jsonio.load":
            total["jsonio.bytes_in"] += os.path.getsize(args[0])
        elif span.name == "dijkstra.sweep":
            pushes, finalized = sweep_counters(args[0], result.order)
            self.pushes += pushes
            self.finalized += finalized
            self.vertices += args[0].n
            self.sweep_queries += span.queries
            total["dijkstra.sweeps"] += 1
            total["dijkstra.sweep.query_ms"] += span.query_s * 1000
        elif span.name == "ne.solve":
            branch = "cyclic" if result.kind == "cyclic" else "one_sided"
            total[f"ne.branch.{branch}"] += 1
        elif span.name == "interdiction.solve":
            branch = result.certificate.get("branch") or result.certificate["method"]
            total[f"interdiction.branch.{branch}"] += 1

    def per_op(self, ops: int) -> dict:
        out = {name: value / ops for name, value in self.total.items()}
        out["dijkstra.heap_pushes"] = self.pushes / ops
        out["dijkstra.stale_pops"] = (self.pushes - self.sweep_queries) / ops
        out["dijkstra.useful_pop_ratio"] = (
            self.sweep_queries / self.pushes if self.pushes else 0.0
        )
        out["dijkstra.finalized_share"] = (
            self.finalized / self.vertices if self.vertices else 0.0
        )
        return out
