"""Per-vertex independence systems over outgoing arc sets.

At each vertex the blocking player may remove any *independent* subset of
the outgoing arcs; the family of independent sets is downward closed,
contains the empty set, and never contains the full arc set.  The moving
player answers with a *dependent* set — one contained in no independent
set.  Rules are queried through `IndependenceOracle`, which also knows how
to dualize (swap the roles of the two families by complementation), and
keeps cardinality and budget rules and their duals as two int columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

from .costs import _exact, integer_image
from .errors import CapExceeded, InputError, InvalidSubset, OracleViolation
from .graph import Digraph


@dataclass(frozen=True)
class CardinalityRule:
    """Independent iff at most `k` arcs."""

    k: int

    def independent(self, arcs: frozenset) -> bool:
        return len(arcs) <= self.k


@dataclass(frozen=True)
class BudgetRule:
    """Independent iff total removal cost stays within the budget.
    Removal costs must be positive rationals."""

    costs: Mapping[int, Fraction]
    budget: Fraction

    def independent(self, arcs: frozenset) -> bool:
        return sum(self.costs[e] for e in arcs) <= self.budget


@dataclass(frozen=True)
class ExplicitRule:
    """Independent iff contained in one of the listed maximal sets."""

    maximal: tuple[frozenset, ...]

    def independent(self, arcs: frozenset) -> bool:
        return any(arcs <= m for m in self.maximal)


@dataclass(frozen=True)
class DualRule:
    """Independent iff the complement within the ground set is dependent
    under the wrapped rule."""

    inner: object
    ground: frozenset

    def independent(self, arcs: frozenset) -> bool:
        return not self.inner.independent(self.ground - arcs)


def explicit_rule(sets: Iterable[Iterable[int]]) -> ExplicitRule:
    """Normalize generating sets: keep the maximal ones, at least `{}`."""
    fams = {frozenset(s) for s in sets} or {frozenset()}
    maximal = [s for s in fams if not any(s < o for o in fams)]
    return ExplicitRule(tuple(sorted(maximal, key=sorted)))


class IndependenceOracle:
    """Bundle of per-vertex rules for a fixed digraph.  Validates on
    construction that every rule admits the empty set and rejects the full
    outgoing arc set (vertices with no rule and no arcs are fine).

    Cardinality and budget rules, and their duals, are two int columns:
    arcs out of u are independent iff their `weight`s sum to at most
    `cap[u]` (bound k: weight 1, cap k; budget: costs and budget times their
    LCM `scale`).  `columns`, if given, holds such rules as `(weight, cap,
    scale)`, cap None where there is none, and is taken over.  At `side`
    vertices, which keep every other rule, and at vertices without a rule,
    cap is 0 and total weight 1: a fixed point of `dual` that fits no arc."""

    def __init__(self, graph: Digraph, rules: Mapping[int, object], columns=None):
        out = graph.out
        weight, cap, scale = columns or ([1] * graph.m, [None] * graph.n, {})
        side: dict[int, object] = {}
        for u, rule in rules.items():
            arcs = out[u]
            flip = isinstance(rule, DualRule) and rule.ground == frozenset(arcs)
            inner = rule.inner if flip else rule
            if arcs and isinstance(inner, BudgetRule):
                missing = [e for e in arcs if e not in inner.costs]
                if missing:
                    raise InputError(f"vertex {u}: budget costs missing arcs {missing}")
                costs = [*map(inner.costs.__getitem__, arcs), inner.budget]
                scale[u], ints = integer_image(costs)
                for e, w in zip(arcs, ints):
                    weight[e] = w
                cap[u] = sum(ints) - 2 * ints[-1] - 1 if flip else ints[-1]
            elif arcs and isinstance(inner, CardinalityRule):
                cap[u] = len(arcs) - inner.k - 1 if flip else inner.k
            else:
                side[u] = rule
        total = [len(arcs) for arcs in out]
        for u in scale:
            total[u] = sum(map(weight.__getitem__, out[u]))
        self.graph, self.weight, self.cap, self.side = graph, weight, cap, side
        self._total, self._scale = total, scale
        # side vertices, vertices without a rule, and caps out of range
        odd = [
            u
            for u, (c, w) in enumerate(zip(cap, total))
            if c is None or not 0 <= c < w
        ]
        for u in odd:
            rule = side.get(u)
            if rule is None and cap[u] is None:
                if out[u]:
                    raise InputError(f"vertex {u} has outgoing arcs but no rule")
            elif not (cap[u] >= 0 if rule is None else rule.independent(frozenset())):
                raise InputError(f"empty set dependent at vertex {u}")
            elif rule is None or out[u] and rule.independent(frozenset(out[u])):
                raise InputError(
                    f"all outgoing arcs of vertex {u} are removable at once"
                )
            cap[u], total[u] = 0, 1

    @property
    def rules(self) -> dict:
        """The rule at every vertex that has one: its `side` rule, or a
        `CardinalityRule` or `BudgetRule` rebuilt from the columns."""
        rules = {}
        for u, arcs in enumerate(self.graph.out):
            scale = self._scale.get(u)
            if u in self.side:
                rules[u] = self.side[u]
            elif arcs and scale is None:
                rules[u] = CardinalityRule(self.cap[u])
            elif arcs:
                costs = {e: _exact(Fraction(self.weight[e], scale)) for e in arcs}
                rules[u] = BudgetRule(costs, _exact(Fraction(self.cap[u], scale)))
        return rules

    def admits(self, u: int, arcs) -> bool:
        """Whether the rule at `u` lets the blocker remove `arcs`, a set of
        `u`'s outgoing arcs (unchecked, unlike `is_independent`)."""
        if u in self.side:
            return self.side[u].independent(frozenset(arcs))
        if u in self._scale:
            return sum(map(self.weight.__getitem__, arcs)) <= self.cap[u]
        return len(arcs) <= self.cap[u]  # weight 1 each

    def is_independent(self, u: int, arcs) -> bool:
        arcs = frozenset(arcs)
        if not arcs.issubset(self.graph.out[u]):
            raise InvalidSubset(f"query at vertex {u} contains non-outgoing arcs")
        return self.admits(u, arcs)

    def is_dependent(self, u: int, arcs) -> bool:
        return not self.is_independent(u, arcs)

    def dual(self) -> "IndependenceOracle":
        """Oracle whose independent sets are the complements of the original's
        dependent sets (an involution): each cap becomes total - cap - 1."""
        dual = IndependenceOracle.__new__(IndependenceOracle)
        dual.__dict__.update(vars(self))
        dual.cap = [w - c - 1 for w, c in zip(self._total, self.cap)]
        dual.side = {}
        for u, rule in self.side.items():
            ground = frozenset(self.graph.out[u])
            flip = isinstance(rule, DualRule) and rule.ground == ground
            dual.side[u] = rule.inner if flip else DualRule(rule, ground)
        return dual

    def growth_step(self, u: int) -> Callable[[int], bool]:
        """Step that grows a removal set at side vertex `u` from empty, one
        new outgoing arc at a time: `add(e)` keeps `e` and returns True iff
        the grown set is independent.  O(number of maximal sets) per arc
        for explicit rules and their duals, one query for other rules."""
        rule = self.side[u]
        ground = frozenset(self.graph.out[u])
        flip = isinstance(rule, DualRule) and rule.ground == ground
        inner = rule.inner if flip else rule
        if isinstance(inner, ExplicitRule):
            return _explicit_step(inner.maximal, ground, dual=flip)
        grown = set()

        def add(e: int) -> bool:
            grown.add(e)
            if rule.independent(frozenset(grown)):
                return True
            grown.discard(e)
            return False

        return add


def _explicit_step(maximal, ground, dual: bool) -> Callable[[int], bool]:
    """Growth step for an explicit rule or its dual: count the grown arcs
    outside each maximal set m; independent iff a count is 0, or, under
    the dual, iff the grown set contains no complement `ground - m`."""
    outside = [0] * len(maximal)
    limit = [len(ground - m) for m in maximal]

    def add(e: int) -> bool:
        grown = [c + (e not in m) for c, m in zip(outside, maximal)]
        fits = all(map(int.__lt__, grown, limit)) if dual else 0 in grown
        if fits:
            outside[:] = grown
        return fits

    return add


def cardinality_oracle(graph: Digraph, k: Mapping[int, int] | int) -> IndependenceOracle:
    cap = [
        min(k if isinstance(k, int) else k[u], len(arcs) - 1) if arcs else None
        for u, arcs in enumerate(graph.out)
    ]
    return IndependenceOracle(graph, {}, ([1] * graph.m, cap, {}))


def sp_blocking_oracle(game, blocker: int) -> IndependenceOracle:
    """The special case encoding a plain two-person game: at the blocker's
    own vertices every proper subset is removable (the remaining single arc
    is the blocker's move); at the other player's vertices nothing is."""
    from .game import TERMINAL

    g = game.graph
    cap = [
        None if o == TERMINAL else len(arcs) - 1 if o == blocker else 0
        for o, arcs in zip(game.owner, g.out)
    ]
    return IndependenceOracle(g, {}, ([1] * g.m, cap, {}))


# ---------------------------------------------------------------------------
# exhaustive enumeration (verification-scale only)

_ENUM_LIMIT = 20


def _subsets(oracle: IndependenceOracle, u: int, independent: bool) -> list:
    ground = sorted(oracle.graph.out[u])
    if len(ground) > _ENUM_LIMIT:
        raise CapExceeded(f"ground set too large to enumerate at vertex {u}")
    return [
        s
        for size in range(len(ground) + 1)
        for s in map(frozenset, combinations(ground, size))
        if oracle.is_independent(u, s) == independent
    ]


def independent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    """All independent sets at `u`, smallest first, deterministic order."""
    return _subsets(oracle, u, True)


def dependent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    return _subsets(oracle, u, False)


def maximal_independent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    alls = independent_sets(oracle, u)
    return [s for s in alls if not any(s < o for o in alls)]


def check_downward_closed(oracle: IndependenceOracle, u: int) -> None:
    """Exhaustively confirm the rule at `u` is subset-closed; raises
    OracleViolation with a witness pair otherwise."""
    indep = set(independent_sets(oracle, u))
    for s in indep:
        for e in s:
            if s - {e} not in indep:
                raise OracleViolation(
                    f"vertex {u}: {sorted(s)} independent but subset without "
                    f"arc {e} is not"
                )
