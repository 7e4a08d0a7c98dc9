"""Per-vertex independence systems over outgoing arc sets.

At each vertex the blocking player may remove any *independent* subset of
the outgoing arcs; the family of independent sets is downward closed,
contains the empty set, and never contains the full arc set.  The moving
player answers with a *dependent* set — one contained in no independent
set.  Rules are queried through `IndependenceOracle`, which also knows how
to dualize (swap the roles of the two families by complementation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Mapping

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
        return sum((self.costs[e] for e in arcs), Fraction(0)) <= self.budget


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
    """Normalize arbitrary generating sets: drop non-maximal ones, always
    keep at least the empty set."""
    fams = {frozenset(s) for s in sets}
    if not fams:
        fams = {frozenset()}
    maximal = tuple(
        sorted(
            (s for s in fams if not any(s < o for o in fams)),
            key=lambda s: sorted(s),
        )
    )
    return ExplicitRule(maximal)


class IndependenceOracle:
    """Bundle of per-vertex rules for a fixed digraph.  Validates on
    construction that every rule admits the empty set and rejects the full
    outgoing arc set (vertices with no rule and no arcs are fine)."""

    def __init__(self, graph: Digraph, rules: Mapping[int, object]):
        self.graph = graph
        self.rules = dict(rules)
        for u, rule in self.rules.items():
            ground = frozenset(graph.out[u])
            if not rule.independent(frozenset()):
                raise InputError(f"empty set dependent at vertex {u}")
            if ground and rule.independent(ground):
                raise InputError(
                    f"all outgoing arcs of vertex {u} are removable at once"
                )
        for u in range(graph.n):
            if graph.out[u] and u not in self.rules:
                raise InputError(f"vertex {u} has outgoing arcs but no rule")

    def ground(self, u: int) -> frozenset:
        return frozenset(self.graph.out[u])

    def is_independent(self, u: int, arcs) -> bool:
        arcs = frozenset(arcs)
        if not arcs <= self.ground(u):
            raise InvalidSubset(
                f"query at vertex {u} contains non-outgoing arcs"
            )
        if not arcs:
            return True
        return self.rules[u].independent(arcs)

    def is_dependent(self, u: int, arcs) -> bool:
        return not self.is_independent(u, arcs)

    def dual(self) -> "IndependenceOracle":
        """Oracle whose independent sets are the complements of the
        original's dependent sets (an involution).  A cardinality bound k
        over g arcs dualizes to the bound g - k - 1."""
        rules = {}
        for u, rule in self.rules.items():
            ground = self.ground(u)
            if isinstance(rule, CardinalityRule):
                rules[u] = CardinalityRule(len(ground) - rule.k - 1)
            elif isinstance(rule, DualRule) and rule.ground == ground:
                rules[u] = rule.inner
            else:
                rules[u] = DualRule(rule, ground)
        return IndependenceOracle(self.graph, rules)

    def growth_step(self, u: int) -> Callable[[int], bool]:
        """Step that grows a removal set at `u` from empty, one outgoing arc
        at a time and each arc at most once: `add(e)` keeps `e` and returns
        True if the grown set is independent, else leaves the set as it was
        and returns False.  Cardinality and budget rules, and the dual of a
        budget rule (independent iff cost(S) < total - budget), cost O(1)
        per arc; explicit rules cost O(number of maximal sets); any other
        rule costs one `independent` query on the grown set."""
        rule = self.rules[u]
        if isinstance(rule, CardinalityRule):
            return _threshold_step(None, rule.k, strict=False)
        if isinstance(rule, BudgetRule):
            return _threshold_step(rule.costs, rule.budget, strict=False)
        if isinstance(rule, ExplicitRule):
            return _explicit_step(rule.maximal)
        if (
            isinstance(rule, DualRule)
            and isinstance(rule.inner, BudgetRule)
            and rule.ground == self.ground(u)
        ):
            inner = rule.inner
            total = sum((inner.costs[e] for e in rule.ground), Fraction(0))
            return _threshold_step(
                inner.costs, total - inner.budget, strict=True
            )
        return _query_step(rule)


def _threshold_step(costs, cap, strict: bool) -> Callable[[int], bool]:
    """Growth step for "cost(S) <= cap", or "cost(S) < cap" if `strict`;
    `costs` None counts arcs.  Exact: the sum stays an int or Fraction."""
    spent = 0

    def add(e: int) -> bool:
        nonlocal spent
        grown = spent + (1 if costs is None else costs[e])
        if grown < cap or (grown == cap and not strict):
            spent = grown
            return True
        return False

    return add


def _explicit_step(maximal) -> Callable[[int], bool]:
    """Growth step for an explicit rule: keep the maximal sets that still
    contain the grown set."""
    live = maximal

    def add(e: int) -> bool:
        nonlocal live
        kept = [m for m in live if e in m]
        if kept:
            live = kept
            return True
        return False

    return add


def _query_step(rule) -> Callable[[int], bool]:
    """Growth step for any other rule: one query on the grown set."""
    grown = frozenset()

    def add(e: int) -> bool:
        nonlocal grown
        trial = grown | {e}
        if rule.independent(trial):
            grown = trial
            return True
        return False

    return add


def cardinality_oracle(graph: Digraph, k: Mapping[int, int] | int) -> IndependenceOracle:
    rules = {}
    for u in range(graph.n):
        if graph.out[u]:
            ku = k if isinstance(k, int) else k[u]
            rules[u] = CardinalityRule(min(ku, len(graph.out[u]) - 1))
    return IndependenceOracle(graph, rules)


def sp_blocking_oracle(game, blocker: int) -> IndependenceOracle:
    """The special case encoding a plain two-person game: at the blocker's
    own vertices every proper subset is removable (the remaining single arc
    is the blocker's move); at the other player's vertices nothing is."""
    from .game import TERMINAL

    rules = {}
    g = game.graph
    for u in range(g.n):
        if game.owner[u] == TERMINAL:
            continue
        deg = len(g.out[u])
        rules[u] = CardinalityRule(deg - 1 if game.owner[u] == blocker else 0)
    return IndependenceOracle(g, rules)


# ---------------------------------------------------------------------------
# exhaustive enumeration (verification-scale only)

_ENUM_LIMIT = 20


def independent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    """All independent sets at `u`, smallest first, deterministic order."""
    ground = sorted(oracle.ground(u))
    if len(ground) > _ENUM_LIMIT:
        raise CapExceeded(f"ground set too large to enumerate at vertex {u}")
    out = []
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            s = frozenset(sub)
            if oracle.is_independent(u, s):
                out.append(s)
    return out


def dependent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    ground = sorted(oracle.ground(u))
    if len(ground) > _ENUM_LIMIT:
        raise CapExceeded(f"ground set too large to enumerate at vertex {u}")
    out = []
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            s = frozenset(sub)
            if not oracle.is_independent(u, s):
                out.append(s)
    return out


def maximal_independent_sets(oracle: IndependenceOracle, u: int) -> list[frozenset]:
    alls = independent_sets(oracle, u)
    fams = set(alls)
    return [s for s in alls if not any(s < o for o in fams)]


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
