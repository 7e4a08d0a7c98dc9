import itertools
from fractions import Fraction as F

import pytest

from spgame.errors import InputError, InvalidSubset, OracleViolation
from spgame.game import PLAYER1, PLAYER2, TERMINAL, SPGame
from spgame.graph import Digraph
from spgame.independence import (
    BudgetRule,
    CardinalityRule,
    DualRule,
    ExplicitRule,
    IndependenceOracle,
    cardinality_oracle,
    check_downward_closed,
    dependent_sets,
    explicit_rule,
    independent_sets,
    maximal_independent_sets,
    sp_blocking_oracle,
)


def fan(deg):
    """One hub with `deg` parallel arcs into a sink."""
    return Digraph.from_arcs(2, [(0, 1)] * deg)


# ---------------------------------------------------------------------------
# rule semantics


def test_cardinality_rule():
    r = CardinalityRule(2)
    assert r.independent(frozenset())
    assert r.independent(frozenset({3, 9}))
    assert not r.independent(frozenset({1, 2, 3}))


def test_budget_rule_exact_fractions():
    r = BudgetRule({0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}, F(2, 3))
    assert r.independent(frozenset({0, 1}))
    assert not r.independent(frozenset({0, 1, 2}))


def test_explicit_rule_membership():
    r = ExplicitRule((frozenset({0, 1}), frozenset({2})))
    assert r.independent(frozenset({0}))
    assert r.independent(frozenset({0, 1}))
    assert r.independent(frozenset({2}))
    assert not r.independent(frozenset({0, 2}))


def test_explicit_rule_factory_normalizes():
    r = explicit_rule([{0}, {0, 1}, {2}, {2}])
    assert r.maximal == (frozenset({0, 1}), frozenset({2}))
    assert explicit_rule([]).maximal == (frozenset(),)


def test_dual_rule_definition():
    ground = frozenset({0, 1, 2})
    dual = DualRule(CardinalityRule(1), ground)
    # complement dependent <=> complement size >= 2 <=> |X| <= 1
    assert dual.independent(frozenset())
    assert dual.independent(frozenset({2}))
    assert not dual.independent(frozenset({0, 1}))


# ---------------------------------------------------------------------------
# oracle construction


def test_oracle_validates_empty_set():
    with pytest.raises(InputError):
        IndependenceOracle(fan(2), {0: BudgetRule({0: F(1), 1: F(1)}, F(-1))})


def test_oracle_rejects_removable_ground():
    with pytest.raises(InputError):
        IndependenceOracle(fan(2), {0: CardinalityRule(2)})


def test_oracle_requires_rule_per_branching_vertex():
    with pytest.raises(InputError):
        IndependenceOracle(fan(2), {})


@pytest.mark.parametrize(
    "rule",
    [
        BudgetRule({0: 1}, 0),
        DualRule(BudgetRule({0: 1}, 0), frozenset({0, 1})),
    ],
)
def test_budget_rule_missing_arc_costs_is_input_error(rule):
    message = r"^vertex 0: budget costs missing arcs \[1\]$"
    with pytest.raises(InputError, match=message):
        IndependenceOracle(fan(2), {0: rule})


def test_oracle_rejects_foreign_arcs():
    orc = cardinality_oracle(fan(3), 1)
    with pytest.raises(InvalidSubset):
        orc.is_independent(0, {99})


def test_empty_query_is_always_independent():
    orc = cardinality_oracle(fan(3), 0)
    assert orc.is_independent(0, frozenset())
    assert orc.is_dependent(0, {0})


# ---------------------------------------------------------------------------
# duality


def test_dual_cardinality_formula():
    g = fan(4)
    orc = cardinality_oracle(g, 1)
    dual = orc.dual()
    assert isinstance(dual.rules[0], CardinalityRule)
    assert dual.rules[0].k == 4 - 1 - 1


# one rule of each kind on the four arcs of `fan(4)`
DUAL_CASES = [
    explicit_rule([{0, 1}, {2}, {3}]),
    explicit_rule([{0, 1, 2}]),
    explicit_rule([{1}, {3}]),
    CardinalityRule(1),
    CardinalityRule(3),
    BudgetRule({0: F(1, 2), 1: F(2, 3), 2: 1, 3: F(5, 4)}, F(7, 6)),
    BudgetRule({0: 3, 1: 1, 2: 2, 3: 2}, 0),
]


def all_subsets(arcs):
    for r in range(len(arcs) + 1):
        yield from map(frozenset, itertools.combinations(arcs, r))


def test_dual_is_involution_pointwise():
    # the oracle, its dual and its double dual against the rule objects
    g = fan(4)
    for rule in DUAL_CASES:
        orc = IndependenceOracle(g, {0: rule})
        dual = orc.dual()
        ddual = dual.dual()
        reference = DualRule(rule, frozenset(g.out[0]))
        for s in all_subsets(range(4)):
            assert orc.is_independent(0, s) == rule.independent(s)
            assert dual.is_independent(0, s) == reference.independent(s)
            assert ddual.is_independent(0, s) == rule.independent(s)
        assert ddual.rules == orc.rules


def test_dual_complement_relation():
    g = fan(4)
    ground = frozenset(range(4))
    for rule in DUAL_CASES:
        dual = IndependenceOracle(g, {0: rule}).dual()
        for s in all_subsets(range(4)):
            assert dual.is_independent(0, s) == (not rule.independent(ground - s))


def test_dual_unwraps_nested_dual():
    g = fan(3)
    orc = IndependenceOracle(g, {0: explicit_rule([{0}, {1, 2}])})
    back = orc.dual().dual()
    assert not isinstance(back.rules[0], DualRule)


# ---------------------------------------------------------------------------
# downward closure checking


class _Lumpy:
    """Deliberately not downward closed: pairs pass, singletons fail."""

    def independent(self, arcs):
        return len(arcs) in (0, 2)


def test_check_downward_closed_accepts_thresholds():
    orc = cardinality_oracle(fan(4), 2)
    check_downward_closed(orc, 0)


def test_check_downward_closed_rejects_lumpy():
    orc = IndependenceOracle(fan(3), {0: _Lumpy()})
    with pytest.raises(OracleViolation):
        check_downward_closed(orc, 0)


# ---------------------------------------------------------------------------
# enumeration


def test_independent_set_counts():
    orc = cardinality_oracle(fan(3), 1)
    assert len(independent_sets(orc, 0)) == 4
    assert maximal_independent_sets(orc, 0) == [
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
    ]
    assert len(dependent_sets(orc, 0)) == 4


def test_enumeration_matches_membership():
    g = fan(4)
    orc = IndependenceOracle(g, {0: explicit_rule([{0, 3}, {1, 2, 3}])})
    indep = set(independent_sets(orc, 0))
    for r in range(5):
        for sub in itertools.combinations(range(4), r):
            s = frozenset(sub)
            assert (s in indep) == orc.is_independent(0, s)


# ---------------------------------------------------------------------------
# blocking oracles induced by game ownership


def test_sp_blocking_oracle_degrees():
    g = Digraph.from_arcs(4, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 2), (2, 3)])
    game = SPGame(
        g,
        (PLAYER1, PLAYER2, PLAYER1, TERMINAL),
        0,
        (F(1),) * 6,
        (F(1),) * 6,
    )
    blk = sp_blocking_oracle(game, 2)
    # blocker prunes to one arc at its own vertices, touches nothing else
    assert not blk.is_independent(0, {0})
    assert blk.is_independent(1, {3})
    assert not blk.is_independent(1, {3, 4})
    assert blk.is_independent(2, frozenset())
    assert not blk.is_independent(2, {5})

    blk1 = sp_blocking_oracle(game, 1)
    assert blk1.is_independent(0, {0, 1})
    assert not blk1.is_independent(0, {0, 1, 2})
    assert not blk1.is_independent(1, {3})
