"""Tests for the Datalog engine: recursion, negation, builtins, safety."""

import pytest

from repro.datalog import Engine, StratificationError, Var
from repro.datalog.program import Fact, Literal, Program, ProgramError, Rule
from repro.datalog.engine import stratify

X, Y, Z = Var("X"), Var("Y"), Var("Z")


def family_engine():
    e = Engine()
    e.fact("parent", "ann", "bob")
    e.fact("parent", "bob", "cy")
    e.fact("parent", "cy", "dee")
    e.rule(("anc", X, Y), [("parent", X, Y)])
    e.rule(("anc", X, Z), [("parent", X, Y), ("anc", Y, Z)])
    return e


class TestBasicEvaluation:
    def test_facts_are_queryable(self):
        e = Engine()
        e.fact("p", 1)
        assert e.query("p", Var("X")) == [(1,)]

    def test_unknown_predicate_is_empty(self):
        e = Engine()
        assert e.query("nothing", Var("X")) == []

    def test_ask_ground(self):
        e = family_engine()
        assert e.ask("parent", "ann", "bob")
        assert not e.ask("parent", "bob", "ann")

    def test_transitive_closure(self):
        e = family_engine()
        ancestors_of_dee = {args[0] for args in e.query("anc", Var("A"), "dee")}
        assert ancestors_of_dee == {"ann", "bob", "cy"}

    def test_query_with_repeated_variable(self):
        e = Engine()
        e.fact("edge", 1, 1)
        e.fact("edge", 1, 2)
        assert e.query("edge", X, X) == [(1, 1)]

    def test_bindings_api(self):
        e = family_engine()
        envs = e.bindings("parent", "ann", Var("Kid"))
        assert envs == [{Var("Kid"): "bob"}]

    def test_incremental_facts_invalidate_model(self):
        e = family_engine()
        assert not e.ask("anc", "dee", "ed")
        e.fact("parent", "dee", "ed")
        assert e.ask("anc", "ann", "ed")

    def test_retract_predicate(self):
        e = family_engine()
        e.retract_predicate("parent")
        assert e.query("anc", Var("A"), Var("B")) == []

    def test_fact_count(self):
        e = Engine()
        e.fact("p", 1)
        e.fact("p", 2)
        e.rule(("q", X), [("p", X)])
        assert e.fact_count() == 4


class TestNegation:
    def test_stratified_negation(self):
        e = Engine()
        e.fact("node", "a")
        e.fact("node", "b")
        e.fact("broken", "b")
        e.rule(("ok", X), [("node", X)], negative=[("broken", X)])
        assert e.query("ok", Var("N")) == [("a",)]

    def test_negation_needs_projection_for_safety(self):
        e = Engine()
        e.fact("parent", "a", "b")
        with pytest.raises(ProgramError):
            e.rule(("leaf", X), [("parent", Y, X)], negative=[("parent", X, Z)])

    def test_leaf_via_projection(self):
        e = family_engine()
        e.rule(("is_parent", X), [("parent", X, Y)])
        e.rule(("person", X), [("parent", X, Y)])
        e.rule(("person", Y), [("parent", X, Y)])
        e.rule(("leaf", X), [("person", X)], negative=[("is_parent", X)])
        assert e.query("leaf", Var("L")) == [("dee",)]

    def test_unstratifiable_program_rejected(self):
        e = Engine()
        e.fact("p", 1)
        e.rule(("win", X), [("p", X)], negative=[("lose", X)])
        e.rule(("lose", X), [("p", X)], negative=[("win", X)])
        with pytest.raises(StratificationError):
            e.query("win", Var("X"))


class TestBuiltins:
    def test_comparison_filters(self):
        e = Engine()
        for n in range(5):
            e.fact("num", n)
        e.rule(("big", X), [("num", X), ("gt", X, 2)])
        assert e.query("big", Var("N")) == [(3,), (4,)]

    def test_between(self):
        e = Engine()
        for n in (10, 20, 30):
            e.fact("num", n)
        e.rule(("mid", X), [("num", X), ("between", X, 15, 25)])
        assert e.query("mid", Var("N")) == [(20,)]

    def test_overlaps_builtin(self):
        e = Engine()
        e.fact("iv", "a", 0, 10)
        e.fact("iv", "b", 20, 30)
        e.rule(
            ("touches", X, Y),
            [("iv", X, Var("L1"), Var("H1")),
             ("iv", Y, Var("L2"), Var("H2")),
             ("neq", X, Y),
             ("overlaps", Var("L1"), Var("H1"), Var("L2"), Var("H2"))],
        )
        assert e.query("touches", Var("A"), Var("B")) == []
        e.fact("iv", "c", 5, 25)
        pairs = {tuple(t) for t in e.query("touches", Var("A"), Var("B"))}
        assert pairs == {("a", "c"), ("c", "a"), ("b", "c"), ("c", "b")}

    def test_builtin_needs_bound_args(self):
        e = Engine()
        e.fact("p", 1)
        with pytest.raises(ProgramError):
            e.rule(("q", X), [("p", X), ("lt", X, Var("Unbound"))])
        # ... unless the variable also appears positively:
        e.rule(("q", X), [("p", X), ("p", Var("B")), ("lt", X, Var("B"))])
        assert e.query("q", Var("N")) == []

    def test_negated_builtin_rejected(self):
        with pytest.raises(ProgramError):
            Literal("lt", (1, 2), negated=True)


class TestSafetyAndValidation:
    def test_unsafe_head_variable(self):
        e = Engine()
        e.fact("p", 1)
        with pytest.raises(ProgramError):
            e.rule(("q", X, Y), [("p", X)])

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ProgramError):
            Fact("p", (Var("X"),))

    def test_fact_for_builtin_rejected(self):
        with pytest.raises(ProgramError):
            Fact("lt", (1, 2))

    def test_negated_head_rejected(self):
        with pytest.raises(ProgramError):
            Rule(Literal("p", (1,), negated=True), ())

    def test_builtin_head_rejected(self):
        with pytest.raises(ProgramError):
            Rule(Literal("lt", (1, 2)), ())

    def test_builtin_arity_checked(self):
        with pytest.raises(ProgramError):
            Literal("lt", (1, 2, 3))


class TestStratify:
    def test_single_stratum_without_negation(self):
        e = family_engine()
        layers = stratify(e._program)
        assert len(layers) == 1

    def test_negation_splits_strata(self):
        p = Program()
        p.add_fact(Fact("a", (1,)))
        p.add_rule(Rule(Literal("b", (X,)), (Literal("a", (X,)),)))
        p.add_rule(
            Rule(Literal("c", (X,)), (Literal("a", (X,)), Literal("b", (X,), negated=True)))
        )
        layers = stratify(p)
        level = {pred: i for i, layer in enumerate(layers) for pred in layer}
        assert level["b"] < level["c"]


class TestLargerPrograms:
    def test_same_generation(self):
        e = Engine()
        edges = [("r", "a"), ("a", "b"), ("a", "c"), ("b", "d"), ("c", "e")]
        for parent, child in edges:
            e.fact("parent", parent, child)
        e.rule(("sg", X, X), [("parent", Y, X)])
        e.rule(
            ("sg", X, Y),
            [("parent", Var("Px"), X), ("sg", Var("Px"), Var("Py")), ("parent", Var("Py"), Y)],
        )
        pairs = {t for t in e.query("sg", Var("A"), Var("B"))}
        assert ("b", "c") in pairs
        assert ("d", "e") in pairs
        assert ("b", "d") not in pairs

    def test_chain_of_100(self):
        e = Engine()
        for i in range(100):
            e.fact("edge", i, i + 1)
        e.rule(("reach", X, Y), [("edge", X, Y)])
        e.rule(("reach", X, Z), [("reach", X, Y), ("edge", Y, Z)])
        assert e.ask("reach", 0, 100)
        assert len(e.query("reach", 0, Var("T"))) == 100


class TestIncrementalEvaluation:
    """Assertions after a query: the model is discarded and the next
    query sees the change (EngineStats counts the evaluations)."""

    def test_incremental_chain_of_additions(self):
        e = family_engine()
        e.query("anc", Var("A"), Var("B"))
        for i in range(5):
            e.fact("parent", f"x{i}", f"x{i + 1}")
            assert e.ask("anc", "x0", f"x{i + 1}")
        assert e.stats.full_recomputes == 6

    def test_duplicate_fact_is_a_noop_delta(self):
        e = family_engine()
        before = len(e.query("anc", Var("A"), Var("B")))
        e.fact("parent", "ann", "bob")  # already known
        assert len(e.query("anc", Var("A"), Var("B"))) == before

    def test_delta_feeding_negation_forces_full_recompute(self):
        e = Engine()
        e.fact("node", 1)
        e.fact("node", 2)
        e.fact("edge", 1, 2)
        e.rule(("target", Y), [("edge", X, Y)])
        e.rule(("source", X), [("node", X)], negative=[("target", X)])
        assert {t[0] for t in e.query("source", X)} == {1}
        # edge feeds the negated target: source must *shrink*.
        e.fact("edge", 2, 1)
        assert e.query("source", X) == []
        assert e.stats.full_recomputes == 2

    def test_retraction_forces_full_recompute(self):
        e = family_engine()
        assert e.ask("anc", "ann", "dee")
        assert e.retract_fact("parent", "cy", "dee")
        assert not e.ask("anc", "ann", "dee")
        assert e.stats.full_recomputes == 2
        assert not e.retract_fact("parent", "cy", "dee")  # already gone

    def test_retract_predicate_forces_full_recompute(self):
        e = family_engine()
        e.query("anc", Var("A"), Var("B"))
        e.retract_predicate("parent")
        assert e.query("anc", Var("A"), Var("B")) == []
        assert e.stats.full_recomputes == 2

    def test_rule_addition_forces_full_recompute(self):
        e = family_engine()
        e.query("anc", Var("A"), Var("B"))
        e.rule(("desc", Y, X), [("anc", X, Y)])
        assert e.ask("desc", "dee", "ann")
        assert e.stats.full_recomputes == 2

    def test_incremental_matches_from_scratch(self):
        # Ground truth: interleaved additions give the same model as
        # asserting everything up front.
        def edges():
            return [(1, 2), (2, 3), (3, 4), (1, 5), (5, 4), (4, 6)]

        incremental = Engine()
        incremental.rule(("reach", X, Y), [("edge", X, Y)])
        incremental.rule(("reach", X, Z), [("reach", X, Y), ("edge", Y, Z)])
        for a, b in edges()[:2]:
            incremental.fact("edge", a, b)
        incremental.query("reach", Var("A"), Var("B"))
        for a, b in edges()[2:]:
            incremental.fact("edge", a, b)
            incremental.query("reach", Var("A"), Var("B"))

        fresh = Engine()
        fresh.rule(("reach", X, Y), [("edge", X, Y)])
        fresh.rule(("reach", X, Z), [("reach", X, Y), ("edge", Y, Z)])
        for a, b in edges():
            fresh.fact("edge", a, b)

        assert set(incremental.query("reach", Var("A"), Var("B"))) == set(
            fresh.query("reach", Var("A"), Var("B"))
        )
