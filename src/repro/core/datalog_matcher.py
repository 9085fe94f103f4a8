"""The LDL-style broker reasoning engine: matching compiled to Datalog.

The original InfoSleuth broker "uses a rule-based reasoning engine
implemented in LDL to reason over the query and advertisements".  This
module reproduces that architecture: advertisements compile to ground
facts, a broker query compiles to rules deriving ``match(Agent)``, and
the Datalog engine does the reasoning — including constraint-interval
overlap via the ``iv_overlaps`` builtin and capability/class hierarchy
facts.

One front-end, :class:`DatalogMatcher`, builds a fresh engine per query
over an explicit advertisement list: it is the declarative
*specification* of a match, the oracle the property tests hold the
repository's columnar plane to (which names match, and — via
:meth:`DatalogMatcher.explain_rejects` — why the others do not).  It
covers the same query language as the direct matcher in
:mod:`repro.core.matcher`; it is not a production path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.constraints.domains import Complement, DiscreteSet
from repro.constraints.intervals import Interval, IntervalSet
from repro.core.advertisement import Advertisement
from repro.core.matcher import MatchContext, MatchStats, missing_slot_detail
from repro.core.query import BrokerQuery
from repro.datalog import Engine, Var
from repro.obs.explain import (
    REASON_AGENT_TYPE,
    REASON_CAPABILITY,
    REASON_CLASS,
    REASON_CONVERSATION,
    REASON_DISJOINT,
    REASON_LANGUAGE,
    REASON_MOBILITY,
    REASON_ONTOLOGY,
    REASON_RESPONSE_TIME,
    REASON_SLOT,
    REASON_UNSATISFIABLE,
    QueryExplanation,
    Verdict,
)

#: Stand-ins for unbounded endpoints, per value type.  Strings order
#: lexicographically, so the empty string and a plane-16 run bound any
#: realistic value.
_MIN_STR = ""
_MAX_STR = "\U0010FFFF" * 8

A = Var("A")


class DatalogMatcher:
    """Matchmaking by Datalog evaluation over compiled advertisements."""

    def __init__(self, context: Optional[MatchContext] = None):
        self.context = context or MatchContext()

    def match_names(
        self, query: BrokerQuery, advertisements: Sequence[Advertisement]
    ) -> Set[str]:
        """The set of agent names matching *query* (unranked)."""
        engine = self._compile(query, advertisements)
        return {args[0] for args in engine.query("match", A)}

    def explain_rejects(
        self,
        query: BrokerQuery,
        advertisements: Sequence[Advertisement],
        rejected: Sequence[Advertisement],
        trail: QueryExplanation,
        stats: Optional[MatchStats] = None,
    ) -> None:
        """Record a reject :class:`Verdict` for each advertisement in
        *rejected* by probing the compiled condition predicates."""
        engine = self._compile(query, advertisements)
        _probe_rejects(engine, query, rejected, trail, stats)

    def _compile(
        self, query: BrokerQuery, advertisements: Sequence[Advertisement]
    ) -> Engine:
        """A fresh engine holding *advertisements* as facts and *query*
        as rules deriving ``match(Agent)``."""
        engine = Engine()
        for ad in advertisements:
            for fact in _advertisement_facts(ad, query.constraints.slots):
                engine.fact(*fact)
        self._assert_hierarchies(engine, advertisements, query)
        _compile_query(engine, query)
        return engine

    def _assert_hierarchies(
        self,
        engine: Engine,
        advertisements: Sequence[Advertisement],
        query: BrokerQuery,
    ) -> None:
        hierarchy = self.context.capability_hierarchy
        advertised_functions = {
            f for ad in advertisements for f in ad.description.capabilities.functions
        }
        for requested in query.capabilities:
            for advertised in advertised_functions:
                if hierarchy.covers(advertised, requested):
                    engine.fact("covers", advertised, requested)

        if query.ontology_name:
            advertised_classes = {
                c for ad in advertisements for c in ad.description.content.classes
            }
            for requested in query.classes:
                for advertised in advertised_classes:
                    if self.context.classes_related(
                        query.ontology_name, requested, advertised
                    ):
                        engine.fact(
                            "related", query.ontology_name, advertised, requested
                        )


# ----------------------------------------------------------------------
# fact compilation
# ----------------------------------------------------------------------
def _advertisement_facts(ad: Advertisement, constraint_slots: Sequence[str]):
    """Yield the ground facts describing *ad*.

    *constraint_slots* selects which slots get constraint-domain facts
    (the query's constrained slots)."""
    desc = ad.description
    name = ad.agent_name
    yield ("agent", name)
    yield ("agent_type", name, desc.agent_type)
    for lang in desc.syntax.content_languages:
        yield ("speaks", name, lang)
    for lang in desc.syntax.communication_languages:
        yield ("comm", name, lang)
    for conversation in desc.capabilities.conversations:
        yield ("conversation", name, conversation)
    for function in desc.capabilities.functions:
        yield ("function", name, function)
    if desc.content.ontology_name:
        yield ("onto", name, desc.content.ontology_name)
    else:
        yield ("no_onto", name)
    if desc.content.classes:
        for cls in desc.content.classes:
            yield ("a_class", name, cls)
    else:
        yield ("no_classes", name)
    if desc.content.slots:
        for slot in desc.content.slots:
            yield ("a_slot", name, slot)
    else:
        yield ("no_slots", name)

    if not desc.content.constraints.is_satisfiable():
        yield ("unsat", name)
    for slot in constraint_slots:
        yield from _slot_domain_facts(name, slot, desc.content.constraints)

    props = desc.properties
    yield ("mobile", name, props.mobile)
    if props.estimated_response_time is not None:
        yield ("ert", name, props.estimated_response_time)
    else:
        yield ("no_ert", name)


def _slot_domain_facts(name: str, slot: str, constraints):
    domain = constraints.domain(slot)
    if isinstance(domain, Complement):
        if not domain.excluded:
            yield ("unconstrained", name, slot)
            return
        yield ("c_complement", name, slot)
        for value in domain.excluded:
            yield ("c_excluded", name, slot, value)
    elif isinstance(domain, DiscreteSet):
        for value in domain.allowed:
            yield ("c_value", name, slot, value)
    else:  # IntervalSet
        for interval in domain.intervals:
            lo, hi = _bounds(interval)
            yield (
                "c_interval", name, slot, lo, hi,
                interval.lo_open, interval.hi_open,
            )


# ----------------------------------------------------------------------
# rule compilation
# ----------------------------------------------------------------------
def _compile_query(engine: Engine, query: BrokerQuery) -> None:
    """Compile *query* into rules deriving ``match(Agent)``."""
    conditions: List[str] = []

    def add_condition(pred: str, rules: List[tuple]):
        """Register *pred* as a required condition with OR-rules."""
        conditions.append(pred)
        for body in rules:
            engine.rule((pred, A), list(body))

    if query.agent_type is not None:
        add_condition("ok_type", [[("agent_type", A, query.agent_type)]])
    if query.content_language is not None:
        add_condition("ok_speak", [[("speaks", A, query.content_language)]])
    if query.communication_language is not None:
        add_condition("ok_comm", [[("comm", A, query.communication_language)]])
    for index, conversation in enumerate(query.conversations):
        add_condition(f"ok_conv_{index}", [[("conversation", A, conversation)]])
    for index, capability in enumerate(query.capabilities):
        add_condition(
            f"ok_cap_{index}",
            [[("function", A, Var("F")), ("covers", Var("F"), capability)]],
        )
    if query.ontology_name is not None:
        add_condition(
            "ok_onto",
            [[("onto", A, query.ontology_name)], [("no_onto", A)]],
        )
    for index, cls in enumerate(query.classes):
        add_condition(
            f"ok_class_{index}",
            [
                [
                    ("a_class", A, Var("C")),
                    ("related", query.ontology_name, Var("C"), cls),
                ],
                [("no_classes", A)],
            ],
        )

    _compile_slots(engine, query, conditions)
    _compile_constraints(engine, query, conditions)

    if query.require_mobile is not None:
        add_condition("ok_mobile", [[("mobile", A, query.require_mobile)]])
    if query.max_response_time is not None:
        add_condition(
            "ok_time",
            [
                [("no_ert", A)],
                [("ert", A, Var("T")), ("le", Var("T"), query.max_response_time)],
            ],
        )

    body = [("agent", A)] + [(pred, A) for pred in conditions]
    engine.rule(("match", A), body, negative=[("unsat", A)])


# ----------------------------------------------------------------------
# explain probing
# ----------------------------------------------------------------------
#: Pseudo-predicate marking the advertisement-unsatisfiability check,
#: which is a ``unsat`` *fact* (negated on the match rule) rather than a
#: compiled condition.
_UNSAT_CHECK = "__unsat__"


def _explain_checks(query: BrokerQuery) -> List[Tuple[str, str, Optional[str]]]:
    """``(condition predicate suffix, reject reason, static detail)`` in
    the direct matcher's canonical filter order — exactly mirroring the
    conditions :func:`_compile_query` emits for *query*, so probing them
    in sequence reproduces the direct matcher's first-failing reason."""
    checks: List[Tuple[str, str, Optional[str]]] = []
    if query.agent_type is not None:
        checks.append(("ok_type", REASON_AGENT_TYPE, query.agent_type))
    if query.content_language is not None:
        checks.append(("ok_speak", REASON_LANGUAGE, query.content_language))
    if query.communication_language is not None:
        checks.append(("ok_comm", REASON_LANGUAGE, query.communication_language))
    for index, conversation in enumerate(query.conversations):
        checks.append((f"ok_conv_{index}", REASON_CONVERSATION, conversation))
    for index, capability in enumerate(query.capabilities):
        checks.append((f"ok_cap_{index}", REASON_CAPABILITY, capability))
    if query.ontology_name is not None:
        checks.append(("ok_onto", REASON_ONTOLOGY, None))  # detail from the ad
    for index, cls in enumerate(query.classes):
        checks.append((f"ok_class_{index}", REASON_CLASS, cls))
    if query.slots:
        checks.append(("ok_slots", REASON_SLOT, None))  # detail from the ad
    # The direct matcher's overlaps() fails on an unsatisfiable
    # advertisement regardless of shared slots, right after slot
    # coverage — probe the unsat fact at the same point.
    checks.append((_UNSAT_CHECK, REASON_UNSATISFIABLE, None))
    for index, slot in enumerate(query.constraints.slots):
        checks.append((f"ok_cons_{index}", REASON_DISJOINT, slot))
    if query.require_mobile is not None:
        checks.append(("ok_mobile", REASON_MOBILITY, None))
    if query.max_response_time is not None:
        checks.append(("ok_time", REASON_RESPONSE_TIME, None))
    return checks


def _probe_rejects(
    engine: Engine,
    query: BrokerQuery,
    rejected: Sequence[Advertisement],
    trail: QueryExplanation,
    stats: Optional[MatchStats] = None,
) -> None:
    """Assign each rejected advertisement its first failing condition.

    One engine query per condition predicate yields that condition's
    full pass-set; each rejected agent then reports the first check it
    is absent from (or present in, for the ``unsat`` fact)."""
    checks = _explain_checks(query)
    unsat = {args[0] for args in engine.query("unsat", A)}
    pass_sets: Dict[str, Set[str]] = {
        pred: {args[0] for args in engine.query(pred, A)}
        for pred, _, _ in checks
        if pred != _UNSAT_CHECK
    }
    for ad in rejected:
        name = ad.agent_name
        reason, detail = "unknown", None
        for pred, check_reason, static_detail in checks:
            failed = name in unsat if pred == _UNSAT_CHECK \
                else name not in pass_sets[pred]
            if failed:
                reason = check_reason
                if check_reason == REASON_ONTOLOGY:
                    detail = ad.description.content.ontology_name
                elif check_reason == REASON_SLOT:
                    detail = missing_slot_detail(query, ad)
                else:
                    detail = static_detail
                break
        if stats is not None:
            stats.rejects[reason] = stats.rejects.get(reason, 0) + 1
        trail.record(
            Verdict(agent=name, accepted=False, reason=reason, detail=detail)
        )


def _compile_slots(
    engine: Engine, query: BrokerQuery, conditions: List[str]
) -> None:
    if not query.slots:
        return
    pred = "ok_slots"
    conditions.append(pred)
    engine.rule((pred, A), [("no_slots", A)])
    if query.allow_partial_slots:
        for slot in query.slots:
            engine.rule((pred, A), [("a_slot", A, slot)])
    else:
        body = [("a_slot", A, slot) for slot in query.slots]
        engine.rule((pred, A), body)


def _compile_constraints(
    engine: Engine, query: BrokerQuery, conditions: List[str]
) -> None:
    for index, slot in enumerate(query.constraints.slots):
        pred = f"ok_cons_{index}"
        conditions.append(pred)
        engine.rule((pred, A), [("unconstrained", A, slot)])
        domain = query.constraints.domain(slot)
        if isinstance(domain, Complement):
            _complement_rules(engine, pred, slot, domain)
        elif isinstance(domain, DiscreteSet):
            _discrete_rules(engine, pred, slot, domain)
        else:
            _interval_rules(engine, pred, slot, domain)


def _interval_rules(engine: Engine, pred: str, slot: str, domain: IntervalSet) -> None:
    L, H, LO, HO = Var("L"), Var("H"), Var("LO"), Var("HO")
    for interval in domain.intervals:
        qlo, qhi = _bounds(interval)
        engine.rule(
            (pred, A),
            [
                ("c_interval", A, slot, L, H, LO, HO),
                ("iv_overlaps", L, H, LO, HO, qlo, qhi,
                 interval.lo_open, interval.hi_open),
            ],
        )
        V = Var("V")
        engine.rule(
            (pred, A),
            [
                ("c_value", A, slot, V),
                ("iv_overlaps", V, V, False, False, qlo, qhi,
                 interval.lo_open, interval.hi_open),
            ],
        )
        if interval.is_point():
            # A cofinite advertisement misses a point query only when
            # that exact point is excluded.
            engine.rule(
                (pred, A),
                [("c_complement", A, slot)],
                negative=[("c_excluded", A, slot, interval.lo)],
            )
        else:
            engine.rule((pred, A), [("c_complement", A, slot)])


def _discrete_rules(engine: Engine, pred: str, slot: str, domain: DiscreteSet) -> None:
    L, H, LO, HO = Var("L"), Var("H"), Var("LO"), Var("HO")
    for value in domain.allowed:
        engine.rule((pred, A), [("c_value", A, slot, value)])
        engine.rule(
            (pred, A),
            [
                ("c_interval", A, slot, L, H, LO, HO),
                ("iv_overlaps", L, H, LO, HO, value, value, False, False),
            ],
        )
        engine.rule(
            (pred, A),
            [("c_complement", A, slot)],
            negative=[("c_excluded", A, slot, value)],
        )


def _complement_rules(engine: Engine, pred: str, slot: str, domain: Complement) -> None:
    # Ad complement vs query complement: two cofinite sets always meet.
    engine.rule((pred, A), [("c_complement", A, slot)])
    # Ad discrete value: overlaps unless every advertised value is
    # excluded by the query — i.e. some value differs from all of them.
    V = Var("V")
    body = [("c_value", A, slot, V)]
    body += [("neq", V, excluded) for excluded in domain.excluded]
    engine.rule((pred, A), body)
    # Ad interval: a non-point interval always meets a cofinite set; a
    # point interval must avoid every excluded value.
    L, H = Var("L"), Var("H")
    engine.rule(
        (pred, A),
        [("c_interval", A, slot, L, H, Var("LO"), Var("HO")), ("lt", L, H)],
    )
    point_body = [("c_interval", A, slot, L, H, Var("LO"), Var("HO")), ("eq", L, H)]
    point_body += [("neq", L, excluded) for excluded in domain.excluded]
    engine.rule((pred, A), point_body)


def _bounds(interval: Interval):
    """Concrete endpoint stand-ins for ``None`` (±infinity)."""
    tag = interval.tag
    if tag == "string":
        lo = interval.lo if interval.lo is not None else _MIN_STR
        hi = interval.hi if interval.hi is not None else _MAX_STR
    else:
        lo = interval.lo if interval.lo is not None else -math.inf
        hi = interval.hi if interval.hi is not None else math.inf
    return lo, hi
