"""The direct matching engine: BrokerQuery x Advertisement -> matches.

This is the broker's core reasoning, combining:

* syntactic matching (agent type, content/communication languages,
  supported conversations) — Section 2.3, Figure 8;
* semantic capability matching with capability-hierarchy containment —
  Figure 2 ("an agent that does all query processing can do relational
  query processing, but not vice versa");
* semantic content matching: ontology, class–subclass reasoning, slot
  coverage (including fragmented classes), and *constraint overlap* —
  the broker only rules an agent out when its advertised data
  constraints provably cannot intersect the request's;
* pragmatic filters (response time, mobility).

An equivalent Datalog-compiled engine lives in
:mod:`repro.core.datalog_matcher`; property tests assert they agree.

This matcher is the per-advertisement predicate: the reference the
repository's engine — the columnar plane of
:mod:`repro.core.columnar` — is held ranked-identical to, and the path
explain mode takes (see :mod:`repro.core.repository`).  The hierarchy
tests below go through the memoized closures
(:meth:`CapabilityHierarchy.cover_set`,
:meth:`Ontology.related_closure`) the plane's posting probes share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.advertisement import Advertisement
from repro.core.query import BrokerQuery
from repro.core.scoring import score_breakdown, score_match
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
    ExplainSink,
    QueryExplanation,
    Verdict,
)
from repro.ontology.capability import CapabilityHierarchy, default_capability_hierarchy
from repro.ontology.model import Ontology


@dataclass
class MatchContext:
    """Shared knowledge the matcher reasons with.

    ``ontologies`` maps ontology name -> :class:`Ontology` for
    class-hierarchy reasoning; unknown ontologies degrade to exact class
    name matching (an open system must tolerate foreign vocabularies).
    """

    capability_hierarchy: CapabilityHierarchy = field(
        default_factory=default_capability_hierarchy
    )
    ontologies: Dict[str, Ontology] = field(default_factory=dict)
    #: Opt-in verdict recorder (see :mod:`repro.obs.explain`).  None —
    #: the default — keeps the matching hot path verdict-free; when set,
    #: the repository bypasses its match cache and the columnar plane so
    #: every advertisement gets exactly one verdict per query.
    explain_sink: Optional[ExplainSink] = None

    def classes_related(self, ontology_name: str, requested: str, advertised: str) -> bool:
        """True when an agent holding *advertised* is potentially relevant
        to a query over *requested* (equal, or related by is-a either way)."""
        if requested == advertised:
            return True
        ontology = self.ontologies.get(ontology_name)
        if ontology is None or requested not in ontology or advertised not in ontology:
            return False
        return ontology.is_subclass(advertised, requested) or ontology.is_subclass(
            requested, advertised
        )

    def related_classes(self, ontology_name: str, requested: str) -> frozenset:
        """All advertised class names :meth:`classes_related` accepts for
        *requested* — the memoized is-a closure when the ontology knows
        the class, exact name otherwise."""
        ontology = self.ontologies.get(ontology_name)
        if ontology is None or requested not in ontology:
            return frozenset((requested,))
        return ontology.related_closure(requested)


@dataclass(frozen=True)
class Match:
    """One recommended agent with its semantic score and slot coverage."""

    advertisement: Advertisement
    score: float
    matched_slots: Tuple[str, ...] = ()

    @property
    def agent_name(self) -> str:
        return self.advertisement.agent_name


@dataclass
class MatchStats:
    """Per-query matching work, for the observability layer.

    ``constraint_checks``/``constraint_hits`` count the constraint-
    overlap reasoning specifically: how many advertisements survived the
    syntactic and semantic filters far enough to need an overlap check,
    and how many passed it.
    """

    candidates: int = 0
    matched: int = 0
    constraint_checks: int = 0
    constraint_hits: int = 0
    #: Reject reason -> count (the explainer's vocabulary; see
    #: :data:`repro.obs.explain.REJECT_REASONS`).  Surfaces as the
    #: ``broker.match.reject{reason}`` counters.
    rejects: Dict[str, int] = field(default_factory=dict)


#: Sentinel: "resolve the explain sink from the context" (the default).
#: Pass ``explain=None`` to force explanation off even when the context
#: carries a sink — the repository's broker-directory reasoning does
#: this, as it is no part of an agent-matchmaking trail.
_EXPLAIN_FROM_CONTEXT = object()


def match_advertisements(
    query: BrokerQuery,
    advertisements: Iterable[Advertisement],
    context: Optional[MatchContext] = None,
    stats: Optional[MatchStats] = None,
    explain=_EXPLAIN_FROM_CONTEXT,
) -> List[Match]:
    """All advertisements matching *query*, best semantic score first.

    For ``QueryMode.ONE`` queries the caller takes the head of the list;
    the full ranking is returned either way so brokers can merge
    rankings from collaborating brokers.  Pass a :class:`MatchStats` to
    collect attempt/hit counts (None, the default, records nothing).

    When the context carries an ``explain_sink`` (or *explain* is a sink
    passed explicitly) a verdict trail is recorded: one
    :class:`~repro.obs.explain.Verdict` per advertisement.
    """
    context = context or MatchContext()
    if explain is _EXPLAIN_FROM_CONTEXT:
        explain = context.explain_sink
    trail = explain.begin(query, backend="direct") if explain is not None else None
    matches = []
    for ad in advertisements:
        if stats is not None:
            stats.candidates += 1
        matched_slots = _matches(query, ad, context, stats, trail)
        if matched_slots is None:
            continue
        match = Match(
            advertisement=ad,
            score=score_match(query, ad, context),
            matched_slots=tuple(matched_slots),
        )
        matches.append(match)
        if trail is not None:
            trail.record(accept_verdict(query, match, context))
    if stats is not None:
        stats.matched += len(matches)
    matches.sort(key=lambda m: (-m.score, m.agent_name))
    return matches


def accept_verdict(query: BrokerQuery, match: Match, context: MatchContext) -> Verdict:
    """The accepted-side verdict for a ranked match: authoritative score
    plus its specificity breakdown."""
    return Verdict(
        agent=match.agent_name,
        accepted=True,
        score=match.score,
        breakdown=score_breakdown(query, match.advertisement, context),
    )


def missing_slot_detail(query: BrokerQuery, ad: Advertisement) -> Optional[str]:
    """The first requested slot the advertisement fails to cover, in
    query order — shared with the Datalog oracle so details compare equal."""
    advertised = set(ad.description.content.slots)
    for slot in query.slots:
        if slot not in advertised:
            return slot
    return None


def _reject(
    reason: str,
    detail: Optional[str],
    ad: Advertisement,
    stats: Optional[MatchStats],
    trail: Optional[QueryExplanation],
) -> None:
    if stats is not None:
        stats.rejects[reason] = stats.rejects.get(reason, 0) + 1
    if trail is not None:
        trail.record(
            Verdict(agent=ad.agent_name, accepted=False, reason=reason, detail=detail)
        )
    return None


def _matches(
    query: BrokerQuery, ad: Advertisement, context: MatchContext,
    stats: Optional[MatchStats] = None,
    trail: Optional[QueryExplanation] = None,
) -> Optional[List[str]]:
    """None when *ad* fails *query*; otherwise the covered slot list.

    Reject sites fire in a canonical order — the reason recorded for a
    multiply-failing advertisement is the *first* failing filter, and
    the Datalog oracle probes its compiled conditions in this same
    order.  ``observed`` keeps the disabled path at one extra local
    truth test per reject.
    """
    desc = ad.description
    observed = stats is not None or trail is not None

    # --- syntactic ----------------------------------------------------
    if query.agent_type is not None and desc.agent_type != query.agent_type:
        return _reject(REASON_AGENT_TYPE, query.agent_type, ad, stats, trail) \
            if observed else None
    if query.content_language is not None and not desc.syntax.speaks(
        query.content_language
    ):
        return _reject(REASON_LANGUAGE, query.content_language, ad, stats, trail) \
            if observed else None
    if query.communication_language is not None and not desc.syntax.communicates_via(
        query.communication_language
    ):
        return _reject(REASON_LANGUAGE, query.communication_language, ad, stats,
                       trail) if observed else None
    for conversation in query.conversations:
        if conversation not in desc.capabilities.conversations:
            return _reject(REASON_CONVERSATION, conversation, ad, stats, trail) \
                if observed else None

    # --- semantic: capabilities ----------------------------------------
    # cover_set(requested) is the memoized set of advertised names that
    # cover the request, so each test is a small set intersection.
    hierarchy = context.capability_hierarchy
    for requested in query.capabilities:
        if not hierarchy.cover_set(requested).intersection(
            desc.capabilities.functions
        ):
            return _reject(REASON_CAPABILITY, requested, ad, stats, trail) \
                if observed else None

    # --- semantic: content ---------------------------------------------
    # An advertisement that names no ontology / no classes is content-
    # unrestricted (e.g. a general-purpose multiresource query agent): it
    # passes content requirements vacuously.  The Section 2.2 narrative
    # depends on this: the generic "MRQ agent" matches a C2 request, and
    # the specialized "MRQ2 agent" merely outranks it.
    if query.ontology_name is not None and desc.content.ontology_name:
        if desc.content.ontology_name != query.ontology_name:
            return _reject(REASON_ONTOLOGY, desc.content.ontology_name, ad, stats,
                           trail) if observed else None
    if desc.content.classes:
        for requested_class in query.classes:
            if not context.related_classes(
                query.ontology_name, requested_class
            ).intersection(desc.content.classes):
                return _reject(REASON_CLASS, requested_class, ad, stats, trail) \
                    if observed else None

    matched_slots = _match_slots(query, ad)
    if matched_slots is None:
        return _reject(REASON_SLOT, missing_slot_detail(query, ad), ad, stats,
                       trail) if observed else None

    if stats is not None:
        stats.constraint_checks += 1
    if not desc.content.constraints.overlaps(query.constraints):
        if not observed:
            return None
        if not desc.content.constraints.is_satisfiable():
            return _reject(REASON_UNSATISFIABLE, None, ad, stats, trail)
        disjoint = desc.content.constraints.disjoint_slots(query.constraints)
        return _reject(REASON_DISJOINT, disjoint[0] if disjoint else None, ad,
                       stats, trail)
    if stats is not None:
        stats.constraint_hits += 1

    # --- pragmatic -------------------------------------------------------
    if query.require_mobile is not None and desc.properties.mobile != query.require_mobile:
        return _reject(REASON_MOBILITY, None, ad, stats, trail) \
            if observed else None
    if query.max_response_time is not None:
        advertised_time = desc.properties.estimated_response_time
        if advertised_time is not None and advertised_time > query.max_response_time:
            return _reject(REASON_RESPONSE_TIME, None, ad, stats, trail) \
                if observed else None

    return matched_slots


def _match_slots(query: BrokerQuery, ad: Advertisement) -> Optional[List[str]]:
    """Slot coverage.

    An advertisement listing no slots is unrestricted (it offers whole
    classes).  Otherwise, with ``allow_partial_slots`` (the default,
    supporting fragmented classes — "return all matched slots from
    classes that are fragmented") at least one requested slot must be
    advertised; without it, all of them must be.
    """
    if not query.slots:
        return []
    if not ad.description.content.slots:
        return list(query.slots)
    advertised = set(ad.description.content.slots)
    covered = [slot for slot in query.slots if slot in advertised]
    if query.allow_partial_slots:
        return covered if covered else None
    return covered if len(covered) == len(query.slots) else None


#: Public alias: the columnar plane (:mod:`repro.core.columnar`) folds
#: slot coverage into its posting bitsets and recomputes the covered
#: list only for survivors, with this exact function.
match_slots = _match_slots
