"""The multiresource query (MRQ) agent.

The MRQ agent implements the Figure 6/7 flow: it receives a user SQL
query, asks the broker for the resource agents relevant to the query's
class and constraints, fans the (rewritten) query out to them, and
assembles the answers:

* resources holding *vertical fragments* are reassembled by joining on
  the class key (VF stream);
* resources holding *subclass extents* or horizontal fragments are
  reassembled by union over the shared columns (CH stream);
* both at once (FH stream) unions within fragment shape, then joins
  across shapes.

WHERE clauses are pushed down to a resource only when that resource
holds every predicate column; otherwise the MRQ fetches the needed
columns and filters after assembly, so fragmented predicates still
evaluate correctly.

Every query runs through one executor.  A *planner* turns the broker's
recommendations into query fragments — a rewritten sub-query plus the
providers that can answer it — and the executor sends each fragment,
collects the replies and assembles the answer.  On the paper's flow (no
active :class:`MrqResilienceConfig`) every usable match is a fragment of
its own, so each recommended resource is queried once.  With an active
config the planner groups interchangeable resources into equivalence
sets — same rewritten sub-query, same advertised constraints, optionally
confirmed by the broker's ``equivalence`` hint — and the executor sends
each fragment to the best-scored provider, fails over to the next-ranked
one on timeout / ``sorry`` / overload shed, and optionally hedges
stragglers with a duplicate sub-query to the runner-up (first reply
wins).  Per-provider health (latency EWMA, failure streaks, breaker
state) persists across queries.  Whatever the mode, answers assembled
with fragments missing carry a ``:partial`` annotation with
machine-readable detail instead of masquerading as complete.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.agents.base import Agent, AgentConfig, HandlerResult
from repro.agents.broker import RecommendRequest
from repro.agents.errors import AgentError
from repro.constraints import Constraint
from repro.core.matcher import Match
from repro.core.policy import SearchPolicy
from repro.core.query import BrokerQuery
from repro.kqml import KqmlMessage, Performative
from repro.ontology.model import Ontology
from repro.ontology.service import (
    AgentLocation,
    Capabilities,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)
from repro.relational.fragmentation import join_on_key, keyed_on, union_all
from repro.relational.schema import Column, Schema, SchemaError
from repro.relational.table import Table
from repro.sql.ast import Select, predicate_columns
from repro.sql.errors import SqlError
from repro.sql.executor import (
    QueryResult,
    parse_select_cached,
    select_rows,
    where_to_constraint,
)
from repro.sql.render import render_select


@dataclass(frozen=True)
class MrqResilienceConfig:
    """Resilient execution knobs (ZBroker-style server selection).

    The default-constructed config enables failover only.  With no
    config on the agent (the default), or one with failover and hedging
    both off, the planner makes one single-provider fragment per match:
    the paper's query-every-match flow.
    """

    #: Send each fragment to the best provider and retry the next-ranked
    #: one on timeout / sorry / overload shed.
    failover: bool = True
    #: Duplicate straggler fragments to the runner-up provider after a
    #: latency-quantile trigger; first reply wins.
    hedge: bool = False
    #: Per-provider sub-query timeout (seconds, virtual time).
    provider_timeout: float = 15.0
    #: Total providers tried per fragment (including hedges).
    max_providers_per_fragment: int = 3
    #: EWMA smoothing for observed provider latency.
    ewma_alpha: float = 0.3
    #: Assumed latency for providers never observed (seconds).
    initial_latency_s: float = 10.0
    #: Score multiplier per consecutive failure (capped at 6 failures).
    failure_penalty: float = 4.0
    #: Consecutive failures before a provider's breaker opens.
    breaker_threshold: int = 3
    #: Seconds an opened provider is deprioritized before retry.
    breaker_cooldown_s: float = 120.0
    #: Hedge trigger before enough latency samples exist (seconds).
    hedge_delay_s: float = 8.0
    #: Latency quantile that arms the hedge trigger once warmed up.
    hedge_quantile: float = 0.95
    #: Samples required before the quantile replaces ``hedge_delay_s``.
    hedge_min_samples: int = 8

    def __post_init__(self):
        if self.provider_timeout <= 0:
            raise AgentError("provider_timeout must be positive")
        if self.max_providers_per_fragment < 1:
            raise AgentError("max_providers_per_fragment must be >= 1")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise AgentError("ewma_alpha must be in (0, 1]")
        if self.failure_penalty < 1.0:
            raise AgentError("failure_penalty must be >= 1")
        if self.breaker_threshold < 1:
            raise AgentError("breaker_threshold must be >= 1")
        if self.breaker_cooldown_s < 0 or self.hedge_delay_s <= 0:
            raise AgentError("breaker/hedge delays must be positive")
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise AgentError("hedge_quantile must be in (0, 1]")
        if self.hedge_min_samples < 1:
            raise AgentError("hedge_min_samples must be >= 1")

    @property
    def active(self) -> bool:
        return self.failover or self.hedge


@dataclass
class ProviderHealth:
    """Observed health of one resource agent, persisted across queries."""

    ewma_latency_s: Optional[float] = None
    successes: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    #: Simple circuit breaker: until this instant the provider ranks
    #: behind every closed provider (it is still eligible as a last
    #: resort, which doubles as the half-open probe).
    open_until: float = 0.0
    last_failure_reason: Optional[str] = None

    def record_success(self, latency_s: float, cfg: MrqResilienceConfig) -> None:
        self.successes += 1
        self.consecutive_failures = 0
        self.open_until = 0.0
        if self.ewma_latency_s is None:
            self.ewma_latency_s = latency_s
        else:
            alpha = cfg.ewma_alpha
            self.ewma_latency_s = alpha * latency_s + (1 - alpha) * self.ewma_latency_s

    def record_failure(
        self,
        reason: str,
        now: float,
        cfg: MrqResilienceConfig,
        retry_after: object = None,
    ) -> None:
        self.failures += 1
        self.consecutive_failures += 1
        self.last_failure_reason = reason
        if self.consecutive_failures >= cfg.breaker_threshold:
            self.open_until = max(self.open_until, now + cfg.breaker_cooldown_s)
        if retry_after is not None:
            # PR 8 pairing: an overload shed names its own cooldown.
            try:
                delay = float(retry_after)
            except (TypeError, ValueError):
                delay = 0.0
            self.open_until = max(self.open_until, now + delay)

    def available(self, now: float) -> bool:
        return now >= self.open_until

    def score(self, cfg: MrqResilienceConfig, now: float) -> float:
        base = (
            self.ewma_latency_s
            if self.ewma_latency_s is not None
            else cfg.initial_latency_s
        )
        return base * (cfg.failure_penalty ** min(self.consecutive_failures, 6))


@dataclass(slots=True)
class _Fragment:
    """A rewritten sub-query plus the interchangeable providers that can
    answer it (broker-rank order preserved): one match on the paper's
    flow, an equivalence set under an active resilience config."""

    fragment_id: str
    rendered: str
    providers: List[str]
    pushed_down: bool


@dataclass(slots=True)
class _FragmentRun:
    """Executor state for one fragment of one query."""

    fragment: _Fragment
    started: float = 0.0
    tried: List[str] = field(default_factory=list)
    #: provider -> (reply id, send time) for copies still in flight.
    outstanding: Dict[str, Tuple[str, float]] = field(default_factory=dict)
    failures: List[Tuple[str, str]] = field(default_factory=list)
    winner: Optional[str] = None
    answer: Optional[QueryResult] = None
    hedged: bool = False
    exhausted: bool = False

    @property
    def done(self) -> bool:
        return self.winner is not None or self.exhausted


@dataclass(slots=True)
class _Execution:
    """One user query from its recommend to its reply: what was asked
    and of which brokers, then one run per planned fragment."""

    original: KqmlMessage
    select: Select
    ontology: Optional[Ontology]
    brokers_tried: Tuple[str, ...]
    #: The active resilience config; None runs the paper's flow.
    cfg: Optional[MrqResilienceConfig] = None
    exec_id: int = 0
    runs: List[_FragmentRun] = field(default_factory=list)
    #: Runs still waiting for an answer or for their last provider.
    running: int = 0
    #: Runs in the order their answers arrived.
    answered: List[_FragmentRun] = field(default_factory=list)


class MultiResourceQueryAgent(Agent):
    """Decomposes queries over fragmented/replicated/hierarchical classes."""

    agent_type = "query"

    def __init__(
        self,
        name: str,
        ontology_name: str,
        ontology: Optional[Ontology] = None,
        config: Optional[AgentConfig] = None,
        specialty_classes: Sequence[str] = (),
        broker_hop_count: int = 8,
        extra_ontologies: Sequence[Ontology] = (),
        ontology_agent: Optional[str] = None,
        resilience: Optional[MrqResilienceConfig] = None,
        ontology_retry_interval: float = 300.0,
    ):
        super().__init__(name, config)
        self.ontology_name = ontology_name
        self.ontology = ontology
        self.extra_ontologies = tuple(extra_ontologies)
        self.specialty_classes = tuple(specialty_classes)
        self.broker_hop_count = broker_hop_count
        #: When set, unknown classes trigger an ``ask-one
        #: (ontology-for-class <name>)`` to this agent, and the fetched
        #: ontology is cached for subsequent queries.
        self.ontology_agent = ontology_agent
        #: Negative cache of failed ontology fetches: class name -> the
        #: instant the entry expires and a fetch may be retried.
        self._ontology_fetch_failed: Dict[str, float] = {}
        self.ontology_retry_interval = ontology_retry_interval
        self.ontologies_fetched = 0
        self.queries_processed = 0
        #: None (or inactive) = the paper's query-every-match flow.
        self.resilience = resilience
        #: Resource name -> observed health, persisted across queries.
        self.provider_health: Dict[str, ProviderHealth] = {}
        self._latency_samples: Deque[float] = deque(maxlen=128)
        self._executions: Dict[int, _Execution] = {}
        self._exec_counter = 0

    def _resolve_ontology(self, class_name: str):
        """The (name, Ontology) pair whose vocabulary covers *class_name*,
        or None when unknown (the caller may fetch it on demand).
        """
        candidates = []
        if self.ontology is not None:
            candidates.append(self.ontology)
        candidates.extend(self.extra_ontologies)
        for ontology in candidates:
            if class_name in ontology:
                return ontology.name, ontology
        return None

    def _knows_class(self, class_name: str) -> bool:
        return self._resolve_ontology(class_name) is not None

    # ------------------------------------------------------------------
    # advertisement
    # ------------------------------------------------------------------
    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="query"),
            syntax=SyntacticInfo(content_languages=("SQL 2.0",)),
            capabilities=Capabilities(
                conversations=("ask-all", "ask-one", "ping"),
                functions=("multiresource-query-processing",),
            ),
            content=ContentInfo(
                ontology_name=self.ontology_name if self.specialty_classes else "",
                classes=self.specialty_classes,
            ),
        )

    # ------------------------------------------------------------------
    # the Figure 6/7 flow
    # ------------------------------------------------------------------
    def on_ask_all(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        if not isinstance(message.content, str):
            result.send(message.reply(Performative.SORRY, content="expected SQL text"))
            return
        try:
            select = parse_select_cached(message.content)
        except SqlError as exc:
            result.send(message.reply(Performative.SORRY, content=str(exc)))
            return
        broker = self._pick_broker()
        if broker is None:
            result.send(message.reply(Performative.SORRY, content="no broker connected"))
            return

        self.queries_processed += 1
        if (
            not self._knows_class(select.table)
            and self.ontology_agent is not None
            and not self._fetch_blocked(select.table, now)
        ):
            self._fetch_ontology_then_continue(message, select, broker, result)
            return
        self._dispatch_query(message, select, broker, result)

    def _fetch_blocked(self, class_name: str, now: float) -> bool:
        """True while the class sits in the negative fetch cache.  Entries
        expire after ``ontology_retry_interval`` so a transiently dead
        ontology agent no longer poisons the class forever."""
        expires = self._ontology_fetch_failed.get(class_name)
        if expires is None:
            return False
        if now >= expires:
            del self._ontology_fetch_failed[class_name]
            return False
        return True

    def _fetch_ontology_then_continue(
        self, message: KqmlMessage, select: Select, broker: str, result: HandlerResult
    ) -> None:
        """Ask the ontology agent for the vocabulary covering the query's
        class, cache it, and resume query processing (Section 1.1: agents
        "service requests over a set of common ontologies, accessed via
        the ontology agents")."""
        ask = KqmlMessage(
            Performative.ASK_ONE,
            sender=self.name,
            receiver=self.ontology_agent,
            content=("ontology-for-class", select.table),
        )
        self.ask(
            ask,
            lambda reply, res: self._ontology_fetched(message, select, broker,
                                                      reply, res),
            result,
        )

    def _ontology_fetched(
        self,
        message: KqmlMessage,
        select: Select,
        broker: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        fetched = (
            reply.content
            if reply is not None and reply.performative is Performative.TELL
            else None
        )
        if isinstance(fetched, Ontology):
            self.extra_ontologies = (*self.extra_ontologies, fetched)
            self.ontologies_fetched += 1
        else:
            self._ontology_fetch_failed[select.table] = (
                self.bus.now + self.ontology_retry_interval
            )
        self._dispatch_query(message, select, broker, result)

    def _dispatch_query(
        self,
        message: KqmlMessage,
        select: Select,
        broker: str,
        result: HandlerResult,
        brokers_tried: Tuple[str, ...] = (),
    ) -> None:
        resolved = self._resolve_ontology(select.table)
        if resolved is None:
            ontology_name, ontology = self.ontology_name, self.ontology
        else:
            ontology_name, ontology = resolved
        constraints = where_to_constraint(select.where) or Constraint.unconstrained()
        broker_query = BrokerQuery(
            agent_type="resource",
            content_language="SQL 2.0",
            ontology_name=ontology_name,
            classes=(select.table,),
            slots=tuple(select.columns) if select.columns else (),
            constraints=constraints,
        )
        request = RecommendRequest(
            query=broker_query,
            policy=SearchPolicy(hop_count=self.broker_hop_count),
        )
        recommend_extras = {"complexity": message.extra("complexity", 1.0)}
        deadline = message.extra("x-deadline")
        if deadline is not None:
            # Thread the requester's remaining budget through the
            # decomposition: the broker (and the bus) shed dead work.
            recommend_extras["x-deadline"] = deadline
        cfg = self.resilience
        if cfg is not None and not cfg.active:
            cfg = None  # failover and hedging both off: the paper's flow
        if cfg is not None:
            # Ask the broker to annotate which matches are interchangeable.
            recommend_extras["x-equivalence"] = "1"
        recommend = KqmlMessage(
            Performative.RECOMMEND_ALL,
            sender=self.name,
            receiver=broker,
            content=request,
            ontology="service",
            extras=recommend_extras,
        )
        execution = _Execution(original=message, select=select,
                               ontology=ontology,
                               brokers_tried=(*brokers_tried, broker), cfg=cfg)
        self.ask(
            recommend,
            lambda reply, res, e=execution: self._resources_found(e, reply, res),
            result,
        )

    def _resources_found(
        self, execution: _Execution, reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if reply is None or reply.performative is not Performative.TELL:
            # The broker died or refused: fail over to the next known
            # broker instead of treating one broker as a single point of
            # failure.  An empty *match list* from a live broker is a
            # semantic answer and is not retried.
            next_broker = self._next_broker(execution.brokers_tried)
            if next_broker is not None:
                obs = self.observer
                if obs.enabled:
                    obs.inc("mrq.broker_failover.count")
                    obs.annotate(self.bus.now, execution.original,
                                 "mrq-broker-failover",
                                 failed=execution.brokers_tried[-1],
                                 next=next_broker)
                self._dispatch_query(execution.original, execution.select,
                                     next_broker, result,
                                     brokers_tried=execution.brokers_tried)
                return
            # Every known broker timed out or refused: a transport
            # failure, not the semantic answer "nothing matches".
            result.send(execution.original.reply(
                Performative.SORRY, content="no broker reachable",
                reason="broker-unreachable",
            ))
            return
        matches: List[Match] = list(reply.content)
        if not matches:
            result.send(execution.original.reply(
                Performative.SORRY, content="no matching resources"))
            return
        fragments = self._plan_fragments(
            execution, matches, _parse_equivalence(reply.extra("equivalence")))
        if not fragments:
            result.send(execution.original.reply(
                Performative.SORRY, content="no usable resources"))
            return
        self._exec_counter += 1
        execution.exec_id = self._exec_counter
        execution.runs = [_FragmentRun(fragment=f, started=self.bus.now)
                          for f in fragments]
        execution.running = len(fragments)
        self._executions[execution.exec_id] = execution
        cfg = execution.cfg
        obs = self.observer
        if obs.enabled:
            obs.observe("mrq.fanout", float(len(fragments)))
            mode = {"resilient": True} if cfg is not None else {}
            obs.annotate(self.bus.now, execution.original, "mrq-fanout",
                         resources=len(fragments), recommended=len(matches),
                         **mode)
        for index, run in enumerate(execution.runs):
            self._send_fragment(execution, index, result)
            if (
                cfg is not None
                and cfg.hedge
                and not run.done
                and len(run.fragment.providers) > 1
            ):
                result.arm(self._hedge_delay(),
                           ("mrq-hedge", execution.exec_id, index))

    def _rewrite_for(
        self, match: Match, select: Select, ontology: Optional[Ontology]
    ) -> Optional[Select]:
        """The per-resource query: right class name, available columns,
        WHERE pushed down only when the resource can evaluate it."""
        content = match.advertisement.description.content
        target_class = self._target_class(content.classes, select.table, ontology)
        available = set(content.slots) if content.slots else None  # None = all

        where = select.where
        if where is not None and available is not None:
            if not predicate_columns(where) <= available:
                where = None  # cannot evaluate here; filter after assembly

        columns: Optional[Tuple[str, ...]]
        if available is None:
            columns = select.columns  # resource is unrestricted: pass through
        else:
            wanted = list(select.columns) if select.columns else sorted(available)
            keep = [c for c in wanted if c in available]
            for extra in sorted(self._assembly_columns(select, content, ontology)):
                if extra in available and extra not in keep:
                    keep.append(extra)
            if not keep:
                return None
            columns = tuple(keep)
        return Select(table=target_class, columns=columns, where=where)

    def _target_class(
        self, advertised: Tuple[str, ...], requested: str, ontology: Optional[Ontology]
    ) -> str:
        if not advertised or requested in advertised:
            return requested
        if ontology is not None:
            for cls in advertised:
                if cls in ontology and requested in ontology and (
                    ontology.is_subclass(cls, requested)
                    or ontology.is_subclass(requested, cls)
                ):
                    return cls
        return advertised[0]

    def _assembly_columns(
        self, select: Select, content, ontology: Optional[Ontology]
    ) -> set:
        """Columns needed beyond the projection: the key (for fragment
        joins) and any post-filter predicate columns."""
        needed = set()
        needed.update(content.keys)
        if ontology is not None and select.table in ontology:
            key = ontology.key_of(select.table)
            if key:
                needed.add(key)
        if select.where is not None:
            needed.update(predicate_columns(select.where))
        return needed

    # ------------------------------------------------------------------
    # planner
    # ------------------------------------------------------------------
    def _plan_fragments(
        self,
        execution: _Execution,
        matches: List[Match],
        hints: Dict[str, int],
    ) -> List[_Fragment]:
        """One single-provider fragment per usable match on the paper's
        flow.  Under an active resilience config, equivalence sets:
        providers whose rewritten sub-query AND advertised constraints
        agree are interchangeable, confirmed by the broker's
        ``equivalence`` hint when present."""
        grouped = execution.cfg is not None
        fragments: Dict[object, _Fragment] = {}
        for index, match in enumerate(matches):
            sub_select = self._rewrite_for(match, execution.select,
                                           execution.ontology)
            if sub_select is None:
                continue
            rendered = render_select(sub_select)
            key: object = index
            if grouped:
                content = match.advertisement.description.content
                key = (hints.get(match.agent_name), rendered,
                       content.constraints.cache_key())
            fragment = fragments.get(key)
            if fragment is None:
                fragment = fragments[key] = _Fragment(
                    fragment_id=_fragment_label(sub_select),
                    rendered=rendered,
                    providers=[],
                    pushed_down=sub_select.where is not None,
                )
            fragment.providers.append(match.agent_name)
        ordered = list(fragments.values())
        if grouped:
            # Equivalence sets are told apart by name; the paper's
            # fragments keep the shape label their same-shaped siblings
            # share, so a shape one of them answered is not missing.
            seen_ids: Dict[str, int] = {}
            for fragment in ordered:
                count = seen_ids.get(fragment.fragment_id, 0)
                seen_ids[fragment.fragment_id] = count + 1
                if count:
                    fragment.fragment_id = f"{fragment.fragment_id}#{count + 1}"
        return ordered

    # ------------------------------------------------------------------
    # executor
    # ------------------------------------------------------------------
    def _ranked_candidates(
        self, run: _FragmentRun, cfg: Optional[MrqResilienceConfig]
    ) -> List[str]:
        """Untried providers for *run*, best first: closed breakers before
        open ones, then by health score, then broker rank."""
        if cfg is None:
            # The paper's flow asks a fragment's one provider once: no
            # failover, no hedge.
            return run.fragment.providers
        budget = cfg.max_providers_per_fragment - len(run.tried)
        if budget <= 0:
            return []
        now = self.bus.now
        pool = [
            (provider, rank)
            for rank, provider in enumerate(run.fragment.providers)
            if provider not in run.tried and provider not in run.outstanding
        ]

        def sort_key(item):
            provider, rank = item
            health = self.provider_health.get(provider)
            if health is None:
                return (0, cfg.initial_latency_s, rank, provider)
            opened = 0 if health.available(now) else 1
            return (opened, health.score(cfg, now), rank, provider)

        return [provider for provider, _ in sorted(pool, key=sort_key)]

    def _send_fragment(
        self,
        execution: _Execution,
        index: int,
        result: HandlerResult,
        hedge: bool = False,
    ) -> bool:
        cfg = execution.cfg
        run = execution.runs[index]
        candidates = self._ranked_candidates(run, cfg)
        if not candidates:
            return False
        provider = candidates[0]
        run.tried.append(provider)
        ask_extras = {"complexity": execution.original.extra("complexity", 1.0)}
        deadline = execution.original.extra("x-deadline")
        if deadline is not None:
            ask_extras["x-deadline"] = deadline
        ask = KqmlMessage(
            Performative.ASK_ALL,
            sender=self.name,
            receiver=provider,
            content=run.fragment.rendered,
            language="SQL 2.0",
            extras=ask_extras,
        )
        run.outstanding[provider] = (ask.reply_with, self.bus.now)
        # The paper's flow keeps the agent's own reply timeout and retry
        # budget; failover replaces retries with the next provider.
        self.ask(
            ask,
            lambda r, res, e=execution, i=index, p=provider: self._fragment_reply(
                e, i, p, r, res
            ),
            result,
            timeout=cfg.provider_timeout if cfg is not None else None,
            attempts=1 if cfg is not None else None,
        )
        if hedge:
            run.hedged = True
            obs = self.observer
            if obs.enabled:
                obs.inc("mrq.hedge.count")
                obs.annotate(self.bus.now, execution.original, "mrq-hedge",
                             fragment=run.fragment.fragment_id, provider=provider)
        return True

    def _fragment_reply(
        self,
        execution: _Execution,
        index: int,
        provider: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if self._executions.get(execution.exec_id) is not execution:
            return  # execution already assembled or wiped by a crash
        run = execution.runs[index]
        entry = run.outstanding.pop(provider, None)
        if entry is None or run.winner is not None:
            return
        _reply_id, sent_at = entry
        now = self.bus.now
        cfg = execution.cfg
        obs = self.observer

        if reply is not None and reply.performative is Performative.TELL:
            if cfg is not None:
                latency = now - sent_at
                self.provider_health.setdefault(
                    provider, ProviderHealth()).record_success(latency, cfg)
                self._latency_samples.append(latency)
            run.winner = provider
            run.answer = reply.content
            execution.answered.append(run)
            # First reply wins: abandon the losing duplicate(s).
            for other_id, _sent in run.outstanding.values():
                self.cancel_ask(other_id)
                if obs.enabled:
                    obs.inc("mrq.hedge.cancelled")
            run.outstanding.clear()
            if run.hedged and provider != run.tried[0] and obs.enabled:
                obs.inc("mrq.hedge.win")
            self._finish_run(execution, run, now, "ok")
            self._maybe_assemble(execution, result)
            return

        reason = _failure_reason(reply)
        if cfg is not None:
            retry_after = reply.extra("retry-after") if reply is not None else None
            self.provider_health.setdefault(provider, ProviderHealth()) \
                .record_failure(reason, now, cfg, retry_after)
        run.failures.append((provider, reason))
        if cfg is not None and obs.enabled:
            obs.inc("mrq.provider.failure")
        if run.outstanding:
            return  # a hedge copy is still racing
        if cfg is not None and cfg.failover and self._send_fragment(
                execution, index, result):
            if obs.enabled:
                obs.inc("mrq.failover.count")
                obs.annotate(now, execution.original, "mrq-failover",
                             fragment=run.fragment.fragment_id,
                             failed=provider, reason=reason,
                             next=run.tried[-1])
            return
        run.exhausted = True
        self._finish_run(execution, run, now, "exhausted")
        self._maybe_assemble(execution, result)

    def _finish_run(
        self, execution: _Execution, run: _FragmentRun, now: float, status: str
    ) -> None:
        """Count *run* out; per-fragment telemetry is kept where provider
        health is."""
        execution.running -= 1
        obs = self.observer
        if obs.enabled and execution.cfg is not None:
            if status == "exhausted":
                obs.inc("mrq.fragment.exhausted")
            obs.region(self.name, "mrq-fragment", run.started, now,
                       fragment=run.fragment.fragment_id, status=status,
                       provider=run.winner or "", attempts=len(run.tried))

    def _hedge_delay(self) -> float:
        cfg = self.resilience
        if len(self._latency_samples) >= cfg.hedge_min_samples:
            ordered = sorted(self._latency_samples)
            rank = max(1, math.ceil(cfg.hedge_quantile * len(ordered)))
            return max(ordered[rank - 1], 1e-3)
        return cfg.hedge_delay_s

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        if (
            isinstance(token, tuple)
            and len(token) == 3
            and token[0] == "mrq-hedge"
        ):
            execution = self._executions.get(token[1])
            if execution is None:
                return
            run = execution.runs[token[2]]
            if run.done or not run.outstanding:
                return
            self._send_fragment(execution, token[2], result, hedge=True)

    def on_crash(self) -> None:
        super().on_crash()
        # In-flight executions die with the process; learned provider
        # health is a soft cache and survives (it only biases ranking).
        self._executions.clear()

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _maybe_assemble(self, execution: _Execution, result: HandlerResult) -> None:
        """Once every fragment is answered or exhausted: combine the
        answers into the extent, answer the query over it, and flag
        what is missing."""
        if execution.running:
            return
        if self._executions.pop(execution.exec_id, None) is None:
            return
        original, select, cfg = execution.original, execution.select, execution.cfg
        # The paper's flow combines answers as they arrived; equivalence
        # sets combine in plan order, so a ``select *`` keeps one column
        # order whichever replica wins a race.
        answered = (
            execution.answered if cfg is None
            else [run for run in execution.runs if run.winner is not None]
        )
        shapes, rejected = _load_shapes(
            [(run.winner, run.answer) for run in answered])
        for run in answered:
            if run.winner in rejected:
                run.failures.append((run.winner, "sorry:schema"))
                run.winner = None
        answered = [run for run in answered if run.winner is not None]
        missing = [run for run in execution.runs if run.winner is None]
        partial_extras: Dict[str, object] = {}
        if missing:
            # An equivalence set is named by its fragment; the paper's
            # flow names the providers it lost.  One of its fragments
            # whose shape a sibling answered may still hold rows nobody
            # else returned, so the answer is flagged, but the detail
            # lists only shapes with no surviving reply.
            names = (
                run.fragment.fragment_id if cfg is not None else run.tried[0]
                for run in missing
            )
            failures = sorted(
                (provider, run.fragment.fragment_id, reason)
                for run in missing
                for provider, reason in run.failures
            )
            partial_extras = {
                "partial": "missing:" + ",".join(sorted(names)),
                "partial-detail": _partial_detail(
                    select.table,
                    {run.fragment.fragment_id for run in missing}
                    - {run.fragment.fragment_id for run in answered},
                    failures,
                ),
            }
        if not answered:
            # Every fragment failed; the detail says what was lost.
            result.send(original.reply(
                Performative.SORRY, content="all resources failed",
                **{"partial-detail": partial_extras["partial-detail"]}))
            return
        results = [run.answer for run in answered]

        key = self._query_key(select, execution.ontology)
        if len(shapes) == 1:
            assembled = shapes[0]
        elif key is not None and all(key in t.schema for t in shapes):
            assembled = join_on_key([keyed_on(t, key) for t in shapes])
        else:
            assembled = union_all(shapes, name="assembled")

        where = select.where
        if where is not None and all(run.fragment.pushed_down for run in answered):
            where = None  # every resource already applied it
        order = select.order_by
        if order is not None and order.column not in assembled.schema:
            order = None
        columns = tuple(select.columns or assembled.schema.names)
        rows = select_rows(assembled, columns, where, order, select.limit)
        final = QueryResult(columns=columns, rows=rows,
                            rows_scanned=sum(qr.rows_scanned for qr in results))
        total_bytes = sum(qr.bytes_returned for qr in results)

        result.cost_seconds += self.cost_model.resource_query_seconds(
            total_bytes / 1_000_000.0
        )
        obs = self.observer
        if obs.enabled:
            obs.inc("mrq.assembled.count")
            obs.observe("mrq.assemble.bytes", float(total_bytes))
            if partial_extras:
                obs.inc("mrq.partial.count")
                obs.annotate(self.bus.now, original, "mrq-partial",
                             missing=partial_extras["partial"])
        result.send(
            original.reply(Performative.TELL, content=final, **partial_extras),
            size_bytes=max(final.bytes_returned, self.cost_model.control_message_bytes),
        )

    def _query_key(self, select: Select, ontology: Optional[Ontology]) -> Optional[str]:
        if ontology is not None and select.table in ontology:
            return ontology.key_of(select.table)
        return None


def _fragment_label(sub_select: Select) -> str:
    """A stable human/machine-readable fragment identity: the target
    class plus the column shape the sub-query covers."""
    columns = ",".join(sub_select.columns) if sub_select.columns else "*"
    return f"{sub_select.table}[{columns}]"


def _failure_reason(reply: Optional[KqmlMessage]) -> str:
    """The machine-readable reason a sub-query yielded no answer."""
    if reply is None:
        return "timeout"
    detail = reply.extra("reason")
    if detail is None and isinstance(reply.content, str):
        detail = reply.content
    return f"sorry:{detail}" if detail else "sorry"


def _parse_equivalence(value: object) -> Dict[str, int]:
    """Decode the broker's ``equivalence`` hint (groups joined by ``|``,
    members by ``,``) into provider -> group index."""
    groups: Dict[str, int] = {}
    if not isinstance(value, str) or not value:
        return groups
    for index, part in enumerate(value.split("|")):
        for name in part.split(","):
            if name:
                groups[name] = index
    return groups


def _partial_detail(
    class_name: str,
    missing_fragments: Iterable[str],
    failures: Sequence[Tuple[str, str, str]],
) -> Dict[str, object]:
    """The machine-readable payload behind a ``:partial`` annotation."""
    return {
        "class": class_name,
        "missing-fragments": tuple(sorted(missing_fragments)),
        "failed": tuple(
            {"provider": provider, "fragment": fragment, "reason": reason}
            for provider, fragment, reason in failures
        ),
    }


def _load_shapes(
    results: Sequence[Tuple[str, QueryResult]],
) -> Tuple[List[Table], List[str]]:
    """One typed table per reply *shape* (set of columns), in first-seen
    order, holding the rows of every reply of the shape in reply order,
    each loaded once; plus the providers whose rows their shape's schema
    rejected (none of their rows are kept)."""
    groups: Dict[frozenset, List[Tuple[str, QueryResult]]] = {}
    for provider, reply in results:
        groups.setdefault(frozenset(reply.columns), []).append((provider, reply))
    shapes: List[Table] = []
    rejected: List[str] = []
    for replies in groups.values():
        table = Table(
            f"shape{len(shapes)}",
            _infer_schema([reply for _, reply in replies]),
        )
        accepted = False
        for provider, reply in replies:
            try:
                table.insert_many(reply.rows)
            except SchemaError:
                rejected.append(provider)
            else:
                accepted = True
        if accepted:
            shapes.append(table)
    return shapes, rejected


def _infer_schema(replies: Sequence[QueryResult]) -> Schema:
    """The first reply's columns, each typed from its first non-NULL
    value in any of *replies* — one reply whose column is all NULL must
    not decide the type for its siblings — and ``string`` when every
    value is NULL."""
    columns = []
    for name in replies[0].columns:
        value = next(
            (row[name] for reply in replies for row in reply.rows
             if row.get(name) is not None),
            None,
        )
        if isinstance(value, bool):
            col_type = "bool"
        elif isinstance(value, (int, float)):
            col_type = "number"
        else:
            col_type = "string"
        columns.append(Column(name, col_type))
    return Schema(tuple(columns))
