"""Parametric resource and query agents for the simulator.

"There were fewer types of agents used in the simulation experiments ...
we limited the types to broker, resource and query agents.  The query
agents are simply a mechanism for putting a load on the brokers, while
the resource agents simply defined the amount and type of information
the brokers have to reason about."  (Section 5.2)

Brokers are NOT simulated specially: the communities run the real
:class:`~repro.agents.BrokerAgent`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.agents.base import Agent, AgentConfig, HandlerResult
from repro.agents.broker import RecommendRequest
from repro.core.policy import FollowOption, SearchPolicy
from repro.core.query import BrokerQuery
from repro.kqml import KqmlMessage, Performative
from repro.ontology.service import (
    AgentLocation,
    Capabilities,
    ContentInfo,
    ServiceDescription,
    SyntacticInfo,
)
from repro.sim.config import SimConfig
from repro.sim.metrics import BrokerQueryRecord, SimMetrics
from repro.sim.rng import SimRng

_GENERATE = "generate-query"


class _OnOffSchedule:
    """Alternating exponential ON/OFF phases for bursty arrivals.

    The arrival process is interrupted-Poisson: exponential gaps only
    accumulate during ON phases, and :meth:`stretch` converts an
    ON-time gap into virtual-clock delay by skipping the OFF time the
    gap spans.  Phase lengths are drawn lazily in a fixed order (one
    :meth:`~repro.sim.rng.SimRng.onoff` pair per cycle), so runs stay
    deterministic under a given seed.
    """

    def __init__(self, rng: SimRng, on_mean: float, off_mean: float):
        self._rng = rng
        self._on_mean = on_mean
        self._off_mean = off_mean
        self._cycle_start = 0.0
        self._on_len, self._off_len = rng.onoff(on_mean, off_mean)

    def stretch(self, now: float, gap: float) -> float:
        """The virtual delay from *now* after which *gap* seconds of ON
        time have elapsed."""
        at = now
        while True:
            cycle_end = self._cycle_start + self._on_len + self._off_len
            while at >= cycle_end:
                self._cycle_start = cycle_end
                self._on_len, self._off_len = self._rng.onoff(
                    self._on_mean, self._off_mean)
                cycle_end = self._cycle_start + self._on_len + self._off_len
            on_end = self._cycle_start + self._on_len
            if at < on_end:
                available = on_end - at
                if gap <= available:
                    return (at + gap) - now
                gap -= available
            at = cycle_end


class SimResourceAgent(Agent):
    """A parametric resource: a domain, a data volume, a service rate."""

    agent_type = "resource"

    def __init__(
        self,
        name: str,
        domain: str,
        sim_config: SimConfig,
        config: Optional[AgentConfig] = None,
    ):
        super().__init__(name, config)
        self.domain = domain
        self.sim_config = sim_config
        self.queries_answered = 0

    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="resource"),
            syntax=SyntacticInfo(content_languages=("SQL 2.0",)),
            capabilities=Capabilities(
                conversations=("ask-all", "ping"), functions=("relational",)
            ),
            content=ContentInfo(ontology_name=self.domain),
        )

    def on_ask_all(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        cfg = self.sim_config
        complexity = float(message.extra("complexity", 1.0))
        coverage = float(message.extra("coverage", cfg.coverage_mean))
        self.queries_answered += 1
        result.cost_seconds += (
            cfg.resource_data_mb * cfg.resource_seconds_per_mb * complexity
        ) / cfg.processor_speed
        result_bytes = coverage * cfg.resource_data_mb * 1_000_000
        result.send(
            message.reply(Performative.TELL, content=("rows", coverage)),
            size_bytes=max(result_bytes, 1.0),
        )


class SimQueryAgent(Agent):
    """The load generator: exponential arrivals, uniform domain/broker
    choice, Gaussian complexity/coverage, follow-up resource queries."""

    agent_type = "query"

    def __init__(
        self,
        name: str,
        brokers: Sequence[str],
        domains: Sequence[str],
        sim_config: SimConfig,
        metrics: SimMetrics,
        rng: SimRng,
        config: Optional[AgentConfig] = None,
    ):
        super().__init__(name, config or AgentConfig(redundancy=0))
        self.brokers = list(brokers)
        self.domains = list(domains)
        self.sim_config = sim_config
        self.metrics = metrics
        self.rng = rng
        #: On/off burst schedule; None unless the bursty knobs are set,
        #: so the legacy rng call sequence is untouched when they are
        #: off (the construction itself draws the first phase pair).
        self._onoff = (
            _OnOffSchedule(rng, sim_config.load_on_s, sim_config.load_off_s)
            if sim_config.load_on_s is not None else None
        )

    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="query")
        )

    # ------------------------------------------------------------------
    # arrival process
    # ------------------------------------------------------------------
    def _burst_factor(self, now: float) -> float:
        """The flash-crowd acceleration at *now*: 1 outside the burst
        window, ``burst_factor`` inside it — ramped linearly over
        ``load_ramp_s`` at the window edges when that knob is set."""
        cfg = self.sim_config
        start = cfg.burst_start
        end = start + cfg.burst_duration
        if not start <= now < end:
            return 1.0
        ramp = cfg.load_ramp_s
        if not ramp:
            return cfg.burst_factor
        edge = min((now - start) / ramp, (end - now) / ramp, 1.0)
        return 1.0 + (cfg.burst_factor - 1.0) * edge

    def _mean_interval(self, now: float) -> float:
        """The current mean inter-arrival time: the configured rate,
        accelerated by ``burst_factor`` inside the flash-crowd window.
        With no burst configured this is a constant, and the rng call
        sequence is identical to the legacy open-loop generator."""
        cfg = self.sim_config
        mean = cfg.mean_query_interval
        if cfg.burst_start is not None:
            mean /= self._burst_factor(now)
        return mean

    def _next_arrival_delay(self, now: float) -> float:
        """The delay before the next query: an exponential gap, with OFF
        phases skipped when the on/off burst knobs are set."""
        gap = self.rng.exponential(self._mean_interval(now))
        if self._onoff is None:
            return gap
        return self._onoff.stretch(now, gap)

    def on_start(self, now: float) -> HandlerResult:
        result = super().on_start(now)
        self._arm_cycle(result, self._next_arrival_delay(now), _GENERATE)
        return result

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        if token != _GENERATE:
            return
        self._issue_query(result, now)
        result.arm(self._next_arrival_delay(now), _GENERATE, maintenance=True)

    # ------------------------------------------------------------------
    # one query
    # ------------------------------------------------------------------
    def _issue_query(self, result: HandlerResult, now: float) -> None:
        cfg = self.sim_config
        broker = self.rng.choice(self.brokers)
        if cfg.load_zipf_s is None:
            domain = self.rng.choice(self.domains)
        else:
            # Zipf popularity over the sorted catalog: rank 1 is the
            # hottest domain, so repeated queries genuinely exercise
            # broker match caches instead of spreading uniformly.
            domain = self.domains[
                self.rng.zipf(cfg.load_zipf_s, len(self.domains)) - 1]
        complexity = self.rng.bounded_gaussian(
            cfg.complexity_mean, cfg.complexity_std, *cfg.complexity_bounds
        )
        coverage = self.rng.bounded_gaussian(
            cfg.coverage_mean, cfg.coverage_std, *cfg.coverage_bounds
        )
        record = BrokerQueryRecord(issued_at=now, broker=broker, domain=domain)
        self.metrics.broker_queries.append(record)

        request = RecommendRequest(
            query=BrokerQuery(agent_type="resource", ontology_name=domain),
            policy=SearchPolicy(hop_count=cfg.query_hop_count(), follow=FollowOption.ALL),
        )
        message = KqmlMessage(
            Performative.RECOMMEND_ALL,
            sender=self.name,
            receiver=broker,
            content=request,
            ontology="service",
            extras={"complexity": complexity},
        )
        timeout = (
            cfg.query_reply_timeout
            if cfg.query_reply_timeout is not None
            else cfg.duration + 1.0  # effectively: wait out the run
        )
        self.ask(
            message,
            lambda reply, res: self._broker_replied(record, complexity, coverage,
                                                    reply, res),
            result,
            timeout=timeout,
        )

    def _broker_replied(
        self,
        record: BrokerQueryRecord,
        complexity: float,
        coverage: float,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if reply is None or reply.performative is not Performative.TELL:
            return  # timeout: record stays unanswered (Table 5's misses)
        record.replied_at = self.bus.now
        record.matched_agents = tuple(m.agent_name for m in reply.content)
        if not self.sim_config.query_resources_after_reply:
            return
        issued_at = self.bus.now
        for match in reply.content:
            ask = KqmlMessage(
                Performative.ASK_ALL,
                sender=self.name,
                receiver=match.agent_name,
                content=f"select * from {record.domain}",
                language="SQL 2.0",
                extras={"complexity": complexity, "coverage": coverage},
            )
            self.ask(
                ask,
                lambda r, res, t0=issued_at: self._resource_replied(t0, r, res),
                result,
                timeout=self.sim_config.reply_timeout,
            )

    def _resource_replied(
        self, issued_at: float, reply: Optional[KqmlMessage], result: HandlerResult
    ) -> None:
        if reply is not None and reply.performative is Performative.TELL:
            self.metrics.resource_response_times.append(self.bus.now - issued_at)
