"""Building and running simulated communities.

:func:`run_simulation` builds the community a :class:`SimConfig`
describes — real brokers, parametric resources, one load-generating
query agent — runs it for the configured duration, and returns a
:class:`SimReport` with the metrics the paper's figures and tables need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.agents.base import AgentConfig
from repro.agents.broker import BrokerAgent
from repro.agents.bus import MessageBus
from repro.agents.costs import CostModel
from repro.agents.faults import (AdmissionConfig, BackoffPolicy, BreakerConfig,
                                 FaultPlan)
from repro.agents.recovery import AdvertisementJournal
from repro.obs.explain import FlightRecorder
from repro.obs.sampling import SamplingTracer, TraceBudget
from repro.sim.agents import SimQueryAgent, SimResourceAgent
from repro.sim.config import BrokerStrategy, SimConfig
from repro.sim.metrics import SimMetrics
from repro.sim.reliability import FailureSchedule, ReliabilityController
from repro.sim.rng import SimRng


@dataclass
class SimReport:
    """The outcome of one simulation run."""

    config: SimConfig
    metrics: SimMetrics
    expected_matches: Dict[str, Set[str]]
    availability: float = 1.0

    @property
    def _tail_cutoff(self) -> float:
        """Queries issued after this time may not have had a fair chance
        to complete before the simulation horizon."""
        margin = self.config.query_reply_timeout or 120.0
        return self.config.duration - margin

    @property
    def average_broker_response(self) -> float:
        return self.metrics.average_broker_response(
            after=self.config.warmup, before=self._tail_cutoff
        )

    @property
    def reply_fraction(self) -> float:
        return self.metrics.reply_fraction(
            after=self.config.warmup, before=self._tail_cutoff
        )

    @property
    def success_fraction(self) -> float:
        return self.metrics.success_fraction(
            self.expected_matches, after=self.config.warmup,
            before=self._tail_cutoff,
        )

    @property
    def queries_issued(self) -> int:
        return len(self.metrics.issued(after=self.config.warmup,
                                       before=self._tail_cutoff))


class Simulation:
    """A fully wired community, ready to run.

    *observer* (a :class:`repro.obs.Observer`) instruments the run: the
    bus reports deliveries through it and :meth:`run` publishes the
    collected :class:`SimMetrics` into it, so figure benchmarks and live
    experiments share one metric vocabulary.  Defaults to the process-
    wide observer (:func:`repro.obs.current`), a no-op unless installed.
    """

    def __init__(self, config: SimConfig, observer=None):
        from repro import obs as _obs

        self.config = config
        self.rng = SimRng(config.seed, "sim")
        self.metrics = SimMetrics()
        self.observer = observer if observer is not None else _obs.current()
        #: Budgeted tracer (None unless ``config.trace_sample_rate`` is
        #: set): composed into the bus observer, flushed by :meth:`run`.
        self.tracer: Optional[SamplingTracer] = None
        if config.trace_sample_rate is not None:
            self.tracer = SamplingTracer(TraceBudget(
                sample_rate=config.trace_sample_rate,
                keep_slowest=config.trace_keep_slowest,
                seed=config.seed,
            ))
            self.observer = _obs.compose(self.observer, self.tracer)
        self.bus = MessageBus(
            CostModel(
                broker_seconds_per_mb=config.broker_seconds_per_mb / config.processor_speed,
                resource_seconds_per_mb=config.resource_seconds_per_mb,
                base_handling_seconds=config.base_handling_seconds / config.processor_speed,
                latency_seconds=config.network_latency_s,
                bandwidth_bytes_per_second=config.network_bandwidth_bytes_per_s,
                broker_reply_bytes_per_match=config.broker_reply_bytes_per_match,
            ),
            observer=self.observer,
        )
        self.broker_names: List[str] = []
        self.expected_matches: Dict[str, Set[str]] = {}
        self._prepared = False
        self._availability = 1.0
        #: One community-wide slow-query recorder, shared by all brokers
        #: (None unless ``config.flight_recorder_slots`` is set).
        self.flight_recorder: Optional[FlightRecorder] = (
            FlightRecorder(config.flight_recorder_slots)
            if config.flight_recorder_slots is not None
            else None
        )
        self._build()

    # ------------------------------------------------------------------
    # community construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config = self.config
        retry = {}
        if config.retry_attempts > 1:
            retry = dict(
                max_attempts=config.retry_attempts,
                backoff=BackoffPolicy(base=config.retry_backoff_s),
            )
        # Overload protection (ISSUE 8), strictly opt-in: kwargs are only
        # passed when a knob is actually set, so default configs build
        # byte-identical AgentConfigs (and message traces) to the legacy
        # path — property-tested in tests/test_overload.py.
        if config.mailbox_capacity is not None:
            self.bus.set_mailbox(
                config.mailbox_capacity,
                config.mailbox_policy,
                retry_after=config.mailbox_retry_after_s,
            )
        if config.deadline_propagation:
            retry["deadline_propagation"] = True
        if config.retry_on_sorry:
            retry["retry_on_sorry"] = tuple(config.retry_on_sorry)
        admission = None
        if (config.admission_max_inflight is not None
                or config.admission_max_queue is not None
                or config.brownout_inflight is not None
                or config.brownout_queue_depth is not None):
            admission = AdmissionConfig(
                max_inflight=config.admission_max_inflight,
                max_queue_depth=config.admission_max_queue,
                retry_after=config.admission_retry_after_s,
                brownout_inflight=config.brownout_inflight,
                brownout_queue_depth=config.brownout_queue_depth,
            )
        breaker = None
        if config.breaker_failure_threshold is not None:
            breaker = BreakerConfig(
                failure_threshold=config.breaker_failure_threshold,
                cooldown=config.breaker_cooldown_s,
            )
        n_brokers = 1 if config.strategy is BrokerStrategy.SINGLE else config.n_brokers
        self.broker_names = [f"broker{i}" for i in range(n_brokers)]
        for name in self.broker_names:
            peers = [b for b in self.broker_names if b != name]
            self.bus.register(
                BrokerAgent(
                    name,
                    peer_brokers=peers,
                    max_hop_count=config.hop_count,
                    breaker=breaker,
                    journal=(
                        AdvertisementJournal() if config.broker_journal else None
                    ),
                    sync_on_start=config.broker_sync,
                    sync_interval=config.broker_sync_interval,
                    flight_recorder=self.flight_recorder,
                    admission=admission,
                    config=AgentConfig(
                        preferred_brokers=tuple(peers),
                        redundancy=len(peers),
                        ping_interval=config.ping_interval,
                        reply_timeout=config.broker_peer_timeout,
                        advertisement_size_mb=0.001,  # broker ads are tiny
                        crash_mode=config.crash_mode,
                        **retry,
                    ),
                )
            )

        redundancy = min(config.effective_redundancy(), n_brokers)
        resource_ping = (
            config.duration * 10.0
            if config.fixed_broker_assignment
            else config.ping_interval
        )
        for index in range(config.n_resources):
            domain = config.domain_of_resource(index)
            name = f"resource{index}"
            self.expected_matches.setdefault(domain, set()).add(name)
            # "The broker was chosen uniformly randomly from among all the
            # brokers in the system at start-up, to prevent any regular
            # distribution pattern of data domains over the brokers."
            preferred = tuple(self.rng.shuffled(self.broker_names))
            self.bus.register(
                SimResourceAgent(
                    name,
                    domain,
                    config,
                    config=AgentConfig(
                        preferred_brokers=preferred,
                        redundancy=redundancy,
                        ping_interval=resource_ping,
                        reply_timeout=config.reply_timeout,
                        advertisement_size_mb=config.advertisement_size_mb,
                        crash_mode=config.crash_mode,
                        **retry,
                    ),
                ),
                # Stagger process start-up so periodic ping cycles do not
                # arrive at the brokers in synchronized bursts.
                start_at=self.rng.uniform(0.0, config.ping_interval),
            )

        domains = sorted(self.expected_matches)
        self.bus.register(
            SimQueryAgent(
                "query-agent",
                brokers=self.broker_names,
                domains=domains,
                sim_config=config,
                metrics=self.metrics,
                rng=SimRng(config.seed, "queries"),
                config=AgentConfig(
                    redundancy=0, crash_mode=config.crash_mode, **retry
                ),
            )
        )
        if config.has_link_faults():
            self.bus.install_faults(self._fault_plan())

    def _fault_plan(self) -> FaultPlan:
        """The network hostility this scenario's chaos knobs describe:
        uniform link faults everywhere, plus (optionally) one partition
        window severing half the brokers from the rest of the world."""
        config = self.config
        plan = FaultPlan.uniform(
            loss=config.link_loss_rate,
            duplicate=config.link_dup_rate,
            jitter=config.link_jitter_s,
            seed=config.seed,
        )
        if config.partition_start is not None:
            isolated = self.broker_names[: max(1, len(self.broker_names) // 2)]
            plan = plan.with_partition(
                isolated,
                config.partition_start,
                config.partition_start + config.partition_duration,
                name="chaos-partition",
            )
        return plan

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Install the reliability failure schedules (idempotent).

        Split out of :meth:`run` so callers can step virtual time
        incrementally — ``prepare()`` then repeated :meth:`advance`
        then :meth:`finalize` — which is what the live ops console
        does to render frames mid-run.  :meth:`run` composes exactly
        these three, so one-shot behaviour is unchanged.
        """
        if self._prepared:
            return
        self._prepared = True
        config = self.config
        availability = 1.0
        if config.broker_mttf is not None:
            controller = ReliabilityController(
                self.bus, clear_repository=config.clear_repository_on_failure
            )
            availabilities = []
            for index, name in enumerate(self.broker_names):
                schedule = FailureSchedule.generate(
                    name,
                    config.broker_mttf,
                    config.broker_mttr,
                    config.duration,
                    SimRng(config.seed, f"fail:{index}"),
                    start=config.warmup,
                )
                controller.apply(schedule)
                availabilities.append(schedule.availability(config.duration))
            availability = sum(availabilities) / len(availabilities)
        if config.resource_mttf is not None:
            controller = ReliabilityController(self.bus)
            for index in range(config.n_resources):
                schedule = FailureSchedule.generate(
                    f"resource{index}",
                    config.resource_mttf,
                    config.resource_mttr,
                    config.duration,
                    SimRng(config.seed, f"rfail:{index}"),
                    start=config.warmup,
                )
                controller.apply(schedule)
        self._availability = availability

    def advance(self, until: float) -> None:
        """Run the community up to virtual time *until* (monotonic;
        prepares the run on first call)."""
        self.prepare()
        self.bus.run_until(until)

    def finalize(self) -> SimReport:
        """Flush the tracer, publish the metrics, and build the report."""
        if self.tracer is not None:
            self.tracer.flush()
        self.metrics.publish(self.observer)
        return SimReport(
            config=self.config,
            metrics=self.metrics,
            expected_matches=self.expected_matches,
            availability=self._availability,
        )

    def run(self) -> SimReport:
        self.advance(self.config.duration)
        return self.finalize()


def run_simulation(config: SimConfig, observer=None) -> SimReport:
    """Build and run one simulated community."""
    return Simulation(config, observer=observer).run()


def run_replicates(config: SimConfig, runs: int = 10) -> List[SimReport]:
    """The paper's averaging: re-run with different seeds.

    "Because the simulations are based upon pseudo-random inputs, we ran
    each set of experiments [10] times and averaged the results."
    """
    from dataclasses import replace

    return [run_simulation(replace(config, seed=config.seed + i)) for i in range(runs)]
