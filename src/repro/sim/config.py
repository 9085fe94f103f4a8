"""Simulation configuration: every Section 5.2.1 parameter in one place.

Values marked *(substituted)* were dropped by the scanned PDF and chosen
to be consistent with the surviving prose and figure axes; see
DESIGN.md's dropped-parameter table.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class BrokerStrategy(enum.Enum):
    """The three brokering arrangements of Figure 14."""

    SINGLE = "single"  # one broker holds everything
    REPLICATED = "replicated"  # every broker holds every advertisement
    SPECIALIZED = "specialized"  # each resource advertises to one broker


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario."""

    # --- population ----------------------------------------------------
    n_brokers: int = 10
    n_resources: int = 100
    strategy: BrokerStrategy = BrokerStrategy.SPECIALIZED
    #: resources per data domain; "a query over a particular data domain
    #: would have four separate resources that satisfied the query".
    resources_per_domain: int = 4
    #: robustness experiments: "each resource agent had its own unique
    #: domain, which helps track exactly how often a query was answered".
    unique_domains: bool = False
    #: how many brokers each resource advertises to (robustness sweeps 1-5).
    advertisement_redundancy: int = 1

    # --- workload --------------------------------------------------------
    mean_query_interval: float = 30.0  # "QF" in the figures
    complexity_mean: float = 1.0  # (substituted)
    complexity_std: float = 0.316  # sqrt(0.1) (substituted)
    complexity_bounds: tuple = (0.1, 2.0)  # (substituted)
    coverage_mean: float = 0.1  # (substituted)
    coverage_std: float = 0.05  # (substituted)
    coverage_bounds: tuple = (0.01, 1.0)  # (substituted)
    query_resources_after_reply: bool = True

    # --- machine & network models ----------------------------------------
    processor_speed: float = 1.0
    network_bandwidth_bytes_per_s: float = 125_000.0  # (substituted)
    network_latency_s: float = 0.05  # (substituted)

    # --- agent cost parameters -------------------------------------------
    advertisement_size_mb: float = 0.1  # Figs 14-16 (substituted); Fig 17 uses 1.0
    broker_seconds_per_mb: float = 1.0
    resource_data_mb: float = 10.0  # (substituted)
    resource_seconds_per_mb: float = 0.1  # 1 s per 10 MB (substituted)
    base_handling_seconds: float = 0.6  # per-message overhead (substituted)
    broker_reply_bytes_per_match: int = 1024

    # --- liveness / protocol ----------------------------------------------
    ping_interval: float = 300.0  # (substituted)
    reply_timeout: float = 60.0  # (substituted)
    hop_count: int = 1  # "the hop-count was set to [1]" (fully connected)
    #: How long a broker waits for a forwarded request's reply before
    #: answering with partial results.  Must be below the query agent's
    #: timeout or one dead peer makes every collaborative answer late.
    broker_peer_timeout: float = 30.0
    #: Timeout for the query agent's broker queries.  None = wait forever
    #: (the figure experiments measure saturated response times); the
    #: robustness experiments set this to ``reply_timeout`` so dead
    #: brokers register as unanswered queries (Table 5).
    query_reply_timeout: Optional[float] = None

    # --- reliability -------------------------------------------------------
    broker_mttf: Optional[float] = None  # None = perfectly reliable
    broker_mttr: float = 1800.0  # (substituted)
    #: Resource processors may fail too ("both the processor and network
    #: connection models admit to being unreliable"); the paper's
    #: robustness experiments only failed brokers, so this defaults off.
    resource_mttf: Optional[float] = None
    resource_mttr: float = 1800.0
    #: When True, a broker failure wipes its repository (process restart
    #: with lost state); when False the repository persists across repair.
    clear_repository_on_failure: bool = False
    #: When True, resources never re-advertise after a broker failure
    #: (their broker choice is fixed at start-up, as in the paper's
    #: simulated resources); redundancy is then the only protection,
    #: which is what Table 6 measures.
    fixed_broker_assignment: bool = False

    # --- network fault injection (chaos experiments) -----------------------
    #: Per-link probability a transmission is silently dropped.
    link_loss_rate: float = 0.0
    #: Per-link probability a delivered message arrives twice.
    link_dup_rate: float = 0.0
    #: Maximum extra per-copy latency (seconds), drawn uniformly — enough
    #: to reorder messages that left in order.
    link_jitter_s: float = 0.0
    #: When set, half the brokers are severed from the rest of the
    #: community for ``partition_duration`` seconds starting here.
    partition_start: Optional[float] = None
    partition_duration: float = 0.0

    # --- delivery resilience ----------------------------------------------
    #: Total send attempts per request (1 = legacy single-shot ``ask``).
    retry_attempts: int = 1
    #: First-retry backoff delay in seconds (doubles per retry).
    retry_backoff_s: float = 2.0
    #: When set, brokers run a per-peer circuit breaker with this
    #: consecutive-failure threshold before skipping the peer.
    breaker_failure_threshold: Optional[int] = None
    breaker_cooldown_s: float = 120.0

    # --- crash recovery -----------------------------------------------------
    #: What going offline means for every agent: ``"lenient"`` (legacy:
    #: state survives) or ``"strict"`` (a real process crash; volatile
    #: state is wiped and the community must heal — see agents/recovery).
    crash_mode: str = "lenient"
    #: Give each broker a durable advertisement journal, replayed on
    #: restart to rebuild the repository (strict mode only matters).
    broker_journal: bool = False
    #: Brokers exchange anti-entropy digests with consortium peers on
    #: every (re)start, pulling advertisements they are missing.
    broker_sync: bool = False
    #: When set, brokers additionally run periodic anti-entropy rounds at
    #: this interval (seconds).
    broker_sync_interval: Optional[float] = None

    # --- overload protection (all off by default: unbounded, no
    # --- deadlines, no limits — byte-identical to the legacy behaviour)
    #: Bound every agent's regular-traffic mailbox to this many
    #: outstanding messages (queued + in service); None = unbounded.
    mailbox_capacity: Optional[int] = None
    #: Overflow policy: "reject" (synthetic `sorry :overload` to the
    #: sender), "drop-oldest" or "drop-new".
    mailbox_policy: str = "reject"
    #: The :retry-after hint stamped on bus-level overload sorries.
    mailbox_retry_after_s: float = 30.0
    #: Stamp `:x-deadline` on every `ask` and propagate the remaining
    #: budget through broker forwards/probes and MRQ sub-queries; the
    #: bus and brokers shed work whose deadline already expired.
    deadline_propagation: bool = False
    #: Sorry `:reason` values every agent treats as transient (retried
    #: with backoff when `retry_attempts > 1`); () = all sorries final.
    retry_on_sorry: tuple = ()
    #: Broker admission control: refuse recommends past these limits
    #: with `sorry (:reason overload :retry-after T)`.  None = no limit.
    admission_max_inflight: Optional[int] = None
    admission_max_queue: Optional[int] = None
    admission_retry_after_s: float = 30.0
    #: Brownout thresholds: past these, brokers answer recommends from
    #: the local repository only (`:partial "shed:consortium"`).
    brownout_inflight: Optional[int] = None
    brownout_queue_depth: Optional[int] = None

    # --- burst workload (open-loop flash crowd) -----------------------------
    #: When set, the mean query interval is divided by ``burst_factor``
    #: for ``burst_duration`` seconds starting at ``burst_start``.
    burst_start: Optional[float] = None
    burst_duration: float = 0.0
    burst_factor: float = 10.0

    # --- open-loop workload shaping (live-ops harness; all off by
    # --- default: the legacy uniform/Poisson generator, byte-identical)
    #: Zipf exponent for query-domain popularity over the sorted domain
    #: catalog (rank 1 = hottest).  None = the legacy uniform choice.
    load_zipf_s: Optional[float] = None
    #: Mean ON / OFF phase lengths (seconds) for bursty on/off arrivals
    #: (an interrupted Poisson process: queries only arrive during ON
    #: phases).  Both must be set together; None = plain Poisson.
    load_on_s: Optional[float] = None
    load_off_s: Optional[float] = None
    #: Flash-crowd edge ramp (seconds): the burst factor rises and
    #: falls linearly over this long at the window edges instead of
    #: stepping (0 = the legacy step).  Requires a burst window.
    load_ramp_s: float = 0.0

    # --- forensics ----------------------------------------------------------
    #: When set, every broker shares one slow-query flight recorder with
    #: this many slots: the N slowest/failed recommends keep their full
    #: explain trail for ``python -m repro explain`` style forensics.
    flight_recorder_slots: Optional[int] = None

    # --- telemetry -----------------------------------------------------------
    #: When set, the simulation runs a budgeted
    #: :class:`~repro.obs.sampling.SamplingTracer` (exposed as
    #: ``Simulation.tracer``) with this head-sampling rate; failed and
    #: slowest conversations are promoted past the sampler regardless.
    trace_sample_rate: Optional[float] = None
    #: Slots in the sampling tracer's keep-worst latency heap.
    trace_keep_slowest: int = 64

    # --- run control ---------------------------------------------------------
    duration: float = 43_200.0  # 12 hours (substituted)
    warmup: float = 600.0  # ignore queries issued before this time
    seed: int = 0

    def __post_init__(self):
        if self.n_brokers < 1 or self.n_resources < 1:
            raise ValueError("need at least one broker and one resource")
        if self.mean_query_interval <= 0:
            raise ValueError("mean query interval must be positive")
        if self.advertisement_redundancy < 1:
            raise ValueError("advertisement redundancy must be >= 1")
        if not self.unique_domains and self.resources_per_domain < 1:
            raise ValueError("resources per domain must be >= 1")
        if self.duration <= self.warmup:
            raise ValueError("duration must exceed warmup")
        if not 0.0 <= self.link_loss_rate < 1.0:
            raise ValueError("link loss rate must be in [0, 1)")
        if not 0.0 <= self.link_dup_rate <= 1.0:
            raise ValueError("link duplicate rate must be in [0, 1]")
        if self.link_jitter_s < 0.0:
            raise ValueError("link jitter must be >= 0")
        if self.partition_start is not None and self.partition_duration <= 0:
            raise ValueError("partition_duration must be positive when "
                             "partition_start is set")
        if self.retry_attempts < 1:
            raise ValueError("retry attempts must be >= 1")
        if self.retry_backoff_s <= 0:
            raise ValueError("retry backoff must be positive")
        if (self.breaker_failure_threshold is not None
                and self.breaker_failure_threshold < 1):
            raise ValueError("breaker failure threshold must be >= 1")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker cooldown must be positive")
        if self.crash_mode not in ("lenient", "strict"):
            raise ValueError("crash_mode must be 'lenient' or 'strict'")
        if self.broker_sync_interval is not None and self.broker_sync_interval <= 0:
            raise ValueError("broker sync interval must be positive")
        if self.flight_recorder_slots is not None and self.flight_recorder_slots < 1:
            raise ValueError("flight recorder slots must be >= 1")
        if self.trace_sample_rate is not None and not (
            0.0 <= self.trace_sample_rate <= 1.0
        ):
            raise ValueError("trace sample rate must be in [0, 1]")
        if self.trace_keep_slowest < 0:
            raise ValueError("trace keep-slowest must be >= 0")
        object.__setattr__(self, "retry_on_sorry", tuple(self.retry_on_sorry))
        if self.mailbox_capacity is not None and self.mailbox_capacity < 1:
            raise ValueError("mailbox capacity must be >= 1")
        if self.mailbox_policy not in ("reject", "drop-oldest", "drop-new"):
            raise ValueError(
                "mailbox_policy must be 'reject', 'drop-oldest' or 'drop-new'"
            )
        if self.mailbox_retry_after_s <= 0 or self.admission_retry_after_s <= 0:
            raise ValueError("retry-after hints must be positive")
        for name in ("admission_max_inflight", "admission_max_queue",
                     "brownout_inflight", "brownout_queue_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.burst_start is not None and self.burst_duration <= 0:
            raise ValueError("burst_duration must be positive when "
                             "burst_start is set")
        if self.burst_factor <= 0:
            raise ValueError("burst_factor must be positive")
        if self.load_zipf_s is not None and self.load_zipf_s < 0:
            raise ValueError("load_zipf_s must be >= 0")
        if (self.load_on_s is None) != (self.load_off_s is None):
            raise ValueError("load_on_s and load_off_s must be set together")
        if self.load_on_s is not None and (
                self.load_on_s <= 0 or self.load_off_s <= 0):
            raise ValueError("on/off phase means must be positive")
        if self.load_ramp_s < 0:
            raise ValueError("load_ramp_s must be >= 0")
        if self.load_ramp_s and self.burst_start is None:
            raise ValueError("load_ramp_s needs a burst window to ramp")

    @property
    def n_domains(self) -> int:
        if self.unique_domains:
            return self.n_resources
        return max(1, self.n_resources // self.resources_per_domain)

    def domain_of_resource(self, index: int) -> str:
        return f"domain{index % self.n_domains}"

    def query_hop_count(self) -> int:
        """Single/replicated brokers hold everything locally and never
        forward; only specialized brokering searches peers."""
        if self.strategy is BrokerStrategy.SPECIALIZED:
            return self.hop_count
        return 0

    def has_link_faults(self) -> bool:
        """Does this scenario inject network faults at all?  When False
        the simulator installs no fault plan and the bus behaves exactly
        as the fault-free baseline."""
        return (
            self.link_loss_rate > 0.0
            or self.link_dup_rate > 0.0
            or self.link_jitter_s > 0.0
            or self.partition_start is not None
        )

    def effective_redundancy(self) -> int:
        """The per-strategy number of brokers each resource advertises to."""
        if self.strategy is BrokerStrategy.REPLICATED:
            return self.n_brokers
        if self.strategy is BrokerStrategy.SINGLE:
            return 1
        return min(self.advertisement_redundancy, self.n_brokers)
