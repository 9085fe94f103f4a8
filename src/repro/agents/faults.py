"""Fault injection and delivery-resilience primitives.

The paper's robustness claims (Sections 2.2 and 4.2.2, Tables 5-6) rest
on agents surviving a hostile substrate: brokers die, links drop and
reorder traffic, and the multibroker collective must keep answering
queries as long as *some* live path exists.  This module supplies both
sides of that contract:

* **the hostile network** — a :class:`FaultPlan` describes per-link
  message loss, duplication and latency jitter plus named
  :class:`Partition` windows (group A cannot reach group B for an
  interval); a :class:`FaultInjector` executes the plan against the
  message bus with a dedicated seeded RNG, so any chaos run is exactly
  reproducible;
* **the surviving agents** — :class:`BackoffPolicy` computes the
  exponential retry delays used by :meth:`repro.agents.base.Agent.ask`
  and :class:`CircuitBreaker` implements the closed/open/half-open
  state machine brokers use to stop forwarding to persistently dead
  consortium peers.

Everything here is strictly opt-in: a bus without an installed plan and
an agent config with ``max_attempts=1`` behave byte-for-byte as before.
Fault plans compose with :mod:`repro.sim.reliability` crash schedules —
:meth:`FaultPlan.with_partition` can translate a broker's downtime
window into a network partition that isolates it without killing it.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.agents.errors import AgentError


# ----------------------------------------------------------------------
# the fault model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LinkFaults:
    """Per-link fault rates.

    ``loss``      probability a transmission is silently dropped;
    ``duplicate`` probability a delivered message arrives twice;
    ``jitter``    maximum extra latency (seconds), drawn uniformly per
                  copy — independent draws reorder messages that left in
                  order.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loss < 1.0:
            raise AgentError("loss rate must be in [0, 1)")
        if not 0.0 <= self.duplicate <= 1.0:
            raise AgentError("duplicate rate must be in [0, 1]")
        if self.jitter < 0.0:
            raise AgentError("jitter must be >= 0")

    def any(self) -> bool:
        return self.loss > 0.0 or self.duplicate > 0.0 or self.jitter > 0.0


@dataclass(frozen=True)
class Partition:
    """A named network partition: during ``[start, end)`` messages that
    cross the ``group`` boundary (either direction) are dropped.  Traffic
    within the group, and within its complement, flows normally."""

    name: str
    group: FrozenSet[str]
    start: float
    end: float

    def __post_init__(self):
        if not isinstance(self.group, frozenset):
            object.__setattr__(self, "group", frozenset(self.group))
        if self.end <= self.start:
            raise AgentError("partition end must be after start")

    def severs(self, sender: str, receiver: str, now: float) -> bool:
        if not self.start <= now < self.end:
            return False
        return (sender in self.group) != (receiver in self.group)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, reproducible description of network hostility.

    ``default`` applies to every link; ``links`` overrides specific
    ``(sender, receiver)`` pairs; ``partitions`` sever group boundaries
    for intervals.  ``seed`` drives the injector's private RNG.
    """

    seed: int = 0
    default: LinkFaults = field(default_factory=LinkFaults)
    links: Mapping[Tuple[str, str], LinkFaults] = field(default_factory=dict)
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self):
        if not isinstance(self.links, dict):
            object.__setattr__(self, "links", dict(self.links))
        if not isinstance(self.partitions, tuple):
            object.__setattr__(self, "partitions", tuple(self.partitions))

    @classmethod
    def uniform(cls, loss: float = 0.0, duplicate: float = 0.0,
                jitter: float = 0.0, seed: int = 0,
                partitions: Iterable[Partition] = ()) -> "FaultPlan":
        """The common case: one fault profile for every link."""
        return cls(seed=seed,
                   default=LinkFaults(loss=loss, duplicate=duplicate, jitter=jitter),
                   partitions=tuple(partitions))

    def link(self, sender: str, receiver: str) -> LinkFaults:
        return self.links.get((sender, receiver), self.default)

    def partitioned(self, sender: str, receiver: str, now: float) -> Optional[Partition]:
        for partition in self.partitions:
            if partition.severs(sender, receiver, now):
                return partition
        return None

    def with_partition(self, group: Iterable[str], start: float, end: float,
                       name: Optional[str] = None) -> "FaultPlan":
        """A copy of this plan with one more partition window (e.g. a
        :class:`~repro.sim.reliability.FailureSchedule` downtime window
        recast as a network-level isolation of that broker)."""
        partition = Partition(
            name=name or f"partition-{len(self.partitions)}",
            group=frozenset(group), start=start, end=end,
        )
        return replace(self, partitions=self.partitions + (partition,))


@dataclass
class FaultStats:
    """What the injector actually did (per run, deterministic)."""

    dropped_loss: int = 0
    dropped_partition: int = 0
    duplicated: int = 0
    jittered: int = 0

    @property
    def injected_drops(self) -> int:
        return self.dropped_loss + self.dropped_partition


class FaultInjector:
    """Executes a :class:`FaultPlan` for a message bus.

    The bus consults :meth:`arrivals` once per transmission; the
    injector returns the (possibly empty, possibly duplicated,
    possibly delayed) list of arrival times.  Draws happen in a fixed
    order from a private seeded RNG, so identical plans over identical
    traffic produce identical histories.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.stats = FaultStats()
        self._rng = random.Random(f"{plan.seed}:faults")

    def arrivals(self, sender: str, receiver: str, depart: float,
                 arrival: float) -> Tuple[List[float], Optional[str]]:
        """Arrival times for one transmission, or ``([], reason)`` when
        the message is injected away (*reason* is ``"partition"`` or
        ``"loss"``)."""
        if self.plan.partitioned(sender, receiver, depart) is not None:
            self.stats.dropped_partition += 1
            return [], "partition"
        link = self.plan.link(sender, receiver)
        if link.loss and self._rng.random() < link.loss:
            self.stats.dropped_loss += 1
            return [], "loss"
        times = [arrival + self._jitter(link)]
        if link.duplicate and self._rng.random() < link.duplicate:
            self.stats.duplicated += 1
            times.append(arrival + self._jitter(link))
        return times, None

    def _jitter(self, link: LinkFaults) -> float:
        if not link.jitter:
            return 0.0
        self.stats.jittered += 1
        return self._rng.random() * link.jitter


# ----------------------------------------------------------------------
# retry backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with multiplicative jitter.

    Retry *n* (1-based) waits ``min(base * factor**(n-1), max_delay)``
    seconds, stretched by up to ``jitter`` (a fraction) so synchronized
    requesters desynchronize.  Jitter draws come from the caller's RNG
    (each agent owns a seeded stream), keeping runs deterministic.
    """

    base: float = 2.0
    factor: float = 2.0
    jitter: float = 0.5
    max_delay: float = 120.0

    def __post_init__(self):
        if self.base <= 0 or self.factor < 1.0 or self.max_delay <= 0:
            raise AgentError("backoff base/factor/max_delay must be positive")
        if self.jitter < 0:
            raise AgentError("backoff jitter must be >= 0")

    def delay(self, attempt: int, rng: random.Random) -> float:
        if attempt < 1:
            raise AgentError("attempt numbers are 1-based")
        delay = min(self.base * self.factor ** (attempt - 1), self.max_delay)
        if self.jitter:
            delay *= 1.0 + rng.random() * self.jitter
        return delay


#: The default policy agents use when retries are enabled without an
#: explicit policy.
DEFAULT_BACKOFF = BackoffPolicy()


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass(frozen=True)
class BreakerConfig:
    """Per-peer circuit-breaker policy for broker forwarding."""

    failure_threshold: int = 3
    cooldown: float = 120.0
    probe_timeout: float = 15.0

    def __post_init__(self):
        if self.failure_threshold < 1:
            raise AgentError("failure threshold must be >= 1")
        if self.cooldown <= 0 or self.probe_timeout <= 0:
            raise AgentError("cooldown and probe timeout must be positive")


# ----------------------------------------------------------------------
# broker admission control (ISSUE 8; strictly opt-in)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AdmissionConfig:
    """Broker-side overload policy: when to refuse new recommends with a
    transient ``sorry (:reason overload :retry-after T)`` and when to
    brown out (answer from the local repository only, skipping the
    consortium fan-out, annotated ``:partial "shed:consortium"``).

    Limits are compared against the broker's in-flight recommend count
    (open consortium aggregations) and its bus mailbox backlog.  ``None``
    disables the corresponding check; the all-``None`` default refuses
    nothing.
    """

    #: Hard admission limits: at or above either, new recommends are
    #: refused outright with a transient overload sorry.
    max_inflight: Optional[int] = None
    max_queue_depth: Optional[int] = None
    #: The ``:retry-after`` hint stamped on overload sorries — honoured
    #: by :meth:`repro.agents.base.Agent.ask` as a backoff floor.
    retry_after: float = 30.0
    #: Brownout thresholds (should sit below the hard limits): at or
    #: above either, recommends are still answered but from the local
    #: repository only — shedding the consortium fan-out sheds the
    #: majority of the per-query work while staying useful.
    brownout_inflight: Optional[int] = None
    brownout_queue_depth: Optional[int] = None

    def __post_init__(self):
        for name in ("max_inflight", "max_queue_depth",
                     "brownout_inflight", "brownout_queue_depth"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise AgentError(f"{name} must be >= 1, got {value}")
        if self.retry_after <= 0:
            raise AgentError("retry_after must be positive")


class CircuitBreaker:
    """The classic closed → open → half-open state machine.

    * **closed** — traffic flows; consecutive failures are counted;
    * **open** — after ``failure_threshold`` consecutive failures the
      peer is skipped entirely until a cooldown elapses;
    * **half-open** — one probe ping is in flight; success closes the
      breaker, failure re-opens it for another cooldown.
    """

    def __init__(self, config: BreakerConfig):
        self.config = config
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at: Optional[float] = None
        #: lifetime transition counters, for diagnosability
        self.times_opened = 0

    def allows(self) -> bool:
        """May regular (non-probe) traffic be sent to this peer?"""
        return self.state is BreakerState.CLOSED

    def record_success(self) -> None:
        self.state = BreakerState.CLOSED
        self.failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this failure *newly*
        opened the breaker (callers emit the ``broker.breaker.open``
        metric and arm the probe timer exactly once per opening)."""
        self.failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self.trip(now)
            return True
        if self.state is BreakerState.CLOSED and \
                self.failures >= self.config.failure_threshold:
            self.trip(now)
            return True
        return False

    def trip(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.times_opened += 1

    def begin_probe(self) -> None:
        self.state = BreakerState.HALF_OPEN
