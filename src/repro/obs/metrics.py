"""A process-local metrics registry: counters, gauges, histograms.

No external dependencies.  Histograms use fixed cumulative-style bucket
boundaries (a sample lands in the first bucket whose upper bound is
``>=`` the value; values above every bound land in the overflow
bucket), so bucket math is exact and mergeable.

Naming scheme (dotted names, optional ``{key=value}`` labels)::

    bus.delivered.count                  total deliveries
    bus.delivered.count{performative=x}  deliveries by performative
    bus.delivered.bytes{performative=x}  payload volume by performative
    bus.queue.seconds                    per-delivery queue wait (hist)
    broker.recommend.latency             wall seconds per local match (hist)
    broker.recommend.local_matches       local repository hits (hist)
    broker.forward.fanout                peers consulted per forward (hist)
    broker.probe.count{outcome=hit|miss} sequential until-match probes
    bus.drop.offline / bus.drop.injected drops split by cause
    agent.retry.count{agent=x}           ask() retries after timeouts
    agent.dedup.count{agent=x}           duplicate deliveries suppressed
    broker.breaker.open{peer=x}          circuit-breaker openings
    broker.recovery.replayed{broker=x}   journal records applied on restart
    broker.recovery.sync_pulled{broker=x} records pulled via anti-entropy
    broker.recovery.time{path=replay|sync} restart-to-recovered seconds (hist)
    agent.readvertise.count{agent=x}     advertise messages sent
    region.seconds{region=x}             named activity windows (hist)
    matcher.constraint.attempts/.hits    constraint-overlap checks
    mrq.fanout                           subqueries per user query (hist)
    monitor.polls.count / monitor.notifications.count
    sim.queries.issued / sim.queries.replied / sim.broker.response
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, Optional, Tuple

from repro.obs.events import IdentityMemo, InstrumentedObserver, LazyInstruments

#: Default histogram bucket upper bounds (seconds): geometric, covering
#: microsecond wall-clock matching up to multi-minute virtual latencies.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """A point-in-time value (last write wins) with a peak/min envelope.

    ``max``/``min`` track the highest and lowest values ever set — the
    generic form of the bus's old bespoke queue-depth high-water mark,
    so any gauge (queue depth, admission in-flight, breaker count) gets
    a saturation envelope for free.  ``None`` until the first ``set``.
    """

    __slots__ = ("value", "max", "min")

    def __init__(self):
        self.value = 0.0
        self.max: Optional[float] = None
        self.min: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = value
        if self.max is None or value > self.max:
            self.max = value
        if self.min is None or value < self.min:
            self.min = value

    def snapshot(self) -> Dict[str, Optional[float]]:
        return {"value": self.value, "max": self.max, "min": self.min}


class Histogram:
    """Fixed-boundary histogram with sum/count/min/max.

    ``bounds`` are inclusive upper bounds; ``counts`` has one extra
    overflow slot for samples above the last bound.  A sample exactly on
    a boundary is counted in that boundary's bucket (``value <= bound``).
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds or DEFAULT_BUCKETS))
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def quantile(self, q: float) -> Optional[float]:
        """Estimated *q*-quantile from the cumulative buckets.

        Prometheus-style: linear interpolation within the bucket holding
        the target rank, clamped by the observed min/max (which also
        makes the overflow bucket answerable).  None when empty.
        """
        if not self.count:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        target = max(1, -(-int(q * self.count * 1_000_000) // 1_000_000))
        cumulative = 0
        previous_bound: Optional[float] = None
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= target:
                lo = previous_bound if previous_bound is not None else self.min
                if self.min is not None:
                    lo = max(lo, self.min) if lo is not None else self.min
                hi = min(bound, self.max) if self.max is not None else bound
                if lo is None or bucket_count == 0:
                    return hi
                inner = target - (cumulative - bucket_count)
                return lo + (hi - lo) * (inner / bucket_count)
            previous_bound = bound
        return self.max  # target rank lives in the overflow bucket

    def snapshot(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


def _key(name: str, labels: Dict[str, object]) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class MetricKey(str):
    """A rendered series key (``name{k=v,...}``, label names sorted)
    that still carries its parts: :attr:`name`, and :attr:`labels` as
    sorted ``(label, rendered value)`` pairs.  Exporters that need the
    structure read it here instead of re-parsing the text, which a
    ``,`` or ``=`` inside a label value would make ambiguous."""

    __slots__ = ("name", "labels")


#: The interned keys, shared by the registry and the time-series plane:
#: each distinct identity is sorted and rendered once per process.
_KEYS = IdentityMemo()


def metric_key(name: str, labels: Dict[str, object]) -> MetricKey:
    """The :class:`MetricKey` of *name* + *labels*, interned."""
    try:
        return _KEYS[(name, *labels.items()) if labels else name]
    except (KeyError, TypeError):
        pass
    key = MetricKey(_key(name, labels))
    key.name = name
    key.labels = tuple((k, str(labels[k])) for k in sorted(labels))
    return _KEYS.remember(name, labels, key)


def _prom_name(name: str) -> str:
    """Dotted metric names into the Prometheus charset ([a-zA-Z0-9_:])."""
    return "".join(
        c if c.isalnum() or c in "_:" else "_" for c in name
    )


def _prom_labels(pairs: Iterable[Tuple[str, str]], extra: str = "") -> str:
    """``(label, value)`` pairs into ``{k="v",k2="v2"}`` (quoted).

    Label values follow the exposition-format escaping rules: backslash,
    double-quote, and newline must all be escaped or a hostile label
    value (an agent named ``a"}\\n``) corrupts every line after it.
    """
    parts = []
    for k, v in pairs:
        escaped = (v.replace("\\", "\\\\")
                    .replace('"', '\\"')
                    .replace("\n", "\\n"))
        parts.append(f'{_prom_name(k)}="{escaped}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class MetricsRegistry:
    """Get-or-create storage for named metrics.

    Metrics are keyed by name plus sorted labels, rendered Prometheus
    style: ``bus.delivered.count{performative=tell}`` (an interned
    :class:`MetricKey`, so the key also knows its label pairs).
    """

    def __init__(self):
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str, buckets: Optional[Iterable[float]] = None,
                  **labels) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(buckets)
        return metric

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    #: Bump when the snapshot layout changes shape.  v2: gauges became
    #: ``{"value", "max", "min"}`` envelopes and the snapshot carries a
    #: virtual-time ``at`` stamp (None when the caller has no clock).
    SNAPSHOT_SCHEMA_VERSION = 2

    def snapshot(self, at: Optional[float] = None) -> Dict[str, object]:
        """Everything recorded, as plain JSON-serializable data.

        *at* is the virtual time of the snapshot; exported snapshots
        carry it so series from different runs are replayable and
        mergeable on a common clock.
        """
        return {
            "schema": self.SNAPSHOT_SCHEMA_VERSION,
            "at": at,
            "counters": {str(k): c.snapshot()
                         for k, c in sorted(self._counters.items())},
            "gauges": {str(k): g.snapshot()
                       for k, g in sorted(self._gauges.items())},
            "histograms": {str(k): h.snapshot()
                           for k, h in sorted(self._histograms.items())},
        }

    def to_json(self, indent: int = 2, at: Optional[float] = None) -> str:
        return json.dumps(self.snapshot(at=at), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format.

        Dotted names become underscore names; histograms are rendered as
        cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``.
        A ``# TYPE`` header is emitted once per metric family.
        """
        lines: list = []
        typed: set = set()

        def header(family: str, kind: str) -> None:
            if family not in typed:
                typed.add(family)
                lines.append(f"# TYPE {family} {kind}")

        for key, counter in sorted(self._counters.items()):
            family = _prom_name(key.name)
            header(family, "counter")
            lines.append(f"{family}{_prom_labels(key.labels)} {counter.value}")
        gauges = sorted(self._gauges.items())
        for key, gauge in gauges:
            family = _prom_name(key.name)
            header(family, "gauge")
            lines.append(f"{family}{_prom_labels(key.labels)} {gauge.value}")
        # Peak/min envelopes as their own families (grouped after the
        # value series so each family stays contiguous under its TYPE).
        for suffix, attr in (("_max", "max"), ("_min", "min")):
            for key, gauge in gauges:
                extreme = getattr(gauge, attr)
                if extreme is None:
                    continue
                family = _prom_name(key.name) + suffix
                header(family, "gauge")
                lines.append(f"{family}{_prom_labels(key.labels)} {extreme}")
        for key, hist in sorted(self._histograms.items()):
            family = _prom_name(key.name)
            header(family, "histogram")
            cumulative = 0
            for bound, bucket_count in zip(hist.bounds, hist.counts):
                cumulative += bucket_count
                labels = _prom_labels(key.labels, extra=f'le="{bound}"')
                lines.append(f"{family}_bucket{labels} {cumulative}")
            labels = _prom_labels(key.labels, extra='le="+Inf"')
            lines.append(f"{family}_bucket{labels} {hist.count}")
            lines.append(f"{family}_sum{_prom_labels(key.labels)} {hist.sum}")
            lines.append(f"{family}_count{_prom_labels(key.labels)} {hist.count}")
        return "\n".join(lines) + "\n" if lines else ""


class MetricsObserver(InstrumentedObserver):
    """Maps observer hooks onto a :class:`MetricsRegistry`.

    The transport hooks populate the ``bus.*`` metrics; a bound
    instrument is the registry's metric object itself, and the generic
    ``inc``/``observe``/``gauge`` hooks reach the same objects through
    :class:`~repro.obs.events.InstrumentedObserver`'s memo, so agent
    instrumentation (``broker.*``, ``mrq.*``, ``monitor.*``, ``sim.*``)
    lands in the same registry.
    """

    # Duplicate deliveries must stay out of the latency histograms.
    wants_dedup = True

    #: The unlabelled transport series: attribute -> (factory, name).
    _TRANSPORT_SERIES = {
        "sent": ("bind_counter", "bus.sent.count"),
        "delivered": ("bind_counter", "bus.delivered.count"),
        "dedup": ("bind_counter", "bus.delivered.dedup"),
        "queue_seconds": ("bind_histogram", "bus.queue.seconds"),
        "dropped": ("bind_counter", "bus.dropped.count"),
        "timers": ("bind_counter", "bus.timers.count"),
    }

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        super().__init__()
        self.registry = registry if registry is not None else MetricsRegistry()
        self._transport = LazyInstruments(self, self._TRANSPORT_SERIES)
        #: performative -> its (count, bytes) delivery counters, bound
        #: on the first delivery of that performative.
        self._delivered: Dict[str, Tuple[Counter, Counter]] = {}

    # -- bound instruments: the registry's own metric objects ----------
    def bind_counter(self, name, **labels):
        return self.registry.counter(name, **labels)

    def bind_gauge(self, name, **labels):
        return self.registry.gauge(name, **labels)

    def bind_histogram(self, name, **labels):
        return self.registry.histogram(name, **labels)

    # -- transport ------------------------------------------------------
    def message_sent(self, time, message, size_bytes, cause=None):
        self._transport.sent.inc()

    def message_delivered(self, time, message, queue_time=0.0, size_bytes=0.0,
                          dedup=False):
        performative = message.performative.value
        bound = self._delivered.get(performative)
        if bound is None:
            bound = self._delivered[performative] = (
                self.registry.counter("bus.delivered.count",
                                      performative=performative),
                self.registry.counter("bus.delivered.bytes",
                                      performative=performative),
            )
        transport = self._transport
        transport.delivered.inc()
        bound[0].inc()
        bound[1].inc(size_bytes)
        if dedup:
            # A duplicated delivery the receiver will suppress: count it,
            # but keep it out of the latency histogram — a retry echo
            # says nothing about real queueing behaviour.
            transport.dedup.inc()
            return
        transport.queue_seconds.observe(queue_time)

    def message_dropped(self, time, message, reason="offline"):
        self._transport.dropped.inc()
        self.inc(f"bus.drop.{reason}")

    def timer_fired(self, time, agent_name):
        self._transport.timers.inc()

    def conversation_timeout(self, time, agent_name, reply_id):
        self.inc("agent.reply.timeout", agent=agent_name)

    def region(self, agent_name, name, start, end, **attrs):
        self.observe("region.seconds", max(0.0, end - start), region=name)
