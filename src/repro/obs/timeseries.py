"""Streaming time-series: windowed RED/USE metrics over virtual time.

The live-ops plane behind ``python -m repro load``.  Three pieces:

* :class:`QuantileSketch` — a mergeable fixed-boundary quantile sketch
  (the :class:`~repro.obs.metrics.Histogram` bucket math, plus
  elementwise :meth:`~QuantileSketch.merge`), so per-window latency
  distributions roll up into whole-run quantiles without keeping
  samples;
* :class:`TimeSeries` — a bounded ring of fixed-width windows over
  virtual time, each holding counters, gauge envelopes
  (:class:`~repro.obs.metrics.Gauge` value/max/min) and sketches;
* :class:`TimeSeriesObserver` — derives **RED** series (rate / errors /
  duration per agent role and performative) and **USE** series (mailbox
  saturation and sheds, queue depths, broker admission in-flight,
  breaker state) purely from the existing observer hooks.  No new
  instrumentation call sites: anything the bus and agents already
  report is windowed here, which is what lets a future wall-clock
  runner reuse the same plane unchanged.

The plane is strictly opt-in.  It never touches the rng or the
schedule, so a run with the observer attached is byte-identical (same
message trace, same virtual times) to one without — property-tested in
``tests/test_timeseries.py``.  Memory is bounded: the ring evicts old
windows, the request-tracking map is an LRU with a hard cap, and
per-window saturation tracking records at most ``max_tracked_agents``
agents.
"""

from __future__ import annotations

import json
from collections import OrderedDict, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.kqml.performatives import EXPECTS_REPLY
from repro.obs.events import Instrument, InstrumentedObserver
from repro.obs.metrics import Gauge, Histogram, metric_key

#: Duration sketch bounds (virtual seconds): geometric, spanning one
#: network hop up to the reply-timeout scale the simulator uses.
DEFAULT_SKETCH_BOUNDS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0
)

#: Bump when the JSONL window-record layout changes shape.
SERIES_SCHEMA_VERSION = 1

#: The request performatives the console's headline summary rates
#: (user/broker matchmaking traffic; resource asks stay in the raw
#: series under their own keys).
BROKER_REQUESTS = ("recommend-all", "recommend-one")


class QuantileSketch(Histogram):
    """A mergeable :class:`~repro.obs.metrics.Histogram`.

    Two sketches over the same bounds merge by elementwise addition of
    their bucket counts, so windowed sketches aggregate exactly — the
    merged quantile equals the quantile of the union of observations
    (up to the shared bucket resolution).
    """

    __slots__ = ()

    def __init__(self, bounds: Optional[Iterable[float]] = None):
        super().__init__(bounds or DEFAULT_SKETCH_BOUNDS)

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        if other.bounds != self.bounds:
            raise ValueError("cannot merge sketches with different bounds")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`~repro.obs.metrics.Histogram.
        snapshot` output (the JSONL round-trip for offline merging)."""
        sketch = cls(data["bounds"])
        sketch.counts = list(data["counts"])
        sketch.count = int(data["count"])
        sketch.sum = float(data["sum"])
        sketch.min = data.get("min")
        sketch.max = data.get("max")
        return sketch


class Window:
    """One fixed-width bucket of virtual time.

    ``counters`` and ``sketches`` are keyed by small tuples (rendered
    into label strings only at export time — see :func:`render_key`),
    ``gauges`` by metric key strings, and ``agent_peaks`` maps agent
    name to its deepest observed send backlog within the window.
    """

    __slots__ = ("index", "start", "counters", "gauges", "sketches",
                 "agent_peaks")

    def __init__(self, index: int, width_s: float):
        self.index = index
        self.start = index * width_s
        self.counters: Dict[tuple, float] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.sketches: Dict[tuple, QuantileSketch] = {}
        self.agent_peaks: Dict[str, int] = {}


class TimeSeries:
    """A bounded ring of fixed-width windows over virtual time.

    Windows are created lazily (quiet periods occupy no memory) and
    evicted oldest-first past ``capacity``.  Observer hook times can
    regress slightly (a send's departure time may precede deliveries
    already processed), so writes to older *retained* windows are
    honoured; writes to evicted windows are counted in ``late_dropped``
    rather than recorded.
    """

    def __init__(self, width_s: float = 60.0, capacity: int = 240):
        if width_s <= 0:
            raise ValueError("window width must be positive")
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.width_s = float(width_s)
        self.capacity = int(capacity)
        self.windows: Deque[Window] = deque()
        self._by_index: Dict[int, Window] = {}
        self._current: Optional[Window] = None
        #: The last time resolved to ``_current``: hooks arrive in runs
        #: at one virtual instant, which skips even the index division.
        self._current_time: Optional[float] = None
        #: Events older than every retained window (dropped, counted).
        self.late_dropped = 0
        #: Windows evicted to stay within capacity.
        self.evicted = 0

    def __len__(self) -> int:
        return len(self.windows)

    def __iter__(self):
        return iter(self.windows)

    def window(self, time: float) -> Optional[Window]:
        """The window covering *time* (created if needed); None when
        that window was already evicted."""
        if time == self._current_time:
            return self._current
        index = int(time // self.width_s)
        window = self._current
        if window is None or window.index != index:
            window = self._by_index.get(index)
        if window is not None:
            self._current = window
            self._current_time = time
            return window
        if self.windows and index < self.windows[0].index:
            self.late_dropped += 1
            return None
        window = Window(index, self.width_s)
        if not self.windows or index > self.windows[-1].index:
            self.windows.append(window)
        else:
            # Rare: an out-of-order time landing in a gap between
            # retained windows — insert preserving index order.
            position = sum(1 for w in self.windows if w.index < index)
            self.windows.insert(position, window)
        self._by_index[index] = window
        self._current = window
        self._current_time = time
        if len(self.windows) > self.capacity:
            oldest = self.windows.popleft()
            del self._by_index[oldest.index]
            self.evicted += 1
            if self._current is oldest:  # pragma: no cover - capacity 1
                self._current = self._current_time = None
        return window


def render_key(key: tuple) -> str:
    """A window counter/sketch tuple key as a labelled metric name,
    matching the registry's ``name{k=v,...}`` convention (label names
    sorted)."""
    kind = key[0]
    if kind in ("red.rate", "red.duration", "red.partial"):
        return f"{kind}{{performative={key[2]},role={key[1]}}}"
    if kind == "red.errors":
        return f"{kind}{{kind={key[2]},role={key[1]}}}"
    if kind in ("use.shed", "use.drops"):
        return f"{kind}{{reason={key[1]}}}"
    if kind == "metric":
        return str(key[1])
    return ".".join(str(part) for part in key)


class _WindowInstrument(Instrument):
    """A pass-through series of the plane, bound to its rendered key.
    The generic hooks carry no timestamp, so every touch lands in the
    window of the plane's last transport hook."""

    __slots__ = ("_plane", "_key")

    def __init__(self, plane: "TimeSeriesObserver", key):
        self._plane = plane
        self._key = key


class _WindowCounter(_WindowInstrument):
    __slots__ = ()

    def inc(self, value=1.0):
        plane = self._plane
        window = plane.series.window(plane._now)
        if window is not None:
            counters = window.counters
            counters[self._key] = counters.get(self._key, 0.0) + value


class _BreakerCounter(_WindowCounter):
    """``broker.breaker.open`` / ``close``: also moves the plane's net
    open-breaker gauge by *step* per unit counted."""

    __slots__ = ("_step",)

    def __init__(self, plane, key, step: float):
        super().__init__(plane, key)
        self._step = step

    def inc(self, value=1.0):
        plane = self._plane
        window = plane.series.window(plane._now)
        if window is None:
            return
        super().inc(value)
        plane._breakers_open = max(0.0, plane._breakers_open + self._step * value)
        gauge = window.gauges.get("use.breakers.open")
        if gauge is None:
            gauge = window.gauges["use.breakers.open"] = Gauge()
        gauge.set(plane._breakers_open)


class _WindowMetric(_WindowInstrument):
    """A gauge or sketch: remembers its metric object in the window it
    last touched, so a run of touches inside one window skips the
    window's dict."""

    __slots__ = ("_window", "_metric")

    def __init__(self, plane, key):
        super().__init__(plane, key)
        self._window: Optional[Window] = None

    def _enter(self, window: Window, metrics: dict, factory) -> None:
        metric = metrics.get(self._key)
        if metric is None:
            metric = metrics[self._key] = factory()
        self._window = window
        self._metric = metric


class _WindowGauge(_WindowMetric):
    __slots__ = ()

    def set(self, value):
        plane = self._plane
        window = plane.series.window(plane._now)
        if window is None:
            return
        if window is not self._window:
            self._enter(window, window.gauges, Gauge)
        self._metric.set(value)


class _WindowSketch(_WindowMetric):
    __slots__ = ()

    def observe(self, value):
        plane = self._plane
        window = plane.series.window(plane._now)
        if window is None:
            return
        if window is not self._window:
            self._enter(window, window.sketches, QuantileSketch)
        self._metric.observe(value)


class TimeSeriesObserver(InstrumentedObserver):
    """Derives windowed RED/USE series from the standard observer hooks.

    **RED** (per receiver role and performative; roles are agent names
    with their numeric suffix stripped, so ``broker3`` -> ``broker``):

    * ``red.rate`` — deliveries per window;
    * ``red.errors`` — ``sorry``/``error`` deliveries (by the *sender*'s
      role: the agent that failed) plus conversation timeouts (by the
      requester's role, kind ``timeout``);
    * ``red.duration`` — request-sent to reply-delivered round trips,
      sketched per server role and request performative;
    * ``red.partial`` — replies carrying a ``:partial`` annotation.

    **USE**:

    * ``use.shed`` / ``use.drops`` — drops by reason (mailbox sheds,
      deadline expiry, offline, injected faults);
    * gauge envelopes for everything emitted through the generic gauge
      hook (``bus.queue.depth``, ``bus.inflight``,
      ``broker.admission.inflight{broker=...}``, ...), windowed as
      last/max/min;
    * ``use.breakers.open`` — net open circuit breakers, derived from
      the ``broker.breaker.open``/``close`` counters;
    * per-agent send-backlog peaks (``agent_peaks``) for the console's
      "most saturated agents" column.

    Generic ``inc``/``observe`` metrics pass through into the current
    window under their registry key.  The generic hooks carry no
    timestamp; they fire synchronously inside message/timer handling,
    so the plane attributes them to the time of the enclosing transport
    hook.
    """

    # No dedup probing: the rate series counts deliveries as the bus
    # performs them, and a per-message cache probe is not worth the
    # per-message budget for a live dashboard.
    wants_dedup = False

    def __init__(self, window_s: float = 60.0, capacity: int = 240,
                 pending_limit: int = 4096, max_tracked_agents: int = 64):
        super().__init__()
        self.series = TimeSeries(window_s, capacity)
        #: (requester, reply_id) -> (sent_at, server_role, performative);
        #: LRU-bounded so abandoned conversations cannot grow it.
        self._pending: "OrderedDict[Tuple[str, str], Tuple[float, str, str]]" \
            = OrderedDict()
        self._pending_limit = pending_limit
        self._max_tracked_agents = max_tracked_agents
        self._backlog: Dict[str, int] = {}
        self._breakers_open = 0.0
        self._roles: Dict[str, str] = {}
        self._now = 0.0
        #: Pending requests evicted by the LRU bound (their durations
        #: are lost; non-zero means pending_limit is too small).
        self.pending_evicted = 0

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _role(self, agent_name: str) -> str:
        role = self._roles.get(agent_name)
        if role is None:
            role = agent_name.rstrip("0123456789") or agent_name
            self._roles[agent_name] = role
        return role

    def _shrink_backlog(self, receiver: str) -> None:
        depth = self._backlog.get(receiver, 0)
        if depth > 1:
            self._backlog[receiver] = depth - 1
        elif depth:
            del self._backlog[receiver]

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def message_sent(self, time, message, size_bytes, cause=None):
        self._now = time
        receiver = message.receiver
        depth = self._backlog.get(receiver, 0) + 1
        self._backlog[receiver] = depth
        if depth >= 2:
            window = self.series.window(time)
            if window is not None:
                peaks = window.agent_peaks
                previous = peaks.get(receiver)
                if previous is None:
                    if len(peaks) < self._max_tracked_agents:
                        peaks[receiver] = depth
                elif depth > previous:
                    peaks[receiver] = depth
        if message.reply_with is not None \
                and message.performative in EXPECTS_REPLY:
            pending = self._pending
            pending[(message.sender, message.reply_with)] = (
                time, self._role(receiver), message.performative.value)
            if len(pending) > self._pending_limit:
                pending.popitem(last=False)
                self.pending_evicted += 1

    def message_delivered(self, time, message, queue_time=0.0,
                          size_bytes=0.0, dedup=False):
        self._now = time
        receiver = message.receiver
        self._shrink_backlog(receiver)
        reply_to = message.in_reply_to
        started = (self._pending.pop((receiver, reply_to), None)
                   if reply_to is not None else None)
        window = self.series.window(time)
        if window is None:
            return
        performative = message.performative.value
        role = self._role(receiver)
        counters = window.counters
        key = ("red.rate", role, performative)
        counters[key] = counters.get(key, 0.0) + 1.0
        if started is not None:
            sent_at, server_role, request_perf = started
            skey = ("red.duration", server_role, request_perf)
            sketch = window.sketches.get(skey)
            if sketch is None:
                sketch = window.sketches[skey] = QuantileSketch()
            sketch.observe(time - sent_at)
            if message.extras and message.extra("partial") is not None:
                pkey = ("red.partial", server_role, request_perf)
                counters[pkey] = counters.get(pkey, 0.0) + 1.0
        if performative == "sorry" or performative == "error":
            ekey = ("red.errors", self._role(message.sender), performative)
            counters[ekey] = counters.get(ekey, 0.0) + 1.0

    def message_dropped(self, time, message, reason="offline"):
        self._now = time
        self._shrink_backlog(message.receiver)
        window = self.series.window(time)
        if window is None:
            return
        counters = window.counters
        key = ("use.drops", reason)
        counters[key] = counters.get(key, 0.0) + 1.0
        if reason.startswith("shed") or reason == "expired":
            key = ("use.shed", reason)
            counters[key] = counters.get(key, 0.0) + 1.0

    def timer_fired(self, time, agent_name):
        self._now = time

    def conversation_timeout(self, time, agent_name, reply_id):
        self._now = time
        self._pending.pop((agent_name, reply_id), None)
        window = self.series.window(time)
        if window is None:
            return
        key = ("red.errors", self._role(agent_name), "timeout")
        window.counters[key] = window.counters.get(key, 0.0) + 1.0

    # ------------------------------------------------------------------
    # bound instruments (timestamped by the enclosing transport hook);
    # the generic string hooks reach them through InstrumentedObserver
    # ------------------------------------------------------------------
    def bind_counter(self, name, **labels):
        key = ("metric", metric_key(name, labels))
        if name == "broker.breaker.open":
            return _BreakerCounter(self, key, 1.0)
        if name == "broker.breaker.close":
            return _BreakerCounter(self, key, -1.0)
        return _WindowCounter(self, key)

    def bind_histogram(self, name, **labels):
        return _WindowSketch(self, ("metric", metric_key(name, labels)))

    def bind_gauge(self, name, **labels):
        return _WindowGauge(self, metric_key(name, labels))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """One JSONL-ready dict per retained window, each stamped with
        the virtual-time ``at`` of its window start."""
        out = []
        for window in self.series.windows:
            out.append({
                "type": "window",
                "schema": SERIES_SCHEMA_VERSION,
                "at": window.start,
                "width_s": self.series.width_s,
                "counters": {render_key(k): v
                             for k, v in sorted(window.counters.items(),
                                                key=lambda kv: render_key(kv[0]))},
                "gauges": {str(k): g.snapshot()
                           for k, g in sorted(window.gauges.items())},
                "sketches": {render_key(k): s.snapshot()
                             for k, s in sorted(window.sketches.items(),
                                                key=lambda kv: render_key(kv[0]))},
                "saturated": saturated_agents(window),
            })
        return out


def saturated_agents(window: Window, top: int = 8) -> List[List[object]]:
    """The window's deepest send backlogs as ``[agent, depth]`` pairs,
    deepest first (ties alphabetical)."""
    ranked = sorted(window.agent_peaks.items(), key=lambda kv: (-kv[1], kv[0]))
    return [[agent, depth] for agent, depth in ranked[:top]]


def summarize_window(window: Window) -> Dict[str, object]:
    """The console's per-window headline: broker-request arrivals,
    completed round trips with p50/p95, errors, shed and partial rates,
    and the most saturated agents."""
    arrivals = errors = shed = partial = 0.0
    duration = QuantileSketch()
    for key, value in window.counters.items():
        kind = key[0]
        if kind == "red.rate":
            if key[2] in BROKER_REQUESTS:
                arrivals += value
        elif kind == "red.errors":
            errors += value
        elif kind == "use.shed":
            shed += value
        elif kind == "red.partial":
            if key[2] in BROKER_REQUESTS:
                partial += value
    for key, sketch in window.sketches.items():
        if key[0] == "red.duration" and key[2] in BROKER_REQUESTS:
            duration.merge(sketch)
    goodput = duration.count
    offered = arrivals + shed
    return {
        "at": window.start,
        "arrivals": arrivals,
        "goodput": goodput,
        "p50_s": duration.quantile(0.50),
        "p95_s": duration.quantile(0.95),
        "errors": errors,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "partial_rate": partial / goodput if goodput else 0.0,
        "saturated": saturated_agents(window, top=3),
    }


def summarize_windows(windows: Iterable[Window]) -> Dict[str, object]:
    """The whole-run roll-up of :func:`summarize_window`: counters sum,
    duration sketches *merge*, so the aggregate p50/p95 is exact up to
    bucket resolution."""
    arrivals = errors = shed = partial = 0.0
    goodput = 0
    duration = QuantileSketch()
    peaks: Dict[str, int] = {}
    for window in windows:
        summary = summarize_window(window)
        arrivals += summary["arrivals"]
        errors += summary["errors"]
        shed += summary["shed"]
        partial += summary["partial_rate"] * summary["goodput"]
        goodput += summary["goodput"]
        for key, sketch in window.sketches.items():
            if key[0] == "red.duration" and key[2] in BROKER_REQUESTS:
                duration.merge(sketch)
        for agent, depth in window.agent_peaks.items():
            if depth > peaks.get(agent, 0):
                peaks[agent] = depth
    offered = arrivals + shed
    ranked = sorted(peaks.items(), key=lambda kv: (-kv[1], kv[0]))
    return {
        "arrivals": arrivals,
        "goodput": goodput,
        "p50_s": duration.quantile(0.50),
        "p95_s": duration.quantile(0.95),
        "errors": errors,
        "shed": shed,
        "shed_rate": shed / offered if offered else 0.0,
        "partial_rate": partial / goodput if goodput else 0.0,
        "saturated": [[agent, depth] for agent, depth in ranked[:3]],
    }


def write_series_jsonl(path: str, plane: TimeSeriesObserver) -> int:
    """Write the plane's window records to *path* as JSONL (sorted keys,
    one window per line); returns the record count."""
    records = plane.records()
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)
