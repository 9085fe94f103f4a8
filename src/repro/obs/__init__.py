"""Observability: structured events, conversation spans, and metrics.

The measurement substrate for everything the paper evaluates — reply
latency, match counts, forwarding fan-out, advertisement churn — and
for every future optimisation PR.  Three cooperating pieces:

* :mod:`repro.obs.events` — the :class:`Observer` interface.  All
  instrumented code (the bus, the broker, the matcher, the simulator)
  talks to an observer unconditionally; the default observer is a
  do-nothing singleton, so un-instrumented runs never branch and never
  allocate.  A series reported on every event is bound once
  (``observer.bind_gauge(name)`` returns an :class:`Instrument`).
* :mod:`repro.obs.metrics` — a process-local registry of counters,
  gauges and fixed-bucket histograms (no external dependencies), plus
  the :class:`MetricsObserver` that feeds it.
* :mod:`repro.obs.tracing` — the :class:`ConversationTracer`, which
  folds the KQML ``:reply-with``/``:in-reply-to`` chains into a span
  tree: broker forwarding hops, sequential probes and MRQ subquery
  fan-out all appear as child spans of the conversation that caused
  them.
* :mod:`repro.obs.export` — JSONL round-tripping and the ASCII span
  tree renderer behind ``python -m repro trace``.

The PR-6 telemetry pipeline adds four production-shaped layers on top:

* :mod:`repro.obs.sampling` — the :class:`SamplingTracer`, bounded-
  memory tracing under a :class:`TraceBudget` (head sampling + tail
  keep-worst promotion);
* :mod:`repro.obs.profiler` — the always-on :data:`PROFILER` phase
  profiler behind ``python -m repro profile``;
* :mod:`repro.obs.slo` — declarative SLOs with error-budget burn rates
  behind ``python -m repro health``;
* :mod:`repro.obs.bench` — the unified benchmark scoreboard behind
  ``python -m repro bench``;
* :mod:`repro.obs.timeseries` — the streaming live-ops plane: windowed
  RED/USE time-series with mergeable quantile sketches, derived from
  the same observer hooks, behind ``python -m repro load``.

A process-wide default observer can be installed (the CLI's
``--metrics`` does this) so that buses and simulations constructed
deep inside the experiment harness pick it up without plumbing::

    from repro import obs
    with obs.installed(obs.MetricsObserver()) as mo:
        run_simulation(config)
    print(mo.registry.to_json())
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

from repro.obs.events import (
    NULL_INSTRUMENT,
    NULL_OBSERVER,
    CompositeObserver,
    Event,
    Instrument,
    InstrumentedObserver,
    MessageRecord,
    Observer,
    compose,
    summarize_content,
)
from repro._lazy import lazy_exports

# Resolved on first use: observing a bus does not import the scoreboard,
# the SLO tooling or the JSONL exporters.
__getattr__, __dir__ = lazy_exports(__name__, {
    "explain": [
        "REJECT_REASONS",
        "ExplainSink",
        "FlightEntry",
        "FlightRecorder",
        "HopGraph",
        "QueryExplanation",
        "Verdict",
        "build_hop_graph",
        "explain_report",
        "trace_ids",
    ],
    "export": [
        "read_jsonl",
        "registry_to_json",
        "render_span_tree",
        "spans_to_jsonl",
        "write_jsonl",
    ],
    "bench": [
        "REPORT_SCHEMA_VERSION",
        "Indicator",
        "Regression",
        "build_report",
        "check_report",
        "format_check",
        "format_report",
        "write_report",
    ],
    "metrics": [
        "DEFAULT_BUCKETS",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsObserver",
        "MetricsRegistry",
    ],
    "profiler": ["PROFILER", "PhaseProfiler", "PhaseStat", "profiling"],
    "sampling": [
        "ConversationOutcome",
        "SamplingStats",
        "SamplingTracer",
        "TraceBudget",
    ],
    "slo": [
        "DEFAULT_SLOS",
        "SLOResult",
        "SLOSpec",
        "evaluate_slos",
        "format_health",
        "health_ok",
        "load_slo_specs",
    ],
    "timeseries": [
        "SERIES_SCHEMA_VERSION",
        "QuantileSketch",
        "TimeSeries",
        "TimeSeriesObserver",
        "Window",
        "summarize_window",
        "summarize_windows",
        "write_series_jsonl",
    ],
    "tracing": ["ConversationTracer", "Span"],
})

__all__ = [
    "DEFAULT_SLOS",
    "NULL_INSTRUMENT",
    "NULL_OBSERVER",
    "PROFILER",
    "REJECT_REASONS",
    "REPORT_SCHEMA_VERSION",
    "SERIES_SCHEMA_VERSION",
    "CompositeObserver",
    "ConversationOutcome",
    "ConversationTracer",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "ExplainSink",
    "FlightEntry",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HopGraph",
    "Indicator",
    "Instrument",
    "InstrumentedObserver",
    "MessageRecord",
    "MetricsObserver",
    "MetricsRegistry",
    "Observer",
    "PhaseProfiler",
    "PhaseStat",
    "QuantileSketch",
    "QueryExplanation",
    "Regression",
    "SLOResult",
    "SLOSpec",
    "SamplingStats",
    "SamplingTracer",
    "Span",
    "TimeSeries",
    "TimeSeriesObserver",
    "TraceBudget",
    "Verdict",
    "Window",
    "build_hop_graph",
    "build_report",
    "check_report",
    "compose",
    "current",
    "evaluate_slos",
    "explain_report",
    "format_check",
    "format_health",
    "format_report",
    "health_ok",
    "install",
    "installed",
    "load_slo_specs",
    "profiling",
    "read_jsonl",
    "registry_to_json",
    "render_span_tree",
    "spans_to_jsonl",
    "summarize_content",
    "summarize_window",
    "summarize_windows",
    "trace_ids",
    "uninstall",
    "write_jsonl",
    "write_report",
    "write_series_jsonl",
]

#: Stack of process-wide default observers; empty means "not observing".
_installed: List[Observer] = []


def current() -> Observer:
    """The process-wide default observer (NULL_OBSERVER when none is
    installed).  New :class:`~repro.agents.bus.MessageBus` instances
    capture this at construction time."""
    return _installed[-1] if _installed else NULL_OBSERVER


def install(observer: Observer) -> Observer:
    """Push *observer* as the process-wide default; returns it."""
    _installed.append(observer)
    return observer


def uninstall(observer: Observer = None) -> None:
    """Pop the most recent default observer (validating *observer* when
    given)."""
    if not _installed:
        return
    if observer is not None and _installed[-1] is not observer:
        raise ValueError("uninstall order mismatch: not the installed observer")
    _installed.pop()


@contextmanager
def installed(observer: Observer):
    """Context manager form of :func:`install`/:func:`uninstall`."""
    install(observer)
    try:
        yield observer
    finally:
        uninstall(observer)
