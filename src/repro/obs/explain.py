"""Explainable matchmaking and cross-broker query forensics.

Three layers, all opt-in (the matching hot path and the broker fan-out
pay nothing when disabled):

* **Verdict trails** — an :class:`ExplainSink` hung on
  ``MatchContext.explain_sink`` makes the matcher (and the repository,
  which answers explain-mode queries through it) record one
  :class:`Verdict` per advertisement per query: accepted with the winning score breakdown, or rejected with the
  first machine-readable reason in the canonical filter order
  (``agent-type-mismatch`` .. ``response-time-exceeded``).

* **Hop graphs** — brokers stamp an ``:x-trace-id`` KQML parameter onto
  every forwarded / probed recommend so the conversation tracer can
  stitch the re-keyed ``:reply-with`` hops back into one query tree;
  :func:`build_hop_graph` reconstructs it from spans with per-hop
  latency, visited-set growth, breaker-skipped peers, and union/dedup
  counts.

* **Flight recorder** — a bounded keep-worst buffer
  (:class:`FlightRecorder`) retaining the full explain trail for the N
  slowest or failed recommends, rendered by ``python -m repro explain``.

This module is deliberately dependency-light: it never imports
``repro.core`` or ``repro.agents`` (it duck-types queries, spans, and
advertisements), so the core matcher can import the verdict types
without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# reject reason vocabulary (canonical direct-matcher filter order)
# ----------------------------------------------------------------------
REASON_AGENT_TYPE = "agent-type-mismatch"
REASON_LANGUAGE = "language-unsupported"
REASON_CONVERSATION = "conversation-unsupported"
REASON_CAPABILITY = "capability-not-subsumed"
REASON_ONTOLOGY = "ontology-mismatch"
REASON_CLASS = "class-unrelated"
REASON_SLOT = "slot-missing"
REASON_UNSATISFIABLE = "constraint-unsatisfiable"
REASON_DISJOINT = "constraint-disjoint"
REASON_MOBILITY = "mobility-mismatch"
REASON_RESPONSE_TIME = "response-time-exceeded"

#: Every reject reason, in the order the direct matcher applies filters.
#: The Datalog oracle probes its compiled condition predicates in this
#: same order, which is what makes the two agree on *which* reason a
#: multiply-failing advertisement reports.
REJECT_REASONS: Tuple[str, ...] = (
    REASON_AGENT_TYPE,
    REASON_LANGUAGE,
    REASON_CONVERSATION,
    REASON_CAPABILITY,
    REASON_ONTOLOGY,
    REASON_CLASS,
    REASON_SLOT,
    REASON_UNSATISFIABLE,
    REASON_DISJOINT,
    REASON_MOBILITY,
    REASON_RESPONSE_TIME,
)


# ----------------------------------------------------------------------
# verdict trails
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Verdict:
    """One advertisement's fate against one query."""

    agent: str
    accepted: bool
    reason: Optional[str] = None
    detail: Optional[str] = None
    score: Optional[float] = None
    breakdown: Optional[Mapping[str, float]] = None

    @property
    def reason_key(self) -> Optional[str]:
        """``constraint-disjoint{age}``-style label for histograms."""
        if self.reason is None:
            return None
        if self.detail:
            return f"{self.reason}{{{self.detail}}}"
        return self.reason

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"agent": self.agent, "accepted": self.accepted}
        if self.accepted:
            data["score"] = self.score
            if self.breakdown is not None:
                data["breakdown"] = dict(self.breakdown)
        else:
            data["reason"] = self.reason
            if self.detail is not None:
                data["detail"] = self.detail
        return data


@dataclass
class QueryExplanation:
    """The full verdict trail for one query evaluation."""

    fingerprint: Tuple
    backend: str
    verdicts: List[Verdict] = field(default_factory=list)

    def record(self, verdict: Verdict) -> None:
        self.verdicts.append(verdict)

    def verdict_for(self, agent: str) -> Optional[Verdict]:
        for verdict in self.verdicts:
            if verdict.agent == agent:
                return verdict
        return None

    def accepted(self) -> List[Verdict]:
        return [v for v in self.verdicts if v.accepted]

    def rejected(self) -> List[Verdict]:
        return [v for v in self.verdicts if not v.accepted]

    def reject_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for verdict in self.verdicts:
            if not verdict.accepted:
                key = verdict.reason_key or "unknown"
                histogram[key] = histogram.get(key, 0) + 1
        return histogram

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "fingerprint": repr(self.fingerprint),
            "verdicts": [v.as_dict() for v in self.verdicts],
            "reject_histogram": self.reject_histogram(),
        }


class ExplainSink:
    """Collects :class:`QueryExplanation` trails, one per evaluated query.

    Hang an instance on ``MatchContext.explain_sink`` (or run a scenario
    through a broker constructed with a ``flight_recorder``, which does
    this per-recommend) and every repository query appends a trail with
    exactly one verdict per stored advertisement.
    """

    def __init__(self, limit: Optional[int] = None):
        self.limit = limit
        self.queries: List[QueryExplanation] = []

    def begin(self, query, backend: str = "direct") -> QueryExplanation:
        trail = QueryExplanation(fingerprint=query.fingerprint(), backend=backend)
        self.queries.append(trail)
        if self.limit is not None and len(self.queries) > self.limit:
            del self.queries[: len(self.queries) - self.limit]
        return trail

    def reject_histogram(self) -> Dict[str, int]:
        histogram: Dict[str, int] = {}
        for trail in self.queries:
            for key, count in trail.reject_histogram().items():
                histogram[key] = histogram.get(key, 0) + count
        return histogram

    def __len__(self) -> int:
        return len(self.queries)


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlightEntry:
    """One completed recommend, captured at the originating broker."""

    broker: str
    trace_id: str
    started: float
    ended: float
    status: str  # "ok" | "empty" | "partial"
    matches: int
    unreachable: Tuple[str, ...] = ()
    local_matches: int = 0
    peer_matches: int = 0
    #: Advertisements stored at the broker when the query ran — the
    #: explain invariant is one verdict per considered advertisement.
    ads_considered: int = 0
    explanation: Optional[QueryExplanation] = None

    @property
    def latency(self) -> float:
        return self.ended - self.started

    @property
    def deduped(self) -> int:
        """Peer contributions merged away by the originating broker's
        best-score union (plus local duplicates of peer answers)."""
        return max(0, self.local_matches + self.peer_matches - self.matches)

    def as_dict(self) -> Dict[str, object]:
        return {
            "broker": self.broker,
            "trace_id": self.trace_id,
            "started": self.started,
            "ended": self.ended,
            "latency": self.latency,
            "status": self.status,
            "matches": self.matches,
            "unreachable": list(self.unreachable),
            "local_matches": self.local_matches,
            "peer_matches": self.peer_matches,
            "deduped": self.deduped,
            "ads_considered": self.ads_considered,
            "explanation": (
                self.explanation.as_dict() if self.explanation is not None else None
            ),
        }


class FlightRecorder:
    """Bounded keep-worst buffer of recommend forensics.

    Failed / degraded recommends (status != "ok") always outrank healthy
    ones; within a class the slowest survive.  ``recorded`` counts every
    recommend seen, so a full buffer still reports how much it dropped.
    """

    def __init__(self, capacity: int = 16):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.entries: List[FlightEntry] = []
        self.recorded = 0

    def record(self, entry: FlightEntry) -> None:
        self.recorded += 1
        self.entries.append(entry)
        self.entries.sort(key=lambda e: (0 if e.status != "ok" else 1, -e.latency))
        del self.entries[self.capacity :]

    def slowest(self) -> List[FlightEntry]:
        return list(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# ----------------------------------------------------------------------
# hop graphs from traced spans
# ----------------------------------------------------------------------
@dataclass
class Hop:
    """One broker-to-broker hop of a recommend, with its sub-hops."""

    span: object  # repro.obs.tracing.Span, duck-typed
    children: List["Hop"] = field(default_factory=list)

    @property
    def broker(self) -> str:
        return self.span.receiver

    @property
    def start(self) -> float:
        return self.span.start

    @property
    def end(self) -> Optional[float]:
        return self.span.end

    @property
    def latency(self) -> float:
        return self.span.duration or 0.0

    @property
    def exclusive_latency(self) -> float:
        """Time spent at this hop itself, excluding nested hops."""
        return max(0.0, self.latency - sum(c.latency for c in self.children))

    @property
    def info(self) -> Dict[str, object]:
        """Merged attributes of the broker's recommend annotations."""
        merged: Dict[str, object] = {}
        for event in self.span.events:
            if event.name in ("recommend", "recommend-reply"):
                merged.update(event.attrs)
        return merged

    @property
    def skipped(self) -> Tuple[str, ...]:
        return tuple(self.info.get("skipped") or ())

    @property
    def visited(self) -> int:
        return int(self.info.get("visited", 0))

    def as_dict(self, depth: int = 0) -> Dict[str, object]:
        return {
            "name": self.span.name,
            "broker": self.broker,
            "depth": depth,
            "start": self.start,
            "end": self.end,
            "latency": self.latency,
            "exclusive_latency": self.exclusive_latency,
            "status": self.span.status,
            "info": self.info,
        }


@dataclass
class HopGraph:
    """The reconstructed cross-broker query tree for one trace id."""

    trace_id: str
    root: Hop

    def hops(self) -> List[Hop]:
        """Preorder flattening of the tree."""
        out: List[Hop] = []

        def walk(hop: Hop) -> None:
            out.append(hop)
            for child in sorted(hop.children, key=lambda h: h.start):
                walk(child)

        walk(self.root)
        return out

    @property
    def total_latency(self) -> float:
        return self.root.latency

    def hop_latency_sum(self) -> float:
        """Sum of per-hop exclusive latencies; equals the end-to-end
        recommend latency up to queueing slack at hop boundaries."""
        return sum(hop.exclusive_latency for hop in self.hops())

    def skipped_peers(self) -> Tuple[str, ...]:
        skipped: List[str] = []
        for hop in self.hops():
            for peer in hop.skipped:
                if peer not in skipped:
                    skipped.append(peer)
        return tuple(skipped)

    def as_dict(self) -> Dict[str, object]:
        flat = []

        def walk(hop: Hop, depth: int) -> None:
            flat.append(hop.as_dict(depth))
            for child in sorted(hop.children, key=lambda h: h.start):
                walk(child, depth + 1)

        walk(self.root, 0)
        return {
            "trace_id": self.trace_id,
            "total_latency": self.total_latency,
            "hop_latency_sum": self.hop_latency_sum(),
            "skipped_peers": list(self.skipped_peers()),
            "hops": flat,
        }


def _span_trace_id(span) -> Optional[str]:
    """A span belongs to a trace when the forwarded message carried the
    ``:x-trace-id`` param (stamped into attrs at send time) or when the
    handling broker annotated the trace id onto an event — the latter
    covers the root hop, whose inbound message predates the trace id."""
    tid = span.attrs.get("trace_id")
    if tid is not None:
        return str(tid)
    for event in span.events:
        tid = event.attrs.get("trace_id")
        if tid is not None:
            return str(tid)
    return None


def trace_ids(spans: Iterable) -> List[str]:
    """Distinct trace ids present in *spans*, in first-seen order."""
    seen: List[str] = []
    for span in spans:
        tid = _span_trace_id(span)
        if tid is not None and tid not in seen:
            seen.append(tid)
    return seen


def build_hop_graph(spans: Iterable, trace_id: str) -> Optional[HopGraph]:
    """Stitch the spans carrying *trace_id* into a hop tree.

    Parent links come from the tracer's causal ``parent_id``s but are
    resolved *within the trace's span set*, so unrelated sibling
    conversations never leak in.  Returns None when no span carries the
    trace id.
    """
    members = [s for s in spans if _span_trace_id(s) == trace_id]
    if not members:
        return None
    hops = {s.span_id: Hop(span=s) for s in members}
    roots: List[Hop] = []
    for span in members:
        hop = hops[span.span_id]
        parent = hops.get(span.parent_id) if span.parent_id else None
        if parent is not None:
            parent.children.append(hop)
        else:
            roots.append(hop)
    # retries or stray probes can create sibling roots; the earliest
    # inbound recommend is the query's true origin, the rest nest under
    # it for rendering purposes.
    roots.sort(key=lambda h: h.start)
    primary = roots[0]
    for stray in roots[1:]:
        primary.children.append(stray)
    return HopGraph(trace_id=trace_id, root=primary)


# ----------------------------------------------------------------------
# report assembly (consumed by the CLI and experiments.report)
# ----------------------------------------------------------------------
def explain_report(recorder: FlightRecorder, spans: Sequence = ()) -> Dict[str, object]:
    """Join flight-recorder entries with their traced hop graphs into a
    JSON-serializable forensics report."""
    spans = list(spans)
    recommends = []
    for entry in recorder.slowest():
        record = entry.as_dict()
        graph = build_hop_graph(spans, entry.trace_id) if spans else None
        record["hop_graph"] = graph.as_dict() if graph is not None else None
        recommends.append(record)
    aggregate: Dict[str, int] = {}
    for entry in recorder.slowest():
        if entry.explanation is None:
            continue
        for key, count in entry.explanation.reject_histogram().items():
            aggregate[key] = aggregate.get(key, 0) + count
    return {
        "recorded": recorder.recorded,
        "retained": len(recorder),
        "recommends": recommends,
        "reject_histogram": aggregate,
    }
