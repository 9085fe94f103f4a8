"""The observer interface and structured event primitives.

Instrumented code calls observer hooks *unconditionally* — the default
:data:`NULL_OBSERVER` turns every hook into a no-op method call, so
callers never branch on "is tracing on?".  Hooks that would need to do
non-trivial work to *prepare* their arguments (wall-clock reads, list
materialisation) are guarded by the observer's :attr:`Observer.enabled`
class attribute, which is ``False`` only on the null observer.

Two families of hooks:

* **transport hooks** (``message_sent`` / ``message_delivered`` / ...)
  carry the live :class:`~repro.kqml.message.KqmlMessage` objects the
  tracer needs to stitch conversations together;
* **generic metric hooks** (``inc`` / ``observe`` / ``gauge``) carry
  name + value + labels and are what agent code uses for counters and
  histograms (see the metric naming scheme in README's Observability
  section).

An emitter that reports the *same* series on every event resolves it
once instead: ``bind_counter`` / ``bind_gauge`` / ``bind_histogram``
return an :class:`Instrument` whose ``inc`` / ``set`` / ``observe``
touches the metric directly.  The string hooks of the metric observers
are served by the same instruments (memoised per identity by
:class:`InstrumentedObserver`), so there is one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


def summarize_content(content: Any, limit: int = 60) -> str:
    """A short, human-oriented rendering of a message payload."""
    text = repr(content)
    return text if len(text) <= limit else text[: limit - 3] + "..."


@dataclass(frozen=True)
class Event:
    """One structured point-in-time annotation (attached to a span)."""

    name: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class MessageRecord:
    """One delivered message, as recorded by the tracer's flat log.

    Field-compatible with the bus's legacy ``TraceEntry`` so
    :func:`repro.agents.bus.format_message_trace` renders either.
    """

    time: float
    sender: str
    receiver: str
    performative: str
    summary: str
    #: True when the receiver's idempotent-receive cache suppressed this
    #: delivery (a retry or fault-injected duplicate).  Annotated so
    #: chaos traces distinguish real traffic from echoes.
    dedup: bool = False


class Instrument:
    """One series bound to its identity; the base class is the no-op.

    A counter instrument answers ``inc``, a gauge ``set``, a histogram
    ``observe`` — the registry's own metric objects qualify as they are.
    """

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        """Increment the bound counter by *value*."""

    def set(self, value: float) -> None:
        """Set the bound gauge to *value*."""

    def observe(self, value: float) -> None:
        """Record *value* into the bound histogram."""


#: The shared do-nothing instrument.
NULL_INSTRUMENT = Instrument()


class _HookInstrument(Instrument):
    """The default instrument: replays each call on its observer's
    string hook (looked up per call, so a hook replaced on the instance
    after binding is still the one that runs)."""

    __slots__ = ("_observer", "_name", "_labels")

    def __init__(self, observer: "Observer", name: str, labels: Dict[str, Any]):
        self._observer = observer
        self._name = name
        self._labels = labels

    def inc(self, value=1.0):
        self._observer.inc(self._name, value, **self._labels)

    def set(self, value):
        self._observer.gauge(self._name, value, **self._labels)

    def observe(self, value):
        self._observer.observe(self._name, value, **self._labels)


class InstrumentFactory:
    """The bound-instrument half of the observer interface.

    Kept apart from :class:`Observer` because that class's own
    namespace is exactly the set of event *hooks*: proxies that wrap
    "every hook" enumerate it, and a factory is not an event.  The
    defaults here fall back to the string hooks, so an observer (or
    such a proxy) that implements only those still sees every event an
    emitter reports through an instrument.
    """

    def bind_counter(self, name: str, **labels) -> Instrument:
        """Counter *name* as an instrument: ``inc(value=1.0)``."""
        return _HookInstrument(self, name, labels)

    def bind_gauge(self, name: str, **labels) -> Instrument:
        """Gauge *name* as an instrument: ``set(value)``."""
        return _HookInstrument(self, name, labels)

    def bind_histogram(self, name: str, **labels) -> Instrument:
        """Histogram *name* as an instrument: ``observe(value)``."""
        return _HookInstrument(self, name, labels)


class Observer(InstrumentFactory):
    """No-op base observer.  Subclass and override what you care about.

    ``enabled`` is a *class* attribute: ``False`` here (and on
    :data:`NULL_OBSERVER`), ``True`` on every real observer.  Hot paths
    consult it only to skip argument preparation that is itself costly
    (e.g. ``perf_counter`` reads); the hook calls themselves are
    unconditional.
    """

    enabled = False

    #: True when this observer consumes the generic metric hooks
    #: (``inc``/``observe``/``gauge``).  Hot paths that would otherwise
    #: emit *per-message* gauges consult it so a pure tracer never pays
    #: for metric calls it would discard.
    wants_metrics = False

    #: True when this observer uses the ``dedup`` flag on
    #: ``message_delivered``.  Computing it means probing the receiver's
    #: idempotent-receive cache per request, so the bus skips the probe
    #: for observers that ignore the flag (e.g. the sampling tracer,
    #: whose close path only ever sees replies, which cannot be dedups).
    wants_dedup = False

    # -- transport hooks (called by the message bus) -------------------
    def message_sent(self, time: float, message, size_bytes: float,
                     cause=None) -> None:
        """*message* departs its sender at *time*; *cause* is the message
        whose handling emitted it (None for timer- or externally-driven
        sends)."""

    def message_delivered(self, time: float, message,
                          queue_time: float = 0.0,
                          size_bytes: float = 0.0,
                          dedup: bool = False) -> None:
        """*message* arrives at *time*; it waited *queue_time* virtual
        seconds for the receiver's single-server queue.  *dedup* is True
        when the receiver's idempotent-receive cache will suppress it (a
        duplicated delivery) — observers should exclude such deliveries
        from latency histograms."""

    def message_dropped(self, time: float, message,
                        reason: str = "offline") -> None:
        """*message* never reached its receiver.  ``reason`` is
        ``"offline"`` (dead or unknown agent) or ``"injected"`` (eaten
        by the installed fault plan: loss or partition)."""

    def timer_fired(self, time: float, agent_name: str) -> None:
        """A scheduled timer was delivered to *agent_name*."""

    # -- conversation hooks (called by agents) -------------------------
    def conversation_timeout(self, time: float, agent_name: str,
                             reply_id: str) -> None:
        """A registered reply never arrived; the continuation ran with
        ``None``."""

    def annotate(self, time: float, message, name: str, **attrs) -> None:
        """Attach a structured event to the conversation span that
        *message* (a request carrying ``:reply-with``) opened."""

    def region(self, agent_name: str, name: str, start: float, end: float,
               **attrs) -> None:
        """A named non-conversation activity window at *agent_name* —
        e.g. a broker's journal replay or one anti-entropy round.
        Tracers render it as a root span; metrics record its duration."""

    # -- generic metric hooks ------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Increment counter *name* by *value*."""

    def observe(self, name: str, value: float, **labels) -> None:
        """Record *value* into histogram *name*."""

    def gauge(self, name: str, value: float, **labels) -> None:
        """Set gauge *name* to *value*."""


#: The process-wide do-nothing observer (the default everywhere).
NULL_OBSERVER = Observer()


class IdentityMemo(dict):
    """A bounded memo keyed by metric identity as the caller spelled it:
    ``(name, *labels.items())``, or just ``name`` without labels — what
    a lookup can build without sorting or rendering anything.

    Only all-``str`` label values are remembered: ``1``, ``1.0`` and
    ``True`` hash alike but render apart (and an unhashable value cannot
    be a key at all), so anything else is resolved afresh on every
    call.  Reaching :attr:`LIMIT` clears the memo; every entry can be
    recomputed, and label values (agent names) need not be bounded.
    """

    LIMIT = 4096

    def remember(self, name: str, labels: Dict[str, Any], value):
        """Store *value* for the identity if it is memoisable; return it."""
        if all(type(label) is str for label in labels.values()):
            if len(self) >= self.LIMIT:
                self.clear()
            self[(name, *labels.items()) if labels else name] = value
        return value


class LazyInstruments:
    """An emitter's fixed series as attributes, each an instrument of
    *observer* bound on first use: ``series`` maps attribute name to
    ``(factory, metric name)``, e.g. ``("bind_gauge", "bus.inflight")``.

    Not up front, because binding creates the series: a run that never
    bounds a mailbox must not grow a ``bus.mailbox.offered`` counter.
    """

    def __init__(self, observer: Observer, series: Dict[str, Tuple[str, str]]):
        self._observer = observer
        self._series = series

    def __getattr__(self, attribute):
        # Reached only while *attribute* is unbound: the instrument is
        # stored on the instance, where later reads find it first.
        try:
            factory, name = vars(self)["_series"][attribute]
        except KeyError:
            raise AttributeError(attribute) from None
        instrument = getattr(self._observer, factory)(name)
        setattr(self, attribute, instrument)
        return instrument


class InstrumentedObserver(Observer):
    """An observer whose string metric hooks *are* its bound
    instruments: each hook looks the identity up in a memo and touches
    the instrument, so a subclass implements ``bind_counter`` /
    ``bind_gauge`` / ``bind_histogram`` and nothing else."""

    enabled = True
    wants_metrics = True

    def __init__(self):
        self._bound_counters = IdentityMemo()
        self._bound_gauges = IdentityMemo()
        self._bound_histograms = IdentityMemo()

    def inc(self, name, value=1.0, **labels):
        try:
            bound = self._bound_counters[(name, *labels.items()) if labels else name]
        except (KeyError, TypeError):
            bound = self._bound_counters.remember(
                name, labels, self.bind_counter(name, **labels))
        bound.inc(value)

    def observe(self, name, value, **labels):
        try:
            bound = self._bound_histograms[(name, *labels.items()) if labels else name]
        except (KeyError, TypeError):
            bound = self._bound_histograms.remember(
                name, labels, self.bind_histogram(name, **labels))
        bound.observe(value)

    def gauge(self, name, value, **labels):
        try:
            bound = self._bound_gauges[(name, *labels.items()) if labels else name]
        except (KeyError, TypeError):
            bound = self._bound_gauges.remember(
                name, labels, self.bind_gauge(name, **labels))
        bound.set(value)


#: Every hook a CompositeObserver fans out, with its parameter list.
_HOOKS = {
    "message_sent": "time, message, size_bytes, cause=None",
    "message_delivered":
        "time, message, queue_time=0.0, size_bytes=0.0, dedup=False",
    "message_dropped": 'time, message, reason="offline"',
    "timer_fired": "time, agent_name",
    "conversation_timeout": "time, agent_name, reply_id",
    "annotate": "time, message, name, **attrs",
    "region": "agent_name, name, start, end, **attrs",
    "inc": "name, value=1.0, **labels",
    "observe": "name, value, **labels",
    "gauge": "name, value, **labels",
}

#: String metric hook -> (instrument factory, instrument method, its
#: parameter list).
_INSTRUMENTS = {
    "inc": ("bind_counter", "inc", "value=1.0"),
    "gauge": ("bind_gauge", "set", "value"),
    "observe": ("bind_histogram", "observe", "value"),
}


def _ignore(*args, **kwargs) -> None:
    """Shared no-op bound to composite hooks nobody implements."""


def _implements(observer: Observer, hook: str) -> bool:
    """False when *hook* on *observer* is the base class's no-op (or a
    nested composite's).  Looked up on the instance, so a hook installed
    as an instance attribute counts."""
    method = getattr(observer, hook)
    return (method is not _ignore
            and getattr(method, "__func__", method) is not getattr(Observer, hook))


def _unrolled(name: str, params: str, calls: Sequence[Callable]) -> Callable:
    """A function *name*(*params*) that passes its arguments to each of
    *calls* in order — straight-line code, no loop and no re-packing of
    positional arguments."""
    args = ", ".join(param.split("=")[0] for param in params.split(", "))
    scope = {f"call{i}": call for i, call in enumerate(calls)}
    body = "".join(f"\n    {target}({args})" for target in scope)
    exec(f"def {name}({params}):{body}", scope)
    return scope[name]


class _FanInstrument(Instrument):
    """Several observers' instruments for one series; the instance
    attribute named after the series' kind is the unrolled fan-out."""


class CompositeObserver(InstrumentedObserver):
    """Fans every hook out to each child observer.

    Fan-out is *compiled at construction*: a hook that exactly one
    child overrides is bound straight to that child's method (no extra
    frame), a hook nobody overrides becomes a shared no-op, and a hook
    with several implementors becomes an unrolled closure over their
    bound methods.  This matters because composites sit on the bus hot
    path — a metrics+tracing pair would otherwise pay a fan-out frame
    plus a no-op child call on every ``inc``/``observe`` the agents
    emit.

    The metric hooks fan out one level further down: an instrument
    bound here is an unrolled call of the implementing children's own
    instruments (or the single child's, or the shared no-op), and a
    string metric hook with several implementors goes through
    :class:`InstrumentedObserver`'s memo to such an instrument, so the
    children never re-derive the identity per event.
    """

    def __init__(self, children: Sequence[Observer]):
        super().__init__()
        self.children = [c for c in children if c is not None and c is not NULL_OBSERVER]
        self.wants_metrics = any(c.wants_metrics for c in self.children)
        self.wants_dedup = any(c.wants_dedup for c in self.children)
        #: hook -> the children that do something on it.
        self._implementors = {
            hook: [child for child in self.children if _implements(child, hook)]
            for hook in _HOOKS
        }
        for hook, params in _HOOKS.items():
            impls = [getattr(child, hook) for child in self._implementors[hook]]
            if len(impls) == 1:
                setattr(self, hook, impls[0])
            elif not impls:
                setattr(self, hook, _ignore)
            elif hook not in _INSTRUMENTS:
                setattr(self, hook, _unrolled(hook, params, impls))
            # else: the memoised InstrumentedObserver hook, whose
            # instruments _bind() fans out.

    def _bind(self, hook: str, name: str, labels: Dict[str, Any]) -> Instrument:
        factory, method, params = _INSTRUMENTS[hook]
        bound = [getattr(child, factory)(name, **labels)
                 for child in self._implementors[hook]]
        if not bound:
            return NULL_INSTRUMENT
        if len(bound) == 1:
            return bound[0]
        fan = _FanInstrument()
        setattr(fan, method, _unrolled(
            method, params, [getattr(each, method) for each in bound]))
        return fan

    def bind_counter(self, name, **labels):
        return self._bind("inc", name, labels)

    def bind_gauge(self, name, **labels):
        return self._bind("gauge", name, labels)

    def bind_histogram(self, name, **labels):
        return self._bind("observe", name, labels)


def compose(*observers: Optional[Observer]) -> Observer:
    """The cheapest observer equivalent to notifying all *observers*:
    NULL for none, the single real observer for one, a composite
    otherwise."""
    real = [o for o in observers if o is not None and o is not NULL_OBSERVER]
    if not real:
        return NULL_OBSERVER
    if len(real) == 1:
        return real[0]
    return CompositeObserver(real)
