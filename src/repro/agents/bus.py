"""The virtual-time message bus.

The bus is a discrete-event scheduler specialized to message passing:

* each registered agent is a single-server FIFO queue with a
  ``busy_until`` horizon;
* delivering a message runs the agent's handler (real Python code, real
  matching, real SQL) and charges the *returned* virtual cost, so the
  agent's next message starts after ``max(arrival, busy_until) + cost``;
* messages the handler emits depart at the handler's completion time and
  arrive after network latency + size/bandwidth transfer;
* agents may schedule timers (broker pings, reply timeouts), delivered
  as callbacks at the requested virtual time;
* agents can be taken offline: messages to them are dropped, exactly
  like a dead TCP endpoint (the sender's timeout machinery notices).

``run_until``/``run`` drive the event loop; everything is deterministic
given the same inputs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.agents.costs import CostModel
from repro.agents.errors import AgentError
from repro.kqml import KqmlMessage, Performative
from repro.obs.events import (NULL_OBSERVER, LazyInstruments, Observer, compose,
                              summarize_content)
from repro.obs.metrics import Gauge
from repro.obs.profiler import PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.agents.base import Agent
    from repro.agents.faults import FaultInjector, FaultPlan

#: Shed policies a bounded mailbox supports (see :meth:`MessageBus.set_mailbox`).
MAILBOX_POLICIES = ("reject", "drop-oldest", "drop-new")

#: Event kinds.  A heap entry is one flat tuple
#: ``(time, seq, maintenance, kind, a, b, c)`` built only by
#: :meth:`MessageBus._push`; ``seq`` is unique, so ordering never reaches
#: the payload.  ``a, b, c`` are ``message, size, delivery id`` for a
#: delivery (id None outside a bounded mailbox), ``agent name, token,
#: epoch`` for a timer, ``agent name`` for a start and the callable for
#: a call.
_DELIVER, _TIMER, _START, _CALL = range(4)

#: Performatives that constitute liveness machinery on their own.
_MAINTENANCE_PERFORMATIVES = frozenset((Performative.PING, Performative.PONG))


def is_maintenance(message: KqmlMessage) -> bool:
    """True for health-machinery traffic: pings/pongs (including circuit
    breaker probes) and any payload that declares ``maintenance_lane``
    (anti-entropy digests/deltas).  Bounded mailboxes never shed these —
    an overloaded community must still detect failures and converge."""
    if message.performative in _MAINTENANCE_PERFORMATIVES:
        return True
    return bool(getattr(message.content, "maintenance_lane", False))


@dataclass
class BusStats:
    """Counters for tests and experiments.

    Drops are split by cause so chaos runs are diagnosable: a message
    addressed to a dead/unknown agent counts as ``dropped_offline``; one
    eaten by the installed fault plan (loss or partition) counts as
    ``dropped_injected``.
    """

    messages_delivered: int = 0
    dropped_offline: int = 0
    dropped_injected: int = 0
    timers_fired: int = 0
    bytes_transferred: float = 0.0
    #: Per-agent undelivered-message backlog as a generic peak/min
    #: gauge; its ``max`` is the old bespoke high-water mark (overload
    #: shows here long before queries start timing out).
    queue_depth: Gauge = field(default_factory=Gauge)
    #: Load shedding by bounded mailboxes (zero unless a mailbox bound
    #: is configured), split by policy plus deadline expiry at dequeue.
    shed_reject: int = 0
    shed_oldest: int = 0
    shed_new: int = 0
    shed_expired: int = 0
    #: Regular messages offered to / accepted by bounded mailboxes.
    mailbox_offered: int = 0
    mailbox_accepted: int = 0
    #: Maintenance/reply deliveries that sailed past a *full* mailbox on
    #: the priority lane — evidence the lane actually mattered.
    maintenance_bypass: int = 0

    @property
    def queue_depth_high_water(self) -> int:
        """Deepest any single agent's backlog ever got (the legacy
        counter, now read off the gauge's peak)."""
        return int(self.queue_depth.max or 0)

    @property
    def messages_dropped(self) -> int:
        """Total drops from any cause (the legacy counter)."""
        return self.dropped_offline + self.dropped_injected

    @property
    def messages_shed(self) -> int:
        """Total overload sheds: mailbox policy drops + expired work."""
        return (self.shed_reject + self.shed_oldest + self.shed_new
                + self.shed_expired)


@dataclass(frozen=True)
class TraceEntry:
    """One delivered message, as recorded by the bus trace."""

    time: float
    sender: str
    receiver: str
    performative: str
    summary: str


_summarize_content = summarize_content


class MessageLogObserver(Observer):
    """Appends a :class:`TraceEntry` per delivered message to a caller-
    owned list — the legacy ``bus.trace`` behaviour, recast as an
    observer so the delivery path never branches on tracing."""

    enabled = True

    def __init__(self, entries: List[TraceEntry]):
        self.entries = entries

    def message_delivered(self, time, message, queue_time=0.0, size_bytes=0.0,
                          dedup=False):
        self.entries.append(TraceEntry(
            time=time,
            sender=message.sender,
            receiver=message.receiver,
            performative=message.performative.value,
            summary=summarize_content(message.content),
        ))


#: The bus's own per-message series: attribute -> (factory, name).
_BUS_SERIES = {
    "queue_depth": ("bind_gauge", "bus.queue.depth"),
    "inflight": ("bind_gauge", "bus.inflight"),
    "mailbox_offered": ("bind_counter", "bus.mailbox.offered"),
    "mailbox_accepted": ("bind_counter", "bus.mailbox.accepted"),
    "shed_expired": ("bind_counter", "bus.shed.expired"),
}


def format_message_trace(trace) -> str:
    """Render a recorded trace as a textual sequence diagram — the shape
    of the paper's Figures 5-7.

    Accepts any sequence of entries with ``time``/``sender``/``receiver``/
    ``performative``/``summary`` attributes: the bus's legacy
    :class:`TraceEntry` list or a
    :class:`~repro.obs.tracing.ConversationTracer`'s message log."""
    if not trace:
        return "(no messages)"
    lines = []
    for entry in trace:
        lines.append(
            f"t={entry.time:9.3f}  {entry.sender} -> {entry.receiver}: "
            f"({entry.performative}) {entry.summary}"
        )
    return "\n".join(lines)


class MessageBus:
    """Deterministic virtual-time transport connecting agents."""

    def __init__(self, cost_model: Optional[CostModel] = None,
                 observer: Optional[Observer] = None):
        from repro import obs as _obs

        self.cost_model = cost_model or CostModel()
        self.now = 0.0
        self.stats = BusStats()
        self._agents: Dict[str, "Agent"] = {}
        self._offline: set = set()
        self._queue: List = []
        self._sequence = itertools.count()
        #: (agent, token) -> scheduled instances that must not fire.
        self._cancelled_timers: Dict = {}
        #: Scheduled-but-not-yet-fired instance counts per (agent, token),
        #: so cancelling an already-fired timer cannot leak a cancellation
        #: entry forever.
        self._pending_timers: Dict = {}
        #: Incarnation numbers: bumped when a strict-crash agent goes
        #: offline, so timers armed by the dead incarnation are silently
        #: discarded instead of firing into the revived one.
        self._agent_epochs: Dict[str, int] = {}
        #: Fault injection (None = perfectly reliable network).
        self.faults: Optional["FaultInjector"] = None
        #: The message whose handling is currently running; sends emitted
        #: during that handling are causally attributed to it.
        self._cause: Optional[KqmlMessage] = None
        #: Undelivered ("deliver" scheduled, not yet dispatched) message
        #: counts: per receiver and in total, behind the ``bus.inflight``
        #: and ``bus.queue.depth`` gauges.
        self._inflight: Dict[str, int] = {}
        self._inflight_total = 0
        #: Bounded-mailbox state (all inert until :meth:`set_mailbox`).
        #: The "mailbox" models the receiving endpoint's inbox: regular
        #: messages occupy a slot from acceptance until their *service*
        #: completes in virtual time; maintenance traffic and replies
        #: ride a priority lane and never occupy (or get shed from) it.
        self._mailbox_capacity: Optional[int] = None
        self._mailbox_policy: str = "reject"
        self._mailbox_retry_after: float = 30.0
        #: Accepted-but-undelivered messages per receiver, in enqueue
        #: order — the evictable portion of the backlog (drop-oldest).
        self._mailboxes: Dict[str, "OrderedDict[int, KqmlMessage]"] = {}
        #: Accepted-but-unfinished count per receiver (queued + in
        #: service), purged lazily from ``_mailbox_done``.
        self._mailbox_depth: Dict[str, int] = {}
        #: Virtual service-completion times of delivered mailbox
        #: messages (monotonic per receiver: single-server FIFO).
        self._mailbox_done: Dict[str, deque] = {}
        #: Heap entries evicted after scheduling (lazy deletion).
        self._shed_ids: set = set()
        self._delivery_ids = itertools.count(1)
        self._trace_list: Optional[List[TraceEntry]] = None
        self._trace_observer: Optional[MessageLogObserver] = None
        self._base_observer = (
            observer if observer is not None else _obs.current()
        )
        self._rebuild_observer()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def set_observer(self, observer: Optional[Observer]) -> None:
        """Replace this bus's primary observer (None resets to no-op)."""
        self._base_observer = observer if observer is not None else NULL_OBSERVER
        self._rebuild_observer()

    def _rebuild_observer(self) -> None:
        """The one place the effective observer changes (construction,
        :meth:`set_observer`, the ``trace`` setter): everything the bus
        derives from it is derived again here."""
        #: The effective observer every hook goes through; NULL_OBSERVER
        #: by default, so instrumented paths never branch.
        self.observer: Observer = compose(self._base_observer,
                                          self._trace_observer)
        #: Whether the bus's own series have a consumer, and the series
        #: themselves — re-bound here so that no instrument outlives the
        #: observer it was bound to.
        self._metrics: bool = self.observer.wants_metrics
        #: False while the effective observer is the shared no-op: the
        #: per-event hooks are then not called at all.
        self._observed: bool = self.observer is not NULL_OBSERVER
        self._instruments = LazyInstruments(self.observer, _BUS_SERIES)

    @property
    def trace(self) -> Optional[List[TraceEntry]]:
        """Legacy flat trace: assign a list to start appending a
        :class:`TraceEntry` per delivered message (see
        :func:`format_message_trace`); assign None to stop."""
        return self._trace_list

    @trace.setter
    def trace(self, entries: Optional[List[TraceEntry]]) -> None:
        self._trace_list = entries
        self._trace_observer = (
            MessageLogObserver(entries) if entries is not None else None
        )
        self._rebuild_observer()

    # ------------------------------------------------------------------
    # agent lifecycle
    # ------------------------------------------------------------------
    def register(self, agent: "Agent", start_at: Optional[float] = None) -> None:
        """Add *agent* to the community; it comes online at *start_at*
        (default: immediately).  Staggered starts desynchronize the
        agents' periodic ping cycles, as process start times would."""
        if agent.name in self._agents:
            raise AgentError(f"agent name {agent.name!r} already registered")
        self._agents[agent.name] = agent
        agent.attach(self)
        self._push(max(self.now, start_at or self.now), False, _START, agent.name)

    def agent(self, name: str) -> "Agent":
        try:
            return self._agents[name]
        except KeyError:
            raise AgentError(f"no agent named {name!r}") from None

    def agent_names(self) -> List[str]:
        return sorted(self._agents)

    def set_offline(self, name: str, offline: bool = True) -> None:
        """Simulate a crash (True) or recovery (False) of *name*.

        Under ``crash_mode="strict"`` going offline is a real process
        death: the agent's :meth:`~repro.agents.base.Agent.on_crash`
        wipes its volatile state and the agent's timer epoch advances so
        timers armed by the dead incarnation never fire into the revived
        one.  The legacy ``"lenient"`` mode keeps all state (a network
        blip, not a crash)."""
        agent = self.agent(name)  # validate
        if offline:
            newly_offline = name not in self._offline
            self._offline.add(name)
            if newly_offline and getattr(agent.config, "crash_mode", "lenient") == "strict":
                self._agent_epochs[name] = self._agent_epochs.get(name, 0) + 1
                agent.on_crash()
        else:
            self._offline.discard(name)
            self._push(self.now, False, _START, name)

    def is_offline(self, name: str) -> bool:
        return name in self._offline

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def install_faults(self, plan: Optional["FaultPlan"]) -> Optional["FaultInjector"]:
        """Install *plan* as this bus's network fault model (None removes
        it).  Returns the live :class:`~repro.agents.faults.FaultInjector`
        so callers can inspect its stats after a run."""
        if plan is None:
            self.faults = None
            return None
        from repro.agents.faults import FaultInjector

        self.faults = FaultInjector(plan)
        return self.faults

    # ------------------------------------------------------------------
    # bounded mailboxes (strictly opt-in; ISSUE 8)
    # ------------------------------------------------------------------
    def set_mailbox(self, capacity: Optional[int], policy: str = "reject",
                    retry_after: float = 30.0) -> None:
        """Bound every agent's regular-traffic mailbox to *capacity*
        outstanding messages (queued + in service).  Overflow is handled
        per *policy*: ``"reject"`` answers reply-expecting overflow with
        a synthetic ``sorry (:reason overload :retry-after T)``,
        ``"drop-oldest"`` evicts the oldest undelivered message, and
        ``"drop-new"`` silently drops the newcomer.  Maintenance traffic
        (:func:`is_maintenance`) and replies always bypass the bound.
        ``capacity=None`` removes the bound (the default)."""
        if capacity is None:
            self._mailbox_capacity = None
            return
        if capacity < 1:
            raise AgentError(f"mailbox capacity must be >= 1, got {capacity}")
        if policy not in MAILBOX_POLICIES:
            raise AgentError(
                f"unknown mailbox policy {policy!r}; "
                f"expected one of {MAILBOX_POLICIES}"
            )
        if retry_after <= 0:
            raise AgentError("mailbox retry_after must be positive")
        self._mailbox_capacity = int(capacity)
        self._mailbox_policy = policy
        self._mailbox_retry_after = float(retry_after)

    def queue_depth(self, name: str) -> int:
        """Current backlog for *name*: accepted-but-unfinished mailbox
        work when a bound is configured, else undelivered messages."""
        if self._mailbox_capacity is not None:
            self._mailbox_purge(name, self.now)
            return self._mailbox_depth.get(name, 0)
        return self._inflight.get(name, 0)

    def _sheddable(self, message: KqmlMessage) -> bool:
        # Replies resolve work the receiver already accepted — shedding
        # them would strand conversations (and the synthetic overload
        # sorry itself must always get through).
        if message.in_reply_to:
            return False
        return not is_maintenance(message)

    def _mailbox_purge(self, receiver: str, now: float) -> None:
        done = self._mailbox_done.get(receiver)
        if not done:
            return
        depth = self._mailbox_depth.get(receiver, 0)
        while done and done[0] <= now:
            done.popleft()
            depth -= 1
        self._mailbox_depth[receiver] = depth

    def _record_shed(self, message: KqmlMessage, reason: str) -> None:
        if reason == "shed-reject":
            self.stats.shed_reject += 1
        elif reason == "shed-oldest":
            self.stats.shed_oldest += 1
        else:
            self.stats.shed_new += 1
        self.observer.message_dropped(self.now, message, reason=reason)
        if self._metrics:
            self.observer.inc("bus.shed.count", policy=self._mailbox_policy)

    def _admit(self, message: KqmlMessage, when: float) -> bool:
        """Apply the mailbox policy; True when *message* may occupy a
        slot.  Admission is evaluated at enqueue (send) time."""
        receiver = message.receiver
        self._mailbox_purge(receiver, self.now)
        if self._mailbox_depth.get(receiver, 0) < self._mailbox_capacity:
            return True
        policy = self._mailbox_policy
        if policy == "drop-oldest":
            box = self._mailboxes.get(receiver)
            if box:
                victim_id, victim = box.popitem(last=False)
                self._shed_ids.add(victim_id)
                self._mailbox_depth[receiver] -= 1
                self._record_shed(victim, "shed-oldest")
                self._track_dequeue(receiver)
                return True
            # Every occupied slot is already in service: nothing is
            # evictable, so the newcomer is shed instead.
            self._record_shed(message, "shed-new")
            return False
        self._record_shed(
            message, "shed-reject" if policy == "reject" else "shed-new"
        )
        if (policy == "reject" and message.expects_reply()
                and not message.in_reply_to):
            # The receiving endpoint refuses at the door: a synthetic
            # transient sorry tells the sender to back off now instead
            # of burning its full reply timeout.  It is a reply, so it
            # rides the priority lane and cannot itself be shed.
            self.send(message.reply(
                Performative.SORRY, content="overload", reason="overload",
                **{"retry-after": self._mailbox_retry_after},
            ), at=when)
        return False

    # ------------------------------------------------------------------
    # sending and timers (called by agents from inside handlers)
    # ------------------------------------------------------------------
    def send(self, message: KqmlMessage, at: float, size_bytes: Optional[float] = None) -> None:
        """Schedule *message* to leave its sender at time *at*."""
        cost_model = self.cost_model
        size = size_bytes if size_bytes is not None else cost_model.control_message_bytes
        arrival = at + cost_model.transfer_seconds(size)
        self.stats.bytes_transferred += size
        if self._observed:
            self.observer.message_sent(at, message, size, self._cause)
        if self.faults is not None:
            arrivals, reason = self.faults.arrivals(
                message.sender, message.receiver, at, arrival
            )
            if not arrivals:
                self.stats.dropped_injected += 1
                self.observer.message_dropped(at, message, reason="injected")
                return
            for when in arrivals:
                self._enqueue(message, when, size)
        elif self._mailbox_capacity is not None:
            self._enqueue(message, arrival, size)
        else:
            self._push(arrival, False, _DELIVER, message, size)
            self._track_enqueue(message.receiver)

    def _enqueue(self, message: KqmlMessage, when: float, size: float) -> None:
        """Schedule one delivery, through bounded-mailbox admission when
        a bound is set."""
        if self._mailbox_capacity is not None and self._sheddable(message):
            self.stats.mailbox_offered += 1
            if self._metrics:
                self._instruments.mailbox_offered.inc()
            if not self._admit(message, when):
                return
            self.stats.mailbox_accepted += 1
            if self._metrics:
                self._instruments.mailbox_accepted.inc()
            delivery_id = next(self._delivery_ids)
            box = self._mailboxes.setdefault(message.receiver, OrderedDict())
            box[delivery_id] = message
            depth = self._mailbox_depth.get(message.receiver, 0) + 1
            self._mailbox_depth[message.receiver] = depth
            self._push(when, False, _DELIVER, message, size, delivery_id)
            self._track_enqueue(message.receiver)
            return
        if self._mailbox_capacity is not None:
            # Priority lane: count the times it carried traffic past a
            # full mailbox (the lane's reason to exist).
            self._mailbox_purge(message.receiver, self.now)
            if (self._mailbox_depth.get(message.receiver, 0)
                    >= self._mailbox_capacity):
                self.stats.maintenance_bypass += 1
        self._push(when, False, _DELIVER, message, size)
        self._track_enqueue(message.receiver)

    def schedule_callback(self, fire_at: float, callback: Callable[[], None]) -> None:
        """Run *callback* at virtual time *fire_at* (failure injection,
        experiment control)."""
        self._push(fire_at, False, _CALL, callback)

    def schedule_timer(
        self, agent_name: str, fire_at: float, token: object, maintenance: bool = False
    ) -> None:
        """Deliver ``on_timer(token)`` to *agent_name* at *fire_at*.

        ``maintenance`` marks recurring background timers (ping cycles,
        poll loops); :meth:`run` stops once only maintenance remains.
        """
        try:
            key = (agent_name, token)
            self._pending_timers[key] = self._pending_timers.get(key, 0) + 1
        except TypeError:
            pass  # unhashable token: never cancellable, never tracked
        epoch = self._agent_epochs.get(agent_name, 0)
        self._push(fire_at, maintenance, _TIMER, agent_name, token, epoch)

    def cancel_timer(self, agent_name: str, token: object) -> None:
        """Mark every scheduled instance of a timer as dead (lazy
        deletion): each is skipped when it fires and never holds
        :meth:`run` open.  Used to retire reply-timeout timers once the
        reply has arrived, and a recurring cycle before it is re-armed.

        Cancelling a timer that already fired (e.g. it was skipped while
        its owner was offline) is a no-op — recording it would leave the
        cancellation entry in ``_cancelled_timers`` forever."""
        try:
            key = (agent_name, token)
            pending = self._pending_timers.get(key, 0)
            if pending > 0:
                self._cancelled_timers[key] = pending
        except TypeError:
            pass  # unhashable token: never cancellable

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline; advance ``now``."""
        queue, step = self._queue, self._step
        while queue and queue[0][0] <= deadline:
            step()
        if deadline > self.now:
            self.now = deadline

    def run(self, max_events: int = 1_000_000) -> None:
        """Run until quiescent: no events remain except recurring
        maintenance timers (ping cycles, poll loops)."""
        queue, step = self._queue, self._step
        steps = 0
        while queue:
            head = queue[0]
            # A live regular event at the head settles it; only a
            # maintenance or cancelled head needs the whole heap read.
            if ((head[2] or head[3] == _TIMER and self._timer_cancelled(head))
                    and self.idle()):
                break
            step()
            steps += 1
            if steps > max_events:
                raise AgentError(f"bus exceeded {max_events} events; livelock?")

    def idle(self) -> bool:
        """True when only maintenance timers and cancelled timers remain."""
        return all(
            entry[2] or self._timer_cancelled(entry) for entry in self._queue
        )

    def _timer_cancelled(self, entry) -> bool:
        if entry[3] != _TIMER:
            return False
        try:
            return (entry[4], entry[5]) in self._cancelled_timers
        except TypeError:
            return False  # unhashable token: never cancellable

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _push(self, time: float, maintenance: bool, kind: int,
              a, b=None, c=None) -> None:
        """The one builder of heap entries (layout: see ``_DELIVER``)."""
        heapq.heappush(
            self._queue, (time, next(self._sequence), maintenance, kind, a, b, c)
        )

    def _step(self) -> None:
        time, _seq, _maintenance, kind, a, b, c = heapq.heappop(self._queue)
        if time > self.now:
            self.now = time
        if kind == _DELIVER:
            self._deliver(a, time, b, c)
        elif kind == _TIMER:
            self._fire_timer(a, b, time, c)
        elif kind == _START:
            self._start_agent(a, time)
        else:
            a()

    def _track_enqueue(self, receiver: str) -> None:
        self._inflight_total += 1
        depth = self._inflight.get(receiver, 0) + 1
        self._inflight[receiver] = depth
        # ``Gauge.set``, inline: this runs once per message.
        gauge = self.stats.queue_depth
        gauge.value = value = float(depth)
        if gauge.max is None or value > gauge.max:
            gauge.max = value
        if gauge.min is None or value < gauge.min:
            gauge.min = value
        # Emit the *current* depth on every transition (dequeue too), so
        # the gauge decays instead of sticking at the high-water mark.
        if self._metrics:
            instruments = self._instruments
            instruments.queue_depth.set(value)
            instruments.inflight.set(float(self._inflight_total))

    def _track_dequeue(self, receiver: str) -> None:
        self._inflight_total -= 1
        depth = self._inflight.get(receiver, 0) - 1
        if depth <= 0:
            self._inflight.pop(receiver, None)
            depth = 0
        else:
            self._inflight[receiver] = depth
        # ``Gauge.set``, inline: this runs once per message.
        gauge = self.stats.queue_depth
        gauge.value = value = float(depth)
        if gauge.max is None or value > gauge.max:
            gauge.max = value
        if gauge.min is None or value < gauge.min:
            gauge.min = value
        if self._metrics:
            instruments = self._instruments
            instruments.queue_depth.set(value)
            instruments.inflight.set(float(self._inflight_total))

    def _deliver(self, message: KqmlMessage, time: float, size: float,
                 delivery_id: Optional[int]) -> None:
        name = message.receiver
        if delivery_id is not None:
            if delivery_id in self._shed_ids:
                # Evicted by drop-oldest after scheduling; every counter
                # was settled at eviction time (lazy heap deletion).
                self._shed_ids.discard(delivery_id)
                return
            box = self._mailboxes.get(name)
            if box is not None:
                box.pop(delivery_id, None)
        self._track_dequeue(name)
        receiver = self._agents.get(name)
        if receiver is None or name in self._offline:
            self.stats.dropped_offline += 1
            self.observer.message_dropped(time, message, reason="offline")
            if delivery_id is not None:
                self._mailbox_depth[name] -= 1
            return
        deadline = message.extra("x-deadline") if message.extras else None
        if (deadline is not None and time > float(deadline)
                and not is_maintenance(message)):
            # The requester's reply timer has already fired: running the
            # handler would burn matcher time on a dead request.
            self.stats.shed_expired += 1
            self.observer.message_dropped(time, message, reason="expired")
            if self._metrics:
                self._instruments.shed_expired.inc()
            if delivery_id is not None:
                self._mailbox_depth[name] -= 1
            return
        self.stats.messages_delivered += 1
        busy = receiver.busy_until
        start = busy if busy > time else time
        if self._observed:
            # Flag deliveries the receiver's idempotent-receive cache will
            # suppress, so tracers/metrics never double-count retry echoes.
            # Checked before dispatch: handle_message mutates the cache.
            # Only fresh requests can be duplicates, and only observers
            # that declare wants_dedup use the flag — skipping the cache
            # probe otherwise keeps the observed hot path cheap.
            observer = self.observer
            dedup = False
            if (observer.wants_dedup and not message.in_reply_to
                    and message.reply_with):
                dedup = receiver.is_duplicate(message)
            observer.message_delivered(time, message, start - time, size, dedup)
        self._cause = message
        if PROFILER.enabled:
            PROFILER.begin("bus.deliver")
        try:
            result = receiver.handle_message(message, start)
            cost = result.cost_seconds
            completion = start + cost if cost > 0.0 else start
            receiver.busy_until = completion
            if delivery_id is not None:
                # The slot frees when service finishes in virtual time.
                self._mailbox_done.setdefault(name, deque()).append(completion)
            if result.outbox or result.timers:
                self._emit(receiver, result, completion)
        finally:
            if PROFILER.enabled:
                PROFILER.end("bus.deliver")
            self._cause = None

    def _fire_timer(self, agent_name: str, token: object, time: float,
                    epoch: int) -> None:
        try:
            key = (agent_name, token)
            pending_timers = self._pending_timers
            pending = pending_timers.get(key, 1) - 1
            if pending > 0:
                pending_timers[key] = pending
            else:
                pending_timers.pop(key, None)
            cancelled = self._cancelled_timers.get(key)
            if cancelled:
                # One cancelled instance consumed; the entry goes with
                # the last, so no fired timer leaves a cancellation behind.
                if cancelled > 1:
                    self._cancelled_timers[key] = cancelled - 1
                else:
                    del self._cancelled_timers[key]
                return
        except TypeError:
            pass  # unhashable token: never cancellable
        if epoch != self._agent_epochs.get(agent_name, 0):
            # Armed by a previous incarnation (strict crash happened in
            # between): discard.
            return
        agent = self._agents.get(agent_name)
        if agent is None or agent_name in self._offline:
            return
        self.stats.timers_fired += 1
        if self._observed:
            self.observer.timer_fired(time, agent_name)
        busy = agent.busy_until
        start = busy if busy > time else time
        result = agent.on_timer(token, start)
        cost = result.cost_seconds
        completion = start + cost if cost > 0.0 else start
        agent.busy_until = completion
        if result.outbox or result.timers:
            self._emit(agent, result, completion)

    def _start_agent(self, agent_name: str, time: float) -> None:
        agent = self._agents.get(agent_name)
        if agent is None or agent_name in self._offline:
            return
        start = max(agent.busy_until, time)
        result = agent.on_start(start)
        completion = start + max(result.cost_seconds, 0.0)
        agent.busy_until = completion
        self._emit(agent, result, completion)

    def _emit(self, agent: "Agent", result, completion: float) -> None:
        send = self.send
        for message, size in result.outbox:
            send(message, completion, size)
        name = agent.name
        for delay, token, maintenance in result.timers:
            self.schedule_timer(name, completion + delay, token, maintenance)
