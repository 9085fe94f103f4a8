"""The base agent: advertising, broker-list management, conversations.

Implements the behaviours Section 4.2 requires of *every* agent:

* **redundant advertising** — each agent is configured with a number of
  brokers to advertise to; it advertises to brokers on its
  ``known_broker_list`` until ``connected_broker_list`` reaches that
  size (4.2.1);
* **broker pings** — at a configurable interval the agent asks each
  connected broker whether it still knows it; dead or forgetful brokers
  are dropped from the connected list and the advertising process
  restarts (4.2.2);
* **dormancy** — an agent connected to no brokers waits for the next
  polling interval and tries again;
* **conversation tracking** — outgoing queries register a continuation
  keyed by ``:reply-with``; ``tell``/``sorry`` replies resume it, and a
  timeout timer fires the continuation with ``None`` if the peer died.

Subclasses override :meth:`build_description` (what to advertise) and
the ``on_<performative>`` handlers.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, replace as _replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.agents.bus import is_maintenance
from repro.agents.costs import CostModel
from repro.agents.errors import AgentError
from repro.agents.faults import DEFAULT_BACKOFF, BackoffPolicy
from repro.core.advertisement import Advertisement
from repro.obs.events import NULL_OBSERVER, Observer
from repro.kqml import KqmlMessage, Performative
from repro.ontology.service import AgentLocation, ServiceDescription


class HandlerResult:
    """A handler's product: messages to send (with nominal byte sizes,
    None for a control message), timers to arm (delay, token,
    maintenance), and the virtual cost of the handling."""

    __slots__ = ("outbox", "timers", "cost_seconds")

    def __init__(self, cost_seconds: float = 0.0):
        self.outbox: List[Tuple[KqmlMessage, Optional[float]]] = []
        self.timers: List[Tuple[float, object, bool]] = []
        self.cost_seconds = cost_seconds

    def send(self, message: KqmlMessage, size_bytes: Optional[float] = None) -> None:
        self.outbox.append((message, size_bytes))

    def arm(self, delay: float, token: object, maintenance: bool = False) -> None:
        self.timers.append((delay, token, maintenance))

    def merge(self, other: "HandlerResult") -> None:
        self.outbox.extend(other.outbox)
        self.timers.extend(other.timers)
        self.cost_seconds += other.cost_seconds


@dataclass(frozen=True)
class AgentConfig:
    """Per-agent behaviour knobs (Section 4.2's configuration parameters)."""

    preferred_brokers: Tuple[str, ...] = ()
    redundancy: int = 1  # how many brokers to advertise to
    ping_interval: float = 300.0
    reply_timeout: float = 60.0
    advertisement_size_mb: float = 1.0
    #: An out-of-band broker registry (Section 4.1's "published lists or
    #: bulletin boards"), consulted when a ping cycle ends with no
    #: connected brokers.
    bulletin_board: Optional[str] = None
    #: Per-conversation attempt budget for :meth:`Agent.ask`.  1 (the
    #: default) preserves the legacy one-shot-timeout behaviour; higher
    #: values resend after each timeout with exponential backoff.
    max_attempts: int = 1
    #: Backoff schedule between retries (None = the module default).
    backoff: Optional[BackoffPolicy] = None
    #: Entries kept in the idempotent-receive caches (seen request ids,
    #: cached replies); duplicates outside the window re-execute.
    dedup_window: int = 1024
    #: What going offline means.  ``"lenient"`` (the legacy default)
    #: preserves all in-memory state across an offline window, so a
    #: revived agent resumes where it left off.  ``"strict"`` models a
    #: real process crash: the bus calls :meth:`Agent.on_crash` when the
    #: agent is taken offline, wiping volatile state, and the revived
    #: agent must rebuild (re-advertise; brokers additionally replay
    #: their journal and/or sync from peers).
    crash_mode: str = "lenient"
    #: Stamp outgoing :meth:`Agent.ask` requests with an ``:x-deadline``
    #: extras param (absolute virtual time = now + reply timeout) so
    #: downstream hops can propagate the remaining budget and shed
    #: already-dead work.  Off by default: the stamp changes message
    #: extras, so it is strictly opt-in.
    deadline_propagation: bool = False
    #: Sorry ``:reason`` values :meth:`Agent.ask` treats as *transient*:
    #: with attempt budget remaining the conversation stays open and the
    #: request is resent after backoff (never earlier than the sorry's
    #: ``:retry-after`` hint).  Sorries with any other reason — semantic
    #: refusals — remain final, ending the conversation as before.
    retry_on_sorry: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "preferred_brokers", tuple(self.preferred_brokers))
        object.__setattr__(self, "retry_on_sorry", tuple(self.retry_on_sorry))
        if self.redundancy < 0:
            raise AgentError("redundancy must be >= 0")
        if self.ping_interval <= 0 or self.reply_timeout <= 0:
            raise AgentError("intervals must be positive")
        if self.max_attempts < 1:
            raise AgentError("max_attempts must be >= 1")
        if self.dedup_window < 1:
            raise AgentError("dedup_window must be >= 1")
        if self.crash_mode not in ("lenient", "strict"):
            raise AgentError("crash_mode must be 'lenient' or 'strict'")


@dataclass(slots=True)
class _Conversation:
    callback: Callable[[Optional[KqmlMessage], "HandlerResult"], None]
    deadline_token: object
    #: Retry state: the original request is kept so a timeout can resend
    #: it verbatim (same ``:reply-with``; receivers dedup).
    message: Optional[KqmlMessage] = None
    size_bytes: Optional[float] = None
    timeout: float = 0.0
    attempts_left: int = 0
    attempt: int = 1
    #: True when :meth:`Agent.ask` minted the request's ``:x-deadline``
    #: itself — retries then restamp it from the fresh send time (an
    #: upstream-imposed deadline is never extended).
    restamp_deadline: bool = False


_PING_TIMER = "ping-cycle"

#: Performative -> name of the method that handles it.
_HANDLER_NAMES = {
    performative: "on_" + performative.value.replace("-", "_")
    for performative in Performative
}


class Agent:
    """Base class for all live InfoSleuth agents."""

    agent_type = "generic"

    def __init__(self, name: str, config: Optional[AgentConfig] = None):
        if not name:
            raise AgentError("agent name must be non-empty")
        self.name = name
        self.config = config or AgentConfig()
        self.bus = None
        self.busy_until = 0.0
        self.known_broker_list: List[str] = list(self.config.preferred_brokers)
        self.connected_broker_list: List[str] = []
        self._conversations: Dict[str, _Conversation] = {}
        self._timeout_counter = 0
        self._advert_cursor = 0
        #: Advertise-round counter stamped into outgoing advertisements;
        #: with the advertisement time it forms the replication LWW key.
        self._advert_seq = 0
        #: Idempotent receive: request ids already executed, and the
        #: replies they produced (resent verbatim when a retry or a
        #: network-duplicated copy arrives).  Both LRU-bounded.
        self._seen_requests: OrderedDict = OrderedDict()
        self._reply_cache: OrderedDict = OrderedDict()
        #: Seeded per-agent stream for retry-backoff jitter.
        self._retry_rng = random.Random(f"retry:{name}")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, bus) -> None:
        self.bus = bus

    @property
    def cost_model(self) -> CostModel:
        return self.bus.cost_model

    @property
    def observer(self) -> Observer:
        """The bus's observer (no-op when detached or un-instrumented)."""
        bus = self.bus
        return bus.observer if bus is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    # self-description
    # ------------------------------------------------------------------
    def build_description(self) -> ServiceDescription:
        """What this agent advertises; subclasses override."""
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type=self.agent_type)
        )

    def advertisement(self, at: float) -> Advertisement:
        self._advert_seq += 1
        return Advertisement(
            self.build_description(),
            size_mb=self.config.advertisement_size_mb,
            advertised_at=at,
            seq=self._advert_seq,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_start(self, now: float) -> HandlerResult:
        """Called when the agent (re)joins the community."""
        result = HandlerResult(cost_seconds=self.cost_model.base_handling_seconds)
        self.connected_broker_list = []
        self._advertise_round(result, now)
        if not self.known_broker_list and self.config.bulletin_board:
            self._consult_bulletin_board(result, now)
        wants_brokers = self.config.preferred_brokers or self.config.bulletin_board
        if wants_brokers and self.config.redundancy > 0:
            self._arm_cycle(result, self.config.ping_interval, _PING_TIMER)
        return result

    def _arm_cycle(self, result: HandlerResult, interval: float, token: str) -> None:
        """(Re)start a recurring maintenance timer from ``on_start``.  An
        outage shorter than the interval leaves the previous cycle's
        timer pending; it is retired first, or every blip would add one
        more cycle running beside the new one."""
        self.bus.cancel_timer(self.name, token)
        result.arm(interval, token, maintenance=True)

    def on_crash(self) -> None:
        """Wipe volatile state — the agent's process died.

        Called by :meth:`MessageBus.set_offline` when an agent with
        ``crash_mode="strict"`` goes offline.  Everything the paper
        treats as in-memory is reset; the next ``on_start`` rebuilds
        from configuration (and, for brokers, from durable journal or
        peers).  ``_timeout_counter`` deliberately survives: stale
        pre-crash timers are purged by the bus's epoch check, and a
        reset counter could mint fresh timer tokens that collide with
        in-flight cancellations of the old incarnation's timers.
        """
        self.busy_until = 0.0
        self.known_broker_list = list(self.config.preferred_brokers)
        self.connected_broker_list = []
        self._conversations.clear()
        self._advert_cursor = 0
        self._advert_seq = 0
        self._seen_requests.clear()
        self._reply_cache.clear()
        self._retry_rng = random.Random(f"retry:{self.name}")

    def _pick_broker(self) -> Optional[str]:
        """The broker this agent asks first: the head of its connected
        brokers, else of the brokers it knows of."""
        if self.connected_broker_list:
            return self.connected_broker_list[0]
        if self.known_broker_list:
            return self.known_broker_list[0]
        return None

    def _next_broker(self, tried: Tuple[str, ...]) -> Optional[str]:
        """The first connected-then-known broker not in *tried* (the
        failover target after a broker died or refused)."""
        for name in (*self.connected_broker_list, *self.known_broker_list):
            if name not in tried:
                return name
        return None

    def _advertise_round(
        self, result: HandlerResult, now: float,
        exclude: Tuple[str, ...] = (),
    ) -> None:
        """Advertise to known-but-unconnected brokers up to the redundancy
        target (Section 4.2.1)."""
        needed = self.config.redundancy - len(self.connected_broker_list)
        if needed <= 0:
            return
        candidates = [
            b for b in self.known_broker_list
            if b not in self.connected_broker_list and b not in exclude
        ]
        if not candidates:
            return
        # Rotate the candidate order between rounds so a dead broker at the
        # head of the known-broker-list cannot starve the retry loop.
        offset = self._advert_cursor % len(candidates)
        candidates = candidates[offset:] + candidates[:offset]
        self._advert_cursor += needed
        ad = self.advertisement(now)
        for broker in candidates[:needed]:
            self.observer.inc("agent.readvertise.count", agent=self.name)
            message = KqmlMessage(
                Performative.ADVERTISE,
                sender=self.name,
                receiver=broker,
                content=ad,
                ontology="service",
                reply_with=f"{self.name}-adv-{broker}-{now}",
            )
            result.send(
                message, size_bytes=self.config.advertisement_size_mb * 1_000_000
            )
            self._await_reply(
                message.reply_with,
                lambda reply, res, broker=broker: self._advert_outcome(broker, reply, res),
                result,
            )

    def _advert_outcome(
        self, broker: str, reply: Optional[KqmlMessage], result: HandlerResult
    ) -> None:
        if reply is not None and reply.performative is Performative.TELL:
            # A specialized broker may have forwarded the advertisement to a
            # better-suited peer; the confirmation names the actual home.
            accepted_by = reply.extra("accepted-by", broker)
            if accepted_by not in self.known_broker_list:
                self.known_broker_list.append(accepted_by)
            if accepted_by not in self.connected_broker_list:
                self.connected_broker_list.append(accepted_by)
        # On sorry/timeout the broker stays merely "known"; the next ping
        # cycle will retry if we are still short of the redundancy target.

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def handle_message(self, message: KqmlMessage, now: float) -> HandlerResult:
        result = HandlerResult(self.bus.cost_model.base_handling_seconds)
        in_reply_to = message.in_reply_to
        if in_reply_to:
            conversation = self._conversations.get(in_reply_to)
            if conversation is not None:
                if not self._retry_transient_sorry(message, conversation, result):
                    del self._conversations[in_reply_to]
                    self.bus.cancel_timer(self.name, conversation.deadline_token)
                    conversation.callback(message, result)
                self._record_replies(result)
                return result
        elif message.reply_with:
            if not self._first_delivery(message, result):
                return result
        handler = getattr(self, _HANDLER_NAMES[message.performative], None)
        if handler is None:
            reply = message.reply(Performative.SORRY, content="unsupported performative")
            if message.expects_reply():
                result.send(reply)
            return result
        handler(message, result, now)
        self._record_replies(result)
        return result

    # ------------------------------------------------------------------
    # idempotent receive (exactly-once handler effects under retry/dup)
    # ------------------------------------------------------------------
    def is_duplicate(self, message: KqmlMessage) -> bool:
        """True when the idempotent-receive cache will suppress *message*.

        Non-mutating: the bus consults this *before* dispatching so the
        observer's ``message_delivered`` hook can flag duplicated
        deliveries; :meth:`_first_delivery` still owns the cache update.
        """
        return bool(
            message.reply_with
            and not message.in_reply_to
            and (message.sender, message.performative, message.reply_with)
            in self._seen_requests
        )

    def _first_delivery(self, message: KqmlMessage, result: HandlerResult) -> bool:
        """True when *message* opens a new conversation at this agent.

        Redundant deliveries of the same request — sender retries after a
        lost reply, or network-level duplication — are suppressed: the
        handler does not run again, and the cached reply (if the first
        execution already produced one) is resent so the requester's
        retry still completes."""
        key = (message.sender, message.performative, message.reply_with)
        if key in self._seen_requests:
            self._seen_requests.move_to_end(key)
            self.observer.inc("agent.dedup.count", agent=self.name)
            cached = self._reply_cache.get(message.reply_with)
            if cached is not None:
                result.send(cached[0], size_bytes=cached[1])
            return False
        self._seen_requests[key] = True
        while len(self._seen_requests) > self.config.dedup_window:
            self._seen_requests.popitem(last=False)
        return True

    def _record_replies(self, result: HandlerResult) -> None:
        """Remember outgoing replies by the request id they answer, so a
        duplicated request can be answered from cache."""
        if not result.outbox:
            return
        cache = self._reply_cache
        for sent in result.outbox:
            request_id = sent[0].in_reply_to
            if request_id:
                cache[request_id] = sent
                cache.move_to_end(request_id)
        window = self.config.dedup_window
        while len(cache) > window:
            cache.popitem(last=False)

    # ------------------------------------------------------------------
    # conversations
    # ------------------------------------------------------------------
    def _await_reply(
        self,
        reply_id: str,
        callback: Callable[[Optional[KqmlMessage], HandlerResult], None],
        result: HandlerResult,
        timeout: Optional[float] = None,
    ) -> None:
        """Register *callback* for the reply to *reply_id*; arm a timeout."""
        self._timeout_counter += 1
        token = ("timeout", reply_id, self._timeout_counter)
        self._conversations[reply_id] = _Conversation(callback, token)
        result.arm(timeout if timeout is not None else self.config.reply_timeout, token)

    def ask(
        self,
        message: KqmlMessage,
        callback: Callable[[Optional[KqmlMessage], HandlerResult], None],
        result: HandlerResult,
        size_bytes: Optional[float] = None,
        timeout: Optional[float] = None,
        attempts: Optional[int] = None,
    ) -> None:
        """Send a query and register its continuation.

        *attempts* caps total transmissions of this request (default:
        ``config.max_attempts``).  With more than one attempt, each
        timeout waits an exponentially backed-off delay (see
        :class:`~repro.agents.faults.BackoffPolicy`) and resends the
        *same* message — same ``:reply-with`` — so the receiver's
        idempotent-receive layer either executes it once or answers from
        its reply cache.
        """
        if not message.reply_with:
            raise AgentError("ask() requires a message with :reply-with")
        stamped = False
        if (self.config.deadline_propagation
                and message.extra("x-deadline") is None
                and not is_maintenance(message)):
            # Maintenance asks (pings, anti-entropy) never carry
            # deadlines: the bus clock an agent stamps from is the event
            # arrival time, so a backlogged agent would mint its ping
            # cycle already expired — and liveness probes are governed
            # by their reply timeout, not by load shedding.
            message = self._stamp_deadline(
                message,
                timeout if timeout is not None else self.config.reply_timeout,
            )
            stamped = True
        result.send(message, size_bytes=size_bytes)
        self._await_reply(message.reply_with, callback, result, timeout)
        budget = attempts if attempts is not None else self.config.max_attempts
        if budget < 1:
            raise AgentError("ask() attempts must be >= 1")
        if budget > 1:
            conversation = self._conversations[message.reply_with]
            conversation.message = message
            conversation.size_bytes = size_bytes
            conversation.timeout = (
                timeout if timeout is not None else self.config.reply_timeout
            )
            conversation.attempts_left = budget - 1
            conversation.restamp_deadline = stamped

    def cancel_ask(self, reply_id: str) -> bool:
        """Abandon an in-flight :meth:`ask`: drop its continuation and
        disarm its timeout, so neither a late reply nor the timer fires
        the callback.  Hedged requests use this for first-reply-wins
        deduplication — the losing copy's eventual answer is discarded
        at the reply-routing layer.  Returns False when the conversation
        already completed."""
        conversation = self._conversations.pop(reply_id, None)
        if conversation is None:
            return False
        if self.bus is not None:
            self.bus.cancel_timer(self.name, conversation.deadline_token)
        return True

    def _stamp_deadline(self, message: KqmlMessage, timeout: float) -> KqmlMessage:
        """A copy of *message* whose ``:x-deadline`` is ``now + timeout``
        (an inbound deadline is never overwritten — smaller budgets win
        by :meth:`ask` only stamping when the param is absent)."""
        now = self.bus.now if self.bus is not None else 0.0
        extras = tuple(
            (key, value) for key, value in message.extras if key != "x-deadline"
        )
        return _replace(
            message, extras=extras + (("x-deadline", now + timeout),)
        )

    def _retry_transient_sorry(
        self, message: KqmlMessage, conversation: _Conversation,
        result: HandlerResult,
    ) -> bool:
        """True when *message* is a transient (load-shedding) sorry and
        budget remains: the conversation stays open and the request is
        resent after backoff, floored at the sorry's ``:retry-after``."""
        if message.performative is not Performative.SORRY:
            return False
        if not self.config.retry_on_sorry or conversation.attempts_left <= 0:
            return False
        reason = message.extra("reason")
        if reason is None and isinstance(message.content, str):
            reason = message.content
        if reason not in self.config.retry_on_sorry:
            return False
        self.bus.cancel_timer(self.name, conversation.deadline_token)
        conversation.attempts_left -= 1
        conversation.attempt += 1
        policy = self.config.backoff or DEFAULT_BACKOFF
        delay = policy.delay(conversation.attempt - 1, self._retry_rng)
        retry_after = message.extra("retry-after")
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        self._timeout_counter += 1
        retry_token = ("retry", message.in_reply_to, self._timeout_counter)
        conversation.deadline_token = retry_token
        result.arm(delay, retry_token)
        self.observer.inc("agent.retry.count", agent=self.name, cause="sorry")
        return True

    def _forget_request(self, message: KqmlMessage) -> None:
        """Erase the idempotent-receive record of *message* so a retry
        re-executes the handler instead of replaying a cached reply.
        Called by handlers that load-shed a request: the shed sorry is a
        refusal to do the work, not the work's result."""
        key = (message.sender, message.performative, message.reply_with)
        self._seen_requests.pop(key, None)
        if message.reply_with:
            self._reply_cache.pop(message.reply_with, None)

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def on_timer(self, token: object, now: float) -> HandlerResult:
        result = HandlerResult(self.bus.cost_model.base_handling_seconds)
        if isinstance(token, tuple) and token and token[0] == "timeout":
            self._handle_timeout(token, result)
        elif isinstance(token, tuple) and token and token[0] == "retry":
            self._handle_retry(token, result)
        elif token == _PING_TIMER:
            self._ping_cycle(result, now)
            result.arm(self.config.ping_interval, _PING_TIMER, maintenance=True)
        else:
            self.on_custom_timer(token, result, now)
        self._record_replies(result)
        return result

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        """Subclass hook for agent-specific timers."""

    def _handle_timeout(self, token: tuple, result: HandlerResult) -> None:
        _kind, reply_id, _n = token
        conversation = self._conversations.get(reply_id)
        if conversation is None or conversation.deadline_token != token:
            return
        if conversation.attempts_left > 0:
            # Budget remains: back off, then resend the same request.
            conversation.attempts_left -= 1
            conversation.attempt += 1
            policy = self.config.backoff or DEFAULT_BACKOFF
            delay = policy.delay(conversation.attempt - 1, self._retry_rng)
            self._timeout_counter += 1
            retry_token = ("retry", reply_id, self._timeout_counter)
            conversation.deadline_token = retry_token
            result.arm(delay, retry_token)
            self.observer.inc("agent.retry.count", agent=self.name)
            return
        self._conversations.pop(reply_id, None)
        obs = self.observer
        if obs.enabled:
            obs.conversation_timeout(self.bus.now, self.name, reply_id)
        conversation.callback(None, result)

    def _handle_retry(self, token: tuple, result: HandlerResult) -> None:
        """The backoff delay elapsed: resend the request and re-arm its
        reply timeout.  A reply arriving during the backoff window pops
        the conversation and cancels this timer, so retries stop."""
        _kind, reply_id, _n = token
        conversation = self._conversations.get(reply_id)
        if conversation is None or conversation.deadline_token != token:
            return
        if conversation.restamp_deadline:
            # A self-minted deadline moves with the resend; a stale one
            # would have the retry shed as already-expired on arrival.
            conversation.message = self._stamp_deadline(
                conversation.message, conversation.timeout
            )
        result.send(conversation.message, size_bytes=conversation.size_bytes)
        self._timeout_counter += 1
        deadline = ("timeout", reply_id, self._timeout_counter)
        conversation.deadline_token = deadline
        result.arm(conversation.timeout, deadline)

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def on_ping(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        """Default liveness reply: alive.  Brokers override this to report
        whether they still hold the pinger's advertisement."""
        result.send(message.reply(Performative.PONG, content=True))

    # ------------------------------------------------------------------
    # broker pings (Section 4.2.2)
    # ------------------------------------------------------------------
    def _ping_cycle(self, result: HandlerResult, now: float) -> None:
        for broker in list(self.connected_broker_list):
            ping = KqmlMessage(
                Performative.PING,
                sender=self.name,
                receiver=broker,
                content=self.name,
                reply_with=f"{self.name}-ping-{broker}-{now}",
            )
            self.ask(
                ping,
                lambda reply, res, broker=broker: self._ping_outcome(broker, reply, res, now),
                result,
            )
        # Re-advertise if below the redundancy target (including the
        # dormant case: connected to nothing, try again next interval).
        self._advertise_round(result, now)
        # Fully dormant and a published broker list exists: consult it
        # (Section 4.1's external discovery mechanism).
        if not self.connected_broker_list and self.config.bulletin_board:
            self._consult_bulletin_board(result, now)

    def _consult_bulletin_board(self, result: HandlerResult, now: float) -> None:
        ask = KqmlMessage(
            Performative.ASK_ONE,
            sender=self.name,
            receiver=self.config.bulletin_board,
            content="brokers",
            reply_with=f"{self.name}-board-{now}",
        )
        self.ask(
            ask,
            lambda reply, res, now=now: self._board_reply(reply, res, now),
            result,
        )

    def _board_reply(
        self, reply: Optional[KqmlMessage], result: HandlerResult, now: float
    ) -> None:
        if reply is None or reply.performative is not Performative.TELL:
            return
        added = False
        for broker in reply.content:
            if broker not in self.known_broker_list:
                self.known_broker_list.append(broker)
                added = True
        if added:
            self._advertise_round(result, now)

    def _ping_outcome(
        self, broker: str, reply: Optional[KqmlMessage], result: HandlerResult, now: float
    ) -> None:
        broker_knows_me = (
            reply is not None
            and reply.performative is Performative.PONG
            and bool(reply.content)
        )
        if not broker_knows_me and broker in self.connected_broker_list:
            self.connected_broker_list.remove(broker)
            # The redundancy target just broke: start re-advertising now
            # instead of sitting dormant for the rest of the ping
            # interval (dead-broker reconnection latency fix).  The
            # just-dropped broker is excluded — a full retry budget was
            # spent establishing it is unreachable, so it only becomes a
            # candidate again at the next ping cycle.
            self._advertise_round(result, now, exclude=(broker,))
