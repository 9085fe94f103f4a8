"""The broker agent: repository maintenance + collaborative matchmaking.

Implements the full Section 2.2 / Section 4 behaviour:

* accepts, updates and removes advertisements (specialized brokers may
  reject out-of-specialty advertisements or forward them to a
  better-suited peer — Section 4.1);
* answers ``recommend-all``/``recommend-one`` queries by matching its
  repository, then — policy permitting — forwarding the request to
  peer brokers, deduplicating the unioned replies (Section 3.3);
* prevents forwarding loops with the visited-broker list (Section 4.3);
* optionally prunes forward targets using peer brokers' advertised
  specializations ("a broker can reason over the other brokers'
  capabilities and eliminate brokers that definitely should not be
  contacted" — Section 4.1);
* pings its advertised agents periodically and purges the dead
  (Section 2.2), and answers agents' own broker pings (Section 4.2.2).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.agents.base import Agent, AgentConfig, HandlerResult
from repro.agents.errors import AgentError
from repro.agents.faults import (AdmissionConfig, BreakerConfig, BreakerState,
                                 CircuitBreaker)
from repro.agents.recovery import (
    AdvertisementJournal,
    JournalRecord,
    OP_ADVERTISE,
    OP_UNADVERTISE,
    SyncDelta,
    SyncDigest,
)
from repro.core.advertisement import Advertisement
from repro.core.matcher import Match, MatchContext
from repro.core.policy import FollowOption, SearchPolicy
from repro.core.query import BrokerQuery
from repro.core.repository import BrokerRepository
from repro.kqml import KqmlMessage, Performative
from repro.obs.explain import (
    ExplainSink,
    FlightEntry,
    FlightRecorder,
    QueryExplanation,
)
from repro.ontology.service import (
    AgentLocation,
    BrokerExtensions,
    Capabilities,
    ServiceDescription,
    SyntacticInfo,
)

_AGENT_PING_TIMER = "agent-ping-cycle"
_SYNC_TIMER = "anti-entropy-cycle"


@dataclass(frozen=True)
class RecommendRequest:
    """The content of an inter-agent ``recommend-*`` message."""

    query: BrokerQuery
    policy: SearchPolicy = field(default_factory=SearchPolicy)
    visited: frozenset = frozenset()

    def __post_init__(self):
        if not isinstance(self.visited, frozenset):
            object.__setattr__(self, "visited", frozenset(self.visited))


@dataclass
class _Aggregation:
    """In-flight state of one collaboratively-answered recommend."""

    original: KqmlMessage
    matches: Dict[str, Match]
    outstanding: int
    #: Peers that could not contribute: skipped by an open circuit
    #: breaker, or timed out.  Reported in the degraded-mode ``partial``
    #: annotation on the reply.
    unreachable: List[str] = field(default_factory=list)


@dataclass
class _RecommendForensics:
    """Per-recommend forensic state at the originating broker, keyed by
    the original ``:reply-with`` so probe/forward chains can find it."""

    started: float
    trace_id: str
    trail: Optional[QueryExplanation] = None
    local_count: int = 0
    #: Repository size when the local match ran (explain invariant:
    #: one verdict per advertisement considered).
    ads_considered: int = 0
    #: Peer matches received (pre-union), for the dedup/union counts.
    received: int = 0


class BrokerAgent(Agent):
    """One broker in a (possibly multi-broker) InfoSleuth community."""

    agent_type = "broker"

    def __init__(
        self,
        name: str,
        config: Optional[AgentConfig] = None,
        context: Optional[MatchContext] = None,
        peer_brokers: Sequence[str] = (),
        specializations: Sequence[str] = (),
        accept_only_specialty: bool = False,
        prune_peers_by_specialty: bool = True,
        max_hop_count: int = 8,
        agent_ping_interval: Optional[float] = None,
        # The deployed InfoSleuth broker "forward[ed] the request
        # simultaneously to all the other brokers"; sequential probing
        # for until-match searches is the CORBA-trader-style alternative,
        # opt-in (see benchmarks/test_ablation_sequential_probe.py).
        sequential_until_match: bool = False,
        match_cache_size: Optional[int] = None,
        pull_broker_directory: bool = False,
        # Per-peer circuit breakers (None = disabled, the legacy
        # behaviour): persistently dead consortium peers are skipped
        # after `failure_threshold` consecutive timeouts and probed back
        # in with half-open pings after a cooldown.
        breaker: Optional[BreakerConfig] = None,
        # Crash recovery (all disabled by default — see agents/recovery):
        # a durable advertisement journal replayed on restart, and anti-
        # entropy digest exchange with consortium peers at start and/or
        # periodically.
        journal: Optional[AdvertisementJournal] = None,
        sync_on_start: bool = False,
        sync_interval: Optional[float] = None,
        # Query forensics: keep the full explain trail + hop counters
        # for the N slowest / failed recommends (see repro.obs.explain).
        # Enabling this turns on per-recommend explain evaluation, which
        # bypasses the match cache — diagnostic equipment, not a
        # production default.
        flight_recorder: Optional[FlightRecorder] = None,
        # Overload admission control + brownout (None = disabled, the
        # legacy behaviour): refuse new recommends with a transient
        # `sorry (:reason overload :retry-after T)` past hard limits,
        # and skip the consortium fan-out (answering local-only with
        # `:partial "shed:consortium"`) past brownout thresholds.
        admission: Optional[AdmissionConfig] = None,
    ):
        super().__init__(
            name,
            config
            or AgentConfig(
                preferred_brokers=tuple(peer_brokers),
                redundancy=len(tuple(peer_brokers)),
                # A broker waits less for its peers than requesters wait
                # for it, so one dead peer costs a partial answer, not a
                # missed one.
                reply_timeout=30.0,
                # Broker self-descriptions are small; a fat default here
                # would bloat every peer's reasoning time.
                advertisement_size_mb=0.01,
            ),
        )
        from repro.core.repository import DEFAULT_MATCH_CACHE_SIZE

        self.repository = BrokerRepository(
            context,
            match_cache_size=(
                DEFAULT_MATCH_CACHE_SIZE if match_cache_size is None
                else match_cache_size
            ),
        )
        self.pull_broker_directory = pull_broker_directory
        self.peer_brokers: List[str] = list(peer_brokers)
        self.specializations: Tuple[str, ...] = tuple(specializations)
        self.accept_only_specialty = accept_only_specialty
        self.prune_peers_by_specialty = prune_peers_by_specialty
        self.max_hop_count = max_hop_count
        self.agent_ping_interval = agent_ping_interval
        self.sequential_until_match = sequential_until_match
        self.breaker_config = breaker
        self.flight_recorder = flight_recorder
        self.admission = admission
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._aggregations: Dict[str, _Aggregation] = {}
        self._inflight: Dict[str, _RecommendForensics] = {}
        self.rejected_advertisements = 0
        self.journal = journal
        self.sync_on_start = sync_on_start
        self.sync_interval = sync_interval
        #: Configured consortium, restored verbatim after a strict crash
        #: (peers learned at runtime are volatile state).
        self._initial_peers: Tuple[str, ...] = tuple(peer_brokers)
        #: ``{advertiser: (at, seq)}`` of each removal the repository
        #: holds no newer advertisement for.  The stored advertisements
        #: plus these are the replication state the anti-entropy digests
        #: summarize.
        self._tombstones: Dict[str, Tuple[float, int]] = {}
        #: Virtual time of the last strict crash, cleared once a recovery
        #: path (journal replay or first anti-entropy pull) completes.
        self._crashed_at: Optional[float] = None
        #: Ontology-name histogram of received broker queries, the input
        #: to the Section 4.1 objective analysis ("a broker may modify
        #: its objective based on an analysis of the queries it is
        #: receiving").
        self.query_ontology_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # self-description (Figure 13 extensions)
    # ------------------------------------------------------------------
    def build_description(self) -> ServiceDescription:
        return ServiceDescription(
            location=AgentLocation(name=self.name, agent_type="broker"),
            syntax=SyntacticInfo(content_languages=("service-ontology",)),
            capabilities=Capabilities(
                conversations=("advertise", "unadvertise", "recommend-all",
                               "recommend-one", "ping"),
                functions=("brokering", "semantic-brokering", "syntactic-brokering"),
            ),
            broker=BrokerExtensions(specializations=self.specializations),
        )

    # ------------------------------------------------------------------
    # lifecycle: advertise self to peers, start agent-ping cycle
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """A strict crash: the repository, replication state, breakers,
        in-flight aggregations and learned peers all die with the
        process.  The journal (if any) deliberately survives — it models
        durable storage."""
        super().on_crash()
        self.repository = self.repository.clone_empty()
        self._tombstones.clear()
        self._breakers.clear()
        self._aggregations.clear()
        self._inflight.clear()
        self.query_ontology_counts.clear()
        self.rejected_advertisements = 0
        self.peer_brokers = list(self._initial_peers)
        self._crashed_at = self.bus.now if self.bus is not None else 0.0

    def on_start(self, now: float) -> HandlerResult:
        result = super().on_start(now)
        self._recover(result, now)
        if self.agent_ping_interval:
            self._arm_cycle(result, self.agent_ping_interval, _AGENT_PING_TIMER)
        if self.pull_broker_directory:
            self._pull_directory(result, now)
        return result

    # ------------------------------------------------------------------
    # crash recovery (journal replay + anti-entropy)
    # ------------------------------------------------------------------
    def _recover(self, result: HandlerResult, now: float) -> None:
        """Rebuild the repository before accepting traffic: replay the
        durable journal (if one exists and the in-memory state is gone),
        then ask consortium peers for what the journal missed."""
        repository = self.repository
        if (self.journal is not None and len(self.journal)
                and not (self._tombstones or repository.agent_count
                         or repository.broker_count)):
            self._replay_journal(result, now)
        if self.sync_on_start and self.peer_brokers:
            self._sync_round(result, now)
        if self.sync_interval:
            self._arm_cycle(result, self.sync_interval, _SYNC_TIMER)

    def _replay_journal(self, result: HandlerResult, now: float) -> None:
        applied = 0
        for record in self.journal.replay():
            if self._apply_record(record, journal=False):
                applied += 1
        cost = self.cost_model.broker_reasoning_seconds(self.repository.size_mb())
        result.cost_seconds += cost
        obs = self.observer
        if obs.enabled:
            obs.inc("broker.recovery.replayed", applied, broker=self.name)
            obs.region(self.name, "journal-replay", now, now + cost,
                       records=applied, lines=len(self.journal))
            if self._crashed_at is not None:
                obs.observe("broker.recovery.time", cost, path="replay")
        self._crashed_at = None

    def _sync_round(self, result: HandlerResult, now: float) -> None:
        """Send our per-advertiser digest to every reachable consortium
        peer; each answers with the records we are missing."""
        digest = SyncDigest(tuple(self._digest_entries()))
        for peer in sorted(set(self.peer_brokers) - {self.name}):
            if self.breaker_config is not None and not self._breaker(peer).allows():
                continue
            message = KqmlMessage(
                Performative.ASK_ALL,
                sender=self.name,
                receiver=peer,
                content=digest,
                ontology="service",
                reply_with=f"{self.name}-sync-{peer}-{now}",
            )
            self.ask(
                message,
                lambda reply, res, peer=peer, started=now:
                    self._sync_reply(peer, started, reply, res),
                result,
            )

    def on_ask_all(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        """Anti-entropy: a peer sent its digest; answer with the records
        it is missing or holds stale copies of (LWW by ``(at, seq)``)."""
        digest = message.content
        if not isinstance(digest, SyncDigest):
            result.send(message.reply(Performative.SORRY, content="unsupported content"))
            return
        known = digest.as_map()
        records = []
        for agent, at, seq, _deleted in self._digest_entries():
            if agent == message.sender:
                continue
            have = known.get(agent)
            if have is not None and (at, seq) <= have:
                continue
            records.append(self._record_of(agent))
        delta = SyncDelta(tuple(records))
        result.cost_seconds += self.cost_model.broker_reasoning_seconds(
            self.repository.size_mb()
        )
        obs = self.observer
        if obs.enabled:
            obs.annotate(self.bus.now, message, "sync",
                         broker=self.name, digest_entries=len(digest.entries),
                         delta_records=len(records))
        result.send(
            message.reply(Performative.TELL, content=delta),
            size_bytes=max(
                delta.size_mb * 1_000_000, self.cost_model.control_message_bytes
            ),
        )

    def _sync_reply(
        self,
        peer: str,
        started: float,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if (
            reply is None
            or reply.performative is not Performative.TELL
            or not isinstance(reply.content, SyncDelta)
        ):
            if reply is None:
                self._record_peer_failure(peer, result)
            return
        self._record_peer_success(peer)
        pulled = 0
        for record in reply.content.records:
            if self._apply_record(record, journal=True):
                pulled += 1
        obs = self.observer
        if obs.enabled:
            now = self.bus.now
            obs.inc("broker.recovery.sync_pulled", pulled, broker=self.name)
            obs.region(self.name, "anti-entropy", started, now,
                       peer=peer, pulled=pulled)
            if self._crashed_at is not None:
                obs.observe("broker.recovery.time", now - started, path="sync")
        self._crashed_at = None

    def _apply_record(self, record: JournalRecord, journal: bool) -> bool:
        """Apply one replicated record to the repository if it is newer
        than what we hold (last-writer-wins); True when it changed state.

        Records about ourselves never apply — a broker is the authority
        on its own advertisement."""
        if record.agent == self.name:
            return False
        current = self._lww_key(record.agent)
        if current is not None and record.lww_key <= current:
            return False
        if record.deleted:
            self.repository.unadvertise(record.agent)
            self._tombstones[record.agent] = record.lww_key
        else:
            self.repository.advertise(record.ad)
            self._tombstones.pop(record.agent, None)
            if record.ad.is_broker() and record.agent not in self.peer_brokers:
                self.peer_brokers.append(record.agent)
        if journal and self.journal is not None:
            self.journal.append(record)
        return True

    def _accept(self, ad: Advertisement) -> None:
        """Store an accepted advertisement (it supersedes any tombstone)
        and journal it."""
        self.repository.advertise(ad)
        self._tombstones.pop(ad.agent_name, None)
        if self.journal is not None:
            self.journal.record_advertise(ad)

    def _withdraw(self, agent_name: str, now: float) -> bool:
        """Remove *agent_name*'s advertisement and leave a tombstone: it
        supersedes the removed advertisement (removal time is now,
        sequence one past the advertisement's) so peers learn of the
        removal through anti-entropy.  True when one was stored."""
        ad = self.repository.find(agent_name)
        if ad is None:
            return False
        self.repository.unadvertise(agent_name)
        self._tombstones[agent_name] = (now, ad.seq + 1)
        if self.journal is not None:
            self.journal.record_unadvertise(agent_name, ad.seq + 1, now)
        return True

    def _lww_key(self, agent: str) -> Optional[Tuple[float, int]]:
        """The ``(at, seq)`` of what we hold for *agent* — its stored
        advertisement or its tombstone — or None."""
        ad = self.repository.find(agent)
        if ad is not None:
            return (ad.advertised_at, ad.seq)
        return self._tombstones.get(agent)

    def _digest_entries(self) -> List[Tuple[str, float, int, bool]]:
        """One ``(agent, at, seq, deleted)`` per advertiser we hold a
        stored advertisement or a tombstone for, in name order."""
        repository = self.repository
        entries = [
            (ad.agent_name, ad.advertised_at, ad.seq, False)
            for ads in (repository.agent_ads(), repository.broker_ads())
            for ad in ads
        ]
        entries.extend(
            (agent, at, seq, True) for agent, (at, seq) in self._tombstones.items()
        )
        entries.sort()
        return entries

    def _record_of(self, agent: str) -> JournalRecord:
        """The replication record of *agent*, which we hold."""
        ad = self.repository.find(agent)
        if ad is not None:
            return JournalRecord(op=OP_ADVERTISE, agent=agent, seq=ad.seq,
                                 at=ad.advertised_at, ad=ad)
        at, seq = self._tombstones[agent]
        return JournalRecord(op=OP_UNADVERTISE, agent=agent, seq=seq, at=at)

    @property
    def _replication(self) -> Dict[str, JournalRecord]:
        """Read-only view of the replication state: the newest record
        per advertiser, in name order, derived from the repository and
        the tombstones."""
        return {agent: self._record_of(agent)
                for agent, _at, _seq, _deleted in self._digest_entries()}

    def _pull_directory(self, result: HandlerResult, now: float) -> None:
        """Section 4.1: "The new broker may also query the other brokers it
        has advertised to for their lists of broker advertisements ... so
        that it can select and pull interesting advertisements into its
        own repository."  We pull the peers' broker directories."""
        for peer in self.peer_brokers:
            request = RecommendRequest(
                query=BrokerQuery(agent_type="broker"),
                policy=SearchPolicy(hop_count=0),
            )
            message = KqmlMessage(
                Performative.RECOMMEND_ALL,
                sender=self.name,
                receiver=peer,
                content=request,
                ontology="service",
                reply_with=f"{self.name}-pull-{peer}-{now}",
                extras={"directory": True},
            )
            self.ask(
                message,
                lambda reply, res: self._directory_received(reply, res),
                result,
            )

    def _directory_received(
        self, reply: Optional[KqmlMessage], result: HandlerResult
    ) -> None:
        if reply is None or reply.performative is not Performative.TELL:
            return
        for match in reply.content:
            ad = match.advertisement
            if ad.is_broker() and ad.agent_name != self.name:
                if not self.repository.knows(ad.agent_name):
                    self._accept(ad)
                    if ad.agent_name not in self.peer_brokers:
                        self.peer_brokers.append(ad.agent_name)

    # ------------------------------------------------------------------
    # advertisement lifecycle
    # ------------------------------------------------------------------
    def on_advertise(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        ad = message.content
        if not isinstance(ad, Advertisement):
            result.send(message.reply(Performative.SORRY, content="malformed advertisement"))
            return
        result.cost_seconds += self.cost_model.base_handling_seconds

        if self._accepts(ad):
            self._accept(ad.renewed(now))
            self.observer.inc("broker.advertise.count", outcome="accepted")
            result.send(
                message.reply(Performative.TELL, content="accepted",
                              **{"accepted-by": self.name})
            )
            return

        self.rejected_advertisements += 1
        target = self._better_home_for(ad)
        if target is None:
            self.observer.inc("broker.advertise.count", outcome="rejected")
            result.send(message.reply(Performative.SORRY, content="outside specialty"))
            return
        self.observer.inc("broker.advertise.count", outcome="forwarded")
        # Forward the advertisement to a better-suited peer and relay the
        # outcome back to the advertiser (Section 4.1).
        forwarded = KqmlMessage(
            Performative.ADVERTISE,
            sender=self.name,
            receiver=target,
            content=ad,
            ontology="service",
            reply_with=f"{self.name}-fwdadv-{ad.agent_name}-{now}",
        )
        self.ask(
            forwarded,
            lambda reply, res: self._relay_advert_outcome(message, target, reply, res),
            result,
            size_bytes=ad.size_mb * 1_000_000,
        )

    def _accepts(self, ad: Advertisement) -> bool:
        if ad.is_broker():
            return True  # broker ads are always kept: they drive pruning
        if not self.accept_only_specialty or not self.specializations:
            return True
        return ad.description.content.ontology_name in self.specializations

    def _better_home_for(self, ad: Advertisement) -> Optional[str]:
        wanted = ad.description.content.ontology_name
        for broker_ad in self.repository.broker_ads():
            extensions = broker_ad.description.broker
            if extensions and wanted in extensions.specializations:
                return broker_ad.agent_name
        return None

    def _relay_advert_outcome(
        self,
        original: KqmlMessage,
        target: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if reply is not None and reply.performative is Performative.TELL:
            accepted_by = reply.extra("accepted-by", target)
            result.send(
                original.reply(Performative.TELL, content="accepted",
                               **{"accepted-by": accepted_by})
            )
        else:
            result.send(original.reply(Performative.SORRY, content="no broker accepted"))

    def on_unadvertise(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        removed = self._withdraw(str(message.content), now)
        if removed:
            self.observer.inc("broker.unadvertise.count")
        if message.expects_reply() or message.reply_with:
            performative = Performative.TELL if removed else Performative.SORRY
            result.send(message.reply(performative, content=removed))

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def on_ping(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        """An agent asks whether we still hold its advertisement."""
        result.send(
            message.reply(Performative.PONG, content=self.repository.knows(str(message.content)))
        )

    def on_custom_timer(self, token: object, result: HandlerResult, now: float) -> None:
        if token == _AGENT_PING_TIMER:
            self._ping_advertised_agents(result, now)
            result.arm(self.agent_ping_interval, _AGENT_PING_TIMER, maintenance=True)
        elif token == _SYNC_TIMER:
            if self.sync_interval:
                self._sync_round(result, now)
                result.arm(self.sync_interval, _SYNC_TIMER, maintenance=True)
        elif isinstance(token, tuple) and token and token[0] == "breaker-probe":
            if self.breaker_config is not None:
                self._probe_peer(token[1], result, now)

    def _ping_advertised_agents(self, result: HandlerResult, now: float) -> None:
        """Discover failed agents and purge them (Section 2.2)."""
        for agent_name in self.repository.agent_names():
            ping = KqmlMessage(
                Performative.PING,
                sender=self.name,
                receiver=agent_name,
                content=self.name,
                reply_with=f"{self.name}-agentping-{agent_name}-{now}",
            )
            self.ask(
                ping,
                lambda reply, res, agent=agent_name: self._agent_ping_outcome(agent, reply, res),
                result,
            )

    def _agent_ping_outcome(
        self, agent_name: str, reply: Optional[KqmlMessage], result: HandlerResult
    ) -> None:
        if reply is None:
            self._withdraw(agent_name, self.bus.now)

    # ------------------------------------------------------------------
    # matchmaking (recommend-all / recommend-one)
    # ------------------------------------------------------------------
    def on_recommend_all(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        self._recommend(message, result)

    def on_recommend_one(self, message: KqmlMessage, result: HandlerResult, now: float) -> None:
        self._recommend(message, result)

    def _shed_recommend(
        self, message: KqmlMessage, deadline: Optional[float],
        result: HandlerResult,
    ) -> bool:
        """Deadline and admission checks, run before any matcher work.
        True when the request was shed: expired work silently (the
        requester's timer already fired — nobody is listening), refused
        work with a transient ``sorry (:reason overload)``."""
        obs = self.observer
        if deadline is not None and self.bus.now > float(deadline):
            obs.inc("broker.admission.expired", broker=self.name)
            self._forget_request(message)
            return True
        adm = self.admission
        if adm is None:
            return False
        inflight = len(self._aggregations)
        depth = self.bus.queue_depth(self.name)
        if obs.wants_metrics:
            obs.gauge("broker.admission.inflight", float(inflight),
                      broker=self.name)
        if ((adm.max_inflight is not None and inflight >= adm.max_inflight)
                or (adm.max_queue_depth is not None
                    and depth >= adm.max_queue_depth)):
            obs.inc("broker.admission.shed", broker=self.name)
            if message.expects_reply():
                result.send(message.reply(
                    Performative.SORRY, content="overload", reason="overload",
                    **{"retry-after": adm.retry_after},
                ))
            # A shed is a refusal, not a result: erase the idempotent-
            # receive record so a retry re-executes instead of replaying
            # the cached sorry forever.
            self._forget_request(message)
            return True
        return False

    def _brownout_consortium(self) -> bool:
        """True when load sits above the brownout thresholds: recommends
        are still answered, but from the local repository only."""
        adm = self.admission
        if adm is None or (adm.brownout_inflight is None
                           and adm.brownout_queue_depth is None):
            return False
        inflight = len(self._aggregations)
        if adm.brownout_inflight is not None and inflight >= adm.brownout_inflight:
            return True
        return (adm.brownout_queue_depth is not None
                and self.bus.queue_depth(self.name) >= adm.brownout_queue_depth)

    def _recommend(self, message: KqmlMessage, result: HandlerResult) -> None:
        request = message.content
        if not isinstance(request, RecommendRequest):
            result.send(message.reply(Performative.SORRY, content="malformed broker query"))
            return

        directory = bool(message.extra("directory"))
        deadline = message.extra("x-deadline")
        if not directory and self._shed_recommend(message, deadline, result):
            return

        ontology = request.query.ontology_name or "(none)"
        self.query_ontology_counts[ontology] = (
            self.query_ontology_counts.get(ontology, 0) + 1
        )

        obs = self.observer
        wall_start = _time.perf_counter() if obs.enabled else 0.0
        # Hop-graph identity: reuse the inbound :x-trace-id (we are an
        # inner hop of someone else's search) or mint one (we are the
        # originating broker).  Every forward/probe re-keys :reply-with,
        # so this is the only thread stitching the hops back together.
        trace_id = message.extra("x-trace-id")
        if trace_id is None:
            trace_id = f"xq-{message.reply_with or f'{self.name}-{self.bus.now}'}"
        if directory:
            # A peer broker pulling our broker directory (Section 4.1).
            local = self.repository.query_brokers(request.query)
        else:
            trail: Optional[QueryExplanation] = None
            if self.flight_recorder is not None:
                # Evaluate this query in explain mode: hang a throwaway
                # sink on the (shared) match context for the duration of
                # the repository call.  Single-threaded and synchronous,
                # so save/restore is safe even with a shared context.
                sink = ExplainSink()
                context = self.repository.context
                previous_sink = context.explain_sink
                context.explain_sink = sink
                try:
                    local = self.repository.query(request.query, observer=obs)
                finally:
                    context.explain_sink = previous_sink
                trail = sink.queries[0] if sink.queries else None
            else:
                local = self.repository.query(request.query, observer=obs)
            if message.reply_with and (obs.enabled or self.flight_recorder is not None):
                self._inflight[message.reply_with] = _RecommendForensics(
                    started=self.bus.now,
                    trace_id=trace_id,
                    trail=trail,
                    local_count=len(local),
                    ads_considered=self.repository.agent_count,
                )
        result.cost_seconds += self.cost_model.broker_reasoning_seconds(
            self.repository.size_mb()
        )

        policy = request.policy.capped(self.max_hop_count)
        done_early = (
            policy.follow is FollowOption.UNTIL_MATCH and local
        ) or not policy.may_forward()
        targets = [] if done_early else self._forward_targets(request)
        # Brownout: under sustained pressure the consortium fan-out —
        # the bulk of the per-query work — is shed; the local answer
        # still goes out, annotated so requesters know it is partial.
        shed_consortium = False
        if targets and not directory and self._brownout_consortium():
            shed_consortium = True
            targets = []
            obs.inc("broker.admission.brownout", broker=self.name)
        # Degraded mode: skip peers behind an open circuit breaker and
        # annotate the eventual reply instead of silently thinning it.
        skipped: List[str] = []
        if self.breaker_config is not None and targets:
            reachable = []
            for target in targets:
                if self._breaker(target).allows():
                    reachable.append(target)
                else:
                    skipped.append(target)
            targets = reachable

        if obs.enabled:
            obs.observe("broker.recommend.latency",
                        _time.perf_counter() - wall_start)
            obs.inc("broker.recommend.count", broker=self.name)
            obs.observe("broker.recommend.local_matches", float(len(local)))
            obs.observe("broker.recommend.visited", float(len(request.visited)))
            obs.observe("broker.recommend.hops_remaining",
                        float(policy.hop_count))
            if targets:
                obs.inc("broker.forward.count", float(len(targets)))
                obs.observe("broker.forward.fanout", float(len(targets)))
            obs.annotate(
                self.bus.now, message, "recommend",
                broker=self.name, ontology=ontology, trace_id=trace_id,
                local_matches=len(local), forward_targets=len(targets),
                visited=len(request.visited), hops_remaining=policy.hop_count,
                skipped=sorted(skipped),
            )

        if not targets:
            self._reply_matches(message, {m.agent_name: m for m in local}, result,
                                partial=skipped,
                                shed=("consortium",) if shed_consortium else ())
            return

        if (
            policy.follow is FollowOption.UNTIL_MATCH
            and self.sequential_until_match
        ):
            # "as many repositories as are needed to find a single match":
            # probe peers one at a time, stopping at the first hit.
            self._probe_next(message, request, policy, list(targets), result)
            return

        aggregation = _Aggregation(
            original=message,
            matches={m.agent_name: m for m in local},
            outstanding=len(targets),
            unreachable=list(skipped),
        )
        # Registered for the admission controller's in-flight count (and
        # forensics); popped by _collect when the last peer settles.
        self._aggregations[message.reply_with or str(id(aggregation))] = (
            aggregation
        )
        visited = request.visited | {self.name} | set(targets)
        forwarded_request = RecommendRequest(
            query=request.query, policy=policy.next_hop(), visited=visited
        )
        forward_extras = {"x-trace-id": trace_id}
        if deadline is not None:
            # Propagate the requester's remaining budget: downstream
            # hops shed the forward once it can no longer be answered.
            forward_extras["x-deadline"] = deadline
        for target in targets:
            forward = KqmlMessage(
                message.performative,
                sender=self.name,
                receiver=target,
                content=forwarded_request,
                ontology="service",
                reply_with=f"{self.name}-fwd-{target}-{message.reply_with}",
                extras=forward_extras,
            )
            self.ask(
                forward,
                lambda reply, res, agg=aggregation, peer=target:
                    self._collect(agg, peer, reply, res),
                result,
            )

    # ------------------------------------------------------------------
    # sequential until-match probing (Section 4.3)
    # ------------------------------------------------------------------
    def _probe_next(
        self,
        message: KqmlMessage,
        request: RecommendRequest,
        policy: SearchPolicy,
        remaining: List[str],
        result: HandlerResult,
    ) -> None:
        skipped: List[str] = []
        if self.breaker_config is not None:
            while remaining and not self._breaker(remaining[0]).allows():
                skipped.append(remaining[0])
                remaining = remaining[1:]
        if not remaining:
            self._reply_matches(message, {}, result, partial=skipped)
            return
        target = remaining[0]
        forwarded = RecommendRequest(
            query=request.query,
            policy=policy.next_hop(),
            visited=request.visited | {self.name, target},
        )
        info = self._inflight.get(message.reply_with) if message.reply_with else None
        probe_extras: Dict[str, object] = {}
        if info is not None:
            probe_extras["x-trace-id"] = info.trace_id
        deadline = message.extra("x-deadline")
        if deadline is not None:
            probe_extras["x-deadline"] = deadline
        probe = KqmlMessage(
            message.performative,
            sender=self.name,
            receiver=target,
            content=forwarded,
            ontology="service",
            reply_with=f"{self.name}-probe-{target}-{message.reply_with}",
            extras=probe_extras,
        )
        self.ask(
            probe,
            lambda reply, res, peer=target: self._probe_outcome(
                message, request, policy, peer, remaining[1:], reply, res
            ),
            result,
        )

    def _probe_outcome(
        self,
        message: KqmlMessage,
        request: RecommendRequest,
        policy: SearchPolicy,
        peer: str,
        remaining: List[str],
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        hit = (
            reply is not None
            and reply.performative is Performative.TELL
            and bool(reply.content)
        )
        if reply is None:
            self._record_peer_failure(peer, result)
        else:
            self._record_peer_success(peer)
        self.observer.inc("broker.probe.count", outcome="hit" if hit else "miss")
        if hit:
            info = self._inflight.get(message.reply_with) \
                if message.reply_with else None
            if info is not None:
                info.received += len(reply.content)
            self._reply_matches(
                message, {m.agent_name: m for m in reply.content}, result
            )
            return
        self._probe_next(message, request, policy, remaining, result)

    def _forward_targets(self, request: RecommendRequest) -> List[str]:
        """Peer brokers to consult: known peers minus already-visited,
        optionally pruned by advertised specializations."""
        known = set(self.peer_brokers) | set(self.repository.broker_names())
        candidates = sorted(known - set(request.visited) - {self.name})
        if not self.prune_peers_by_specialty:
            return candidates
        ontology = request.query.ontology_name
        if ontology is None:
            return candidates
        pruned = []
        for peer in candidates:
            extensions = self._peer_extensions(peer)
            if extensions is None or not extensions.specializations:
                pruned.append(peer)  # unknown or generalist: must ask
            elif ontology in extensions.specializations:
                pruned.append(peer)
        return pruned

    def _peer_extensions(self, peer: str) -> Optional[BrokerExtensions]:
        if not self.repository.knows(peer):
            return None
        return self.repository.get(peer).description.broker

    def _collect(
        self,
        aggregation: _Aggregation,
        peer: str,
        reply: Optional[KqmlMessage],
        result: HandlerResult,
    ) -> None:
        if reply is not None and reply.performative is Performative.TELL:
            self._record_peer_success(peer)
            info = self._inflight.get(aggregation.original.reply_with or "")
            if info is not None:
                info.received += len(reply.content)
            for match in reply.content:
                existing = aggregation.matches.get(match.agent_name)
                if existing is None or match.score > existing.score:
                    aggregation.matches[match.agent_name] = match
        else:
            aggregation.unreachable.append(peer)
            self._record_peer_failure(peer, result)
        aggregation.outstanding -= 1
        if aggregation.outstanding == 0:
            self._aggregations.pop(
                aggregation.original.reply_with or str(id(aggregation)), None
            )
            self._reply_matches(aggregation.original, aggregation.matches, result,
                                partial=aggregation.unreachable)

    # ------------------------------------------------------------------
    # per-peer circuit breakers
    # ------------------------------------------------------------------
    def _breaker(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = self._breakers[peer] = CircuitBreaker(self.breaker_config)
        return breaker

    def _record_peer_success(self, peer: str) -> None:
        if self.breaker_config is None:
            return
        self._breaker(peer).record_success()

    def _record_peer_failure(self, peer: str, result: HandlerResult) -> None:
        if self.breaker_config is None:
            return
        breaker = self._breaker(peer)
        if breaker.record_failure(self.bus.now):
            self.observer.inc("broker.breaker.open", broker=self.name, peer=peer)
            # Maintenance so an eternally-dead peer's probe cycle never
            # holds bus.run() open.
            result.arm(self.breaker_config.cooldown,
                       ("breaker-probe", peer), maintenance=True)

    def _probe_peer(self, peer: str, result: HandlerResult, now: float) -> None:
        """Half-open probe: one ping decides whether the peer rejoins
        the forwarding set or waits out another cooldown."""
        breaker = self._breaker(peer)
        if breaker.state is not BreakerState.OPEN:
            return
        breaker.begin_probe()
        ping = KqmlMessage(
            Performative.PING,
            sender=self.name,
            receiver=peer,
            content=self.name,
            reply_with=f"{self.name}-breakerprobe-{peer}-{now}",
        )
        self.ask(
            ping,
            lambda reply, res, peer=peer: self._probe_ping_outcome(peer, reply, res),
            result,
            timeout=self.breaker_config.probe_timeout,
            attempts=1,
        )

    def _probe_ping_outcome(
        self, peer: str, reply: Optional[KqmlMessage], result: HandlerResult
    ) -> None:
        breaker = self._breaker(peer)
        if reply is not None and reply.performative is Performative.PONG:
            breaker.record_success()
            self.observer.inc("broker.breaker.close", broker=self.name, peer=peer)
        else:
            breaker.trip(self.bus.now)
            self.observer.inc("broker.breaker.open", broker=self.name, peer=peer)
            result.arm(self.breaker_config.cooldown,
                       ("breaker-probe", peer), maintenance=True)

    # ------------------------------------------------------------------
    # objective analysis (Section 4.1)
    # ------------------------------------------------------------------
    def suggest_specializations(self, min_share: float = 0.25) -> Tuple[str, ...]:
        """Ontologies accounting for at least *min_share* of the broker
        queries seen so far — candidates for this broker's objective.

        "A broker may also modify its objective based on, for instance,
        an analysis of the queries it is receiving."
        """
        total = sum(self.query_ontology_counts.values())
        if total == 0:
            return ()
        return tuple(
            sorted(
                name
                for name, count in self.query_ontology_counts.items()
                if name != "(none)" and count / total >= min_share
            )
        )

    def adopt_suggested_specializations(self, min_share: float = 0.25) -> Tuple[str, ...]:
        """Set this broker's specializations from its query history and
        return them (the adaptive-objective behaviour; peers learn of the
        change the next time this broker advertises itself)."""
        suggestion = self.suggest_specializations(min_share)
        if suggestion:
            self.specializations = suggestion
        return suggestion

    def _reply_matches(
        self,
        message: KqmlMessage,
        matches: Dict[str, Match],
        result: HandlerResult,
        partial: Sequence[str] = (),
        shed: Sequence[str] = (),
    ) -> None:
        union = len(matches)
        ranked = sorted(matches.values(), key=lambda m: (-m.score, m.agent_name))
        if message.performative is Performative.RECOMMEND_ONE:
            ranked = ranked[:1]
        extras: Dict[str, str] = {}
        unreachable = tuple(sorted(set(partial)))
        parts: List[str] = []
        if partial:
            # Degraded mode: name the consortium peers that could not
            # contribute instead of silently returning fewer matches.
            parts.append("unreachable:" + ",".join(unreachable))
        # Brownout: name what was deliberately skipped (same :partial
        # vocabulary, "shed:" prefix).
        parts.extend(f"shed:{item}" for item in shed)
        if parts:
            extras["partial"] = ";".join(parts)
        if matches and message.extra("x-equivalence") is not None:
            # Opt-in equivalence hint for resilient MRQ execution: matches
            # whose advertised content (ontology, classes, slots,
            # constraints) coincides are interchangeable providers, so the
            # requester can treat them as failover/hedge targets rather
            # than distinct fragments.  Computed over the full match union
            # even for recommend-one, and deterministic (sorted groups).
            groups: Dict[tuple, List[str]] = {}
            for m in matches.values():
                content = m.advertisement.description.content
                group_key = (
                    content.ontology_name,
                    tuple(sorted(content.classes)),
                    tuple(sorted(content.slots)),
                    content.constraints.cache_key(),
                )
                groups.setdefault(group_key, []).append(m.agent_name)
            extras["equivalence"] = "|".join(
                sorted(",".join(sorted(names)) for names in groups.values())
            )
        result.send(
            message.reply(Performative.TELL, content=ranked, **extras),
            size_bytes=max(
                len(ranked) * self.cost_model.broker_reply_bytes_per_match,
                self.cost_model.control_message_bytes,
            ),
        )
        info = self._inflight.pop(message.reply_with, None) \
            if message.reply_with else None
        if info is None:
            return
        status = ("partial" if (unreachable or shed)
                  else ("ok" if ranked else "empty"))
        obs = self.observer
        if obs.enabled:
            obs.annotate(
                self.bus.now, message, "recommend-reply",
                broker=self.name, trace_id=info.trace_id,
                returned=len(ranked), union=union,
                local_matches=info.local_count, peer_matches=info.received,
                deduped=max(0, info.local_count + info.received - union),
                unreachable=list(unreachable),
            )
        if self.flight_recorder is not None:
            self.flight_recorder.record(FlightEntry(
                broker=self.name,
                trace_id=info.trace_id,
                started=info.started,
                ended=self.bus.now,
                status=status,
                matches=union,
                unreachable=unreachable,
                local_matches=info.local_count,
                peer_matches=info.received,
                ads_considered=info.ads_considered,
                explanation=info.trail,
            ))
