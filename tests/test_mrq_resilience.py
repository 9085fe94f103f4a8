"""Resilient multi-source query execution (ISSUE 9).

Covers the MRQ's equivalence-set planner and failover/hedge executor,
the honest ``:partial`` annotations (an answer is never silently
incomplete), broker failover in ``_pick_broker``, the TTL on the
negative ontology-fetch cache, chaos honesty across seeds, and the
property that a ``None``/inactive resilience config leaves the message
trace byte-identical to the legacy fan-out.
"""

import hashlib
import re

import pytest

from repro import obs as obs_mod
from repro.agents import (
    AgentConfig,
    AgentError,
    BrokerAgent,
    CostModel,
    MessageBus,
    MultiResourceQueryAgent,
    OntologyAgent,
    ResourceAgent,
    UserAgent,
)
from repro.agents.base import Agent, HandlerResult
from repro.agents.broker import RecommendRequest
from repro.agents.faults import FaultPlan, LinkFaults
from repro.agents.mrq import (
    MrqResilienceConfig,
    ProviderHealth,
    _parse_equivalence,
)
from repro.constraints import parse_constraint
from repro.core.matcher import MatchContext
from repro.core.policy import FollowOption, SearchPolicy
from repro.core.query import BrokerQuery
from repro.kqml import KqmlMessage, Performative
from repro.obs.events import Observer
from repro.obs.metrics import MetricsObserver
from repro.ontology import demo_ontology
from repro.ontology.demo import hierarchy_ontology
from repro.relational import Table
from repro.relational.generate import generate_table


def fast_costs():
    return CostModel(
        broker_seconds_per_mb=0.01,
        resource_seconds_per_mb=0.01,
        base_handling_seconds=0.0001,
        latency_seconds=0.001,
        bandwidth_bytes_per_second=1e9,
    )


def counter_total(metrics, prefix):
    registry = metrics.registry
    return sum(
        counter.value
        for key, counter in registry._counters.items()
        if key == prefix or key.startswith(prefix + "{")
    )


class SlowResource(ResourceAgent):
    """A replica whose every answer costs extra virtual seconds."""

    service_seconds = 30.0

    def on_ask_all(self, message, result, now):
        result.cost_seconds += self.service_seconds
        super().on_ask_all(message, result, now)


def build_replicated(resilience=None, replicas=2, slow=(), shift_rows=False,
                     distinct_constraints=False, user_timeout=300.0):
    """One broker, one class C1, *replicas* copies on r1..rN.

    With ``shift_rows`` each replica holds distinct rows (the Figure 5
    same-shape-different-extent situation); otherwise the copies are
    identical, so the broker's equivalence hint groups them into one
    interchangeable provider set.  ``distinct_constraints`` makes each
    replica advertise its own key range, so the planner sees them as
    separate fragments rather than interchangeable providers."""
    onto = demo_ontology(1)
    context = MatchContext(ontologies={"demo": onto})
    bus = MessageBus(fast_costs())
    bus.register(BrokerAgent("broker1", context=context))
    base = generate_table(onto, "C1", 8, seed=3)
    cfg = AgentConfig(preferred_brokers=("broker1",), redundancy=1)
    names = []
    for index in range(replicas):
        name = f"r{index + 1}"
        names.append(name)
        if shift_rows and index:
            rows = [dict(r, c1_id=r["c1_id"] + 100 * index)
                    for r in base.rows()]
            table = Table("C1", base.schema, rows)
        else:
            table = base
        constraints = None
        if distinct_constraints:
            low = 100 * index
            constraints = parse_constraint(
                f"c1_id between {low} and {low + 99}")
        cls = SlowResource if name in slow else ResourceAgent
        bus.register(cls(name, {"C1": table}, "demo", config=cfg,
                         constraints=constraints))
    mrq = MultiResourceQueryAgent("mrq", "demo", ontology=onto, config=cfg,
                                  resilience=resilience)
    bus.register(mrq)
    user = UserAgent("alice", config=cfg, query_timeout=user_timeout)
    bus.register(user)
    bus.run_until(1.0)  # let everyone advertise
    return bus, user, mrq, names


# ----------------------------------------------------------------------
# config + health units
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_defaults_enable_failover_only(self):
        cfg = MrqResilienceConfig()
        assert cfg.failover and not cfg.hedge
        assert cfg.active

    def test_fully_disabled_is_inactive(self):
        assert not MrqResilienceConfig(failover=False, hedge=False).active

    @pytest.mark.parametrize("bad", (
        {"provider_timeout": 0.0},
        {"max_providers_per_fragment": 0},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"failure_penalty": 0.5},
        {"breaker_threshold": 0},
        {"breaker_cooldown_s": -1.0},
        {"hedge_delay_s": 0.0},
        {"hedge_quantile": 0.0},
        {"hedge_min_samples": 0},
    ))
    def test_validation(self, bad):
        with pytest.raises(AgentError):
            MrqResilienceConfig(**bad)


class TestProviderHealth:
    def test_fresh_provider_scores_initial_latency(self):
        cfg = MrqResilienceConfig()
        assert ProviderHealth().score(cfg, 0.0) == cfg.initial_latency_s

    def test_success_tracks_ewma(self):
        cfg = MrqResilienceConfig(ewma_alpha=0.5)
        health = ProviderHealth()
        health.record_success(4.0, cfg)
        assert health.ewma_latency_s == 4.0
        health.record_success(8.0, cfg)
        assert health.ewma_latency_s == pytest.approx(6.0)
        assert health.score(cfg, 0.0) == pytest.approx(6.0)

    def test_failures_inflate_score_and_open_breaker(self):
        cfg = MrqResilienceConfig(breaker_threshold=2,
                                  breaker_cooldown_s=100.0)
        health = ProviderHealth()
        health.record_failure("timeout", now=10.0, cfg=cfg)
        assert health.available(10.0)  # one strike: breaker still closed
        assert health.score(cfg, 10.0) > ProviderHealth().score(cfg, 10.0)
        health.record_failure("timeout", now=20.0, cfg=cfg)
        assert not health.available(20.0)
        assert health.available(120.0)  # cooldown elapsed: half-open
        assert health.last_failure_reason == "timeout"

    def test_success_resets_streak_and_breaker(self):
        cfg = MrqResilienceConfig(breaker_threshold=1)
        health = ProviderHealth()
        health.record_failure("sorry", now=0.0, cfg=cfg)
        assert not health.available(1.0)
        health.record_success(2.0, cfg)
        assert health.available(1.0)
        assert health.consecutive_failures == 0

    def test_retry_after_extends_breaker(self):
        # PR 8 pairing: an overload shed names its own cooldown, and the
        # health record honours it even below the failure threshold.
        cfg = MrqResilienceConfig(breaker_threshold=3)
        health = ProviderHealth()
        health.record_failure("sorry:overloaded", now=0.0, cfg=cfg,
                              retry_after=42.0)
        assert not health.available(41.0)
        assert health.available(42.0)
        health.record_failure("sorry", now=50.0, cfg=cfg,
                              retry_after="bogus")  # unparseable: ignored
        assert health.available(50.0)


class TestParseEquivalence:
    def test_groups(self):
        assert _parse_equivalence("a,b|c") == {"a": 0, "b": 0, "c": 1}

    @pytest.mark.parametrize("value", (None, "", 7, ("a",)))
    def test_non_hints_are_empty(self, value):
        assert _parse_equivalence(value) == {}


def test_cancel_ask_unknown_conversation_returns_false():
    _, _, mrq, _ = build_replicated()
    assert mrq.cancel_ask("no-such-reply-id") is False


# ----------------------------------------------------------------------
# the broker's equivalence hint (opt-in)
# ----------------------------------------------------------------------
class Probe(Agent):
    """Issues recommends outside any handler and records the replies."""

    agent_type = "probe"

    def __init__(self, name, **kw):
        super().__init__(name, **kw)
        self.replies = []

    def recommend(self, broker, extras=None):
        message = KqmlMessage(
            Performative.RECOMMEND_ALL, sender=self.name, receiver=broker,
            content=RecommendRequest(
                query=BrokerQuery(agent_type="resource",
                                  ontology_name="demo"),
                policy=SearchPolicy(hop_count=1, follow=FollowOption.ALL),
            ),
            extras=extras or {},
        )
        self.issue(message)

    def ask_sql(self, mrq, sql):
        self.issue(KqmlMessage(
            Performative.ASK_ALL, sender=self.name, receiver=mrq,
            content=sql, language="SQL 2.0"))

    def issue(self, message):
        result = HandlerResult()
        self.ask(message, lambda r, res: self.replies.append(r), result,
                 timeout=60.0)
        for msg, size in result.outbox:
            self.bus.send(msg, at=self.bus.now, size_bytes=size)
        for delay, token, maintenance in result.timers:
            self.bus.schedule_timer(self.name, self.bus.now + delay, token,
                                    maintenance)


class TestBrokerEquivalenceHint:
    def build_probe(self):
        bus, _, _, _ = build_replicated(replicas=2)
        probe = Probe("probe", config=AgentConfig(redundancy=0))
        bus.register(probe)
        return bus, probe

    def test_hint_absent_by_default(self):
        bus, probe = self.build_probe()
        probe.recommend("broker1")
        bus.run()
        reply = probe.replies[0]
        assert reply.performative is Performative.TELL
        assert reply.extra("equivalence") is None

    def test_hint_groups_identical_advertisements(self):
        bus, probe = self.build_probe()
        probe.recommend("broker1", extras={"x-equivalence": "1"})
        bus.run()
        reply = probe.replies[0]
        # r1 and r2 advertise the same ontology/classes/slots/constraints
        # (the MRQ advertises too, but under a different agent type, so
        # the resource-typed recommend never sees it).
        assert reply.extra("equivalence") == "r1,r2"


# ----------------------------------------------------------------------
# S1: honest partial answers in the legacy fan-out
# ----------------------------------------------------------------------
class TestHonestPartialLegacy:
    def test_lost_resource_flags_partial_with_detail(self):
        bus, user, _, _ = build_replicated(shift_rows=True)
        bus.set_offline("r2", True)
        user.submit("select * from C1")
        bus.run()
        done = user.completed[0]
        assert done.succeeded, done.error
        assert done.result.row_count == 8  # only r1's extent survived
        # The regression: this answer used to masquerade as complete.
        assert not done.complete
        assert done.partial == "missing:r2"
        detail = done.partial_detail
        assert isinstance(detail, dict)
        assert detail["class"] == "C1"
        failed = list(detail["failed"])
        assert len(failed) == 1
        assert failed[0]["provider"] == "r2"
        assert failed[0]["reason"] == "timeout"

    def test_all_failed_sorry_carries_detail(self):
        bus, user, _, _ = build_replicated(shift_rows=True)
        bus.set_offline("r1", True)
        bus.set_offline("r2", True)
        user.submit("select * from C1")
        bus.run()
        done = user.completed[0]
        assert not done.succeeded
        detail = done.partial_detail
        assert isinstance(detail, dict)
        assert {entry["provider"] for entry in detail["failed"]} == {"r1", "r2"}
        assert detail["missing-fragments"]

    def test_complete_answer_is_not_flagged(self):
        bus, user, _, _ = build_replicated(shift_rows=True)
        user.submit("select * from C1")
        bus.run()
        done = user.completed[0]
        assert done.complete
        assert done.result.row_count == 16
        assert done.partial is None and done.partial_detail is None


# ----------------------------------------------------------------------
# the tentpole: failover + hedging over equivalence sets
# ----------------------------------------------------------------------
class TestFailover:
    def test_failover_rescues_fragment_from_dead_replica(self):
        metrics = MetricsObserver()
        with obs_mod.installed(metrics):
            bus, user, mrq, _ = build_replicated(
                resilience=MrqResilienceConfig(provider_timeout=10.0))
            # Make r1 the clear first choice, then kill it: the fragment
            # must fail over to its equivalent sibling and still come
            # back *complete* (no :partial) because the broker vouched
            # the replicas are interchangeable.
            mrq.provider_health["r2"] = ProviderHealth(ewma_latency_s=50.0)
            bus.set_offline("r1", True)
            user.submit("select * from C1")
            bus.run()
        done = user.completed[0]
        assert done.complete, (done.error, done.partial)
        assert done.result.row_count == 8
        assert counter_total(metrics, "mrq.failover.count") >= 1
        health = mrq.provider_health["r1"]
        assert health.consecutive_failures >= 1
        assert health.last_failure_reason == "timeout"

    def test_exhausted_equivalence_set_ships_honest_partial(self):
        metrics = MetricsObserver()
        with obs_mod.installed(metrics):
            bus, user, _, _ = build_replicated(
                resilience=MrqResilienceConfig(provider_timeout=10.0),
                shift_rows=True, distinct_constraints=True)
            # Distinct advertised key ranges => two fragments; r2's has
            # no interchangeable sibling to fail over to.
            bus.set_offline("r2", True)
            user.submit("select * from C1")
            bus.run()
        done = user.completed[0]
        assert done.succeeded
        assert done.result.row_count == 8
        assert not done.complete
        assert done.partial is not None and done.partial.startswith("missing:")
        detail = done.partial_detail
        assert detail["missing-fragments"]
        assert any(entry["provider"] == "r2" for entry in detail["failed"])
        assert counter_total(metrics, "mrq.fragment.exhausted") >= 1

    def test_overload_shed_retry_after_opens_breaker(self):
        bus, user, mrq, _ = build_replicated(
            resilience=MrqResilienceConfig(provider_timeout=10.0))
        reply = KqmlMessage(Performative.SORRY, sender="r1", receiver="mrq",
                            content="overloaded",
                            extras={"retry-after": 90.0})
        now = bus.now
        mrq.provider_health["r1"] = ProviderHealth()
        mrq.provider_health["r1"].record_failure(
            "sorry:overloaded", now, mrq.resilience,
            retry_after=reply.extra("retry-after"))
        assert not mrq.provider_health["r1"].available(now + 89.0)

    def test_health_persists_across_queries(self):
        metrics = MetricsObserver()
        with obs_mod.installed(metrics):
            bus, user, mrq, _ = build_replicated(
                resilience=MrqResilienceConfig(provider_timeout=10.0))
            mrq.provider_health["r2"] = ProviderHealth(ewma_latency_s=50.0)
            bus.set_offline("r1", True)
            user.submit("select * from C1")
            bus.run()
            first_failover = counter_total(metrics, "mrq.failover.count")
            assert first_failover >= 1
            # Second query: r1's failure streak now ranks it behind r2,
            # so the MRQ goes straight to the live replica — no new
            # failover, answered at r2's speed.
            user.submit("select * from C1")
            bus.run()
        assert len(user.completed) == 2
        second = user.completed[1]
        assert second.complete
        assert counter_total(metrics, "mrq.failover.count") == first_failover
        assert second.response_time < user.completed[0].response_time


class TestHedging:
    def build(self):
        metrics = MetricsObserver()
        with obs_mod.installed(metrics):
            bus, user, mrq, _ = build_replicated(
                resilience=MrqResilienceConfig(
                    hedge=True, hedge_delay_s=2.0, provider_timeout=120.0),
                slow=("r1",))
            # The slow replica looks best on paper; the hedge is what
            # saves the query from its 30s service time.
            mrq.provider_health["r2"] = ProviderHealth(ewma_latency_s=20.0)
            user.submit("select * from C1")
            bus.run()
        return metrics, user

    def test_hedge_first_reply_wins(self):
        metrics, user = self.build()
        assert len(user.completed) == 1
        done = user.completed[0]
        assert done.complete, (done.error, done.partial)
        assert done.result.row_count == 8  # deduplicated: one winner only
        # Hedge fired, the runner-up won, and the straggler's copy was
        # cancelled (its eventual reply is dropped at the routing layer).
        assert counter_total(metrics, "mrq.hedge.count") >= 1
        assert counter_total(metrics, "mrq.hedge.win") >= 1
        assert counter_total(metrics, "mrq.hedge.cancelled") >= 1
        # Answered at hedge speed, far below the 30s straggler.
        assert done.response_time < 10.0


# ----------------------------------------------------------------------
# S2: broker failover
# ----------------------------------------------------------------------
class TestBrokerFailover:
    def test_mrq_fails_over_to_next_broker(self):
        onto = demo_ontology(1)
        context = MatchContext(ontologies={"demo": onto})
        metrics = MetricsObserver()
        with obs_mod.installed(metrics):
            bus = MessageBus(fast_costs())
            brokers = ("broker1", "broker2")
            for name in brokers:
                bus.register(BrokerAgent(
                    name, context=context,
                    peer_brokers=[b for b in brokers if b != name]))
            table = generate_table(onto, "C1", 8, seed=3)
            bus.register(ResourceAgent(
                "r1", {"C1": table}, "demo",
                config=AgentConfig(preferred_brokers=brokers, redundancy=2)))
            mrq = MultiResourceQueryAgent(
                "mrq", "demo", ontology=onto,
                config=AgentConfig(preferred_brokers=brokers, redundancy=2))
            bus.register(mrq)
            user = UserAgent(
                "alice", query_timeout=300.0,
                config=AgentConfig(preferred_brokers=("broker2",),
                                   redundancy=1))
            bus.register(user)
            bus.run_until(1.0)
            # The MRQ's primary broker dies *after* advertisement, so it
            # is still the first pick; the recommend must fail over to
            # broker2 instead of sorry-ing the whole query away.
            bus.set_offline("broker1", True)
            user.submit("select * from C1")
            bus.run()
        done = user.completed[0]
        assert done.complete, (done.error, done.partial)
        assert done.result.row_count == 8
        assert counter_total(metrics, "mrq.broker_failover.count") >= 1

    @pytest.mark.parametrize("offline, content, reason", [
        (True, "no broker reachable", "broker-unreachable"),
        (False, "no matching resources", None),
    ])
    def test_unreachable_broker_is_not_a_semantic_answer(
            self, offline, content, reason):
        """Regression: with its only broker dead the MRQ used to answer
        "no matching resources" — indistinguishable from what a live
        broker with nothing to recommend legitimately yields."""
        onto = demo_ontology(1)
        bus = MessageBus(fast_costs())
        bus.register(BrokerAgent(
            "broker1", context=MatchContext(ontologies={"demo": onto})))
        bus.register(MultiResourceQueryAgent(
            "mrq", "demo", ontology=onto,
            config=AgentConfig(preferred_brokers=("broker1",), redundancy=1,
                               reply_timeout=10.0)))  # < the probe's 60 s
        probe = Probe("probe", config=AgentConfig(redundancy=0))
        bus.register(probe)
        bus.run_until(1.0)
        bus.set_offline("broker1", offline)
        probe.ask_sql("mrq", "select * from C1")
        bus.run()
        reply = probe.replies[0]
        assert reply.performative is Performative.SORRY
        assert reply.content == content
        assert reply.extra("reason") == reason


# ----------------------------------------------------------------------
# S3: the negative ontology-fetch cache expires
# ----------------------------------------------------------------------
class TestOntologyFetchTtl:
    def test_failed_fetch_is_retried_after_ttl(self):
        onto_a = demo_ontology(1)
        onto_h = hierarchy_ontology(depth=2, fanout=2)
        context = MatchContext(ontologies={"demo": onto_a,
                                           "hierarchy": onto_h})
        bus = MessageBus(fast_costs())
        bus.register(BrokerAgent("b1", context=context))
        cfg = AgentConfig(preferred_brokers=("b1",), redundancy=1,
                          advertisement_size_mb=0.01)
        bus.register(OntologyAgent("onto-agent",
                                   {"demo": onto_a, "hierarchy": onto_h},
                                   config=AgentConfig(redundancy=0)))
        h1 = generate_table(onto_h, "H1", 4, seed=1)
        bus.register(ResourceAgent("RH", {"H1": h1}, "hierarchy", config=cfg))
        mrq = MultiResourceQueryAgent(
            "mrq", "demo", ontology=onto_a, config=cfg,
            ontology_agent="onto-agent", ontology_retry_interval=120.0)
        bus.register(mrq)
        user = UserAgent("user", config=cfg, query_timeout=300.0)
        bus.register(user)
        bus.run_until(1.0)

        # The ontology agent is down for the first query only: the fetch
        # times out at ~62s and the failure is cached until ~182s.
        bus.set_offline("onto-agent", True)
        bus.schedule_callback(65.0, lambda: bus.set_offline("onto-agent",
                                                            False))
        user.submit("select h_id from H", at=1.0)
        # Inside the TTL the cache still blocks: no refetch is attempted
        # even though the ontology agent is back.
        user.submit("select h_id from H", at=100.0)
        # Past the TTL the entry expires and the fetch finally lands.
        user.submit("select h_id from H", at=250.0)
        bus.run()

        assert len(user.completed) == 3
        assert not user.completed[0].succeeded
        assert not user.completed[1].succeeded
        done = user.completed[2]
        assert done.succeeded, done.error
        assert done.result.row_count == 4
        assert mrq.ontologies_fetched == 1
        assert "H" not in mrq._ontology_fetch_failed


# ----------------------------------------------------------------------
# S4: chaos honesty — completeness or a flagged partial, never silence
# ----------------------------------------------------------------------
class TestChaosHonesty:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_no_dishonest_answers_under_chaos(self, seed):
        from repro.experiments.robustness import mrq_resilience_run

        baseline = mrq_resilience_run(protected=False, queries=8,
                                      interval=40.0, seed=seed)
        protected = mrq_resilience_run(protected=True, queries=8,
                                       interval=40.0, seed=seed)
        for row in (baseline, protected):
            # The invariant under loss + partition + churn: every
            # incomplete answer carries machine-readable :partial detail.
            assert row["dishonest"] == 0, row
            assert row["incomplete"] == row["incomplete_flagged"], row
        assert protected["complete"] >= baseline["complete"]


# ----------------------------------------------------------------------
# byte-identity of defaults (the opt-in property)
# ----------------------------------------------------------------------
_GLOBAL_ID = re.compile(r"\bid\d+\b")


class _TraceObserver(Observer):
    """Records every sent/delivered message as a comparable tuple.

    KQML reply ids come from a process-global counter, so two runs in
    one process mint different ``idN`` strings even when the flows are
    identical.  Ids are interned in order of first appearance, which
    still detects any reordering, addition, or loss of messages."""

    enabled = True

    def __init__(self):
        self.events = []
        self._ids = {}

    def _canon(self, value):
        if not isinstance(value, str):
            return value
        return _GLOBAL_ID.sub(
            lambda m: self._ids.setdefault(m.group(0),
                                           f"id#{len(self._ids)}"),
            value,
        )

    def _key(self, kind, time, message):
        extras = tuple((k, self._canon(v)) for k, v in message.extras)
        return (kind, time, message.sender, message.receiver,
                message.performative.value, self._canon(message.reply_with),
                self._canon(message.in_reply_to), extras)

    def message_sent(self, time, message, size_bytes, cause=None):
        self.events.append(self._key("sent", time, message))

    def message_delivered(self, time, message, waited, size_bytes,
                          duplicate=False):
        self.events.append(self._key("delivered", time, message))


def _traced_community(seed, resilience, loss):
    tracer = _TraceObserver()
    with obs_mod.installed(tracer):
        bus, user, _, names = build_replicated(resilience=resilience,
                                               shift_rows=True)
        if loss:
            links = {}
            for name in names:
                links[("mrq", name)] = LinkFaults(loss=loss)
                links[(name, "mrq")] = LinkFaults(loss=loss)
            bus.install_faults(FaultPlan(seed=seed, links=links))
        for q in range(4):
            user.submit("select * from C1", at=1.0 + 5.0 * q)
        bus.run()
    return tracer, bus, user


def _traced_run(seed, resilience, loss=0.0):
    tracer, bus, _user = _traced_community(seed, resilience, loss)
    return tracer.events, bus.now


def _sha256(items):
    sha = hashlib.sha256()
    for item in items:
        sha.update(repr(item).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _reply_digest(completed):
    """sha256 over what every finished query got back: outcome, error,
    result columns, rows in order (with their key order), and the
    ``:partial`` annotation with its detail."""
    return _sha256(
        (done.succeeded, done.error,
         done.result.columns if done.result is not None else None,
         done.result.rows if done.result is not None else None,
         done.partial, done.partial_detail)
        for done in completed
    )


class TestOptInByteIdentity:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_inactive_config_is_byte_identical(self, seed):
        """An installed-but-fully-disabled resilience config must leave
        the trace byte-identical to the ``None`` default — including the
        broker traffic (no ``x-equivalence`` extra), on clean and lossy
        links alike."""
        for loss in (0.0, 0.25):
            reference = _traced_run(seed, None, loss=loss)
            disabled = _traced_run(
                seed, MrqResilienceConfig(failover=False, hedge=False),
                loss=loss)
            assert disabled == reference, (seed, loss)

    #: (seed, loss) -> (sha256 of the ``None`` run's message events and
    #: final clock, sha256 of its replies), recorded on the flow before
    #: the fan-out became the planner's one-provider case.
    PINNED = {
        (0, 0.0): (
            "23305ecb6aa36c311d06d71caf1017e37ff86482d6e23f8b4294c7785c17c91f",
            "9379c04060a0294513cb71818f94e08b84d40b7c8516fa6575a77d9cb884fbfc"),
        (0, 0.25): (
            "0acf8417fce02b3375eb5c8423869c554373f74da7077fdf8906c60d87d5a514",
            "f55f30f993c507aa8d80f5b01e4959b43579c8d5666ae49be4387409ffd5048d"),
        (1, 0.0): (
            "23305ecb6aa36c311d06d71caf1017e37ff86482d6e23f8b4294c7785c17c91f",
            "9379c04060a0294513cb71818f94e08b84d40b7c8516fa6575a77d9cb884fbfc"),
        (1, 0.25): (
            "28a1780eba26008139bad3ac55c6b0d7be3004c196d37e28c8ee4fba1e6bc9fb",
            "a7aa07323aad72049a6e10e1371eafe5b35c0badbd08cbd999ad2af65e6b1924"),
        (2, 0.0): (
            "23305ecb6aa36c311d06d71caf1017e37ff86482d6e23f8b4294c7785c17c91f",
            "9379c04060a0294513cb71818f94e08b84d40b7c8516fa6575a77d9cb884fbfc"),
        (2, 0.25): (
            "107ae7a0cfbf6728872971354168b64380c965613e02c4f0bfdd68c256c4d227",
            "72e8b0c387cd1cbb5f11b12cbc21897b9066d30cb5970cfc9473333ee61521b7"),
    }

    @pytest.mark.parametrize("seed, loss", sorted(PINNED))
    def test_paper_path_matches_pinned_digests(self, seed, loss):
        """The ``None`` default's messages and replies, pinned: the two
        sides above share one executor, so only a recorded digest can
        tell a change in the paper's flow apart."""
        tracer, bus, user = _traced_community(seed, None, loss)
        events, replies = self.PINNED[seed, loss]
        assert _sha256([*tracer.events, bus.now]) == events
        assert _reply_digest(user.completed) == replies

    def test_golden_mrq_community_replies_are_pinned(self, monkeypatch):
        """The replies of the Table-2 experiment-5 community whose
        delivery sequence ``test_golden_delivery`` pins."""
        from tests import test_golden_delivery as golden

        real, built = golden.build_experiment_community, []

        def build(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(golden, "build_experiment_community", build)
        golden.mrq_community(False)
        (community,) = built
        completed = [done for stream in sorted(community.users)
                     for done in community.users[stream].completed]
        assert len(completed) == 12
        assert _reply_digest(completed) == (
            "5bff4e14ad8398e6474cb776ae6816ecb5c5ccd5f59e4b24b1c1045478087a39")
