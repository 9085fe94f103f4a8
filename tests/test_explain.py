"""Explainable matchmaking and cross-broker query forensics.

Covers the explain tentpole end to end:

* per-advertisement verdicts with machine-readable reject reasons, in
  the canonical filter order, from the direct matcher;
* accepted verdicts carrying a score breakdown that sums to the score;
* the slow-query flight recorder's keep-worst retention;
* hop-graph reconstruction from traced ``:x-trace-id`` spans, under
  both follow policies and with dead / breaker-skipped peers;
* the ``python -m repro explain`` CLI and the simulator knob.
"""

import json

import pytest

from repro import obs
from repro.agents import (
    AgentConfig,
    BreakerConfig,
    BrokerAgent,
    MessageBus,
    ResourceAgent,
)
from repro.constraints import parse_constraint
from repro.core import BrokerQuery, BrokerRepository, MatchContext
from repro.core.matcher import MatchStats, match_advertisements
from repro.obs.explain import (
    REASON_AGENT_TYPE,
    REASON_CAPABILITY,
    REASON_CLASS,
    REASON_CONVERSATION,
    REASON_DISJOINT,
    REASON_LANGUAGE,
    REASON_MOBILITY,
    REASON_ONTOLOGY,
    REASON_RESPONSE_TIME,
    REASON_SLOT,
    ExplainSink,
    FlightEntry,
    FlightRecorder,
    build_hop_graph,
    explain_report,
    trace_ids,
)
from repro.ontology import OntClass, Ontology, Slot
from tests.test_core_matcher import make_ad
from tests.test_matchmaking_equivalence import assert_explanations_agree
from tests.test_obs import build_chain_community, drive_recommend, fast_costs
from repro.core.policy import FollowOption
from repro.ontology import demo_ontology
from repro.relational.generate import generate_table


def small_context():
    onto = Ontology("demo")
    onto.add_class(OntClass("alpha", (Slot("age", "number"),
                                      Slot("city", "string"))))
    onto.add_class(OntClass("beta", (Slot("age", "number"),), parent="alpha"))
    onto.add_class(OntClass("gamma", (Slot("code", "string"),)))
    return MatchContext(ontologies={"demo": onto})


def base_ad(**overrides):
    settings = dict(
        agent_type="resource",
        content_languages=("SQL 2.0",),
        conversations=("ask-all",),
        functions=("select",),
        ontology="demo",
        classes=("alpha",),
        slots=("age", "city"),
        constraints="age between 20 and 60",
        mobile=False,
        response_time=None,
    )
    settings.update(overrides)
    return make_ad("ad", **settings)


def base_query(**overrides):
    settings = dict(
        agent_type="resource",
        content_language="SQL 2.0",
        conversations=("ask-all",),
        capabilities=("select",),
        ontology_name="demo",
        classes=("alpha",),
        slots=("age",),
        constraints=parse_constraint("age between 30 and 40"),
        allow_partial_slots=False,
    )
    settings.update(overrides)
    return BrokerQuery(**settings)


def sole_verdict(query, ad, context):
    sink = ExplainSink()
    match_advertisements(query, [ad], context, explain=sink)
    assert len(sink.queries) == 1
    trail = sink.queries[0]
    assert len(trail.verdicts) == 1
    return trail.verdicts[0]


class TestRejectReasons:
    """Each filter produces its reason (and detail) when it is the
    first to fail; the base pairing matches cleanly."""

    def test_base_pairing_accepts(self):
        context = small_context()
        verdict = sole_verdict(base_query(), base_ad(), context)
        assert verdict.accepted
        assert verdict.reason is None
        assert verdict.score is not None

    @pytest.mark.parametrize("query_overrides,reason,detail", [
        (dict(agent_type="query"), REASON_AGENT_TYPE, "query"),
        (dict(content_language="OQL"), REASON_LANGUAGE, "OQL"),
        (dict(conversations=("subscribe",)), REASON_CONVERSATION, "subscribe"),
        (dict(capabilities=("data-mining",)), REASON_CAPABILITY, "data-mining"),
        (dict(classes=("gamma",), slots=(), constraints=parse_constraint("")),
         REASON_CLASS, "gamma"),
        (dict(slots=("age", "code")), REASON_SLOT, "code"),
        (dict(constraints=parse_constraint("age between 70 and 90")),
         REASON_DISJOINT, "age"),
        (dict(require_mobile=True), REASON_MOBILITY, None),
        (dict(max_response_time=1.0), REASON_RESPONSE_TIME, None),
    ])
    def test_reject_reasons(self, query_overrides, reason, detail):
        context = small_context()
        ad = base_ad(response_time=60.0)
        verdict = sole_verdict(base_query(**query_overrides), ad, context)
        assert not verdict.accepted
        assert verdict.reason == reason
        assert verdict.detail == detail

    def test_ontology_mismatch_names_advertised_ontology(self):
        context = small_context()
        ad = base_ad(ontology="finance", classes=())
        verdict = sole_verdict(
            base_query(classes=(), slots=(), constraints=parse_constraint("")),
            ad, context
        )
        assert (verdict.reason, verdict.detail) == (REASON_ONTOLOGY, "finance")

    def test_first_failing_filter_wins(self):
        # Wrong type AND wrong language: the canonical order reports the
        # agent-type mismatch, matching the datalog probe order.
        context = small_context()
        verdict = sole_verdict(
            base_query(agent_type="query", content_language="OQL"),
            base_ad(), context,
        )
        assert verdict.reason == REASON_AGENT_TYPE

    def test_reject_counters_fold_into_match_stats(self):
        context = small_context()
        stats = MatchStats()
        query = base_query(constraints=parse_constraint("age between 70 and 90"))
        match_advertisements(query, [base_ad()], context, stats=stats)
        assert stats.rejects == {REASON_DISJOINT: 1}

    def test_disabled_explain_records_nothing(self):
        context = small_context()
        matches = match_advertisements(base_query(), [base_ad()], context)
        assert len(matches) == 1
        assert context.explain_sink is None


class TestScoreBreakdown:
    def test_breakdown_components_sum_to_score(self):
        context = small_context()
        for query in (
            base_query(),
            base_query(classes=("beta",)),
            base_query(capabilities=("query-processing",)),
        ):
            sink = ExplainSink()
            matches = match_advertisements(
                query, [base_ad(response_time=5.0)], context, explain=sink
            )
            if not matches:
                continue
            verdict = sink.queries[-1].verdicts[0]
            assert verdict.accepted and verdict.breakdown
            assert sum(verdict.breakdown.values()) == pytest.approx(verdict.score)
            assert verdict.score == pytest.approx(matches[0].score)


class TestRepositoryExplain:
    def test_explain_bypasses_cache_and_indexes(self):
        context = small_context()
        repo = BrokerRepository(context)
        repo.advertise(base_ad())
        repo.advertise(make_ad("other", agent_type="query"))
        query = base_query()
        repo.query(query)  # warm the match cache
        sink = ExplainSink()
        context.explain_sink = sink
        try:
            matches = repo.query(query)
        finally:
            context.explain_sink = None
        assert [m.agent_name for m in matches] == ["ad"]
        trail = sink.queries[0]
        assert trail.backend == "columnar"
        # every stored advertisement got a verdict, even posting casualties
        assert sorted(v.agent for v in trail.verdicts) == ["ad", "other"]
        assert trail.verdict_for("other").reason == REASON_AGENT_TYPE
        # ... which the scan function and the Datalog oracle both assign
        assert_explanations_agree(repo, query)

    def test_sink_limit_keeps_most_recent(self):
        context = small_context()
        repo = BrokerRepository(context)
        repo.advertise(base_ad())
        sink = ExplainSink(limit=3)
        context.explain_sink = sink
        try:
            for _ in range(5):
                repo.query(base_query())
        finally:
            context.explain_sink = None
        assert len(sink) == 3


class TestFlightRecorder:
    @staticmethod
    def entry(trace, status="ok", latency=1.0):
        return FlightEntry(broker="b1", trace_id=trace, started=0.0,
                           ended=latency, status=status, matches=1)

    def test_keep_worst_prefers_failures_then_slowest(self):
        recorder = FlightRecorder(capacity=2)
        recorder.record(self.entry("fast", latency=0.1))
        recorder.record(self.entry("slow", latency=9.0))
        recorder.record(self.entry("failed", status="partial", latency=0.2))
        recorder.record(self.entry("medium", latency=1.0))
        assert recorder.recorded == 4
        assert [e.trace_id for e in recorder.slowest()] == ["failed", "slow"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(0)

    def test_deduped_property(self):
        entry = FlightEntry(broker="b", trace_id="t", started=0.0, ended=1.0,
                            status="ok", matches=2, local_matches=2,
                            peer_matches=1)
        assert entry.deduped == 1
        assert entry.latency == 1.0


def drive_named(bus, name, broker="b1", follow=FollowOption.ALL, hops=1):
    """Like tests.test_obs.drive_recommend, but with a caller-chosen
    driver name (so one bus can issue several recommends) and a hop
    budget.  In a fully connected consortium a deeper search would only
    let an intermediate broker re-probe the dead peer and stack a
    second peer-timeout inside the first."""
    from repro.agents import UserAgent
    from repro.agents.broker import RecommendRequest
    from repro.core.policy import SearchPolicy
    from repro.kqml import KqmlMessage, Performative

    replies = []

    class Driver(UserAgent):
        def on_custom_timer(self, token, result, now):
            request = RecommendRequest(
                query=BrokerQuery(agent_type="resource", ontology_name="demo",
                                  classes=("C1",)),
                policy=SearchPolicy(hop_count=hops, follow=follow),
            )
            message = KqmlMessage(
                Performative.RECOMMEND_ALL, sender=self.name, receiver=broker,
                content=request,
            )
            self.ask(message, lambda r, res: replies.append(r), result)

    bus.register(Driver(name, config=AgentConfig(preferred_brokers=(broker,),
                                                 redundancy=0)))
    bus.schedule_timer(name, bus.now, "go")
    bus.run()
    return replies


def consortium(recorder, tracer):
    """Three fully connected brokers with one-strike breakers; the only
    resource sits on b2 and b3 is dead."""
    onto = demo_ontology(1)
    context = MatchContext(ontologies={"demo": onto})
    bus = MessageBus(fast_costs(), observer=obs.compose(tracer))
    names = ["b1", "b2", "b3"]
    for name in names:
        bus.register(BrokerAgent(
            name, context=context,
            peer_brokers=[b for b in names if b != name],
            prune_peers_by_specialty=False,
            breaker=BreakerConfig(failure_threshold=1, cooldown=3600.0),
            flight_recorder=recorder,
            config=AgentConfig(redundancy=0, reply_timeout=5.0),
        ))
    bus.register(ResourceAgent(
        "R1", {"C1": generate_table(onto, "C1", 4, seed=7)}, "demo",
        config=AgentConfig(preferred_brokers=("b1",), redundancy=1),
    ))
    bus.register(ResourceAgent(
        "R2", {"C1": generate_table(onto, "C1", 5, seed=3)}, "demo",
        config=AgentConfig(preferred_brokers=("b2",), redundancy=1),
    ))
    bus.run_until(1.0)
    bus.set_offline("b3")
    return bus


class TestHopGraph:
    @pytest.mark.parametrize("follow", [FollowOption.UNTIL_MATCH,
                                        FollowOption.ALL])
    def test_chain_reconstruction_under_both_follow_policies(self, follow):
        tracer = obs.ConversationTracer()
        bus = build_chain_community(tracer)
        replies = drive_recommend(bus, follow=follow)
        assert replies and replies[0] is not None

        ids = trace_ids(tracer.spans)
        assert len(ids) == 1
        graph = build_hop_graph(tracer.spans, ids[0])
        assert graph is not None
        brokers = [hop.broker for hop in graph.hops()]
        assert brokers == ["b1", "b2", "b3"]
        # nested: each hop strictly inside its parent
        flat = graph.hops()
        for parent, child in zip(flat, flat[1:]):
            assert parent.start <= child.start
            assert child.latency <= parent.latency
        # exclusive hop latencies reassemble the end-to-end latency
        assert graph.hop_latency_sum() == pytest.approx(
            graph.total_latency, rel=1e-6
        )

    def test_partitioned_peer_shows_timeout_hop(self):
        tracer = obs.ConversationTracer()
        bus = build_chain_community(tracer)
        bus.set_offline("b3")
        replies = drive_recommend(bus, follow=FollowOption.ALL)
        assert replies and replies[0] is not None

        graph = build_hop_graph(tracer.spans, trace_ids(tracer.spans)[0])
        statuses = {hop.broker: hop.span.status for hop in graph.hops()}
        assert statuses["b3"] == "timeout"

    def test_consortium_breaker_skip_is_named_and_latency_adds_up(self):
        tracer = obs.ConversationTracer()
        recorder = FlightRecorder(capacity=8)
        bus = consortium(recorder, tracer)
        first = drive_named(bus, "driver1", follow=FollowOption.ALL)
        assert first and first[0] is not None
        second = drive_named(bus, "driver2", follow=FollowOption.ALL)
        assert second and second[0] is not None

        report = explain_report(recorder, tracer.spans)
        assert report["recorded"] >= 2
        by_status = {}
        for entry in report["recommends"]:
            by_status.setdefault(entry["status"], []).append(entry)
        # first recommend: b3 unreachable -> partial, breaker trips
        assert "partial" in by_status
        assert any("b3" in e["unreachable"] for e in by_status["partial"])
        # second recommend: answered while skipping b3 outright
        clean = [e for e in report["recommends"]
                 if e["hop_graph"] and e["hop_graph"]["skipped_peers"]]
        assert clean, "breaker-open peer must be named in a hop graph"
        graph = clean[0]["hop_graph"]
        assert graph["skipped_peers"] == ["b3"]
        # per-hop exclusive spans sum to the end-to-end recommend
        # latency (identical here: no queueing between hops)
        assert graph["hop_latency_sum"] == pytest.approx(
            graph["total_latency"], rel=1e-6
        )
        # every retained recommend kept a non-empty explain trail
        for entry in report["recommends"]:
            assert entry["explanation"]["verdicts"]

    def test_build_hop_graph_unknown_trace_is_none(self):
        assert build_hop_graph([], "nope") is None


class TestMetricsSatellite:
    def test_quantiles_empty_and_simple(self):
        h = obs.Histogram(bounds=(1.0, 2.0, 4.0))
        assert h.quantile(0.5) is None
        for value in (0.5, 1.5, 1.6, 3.0):
            h.observe(value)
        assert h.quantile(0.0) is not None
        p50 = h.quantile(0.5)
        assert 0.5 <= p50 <= 2.0
        assert h.quantile(1.0) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_quantile_overflow_bucket_returns_max(self):
        h = obs.Histogram(bounds=(1.0,))
        h.observe(50.0)
        h.observe(70.0)
        assert h.quantile(0.99) == 70.0

    def test_snapshot_includes_percentiles(self):
        h = obs.Histogram()
        h.observe(0.2)
        snap = h.snapshot()
        assert {"p50", "p95", "p99"} <= set(snap)
        assert snap["p50"] is not None

    def test_render_prometheus_families_and_buckets(self):
        registry = obs.MetricsRegistry()
        registry.counter("bus.delivered.count").inc(2)
        registry.counter("bus.delivered.count", performative="tell").inc()
        registry.gauge("sim.load").set(0.5)
        h = registry.histogram("bus.queue.seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(5.0)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert lines.count("# TYPE bus_delivered_count counter") == 1
        assert "bus_delivered_count 2.0" in lines
        assert 'bus_delivered_count{performative="tell"} 1.0' in lines
        assert "# TYPE sim_load gauge" in lines
        assert 'bus_queue_seconds_bucket{le="0.1"} 1' in lines
        assert 'bus_queue_seconds_bucket{le="+Inf"} 2' in lines
        assert "bus_queue_seconds_count 2" in lines

    def test_dedup_round_trips_through_jsonl(self):
        tracer = obs.ConversationTracer()
        from repro.obs.events import MessageRecord

        tracer.messages.append(MessageRecord(
            time=1.0, sender="a", receiver="b", performative="tell",
            summary="x", dedup=True,
        ))
        _, messages = obs.read_jsonl(obs.spans_to_jsonl(tracer))
        assert messages[0].dedup is True


class TestCliAndSim:
    def test_explain_cli_writes_report_and_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "explain.json"
        assert main(["explain", "quickstart", "--explain-out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["recommends"]
        assert all(e["explanation"]["verdicts"] for e in report["recommends"])
        # one verdict per advertisement considered, per recommend
        assert all(
            len(e["explanation"]["verdicts"]) == e["ads_considered"]
            for e in report["recommends"]
        )
        captured = capsys.readouterr().out
        assert "explain report" in captured
        assert "reject histogram" in captured

    def test_explain_cli_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["explain", "bogus"]) == 2

    def test_cli_list_includes_explain_scenarios(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "explain consortium" in capsys.readouterr().out

    def test_simulation_threads_flight_recorder_to_brokers(self):
        from repro.sim.config import SimConfig
        from repro.sim.simulator import Simulation

        config = SimConfig(
            n_brokers=2, n_resources=2, duration=700.0, warmup=60.0,
            mean_query_interval=60.0, flight_recorder_slots=4,
        )
        simulation = Simulation(config)
        assert simulation.flight_recorder is not None
        assert simulation.flight_recorder.capacity == 4
        for name in simulation.broker_names:
            assert simulation.bus.agent(name).flight_recorder \
                is simulation.flight_recorder
        simulation.run()
        assert simulation.flight_recorder.recorded > 0
        assert len(simulation.flight_recorder) <= 4
        for entry in simulation.flight_recorder.slowest():
            # empty verdict lists are legal: a broker may field a query
            # before any resource has advertised to it
            assert entry.explanation is not None

    def test_sim_config_validates_slots(self):
        from repro.sim.config import SimConfig

        with pytest.raises(ValueError):
            SimConfig(flight_recorder_slots=0)
