"""The PR-6 telemetry pipeline: budgeted tracing, the phase profiler,
SLO health evaluation, the bench scoreboard, and the satellite fixes
(Prometheus label escaping, bus depth gauges, export schema fields)."""

import json
import re

import pytest

from repro import cli, obs
from repro.kqml.message import KqmlMessage
from repro.kqml.performatives import Performative
from repro.obs.bench import (DEFAULT_ABS_FLOOR, build_report, check_report,
                             format_check, format_report)
from repro.obs.events import CompositeObserver, Observer
from repro.obs.export import EXPORT_SCHEMA_VERSION
from repro.obs.metrics import MetricsObserver, MetricsRegistry
from repro.obs.profiler import PROFILER, PhaseProfiler, profiling
from repro.obs.sampling import SamplingStats, SamplingTracer, TraceBudget
from repro.obs.slo import (DEFAULT_SLOS, SLOSpec, evaluate_slos,
                           format_health, health_ok, load_slo_specs)
from repro.obs.tracing import ConversationTracer
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulation


# ----------------------------------------------------------------------
# synthetic conversation drivers
# ----------------------------------------------------------------------
def _ask(rw, sender="user", receiver="broker", content="q", extras=()):
    return KqmlMessage(Performative.ASK_ALL, sender=sender, receiver=receiver,
                       content=content, reply_with=rw, extras=extras)


def _converse(tracer, rw, start=0.0, duration=1.0, status="tell",
              cause=None, extras=()):
    """One request/reply pair through the tracer's hooks; returns the
    request so callers can chain causality."""
    ask = _ask(rw, extras=extras)
    tracer.message_sent(start, ask, 100.0, cause)
    reply_performative = {
        "tell": Performative.TELL,
        "sorry": Performative.SORRY,
        "error": Performative.ERROR,
    }[status]
    reply = ask.reply(reply_performative, content=["row"])
    tracer.message_delivered(start + duration, reply, 0.0, 50.0)
    return ask


class TestSamplingTracer:
    def test_rate_zero_leaves_no_spans(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=0))
        for i in range(20):
            _converse(tracer, f"c{i}", start=float(i))
        tracer.flush()
        assert tracer.spans == []
        stats = tracer.sampling_stats
        assert stats.conversations == 20
        assert stats.dropped == 20
        assert stats.retained == 0
        assert stats.spans_dropped == 20
        assert stats.spans_recorded == 20

    def test_failed_conversations_always_retained(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=0))
        for i in range(10):
            _converse(tracer, f"ok{i}", start=float(i))
        for i in range(3):
            _converse(tracer, f"bad{i}", start=100.0 + i, status="sorry")
        tracer.flush()
        assert len(tracer.spans) == 3
        assert all(span.status == "sorry" for span in tracer.spans)
        assert tracer.sampling_stats.promoted_error == 3
        assert tracer.sampling_stats.dropped == 10

    def test_timeout_promotes_conversation(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=0))
        ask = _ask("t1")
        tracer.message_sent(0.0, ask, 100.0)
        tracer.conversation_timeout(60.0, "user", "t1")
        tracer.flush()
        [span] = tracer.spans
        assert span.status == "timeout"
        assert span.end == 60.0
        assert tracer.sampling_stats.promoted_error == 1

    def test_keep_slowest_heap_retains_the_worst(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=2))
        for i, duration in enumerate((3.0, 1.0, 5.0, 2.0, 4.0)):
            _converse(tracer, f"d{i}", start=10.0 * i, duration=duration)
        tracer.flush()
        durations = sorted(span.end - span.start for span in tracer.spans)
        assert durations == [4.0, 5.0]
        stats = tracer.sampling_stats
        assert stats.promoted_slow == 2
        assert stats.dropped == 3

    def test_open_conversation_kept_as_suspect(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=0))
        tracer.message_sent(0.0, _ask("lost"), 100.0)
        tracer.flush()
        [span] = tracer.spans
        assert span.status == "open"
        assert span.end is None
        assert tracer.sampling_stats.promoted_open == 1

    def test_children_follow_parent_retention(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=0))
        root = _ask("root")
        tracer.message_sent(0.0, root, 100.0)
        # Handling the root request emits a forwarded child request.
        child = _converse(tracer, "hop", start=0.5, cause=root)
        assert child is not None
        # The root itself fails -> the whole tree is promoted.
        tracer.message_delivered(3.0, root.reply(Performative.SORRY), 0.0, 10.0)
        tracer.flush()
        assert len(tracer.spans) == 2
        by_status = {span.status: span for span in tracer.spans}
        assert by_status["sorry"].parent_id is None
        assert by_status["ok"].parent_id == by_status["sorry"].span_id

    def test_head_decision_is_deterministic_and_seeded(self):
        keys = [f"conv-{i}" for i in range(400)]
        a = SamplingTracer(TraceBudget(sample_rate=0.3, seed=1))
        b = SamplingTracer(TraceBudget(sample_rate=0.3, seed=1))
        c = SamplingTracer(TraceBudget(sample_rate=0.3, seed=2))
        picked_a = {k for k in keys if a._head_sampled(k)}
        picked_b = {k for k in keys if b._head_sampled(k)}
        picked_c = {k for k in keys if c._head_sampled(k)}
        assert picked_a == picked_b
        assert picked_a != picked_c
        assert 0 < len(picked_a) < len(keys)

    def test_trace_id_keys_one_decision_per_search(self):
        """Re-keyed cross-broker hops carrying the same :x-trace-id join
        the same conversation, so one head decision covers the search."""
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=64))
        extras = (("x-trace-id", "xq-7"),)
        _converse(tracer, "hop1", start=0.0, extras=extras)
        _converse(tracer, "hop2", start=2.0, extras=extras)
        tracer.flush()
        assert tracer.sampling_stats.conversations == 1
        assert len(tracer.spans) == 2
        assert tracer.retained_trace_ids() == ["xq-7"]

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            TraceBudget(sample_rate=1.5)
        with pytest.raises(ValueError):
            TraceBudget(sample_rate=-0.1)
        with pytest.raises(ValueError):
            TraceBudget(keep_slowest=-1)

    def test_flush_is_idempotent(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=1.0))
        _converse(tracer, "f1")
        tracer.flush()
        first = (list(tracer.spans), tracer.sampling_stats.spans_recorded)
        tracer.flush()
        assert (list(tracer.spans), tracer.sampling_stats.spans_recorded) == first

    def test_outcome_audit_log(self):
        tracer = SamplingTracer(TraceBudget(sample_rate=0.0, keep_slowest=1),
                                record_outcomes=True)
        _converse(tracer, "fast", start=0.0, duration=1.0)
        _converse(tracer, "slow", start=10.0, duration=9.0)
        _converse(tracer, "bad", start=30.0, duration=1.0, status="sorry")
        tracer.flush()
        by_key = {o.key: o for o in tracer.outcomes}
        assert by_key["bad"].reason == "error" and by_key["bad"].retained
        assert by_key["slow"].reason == "slow" and by_key["slow"].retained
        # "fast" held a heap slot until "slow" evicted it.
        assert by_key["fast"].reason == "evicted" and not by_key["fast"].retained


class TestSamplingEquivalence:
    """Same seed, same virtual schedule: the sampling tracer at rate 1.0
    must reproduce the full tracer's spans."""

    @pytest.fixture(scope="class")
    def runs(self):
        from dataclasses import replace

        from repro.experiments.robustness import chaos_config

        config = chaos_config(0.10, partition_duration=0.0,
                              duration=1_800.0, seed=11)
        full = ConversationTracer()
        Simulation(config, observer=full).run()
        sampled_config = replace(config, trace_sample_rate=1.0,
                                 trace_keep_slowest=0)
        simulation = Simulation(sampled_config)
        simulation.run()
        return full, simulation.tracer

    @staticmethod
    def _structural(span):
        # Everything except attrs["trace_id"]: trace ids embed a
        # process-global reply counter, so they differ between any two
        # runs in one process even for the full tracer.
        return (span.span_id, span.parent_id, span.name, span.performative,
                span.sender, span.receiver, span.start, span.end, span.status,
                span.attrs.get("reply_items"))

    def test_rate_one_reproduces_every_span(self, runs):
        full, sampled = runs
        assert len(sampled.spans) == len(full.spans) > 0
        assert ([self._structural(s) for s in sampled.spans]
                == [self._structural(s) for s in full.spans])

    def test_hop_graphs_reassemble_identically(self, runs):
        """Grouping retained spans by :x-trace-id yields the same hop
        structure as the unsampled run (trace ids compared structurally,
        not textually — see _structural)."""
        def hop_groups(tracer):
            groups = {}
            for span in tracer.spans:
                trace_id = span.attrs.get("trace_id")
                if trace_id is not None:
                    groups.setdefault(trace_id, []).append(
                        (span.performative, span.sender, span.receiver,
                         span.start, span.end, span.status))
            return sorted(sorted(hops) for hops in groups.values())

        full, sampled = runs
        full_groups = hop_groups(full)
        assert full_groups == hop_groups(sampled)
        assert full_groups, "scenario produced no cross-broker hops"

    def test_annotation_events_survive_sampling(self, runs):
        full, sampled = runs

        def events(tracer):
            return [(s.span_id, e.name, e.time, tuple(sorted(e.attrs)))
                    for s in tracer.spans for e in s.events]

        assert events(sampled) == events(full)
        assert events(full), "scenario produced no annotations"


class TestCompositeFanOut:
    def test_single_implementor_hooks_bind_directly(self):
        metrics = MetricsObserver()
        tracer = SamplingTracer()
        composite = CompositeObserver([metrics, tracer])
        # Metric hooks go straight to the metrics child, annotate goes
        # straight to the tracer: no fan-out loop on either.
        assert composite.inc.__self__ is metrics
        assert composite.gauge.__self__ is metrics
        assert composite.annotate.__self__ is tracer
        # Both children trace deliveries, so that hook is the compiled
        # fan-out — a plain function, neither child's bound method.
        assert not hasattr(composite.message_delivered, "__self__")

    def test_unimplemented_hooks_become_noops(self):
        composite = CompositeObserver([MetricsObserver()])
        composite.annotate(0.0, _ask("x"), "note")  # no error, no effect

    def test_fanned_out_hooks_still_reach_children(self):
        metrics = MetricsObserver()
        tracer = SamplingTracer(TraceBudget(sample_rate=1.0))
        composite = CompositeObserver([metrics, tracer])
        ask = _ask("fan1")
        composite.message_sent(0.0, ask, 10.0)
        composite.message_delivered(1.0, ask.reply(Performative.TELL), 0.0, 5.0)
        composite.inc("agent.retry.count")
        tracer.flush()
        assert len(tracer.spans) == 1
        snapshot = metrics.registry.snapshot()
        assert snapshot["counters"]["bus.delivered.count"] == 1
        assert snapshot["counters"]["agent.retry.count"] == 1

    def test_wants_flags_aggregate_from_children(self):
        assert Observer.wants_metrics is False
        assert Observer.wants_dedup is False
        pure_tracer = CompositeObserver([SamplingTracer()])
        assert not pure_tracer.wants_metrics and not pure_tracer.wants_dedup
        with_metrics = CompositeObserver([SamplingTracer(), MetricsObserver()])
        assert with_metrics.wants_metrics and with_metrics.wants_dedup
        # The full tracer logs every delivery, dedup flag included.
        assert ConversationTracer().wants_dedup
        # The sampling tracer only needs dedup when its flat log is on.
        assert not SamplingTracer().wants_dedup
        assert SamplingTracer(record_messages=True).wants_dedup


# ----------------------------------------------------------------------
# a small instrumented simulation, shared by the gauge and SLO tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sim_metrics():
    observer = MetricsObserver()
    simulation = Simulation(SimConfig(duration=1_800.0, seed=3),
                            observer=observer)
    simulation.run()
    return simulation, observer.registry


class TestBusGauges:
    def test_queue_depth_and_inflight_gauges_land_in_registry(self, sim_metrics):
        simulation, registry = sim_metrics
        gauges = registry.snapshot()["gauges"]
        assert "bus.queue.depth" in gauges
        assert "bus.inflight" in gauges
        depth = gauges["bus.queue.depth"]
        assert depth["max"] >= 1.0
        # The duration cutoff may strand a few enqueued messages, but the
        # gauge can never exceed the per-agent high-water total.
        high_water = simulation.bus.stats.queue_depth_high_water
        assert 0.0 <= gauges["bus.inflight"]["value"] <= float(high_water) * 10
        # The registry envelope and the bus-side stats track the same
        # per-agent depth stream, so their peaks agree exactly.
        assert depth["max"] == float(high_water)
        assert depth["value"] <= float(high_water)

    def test_high_water_tracked_even_without_metrics_observer(self):
        simulation = Simulation(SimConfig(duration=900.0, seed=3))
        simulation.run()
        assert simulation.bus.stats.queue_depth_high_water >= 1


class TestPrometheusEscaping:
    def test_hostile_label_values_cannot_corrupt_exposition(self):
        registry = MetricsRegistry()
        hostile = 'ev"il\\agent\nx'
        registry.counter("agent.count", agent=hostile).inc()
        registry.gauge("agent.depth", agent=hostile).set(2.0)
        registry.histogram("agent.lat", agent=hostile).observe(0.5)
        text = registry.render_prometheus()
        # Escaped forms present, raw forms absent.
        assert '\\"' in text
        assert "\\\\" in text
        assert "\\n" in text
        # Every line still parses as exposition format: a comment or
        # `name{labels} value` with no stray quotes/newlines mid-line.
        line_re = re.compile(
            r'^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* \w+'
            r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^\n]*\})? [^ \n]+)$')
        for line in text.strip().splitlines():
            assert line_re.match(line), f"corrupt exposition line: {line!r}"

    def test_separators_inside_a_value_do_not_mint_labels(self):
        # The registry key renders labels as ``k=v,k2=v2``; the
        # exposition must come from the label pairs, not from splitting
        # that text, or ``peer="a,b=c"`` grows a spurious ``b`` label.
        registry = MetricsRegistry()
        registry.counter("x.count", peer="a,b=c").inc()
        registry.gauge("x.depth", peer="{a}", zone="z=1").set(2.0)
        registry.histogram("x.lat", buckets=(1.0,), peer="k=v,{w}").observe(0.5)
        text = registry.render_prometheus()
        assert 'x_count{peer="a,b=c"} 1.0' in text
        assert 'x_depth{peer="{a}",zone="z=1"} 2.0' in text
        assert 'x_depth_max{peer="{a}",zone="z=1"} 2.0' in text
        assert 'x_lat_bucket{peer="k=v,{w}",le="1.0"} 1' in text
        assert 'x_lat_count{peer="k=v,{w}"} 1' in text
        assert 'b="' not in text and 'w="' not in text
        # The registry key itself is unchanged (snapshots stay as they were).
        assert "x.count{peer=a,b=c}" in registry.snapshot()["counters"]

    def test_plain_labels_round_trip_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("bus.delivered.count", performative="tell").inc(3)
        text = registry.render_prometheus()
        assert 'bus_delivered_count{performative="tell"} 3' in text


class TestExportSchema:
    def test_jsonl_records_carry_schema_and_sorted_keys(self):
        tracer = ConversationTracer()
        ask = _ask("e1")
        tracer.message_sent(0.0, ask, 10.0)
        tracer.message_delivered(1.0, ask.reply(Performative.TELL, ["r"]),
                                 0.0, 5.0)
        text = obs.spans_to_jsonl(tracer)
        lines = text.splitlines()
        assert len(lines) == 2  # one span, one message record
        for line in lines:
            data = json.loads(line)
            assert data["schema"] == EXPORT_SCHEMA_VERSION
            assert line == json.dumps(data, default=str, sort_keys=True)

    def test_registry_snapshot_carries_schema(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        snapshot = registry.snapshot()
        assert snapshot["schema"] == MetricsRegistry.SNAPSHOT_SCHEMA_VERSION
        # Deterministic serialization: to_json sorts keys.
        assert registry.to_json() == json.dumps(snapshot, indent=2,
                                                sort_keys=True)


class TestPhaseProfiler:
    @staticmethod
    def _stepped(times):
        it = iter(times)
        return lambda: next(it)

    def test_nested_phases_split_self_and_total(self):
        profiler = PhaseProfiler(clock=self._stepped([0.0, 1.0, 3.0, 6.0]))
        profiler.enabled = True
        profiler.begin("bus.deliver")
        profiler.begin("match.filter")
        profiler.end("match.filter")
        profiler.end("bus.deliver")
        stats = profiler.stacks()
        assert stats[("bus.deliver",)].total == 6.0
        assert stats[("bus.deliver",)].self_time == 4.0
        assert stats[("bus.deliver", "match.filter")].total == 2.0
        assert stats[("bus.deliver", "match.filter")].self_time == 2.0

    def test_collapsed_stack_format(self):
        profiler = PhaseProfiler(clock=self._stepped([0.0, 1.0, 3.0, 6.0]))
        profiler.enabled = True
        profiler.begin("a")
        profiler.begin("b")
        profiler.end("b")
        profiler.end("a")
        assert profiler.collapsed() == "a 4000000\na;b 2000000\n"

    def test_mismatched_end_is_discarded(self):
        profiler = PhaseProfiler(clock=self._stepped([0.0, 5.0]))
        profiler.enabled = True
        profiler.begin("a")
        profiler.end("not-a")  # ignored: name does not match
        profiler.end()  # closes "a"
        assert ("a",) in profiler.stacks()
        profiler.end()  # empty stack: no-op

    def test_phase_contextmanager_idles_when_disabled(self):
        profiler = PhaseProfiler()
        with profiler.phase("quiet"):
            pass
        assert profiler.stacks() == {}

    def test_profiling_contextmanager_flips_and_restores(self):
        profiler = PhaseProfiler()
        assert not profiler.enabled
        with profiling(profiler):
            assert profiler.enabled
            with profiler.phase("work"):
                pass
        assert not profiler.enabled
        assert ("work",) in profiler.stacks()

    def test_self_report_and_snapshot(self):
        profiler = PhaseProfiler(clock=self._stepped([0.0, 1.0, 3.0, 6.0]))
        profiler.enabled = True
        profiler.begin("a")
        profiler.begin("b")
        profiler.end("b")
        profiler.end("a")
        report = profiler.self_report()
        assert "a" in report and "b" in report
        snapshot = profiler.snapshot()
        assert snapshot["schema"] == 1
        assert snapshot["stacks"]["a;b"]["calls"] == 1

    def test_singleton_identity_is_stable(self):
        before = PROFILER
        with profiling():
            assert PROFILER is before
        assert not PROFILER.enabled

    def test_columnar_query_emits_build_and_sweep_phases(self):
        """A columnar-engine run emits ``match.columnar.build`` (in-place
        plane maintenance on a write) and ``match.columnar.sweep`` (the
        vectorized match), and the recorded stacks reconcile: every
        stack's total covers its self time plus its children's totals."""
        from repro.core import BrokerQuery, BrokerRepository
        from tests.test_core_matcher import make_ad

        repo = BrokerRepository()
        for i in range(12):
            repo.advertise(make_ad(f"a{i}", ontology="healthcare"))
        with profiling():
            repo.advertise(make_ad("a0", ontology="finance"))
            repo.query(BrokerQuery(ontology_name="healthcare"))
            repo.query(BrokerQuery(agent_type="resource"))
            # Cache hit: lookup phase only, no sweep.
            repo.query(BrokerQuery(agent_type="resource"))
        stats = PROFILER.stacks()
        names = {stack[-1] for stack in stats}
        assert "match.columnar.build" in names
        assert "match.columnar.sweep" in names
        assert "cache.lookup" in names
        for stack, stat in stats.items():
            children = sum(
                child.total
                for child_stack, child in stats.items()
                if len(child_stack) == len(stack) + 1
                and child_stack[: len(stack)] == stack
            )
            assert stat.self_time >= 0.0
            assert stat.total + 1e-9 >= stat.self_time + children
        # Maintenance happens on the write, never behind a query: the
        # two phases are siblings, neither nests in the other.
        assert not any("match.columnar.build" in stack
                       and "match.columnar.sweep" in stack for stack in stats)


class TestSLO:
    @staticmethod
    def _latency_snapshot(values):
        registry = MetricsRegistry()
        for value in values:
            registry.histogram("sim.broker.response").observe(value)
        return registry.snapshot()

    def test_latency_met(self):
        snapshot = self._latency_snapshot([1.0] * 99)
        spec = SLOSpec(name="p95", kind="latency",
                       metric="sim.broker.response", objective=30.0)
        [result] = evaluate_slos(snapshot, [spec])
        assert result.ok is True
        assert result.burn_rate == 0.0
        assert health_ok([result])

    def test_latency_violated_burns_budget(self):
        snapshot = self._latency_snapshot([100.0] * 50 + [1.0] * 50)
        spec = SLOSpec(name="p95", kind="latency",
                       metric="sim.broker.response", objective=30.0)
        [result] = evaluate_slos(snapshot, [spec])
        assert result.ok is False
        # Half the samples violate a 5% budget: burn ~10x.
        assert result.burn_rate > 5.0
        assert not health_ok([result])
        assert "VIOLATED" in format_health([result])

    def test_ratio_pass_and_fail(self):
        registry = MetricsRegistry()
        registry.counter("sim.queries.replied").inc(98)
        registry.counter("sim.queries.issued").inc(100)
        spec = SLOSpec(name="replies", kind="ratio",
                       metric="sim.queries.replied",
                       total_metric="sim.queries.issued", objective=0.95)
        [result] = evaluate_slos(registry.snapshot(), [spec])
        assert result.ok is True and result.value == 0.98
        assert result.burn_rate == pytest.approx(0.4)

        registry.counter("sim.queries.issued").inc(100)  # rate drops to 0.49
        [result] = evaluate_slos(registry.snapshot(), [spec])
        assert result.ok is False
        assert result.burn_rate > 1.0

    def test_no_data_is_visible_but_not_a_violation(self):
        [result] = evaluate_slos(MetricsRegistry().snapshot(), [DEFAULT_SLOS[0]])
        assert result.ok is None
        assert health_ok([result])
        assert "no-data" in format_health([result])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="weird", metric="m", objective=1.0)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", metric="m", objective=1.0,
                    quantile=1.5)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="ratio", metric="m", objective=0.9)

    def test_load_specs_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "schema": 1,
            "slos": [
                {"name": "replies", "kind": "ratio",
                 "metric": "sim.queries.replied",
                 "total_metric": "sim.queries.issued", "objective": 0.9},
                {"name": "p99", "kind": "latency",
                 "metric": "sim.broker.response", "objective": 60.0,
                 "quantile": 0.99},
            ],
        }))
        specs = load_slo_specs(str(path))
        assert [s.name for s in specs] == ["replies", "p99"]
        assert specs[1].quantile == 0.99
        path.write_text(json.dumps({"schema": 99, "slos": []}))
        with pytest.raises(ValueError):
            load_slo_specs(str(path))

    def test_default_slos_judge_a_real_run(self, sim_metrics):
        _, registry = sim_metrics
        results = evaluate_slos(registry.snapshot(), DEFAULT_SLOS)
        by_name = {r.spec.name: r for r in results}
        # The healthy default community meets its reply-rate objective.
        assert by_name["query-reply-rate"].ok is True
        # No broker crashed, so the anti-entropy SLO has nothing to judge.
        assert by_name["anti-entropy-convergence-p95"].ok is None


# ----------------------------------------------------------------------
# bench scoreboard
# ----------------------------------------------------------------------
def _telemetry_artifact(failed_retention=1.0, span_retention=0.25):
    return {
        "failed_retention": failed_retention,
        "span_retention": span_retention,
        "overhead_sampled_vs_untraced": 0.2,
        "tracer_us_per_message": 6.0,
        "wall_seconds": {"untraced": 0.1, "sampled": 0.12},
    }


class TestBenchScoreboard:
    def test_build_report_extracts_and_skips(self, tmp_path):
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact()))
        (tmp_path / "BENCH_mystery.json").write_text("{}")
        (tmp_path / "notes.txt").write_text("not a benchmark")
        report = build_report(str(tmp_path))
        assert report["schema"] == 1
        assert report["sources"] == ["BENCH_telemetry.json"]
        assert report["skipped"] == ["BENCH_mystery.json"]
        indicators = report["indicators"]
        assert indicators["telemetry.failed_retention"]["checked"] is True
        # Wall-clock indicators are visible but never gated.
        assert indicators["telemetry.wall_s.sampled"]["checked"] is False
        assert indicators["telemetry.overhead_sampled_vs_untraced"][
            "checked"] is False
        assert "telemetry.failed_retention" in format_report(report)

    def test_check_flags_only_real_regressions(self, tmp_path):
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact()))
        baseline = build_report(str(tmp_path))
        # Identical report: clean.
        assert check_report(baseline, baseline) == []
        # Retention collapses: flagged (higher-is-better fell).
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact(failed_retention=0.5)))
        regressed = build_report(str(tmp_path))
        [regression] = check_report(regressed, baseline)
        assert regression.key == "telemetry.failed_retention"
        assert regression.delta == pytest.approx(-0.5)
        assert "telemetry.failed_retention" in format_check([regression], 0.10)
        # Improvement in a lower-is-better indicator: not flagged.
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact(span_retention=0.10)))
        assert check_report(build_report(str(tmp_path)), baseline) == []
        # Sub-threshold drift inside the absolute floor: not flagged.
        (tmp_path / "BENCH_telemetry.json").write_text(json.dumps(
            _telemetry_artifact(span_retention=0.25 + DEFAULT_ABS_FLOOR / 2)))
        assert check_report(build_report(str(tmp_path)), baseline) == []

    def test_schema_mismatch_raises(self, tmp_path):
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact()))
        report = build_report(str(tmp_path))
        with pytest.raises(ValueError):
            check_report(report, {"schema": 0, "indicators": {}})

    def test_new_indicators_do_not_fail_the_gate(self, tmp_path):
        (tmp_path / "BENCH_telemetry.json").write_text(
            json.dumps(_telemetry_artifact()))
        report = build_report(str(tmp_path))
        assert check_report(report, {"schema": 1, "indicators": {}}) == []


class TestCli:
    def test_bench_check_passes_on_baseline_and_fails_on_regression(
            self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        artifact = bench_dir / "BENCH_telemetry.json"
        artifact.write_text(json.dumps(_telemetry_artifact()))
        base = ["bench", "--bench-dir", str(bench_dir)]
        assert cli.main(base + ["--write-baseline"]) == 0
        assert (bench_dir / "BENCH_report.json").exists()
        assert (bench_dir / "BENCH_baseline.json").exists()
        report = (bench_dir / "BENCH_report.json").read_bytes()
        assert cli.main(base + ["--check"]) == 0
        # Inject a synthetic regression: retention collapses.
        artifact.write_text(json.dumps(
            _telemetry_artifact(failed_retention=0.4)))
        assert cli.main(base + ["--check"]) == 1
        assert "telemetry.failed_retention" in capsys.readouterr().out
        # The gate compared in memory: the report on disk is untouched.
        assert (bench_dir / "BENCH_report.json").read_bytes() == report

    def test_bench_check_without_baseline_is_an_error(self, tmp_path):
        bench_dir = tmp_path / "empty"
        bench_dir.mkdir()
        assert cli.main(["bench", "--bench-dir", str(bench_dir),
                         "--check"]) == 2

    def test_health_exits_by_verdict(self, tmp_path, capsys):
        spec_path = tmp_path / "slo.json"
        spec_path.write_text(json.dumps({
            "schema": 1,
            "slos": [{"name": "replies", "kind": "ratio",
                      "metric": "sim.queries.replied",
                      "total_metric": "sim.queries.issued",
                      "objective": 0.95}],
        }))
        registry = MetricsRegistry()
        registry.counter("sim.queries.replied").inc(99)
        registry.counter("sim.queries.issued").inc(100)
        good = tmp_path / "good.json"
        good.write_text(registry.to_json())
        assert cli.main(["health", "--metrics-in", str(good),
                         "--slo-spec", str(spec_path)]) == 0
        registry.counter("sim.queries.issued").inc(100)
        bad = tmp_path / "bad.json"
        bad.write_text(registry.to_json())
        assert cli.main(["health", "--metrics-in", str(bad),
                         "--slo-spec", str(spec_path)]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_profile_writes_collapsed_stacks(self, tmp_path, capsys):
        out = tmp_path / "profile.txt"
        assert cli.main(["profile", "quickstart",
                         "--profile-out", str(out)]) == 0
        text = out.read_text()
        assert "bus.deliver" in text
        for line in text.strip().splitlines():
            stack, _, micros = line.rpartition(" ")
            assert stack and micros.isdigit()
        assert "bus.deliver" in capsys.readouterr().out
