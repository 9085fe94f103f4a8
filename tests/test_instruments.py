"""Bound instruments: metric identity resolved once, not per event.

Three contracts, none of them against golden files:

* the *bound* path (an emitter holding an instrument) and the
  *fallback* path (an observer that overrides only the string hooks)
  record exactly the same registry, series and spans;
* the interned key is the old ``sorted``-rendered key, rendered once
  per distinct series;
* the bus re-binds its instruments whenever its observer changes, so a
  swapped-out observer hears nothing more.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.agents import Agent, MessageBus
from repro.experiments import workload_config
from repro.kqml import KqmlMessage, Performative
from repro.obs import metrics
from repro.obs.events import (NULL_INSTRUMENT, CompositeObserver, IdentityMemo,
                              Observer)
from repro.obs.export import spans_to_jsonl
from repro.sim import Simulation

WALL_CLOCK = "broker.recommend.latency"  # the one wall-time series


class StringHooksOnly(Observer):
    """Forwards every hook to *inner* and inherits the default
    ``bind_*``: everything an emitter reports through an instrument
    arrives here as a string-hook call."""

    enabled = True

    def __init__(self, inner):
        self.inner = inner
        self.wants_metrics = inner.wants_metrics
        self.wants_dedup = inner.wants_dedup

    def message_sent(self, time, message, size_bytes, cause=None):
        self.inner.message_sent(time, message, size_bytes, cause)

    def message_delivered(self, time, message, queue_time=0.0, size_bytes=0.0,
                          dedup=False):
        self.inner.message_delivered(time, message, queue_time, size_bytes, dedup)

    def message_dropped(self, time, message, reason="offline"):
        self.inner.message_dropped(time, message, reason)

    def timer_fired(self, time, agent_name):
        self.inner.timer_fired(time, agent_name)

    def conversation_timeout(self, time, agent_name, reply_id):
        self.inner.conversation_timeout(time, agent_name, reply_id)

    def annotate(self, time, message, name, **attrs):
        self.inner.annotate(time, message, name, **attrs)

    def region(self, agent_name, name, start, end, **attrs):
        self.inner.region(agent_name, name, start, end, **attrs)

    def inc(self, name, value=1.0, **labels):
        self.inner.inc(name, value, **labels)

    def observe(self, name, value, **labels):
        self.inner.observe(name, value, **labels)

    def gauge(self, name, value, **labels):
        self.inner.gauge(name, value, **labels)


def _leave_on_run(seed, wrap, monkeypatch):
    """One quick flash-crowd community under the composed leave-on set;
    returns (registry snapshot, series records, retained spans,
    Prometheus text), wall-clock series removed."""
    # Reply ids come from a process-wide counter and feed the tracer's
    # head-sampling hash: restart it so both runs mint the same ids.
    monkeypatch.setattr("repro.kqml.message._reply_counter", itertools.count(1))
    tracer = obs.SamplingTracer(obs.TraceBudget(
        sample_rate=0.1, keep_slowest=64, seed=seed))
    registry_observer = obs.MetricsObserver()
    plane = obs.TimeSeriesObserver()
    composed = obs.compose(tracer, registry_observer, plane)
    simulation = Simulation(workload_config("flashcrowd", duration=1_500.0,
                                            seed=seed),
                            observer=wrap(composed))
    simulation.run()
    tracer.flush()
    registry = registry_observer.registry
    snapshot = registry.snapshot(at=simulation.bus.now)
    snapshot["histograms"].pop(WALL_CLOCK)
    records = plane.records()
    for record in records:
        record["sketches"].pop(WALL_CLOCK, None)
    exposition = [line for line in registry.render_prometheus().splitlines()
                  if "broker_recommend_latency" not in line]
    return snapshot, records, spans_to_jsonl(tracer), exposition


class TestBoundEqualsFallback:
    def test_same_outputs_on_flashcrowd_seeds_0_to_2(self, monkeypatch):
        for seed in range(3):
            bound = _leave_on_run(seed, lambda observer: observer, monkeypatch)
            fallback = _leave_on_run(seed, StringHooksOnly, monkeypatch)
            for name, got, expected in zip(
                    ("registry", "series", "spans", "prometheus"),
                    bound, fallback):
                assert got == expected, f"seed {seed}: {name} differs"
            snapshot, records, spans, _ = bound
            # Not vacuous: the bus's own series and the agents' string
            # hooks both landed, in the registry and in the plane.
            assert snapshot["gauges"]["bus.queue.depth"]["max"] >= 1.0
            assert snapshot["counters"]["bus.mailbox.offered"] > 0
            assert any("bus.inflight" in record["gauges"] for record in records)
            assert any(key.startswith("broker.recommend.count{")
                       for record in records for key in record["counters"])
            assert spans

    def test_default_instruments_replay_on_the_string_hooks(self):
        calls = []

        class Recorder(Observer):
            def inc(self, name, value=1.0, **labels):
                calls.append(("inc", name, value, labels))

            def observe(self, name, value, **labels):
                calls.append(("observe", name, value, labels))

            def gauge(self, name, value, **labels):
                calls.append(("gauge", name, value, labels))

        recorder = Recorder()
        recorder.bind_counter("c", peer="a").inc()
        recorder.bind_counter("c").inc(3.0)
        recorder.bind_gauge("g").set(2.0)
        recorder.bind_histogram("h", path="x").observe(0.5)
        assert calls == [
            ("inc", "c", 1.0, {"peer": "a"}),
            ("inc", "c", 3.0, {}),
            ("gauge", "g", 2.0, {}),
            ("observe", "h", 0.5, {"path": "x"}),
        ]

    def test_composite_instrument_is_the_cheapest_equivalent(self):
        first, second = obs.MetricsObserver(), obs.MetricsObserver()
        tracer = obs.SamplingTracer()
        # Nobody implements counters: the shared no-op.
        assert CompositeObserver([tracer]).bind_counter("x") is NULL_INSTRUMENT
        # One implementor: its own instrument (the registry's counter).
        assert (CompositeObserver([tracer, first]).bind_counter("x")
                is first.registry.counter("x"))
        # Several: every one of them is touched, once.
        CompositeObserver([first, tracer, second]).bind_counter("x").inc(2.0)
        assert first.registry.counter("x").value == 2.0
        assert second.registry.counter("x").value == 2.0

    def test_nested_composites_still_reach_every_child(self):
        registry_observer, plane = obs.MetricsObserver(), obs.TimeSeriesObserver()
        inner = CompositeObserver([registry_observer, plane])
        outer = CompositeObserver([inner, obs.SamplingTracer()])
        ask = KqmlMessage(Performative.ASK_ALL, sender="a", receiver="b",
                          reply_with="q1")
        outer.message_sent(1.0, ask, 10.0)
        outer.message_delivered(2.0, ask, 0.0, 10.0)
        outer.inc("agent.retry.count", agent="a")
        outer.bind_gauge("bus.inflight").set(4.0)
        snapshot = registry_observer.registry.snapshot()
        assert snapshot["counters"]["bus.delivered.count"] == 1
        assert snapshot["counters"]["agent.retry.count{agent=a}"] == 1
        assert snapshot["gauges"]["bus.inflight"]["value"] == 4.0
        (record,) = plane.records()
        assert record["counters"]["agent.retry.count{agent=a}"] == 1
        assert record["gauges"]["bus.inflight"]["value"] == 4.0


# ----------------------------------------------------------------------
# key interning
# ----------------------------------------------------------------------
LABEL_NAMES = st.text(alphabet="abcdefgh_", min_size=1, max_size=6)
LABEL_VALUES = st.one_of(
    st.text(max_size=8), st.integers(-3, 3), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable
)


def _old_key(name, labels):
    """The rendering every key had before interning."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class TestMetricKey:
    @given(name=st.text(alphabet="abc.", min_size=1, max_size=8),
           labels=st.dictionaries(LABEL_NAMES, LABEL_VALUES, max_size=4),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_interned_key_is_the_sorted_rendering_in_any_kwargs_order(
            self, name, labels, data):
        expected = _old_key(name, labels)
        shuffled = dict(data.draw(st.permutations(list(labels.items()))))
        for spelling in (labels, shuffled, labels):  # miss, miss/hit, hit
            key = metrics.metric_key(name, spelling)
            assert key == expected and isinstance(key, str)
            assert key.name == name
            assert key.labels == tuple(
                (k, str(labels[k])) for k in sorted(labels))

    def test_equal_hashing_values_do_not_share_a_key(self):
        # 1, 1.0 and True hash alike but render apart.
        keys = {metrics.metric_key("m", {"x": value})
                for value in (1, 1.0, True, "1")}
        assert keys == {"m{x=1}", "m{x=1.0}", "m{x=True}"}

    def test_rendering_runs_once_per_distinct_series(self, monkeypatch):
        rendered = []
        real_key = metrics._key

        def counting_key(name, labels):
            rendered.append((name, tuple(sorted(labels.items()))))
            return real_key(name, labels)

        monkeypatch.setattr(metrics, "_key", counting_key)
        monkeypatch.setattr(metrics, "_KEYS", IdentityMemo())
        registry_observer, plane = obs.MetricsObserver(), obs.TimeSeriesObserver()
        simulation = Simulation(
            workload_config("flashcrowd", duration=1_200.0, seed=0),
            observer=obs.compose(registry_observer, plane))
        simulation.run()
        assert simulation.bus.stats.messages_delivered > 1_000
        # Registry and plane share the interned key: one rendering per
        # identity for the whole run, however many events it saw.
        assert len(rendered) == len(set(rendered))
        assert len(rendered) <= len(registry_observer.registry) + 2

    def test_memo_is_bounded(self):
        memo = IdentityMemo()
        for index in range(IdentityMemo.LIMIT + 10):
            memo.remember("m", {"agent": f"a{index}"}, index)
        assert len(memo) <= IdentityMemo.LIMIT


# ----------------------------------------------------------------------
# the bus re-binds on every observer change
# ----------------------------------------------------------------------
class MetricLog(Observer):
    """Records every metric event through the string hooks."""

    enabled = True
    wants_metrics = True

    def __init__(self):
        self.events = []

    def inc(self, name, value=1.0, **labels):
        self.events.append(name)

    def gauge(self, name, value, **labels):
        self.events.append(name)


class Echo(Agent):
    def on_ask_all(self, message, result, now):
        result.send(message.reply(Performative.TELL, content="ok"))


def _exchange(bus, count):
    for _ in range(count):
        bus.send(KqmlMessage(Performative.ASK_ALL, sender="a", receiver="b"),
                 at=bus.now)
    bus.run()


class TestObserverSwap:
    def _warm_bus(self, observer):
        bus = MessageBus(observer=observer)
        bus.register(Echo("a"))
        bus.register(Echo("b"))
        bus.set_mailbox(4)
        _exchange(bus, 3)
        return bus

    def test_constructor_observer_gets_bound_instruments(self):
        log = MetricLog()
        self._warm_bus(log)
        assert {"bus.queue.depth", "bus.inflight", "bus.mailbox.offered",
                "bus.mailbox.accepted"} <= set(log.events)

    def test_set_observer_moves_every_later_event_to_the_new_observer(self):
        old, new = MetricLog(), MetricLog()
        bus = self._warm_bus(old)
        heard = len(old.events)
        assert heard
        bus.set_observer(new)
        _exchange(bus, 3)
        assert len(old.events) == heard, "a stale instrument still fires"
        assert new.events.count("bus.queue.depth") == 12  # 6 messages, in + out
        assert new.events.count("bus.inflight") == 12
        assert new.events.count("bus.mailbox.offered") == 3
        assert new.events.count("bus.mailbox.accepted") == 3

    def test_trace_setter_rebinds_through_the_new_composite(self):
        log = MetricLog()
        bus = self._warm_bus(log)
        heard = len(log.events)
        trace = []
        bus.trace = trace  # composes a message log beside the observer
        _exchange(bus, 2)
        assert len(trace) == 4
        assert log.events[heard:].count("bus.queue.depth") == 8
        bus.trace = None
        _exchange(bus, 1)
        assert len(trace) == 4
        assert log.events.count("bus.mailbox.offered") == 6

    def test_set_observer_none_silences_the_bus(self):
        log = MetricLog()
        bus = self._warm_bus(log)
        heard = len(log.events)
        bus.set_observer(None)
        _exchange(bus, 2)
        assert len(log.events) == heard
        assert bus.observer is obs.NULL_OBSERVER

    def test_unused_series_are_never_created(self):
        registry_observer = obs.MetricsObserver()
        bus = MessageBus(observer=registry_observer)
        assert len(registry_observer.registry) == 0  # binding is lazy
        bus.register(Echo("a"))
        bus.register(Echo("b"))
        _exchange(bus, 2)
        names = set(registry_observer.registry.snapshot()["counters"])
        assert "bus.delivered.count" in names
        assert not {"bus.mailbox.offered", "bus.shed.expired"} & names
