"""Tests for the simulator: config, RNG, reliability, and community runs.

Full-scale experiment shapes are asserted in the benchmarks; the tests
here use miniature configurations so the suite stays fast.
"""

import math

import pytest

from repro.sim import (
    BrokerStrategy,
    FailureSchedule,
    SimConfig,
    SimRng,
    run_simulation,
)
from repro.sim.simulator import Simulation, run_replicates


def mini_config(**overrides):
    defaults = dict(
        n_brokers=3,
        n_resources=12,
        strategy=BrokerStrategy.SPECIALIZED,
        mean_query_interval=20.0,
        duration=2400.0,
        warmup=400.0,
        advertisement_size_mb=0.1,
        seed=7,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestSimRng:
    def test_deterministic(self):
        a = [SimRng(1, "x").exponential(10.0) for _ in range(3)]
        b = [SimRng(1, "x").exponential(10.0) for _ in range(3)]
        assert a[0] == b[0]

    def test_streams_independent(self):
        assert SimRng(1, "a").exponential(10.0) != SimRng(1, "b").exponential(10.0)

    def test_exponential_mean(self):
        rng = SimRng(42, "m")
        values = [rng.exponential(30.0) for _ in range(4000)]
        assert sum(values) / len(values) == pytest.approx(30.0, rel=0.1)

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            SimRng().exponential(0)

    def test_bounded_gaussian_respects_bounds(self):
        rng = SimRng(1, "g")
        values = [rng.bounded_gaussian(1.0, 0.5, 0.1, 2.0) for _ in range(500)]
        assert all(0.1 <= v <= 2.0 for v in values)

    def test_bounded_gaussian_validation(self):
        with pytest.raises(ValueError):
            SimRng().bounded_gaussian(0, 1, 5, 5)

    def test_choice_validation(self):
        with pytest.raises(ValueError):
            SimRng().choice([])


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_brokers=0)
        with pytest.raises(ValueError):
            SimConfig(mean_query_interval=0)
        with pytest.raises(ValueError):
            SimConfig(advertisement_redundancy=0)
        with pytest.raises(ValueError):
            SimConfig(duration=100.0, warmup=200.0)

    def test_domains(self):
        cfg = SimConfig(n_resources=100, resources_per_domain=4)
        assert cfg.n_domains == 25
        assert cfg.domain_of_resource(0) == cfg.domain_of_resource(25)
        unique = SimConfig(n_resources=10, unique_domains=True)
        assert unique.n_domains == 10

    def test_strategy_redundancy(self):
        assert SimConfig(n_brokers=8, strategy=BrokerStrategy.REPLICATED).effective_redundancy() == 8
        assert SimConfig(n_brokers=8, strategy=BrokerStrategy.SINGLE).effective_redundancy() == 1
        assert SimConfig(
            n_brokers=8, strategy=BrokerStrategy.SPECIALIZED, advertisement_redundancy=3
        ).effective_redundancy() == 3

    def test_query_hop_count(self):
        assert SimConfig(strategy=BrokerStrategy.SINGLE).query_hop_count() == 0
        assert SimConfig(strategy=BrokerStrategy.REPLICATED).query_hop_count() == 0
        assert SimConfig(strategy=BrokerStrategy.SPECIALIZED, hop_count=2).query_hop_count() == 2

    def test_no_dead_knobs(self):
        """Every field is read by some module under ``src/repro`` other
        than ``sim/config.py`` — directly, or through a ``SimConfig``
        method or property such a module reads.  Validation in
        ``__post_init__`` does not count as a use."""
        import ast
        import dataclasses
        import pathlib
        import re

        import repro

        root = pathlib.Path(repro.__file__).parent
        config_py = root / "sim" / "config.py"
        elsewhere = "\n".join(path.read_text(encoding="utf-8")
                              for path in sorted(root.rglob("*.py"))
                              if path != config_py)
        cls = next(node for node in ast.parse(config_py.read_text()).body
                   if isinstance(node, ast.ClassDef) and node.name == "SimConfig")
        accessors = {}  # attribute -> SimConfig methods reading self.<attribute>
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and not method.name.startswith("__"):
                for node in ast.walk(method):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"):
                        accessors.setdefault(node.attr, set()).add(method.name)

        def live(name, seen=()):
            return re.search(rf"\.{name}\b", elsewhere) is not None or any(
                live(method, (*seen, name))
                for method in accessors.get(name, ()) if method not in seen)

        dead = [f.name for f in dataclasses.fields(SimConfig) if not live(f.name)]
        assert dead == []


class TestFailureSchedule:
    def test_windows_alternate_and_stay_in_horizon(self):
        schedule = FailureSchedule.generate("b", 500.0, 300.0, 10_000.0, SimRng(1, "f"))
        last_end = 0.0
        for down, up in schedule.windows:
            assert down >= last_end
            assert down < up <= 10_000.0
            last_end = up

    def test_availability(self):
        schedule = FailureSchedule.generate("b", 500.0, 500.0, 50_000.0, SimRng(2, "f"))
        assert 0.2 < schedule.availability(50_000.0) < 0.8

    def test_reliable_when_mttf_huge(self):
        schedule = FailureSchedule.generate("b", 1e12, 300.0, 10_000.0, SimRng(3, "f"))
        assert schedule.windows == ()


class TestSimulationRuns:
    def test_deterministic_given_seed(self):
        a = run_simulation(mini_config())
        b = run_simulation(mini_config())
        assert a.average_broker_response == b.average_broker_response
        assert a.queries_issued == b.queries_issued

    def test_seed_changes_outcome(self):
        a = run_simulation(mini_config())
        b = run_simulation(mini_config(seed=8))
        assert a.metrics.broker_queries[0].issued_at != b.metrics.broker_queries[0].issued_at

    def test_all_queries_answered_when_reliable(self):
        report = run_simulation(mini_config())
        assert report.reply_fraction == pytest.approx(1.0)
        assert report.queries_issued > 20

    def test_matches_found_for_every_domain(self):
        report = run_simulation(mini_config())
        assert report.success_fraction == pytest.approx(1.0)

    def test_single_strategy_uses_one_broker(self):
        sim = Simulation(mini_config(strategy=BrokerStrategy.SINGLE))
        assert len(sim.broker_names) == 1
        report = sim.run()
        assert report.reply_fraction == pytest.approx(1.0)

    def test_replicated_needs_no_forwarding(self):
        sim = Simulation(mini_config(strategy=BrokerStrategy.REPLICATED))
        report = sim.run()
        assert report.reply_fraction == pytest.approx(1.0)
        # Every broker holds every resource advertisement.
        for name in sim.broker_names:
            assert sim.bus.agent(name).repository.agent_count == 12

    def test_specialized_spreads_advertisements(self):
        sim = Simulation(mini_config())
        sim.run()
        counts = [sim.bus.agent(b).repository.agent_count for b in sim.broker_names]
        assert sum(counts) == 12
        assert max(counts) < 12  # not all on one broker (seeded, stable)

    def test_resource_queries_follow_broker_replies(self):
        report = run_simulation(mini_config())
        assert len(report.metrics.resource_response_times) > 0

    def test_resource_queries_can_be_disabled(self):
        report = run_simulation(mini_config(query_resources_after_reply=False))
        assert report.metrics.resource_response_times == []

    def test_warmup_excluded_from_metrics(self):
        report = run_simulation(mini_config())
        assert all(r.issued_at >= 400.0 for r in report.metrics.issued(after=400.0))

    def test_run_replicates(self):
        reports = run_replicates(mini_config(duration=1200.0, warmup=200.0), runs=2)
        assert len(reports) == 2
        assert reports[0].config.seed != reports[1].config.seed


class TestFailures:
    def failure_config(self, redundancy=1, mttf=600.0):
        return mini_config(
            n_brokers=3,
            n_resources=9,
            unique_domains=True,
            advertisement_redundancy=redundancy,
            broker_mttf=mttf,
            broker_mttr=600.0,
            fixed_broker_assignment=True,
            query_reply_timeout=60.0,
            duration=4800.0,
            warmup=400.0,
            mean_query_interval=15.0,
        )

    def test_failures_reduce_reply_fraction(self):
        reliable = run_simulation(self.failure_config(mttf=None))
        failing = run_simulation(self.failure_config(mttf=600.0))
        assert reliable.reply_fraction == pytest.approx(1.0)
        assert failing.reply_fraction < 0.9
        assert failing.availability < 1.0

    def test_redundancy_improves_success(self):
        low = run_simulation(self.failure_config(redundancy=1))
        high = run_simulation(self.failure_config(redundancy=3))
        assert high.success_fraction > low.success_fraction

    def test_full_redundancy_always_succeeds_when_replied(self):
        report = run_simulation(self.failure_config(redundancy=3))
        assert report.success_fraction == pytest.approx(1.0)

    def test_reply_fraction_tracks_availability(self):
        report = run_simulation(self.failure_config(redundancy=2, mttf=1200.0))
        assert report.reply_fraction == pytest.approx(report.availability, abs=0.2)

    def test_reliable_run_has_no_failure_windows(self):
        report = run_simulation(self.failure_config(mttf=None))
        assert report.availability == 1.0
