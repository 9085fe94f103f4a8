"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    python -m repro list                  # what can be regenerated
    python -m repro table3                # Table 3 at quick scale
    python -m repro fig15 --full-scale    # paper-scale Figure 15
    python -m repro all                   # everything, quick scale
    python -m repro trace quickstart      # span tree of a traced community
    python -m repro fig14 --metrics m.json   # dump the metrics registry
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, List, Optional


def _table1(scale: "Scale") -> str:
    from repro.experiments import STREAMS, format_table

    rows = {
        name: {"#RAs": float(stream.n_resource_agents)}
        for name, stream in STREAMS.items()
    }
    return format_table("Table 1: experimental query streams", rows,
                        column_order=["#RAs"], row_label="name")


def _table2(scale: "Scale") -> str:
    from repro.experiments import format_table, table2_configurations

    rows = {}
    for experiment, streams, n_resources in table2_configurations():
        row = {s: 1.0 if s in streams else None
               for s in ("SA", "DA", "4A", "VF", "CH", "FH")}
        row["#RAs"] = float(n_resources)
        rows[experiment] = row
    return format_table("Table 2: experimental configurations (1.00 = active)",
                        rows, column_order=["SA", "DA", "4A", "VF", "CH", "FH", "#RAs"],
                        row_label="Expt")


def _table3(scale: "Scale") -> str:
    from repro.experiments import format_table, table3_ratios

    ratios = table3_ratios(repetitions=scale.live_repetitions,
                           queries_per_stream=scale.live_queries)
    return format_table("Table 3: response-time ratio multibroker/single broker",
                        ratios, column_order=["4A", "DA", "SA", "VF", "FH", "CH"],
                        row_label="Expt")


def _table4(scale: "Scale") -> str:
    from repro.experiments import format_table, table4_ratios

    ratios = table4_ratios(repetitions=scale.live_repetitions,
                           queries_per_stream=scale.live_queries)
    return format_table(
        "Table 4: response-time ratio specialized/unspecialized multibrokering",
        {6: ratios}, column_order=["4A", "DA", "SA", "VF", "FH", "CH"],
        row_label="Expt")


def _figure(builder: Callable, title: str, scale: "Scale",
            log_y: bool = False, **kwargs) -> str:
    from repro.experiments import format_series
    from repro.experiments.report import format_ascii_chart

    series = builder(duration=scale.sim_duration, runs=scale.sim_runs, **kwargs)
    table = format_series(title, series, x_label="QF")
    chart = format_ascii_chart(f"{title} (chart)", series, log_y=log_y)
    return table + "\n\n" + chart


def _fig14(scale: "Scale") -> str:
    from repro.experiments import figure14_series

    return _figure(figure14_series,
                   "Figure 14: avg broker response (s) vs mean query interval",
                   scale, log_y=True)


def _fig15(scale: "Scale") -> str:
    from repro.experiments import figure15_series

    return _figure(figure15_series,
                   "Figure 15: replicated vs specialized (10 brokers)", scale)


def _fig16(scale: "Scale") -> str:
    from repro.experiments import figure16_series

    return _figure(figure16_series,
                   "Figure 16: replicated vs specialized (5 brokers)", scale)


def _fig17(scale: "Scale") -> str:
    from repro.experiments import figure17_series, format_series

    resources = (25, 50, 75, 100, 125, 150, 175, 200, 225) if scale.full \
        else (25, 75, 125, 175, 225)
    intervals = (40.0, 50.0, 60.0, 70.0, 80.0, 90.0) if scale.full \
        else (40.0, 60.0, 90.0)
    series = figure17_series(duration=scale.sim_duration, runs=scale.sim_runs,
                             resources=resources, intervals=intervals)
    return format_series("Figure 17: avg broker response (s) vs number of resources",
                         series, x_label="#RAs")


def _table5(scale: "Scale") -> str:
    from repro.experiments import table5_grid
    from repro.experiments.report import format_percentage_grid

    grid = table5_grid(redundancies=scale.redundancies,
                       duration=scale.sim_duration, runs=scale.sim_runs)
    return format_percentage_grid(
        "Table 5: percentage of queries that brokers reply to", grid)


def _table6(scale: "Scale") -> str:
    from repro.experiments import table6_grid
    from repro.experiments.report import format_percentage_grid

    grid = table6_grid(redundancies=scale.redundancies,
                       duration=scale.sim_duration, runs=scale.sim_runs)
    return format_percentage_grid(
        "Table 6: percentage of answered queries that found the match", grid)


class Scale:
    """Quick vs paper-scale experiment parameters."""

    def __init__(self, full: bool):
        self.full = full
        self.sim_duration = 43_200.0 if full else 7_200.0
        self.sim_runs = 10 if full else 3
        self.live_repetitions = 3 if full else 2
        self.live_queries = 30 if full else 8
        self.redundancies = (1, 2, 3, 4, 5) if full else (1, 3, 5)


TARGETS: Dict[str, Callable[[Scale], str]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "table4": _table4,
    "fig14": _fig14,
    "fig15": _fig15,
    "fig16": _fig16,
    "fig17": _fig17,
    "table5": _table5,
    "table6": _table6,
}


# ----------------------------------------------------------------------
# traced scenarios (``python -m repro trace <scenario>``)
# ----------------------------------------------------------------------
def _traced_quickstart(**broker_kwargs) -> str:
    """Two brokers: the resource advertises only to broker2 while the
    query path enters at broker1, so answering requires a forward hop."""
    from repro.community import CommunityBuilder
    from repro.ontology import demo_ontology
    from repro.relational.generate import generate_table

    onto = demo_ontology(1)
    community = (
        CommunityBuilder(ontologies=[onto])
        .with_brokers(2, **broker_kwargs)
        .with_resource("R1", {"C1": generate_table(onto, "C1", 12, seed=1)},
                       "demo", brokers=["broker2"])
        .with_query_agent(brokers=["broker1"])
        .with_user("alice", brokers=["broker1"])
        .build()
    )
    result = community.query("alice", "select * from C1 where c1_s1 >= 0")
    return (f"quickstart: 2 brokers, resource on broker2, query via broker1 "
            f"-> {result.row_count} rows (one forward hop)")


def _traced_multibroker(**broker_kwargs) -> str:
    """Three brokers in a chain: the query enters at one end, the data
    lives at the other, so the request traverses two forward hops."""
    from repro.community import CommunityBuilder
    from repro.ontology import demo_ontology
    from repro.relational.generate import generate_table

    onto = demo_ontology(1)
    community = (
        CommunityBuilder(ontologies=[onto])
        .with_brokers(3, topology="chain", **broker_kwargs)
        .with_resource("R1", {"C1": generate_table(onto, "C1", 8, seed=2)},
                       "demo", brokers=["broker3"])
        .with_query_agent(brokers=["broker1"])
        .with_user("alice", brokers=["broker1"])
        .build()
    )
    result = community.query("alice", "select * from C1")
    return (f"multibroker: 3 brokers in a chain, resource on broker3, query "
            f"via broker1 -> {result.row_count} rows (two forward hops)")


TRACE_SCENARIOS: Dict[str, Callable[[], str]] = {
    "quickstart": _traced_quickstart,
    "multibroker": _traced_multibroker,
}


# ----------------------------------------------------------------------
# explain scenarios (``python -m repro explain <scenario>``)
# ----------------------------------------------------------------------
def _explained_consortium(**broker_kwargs) -> str:
    """Three brokers in a full consortium with a one-strike circuit
    breaker; broker3 is dead, so the first query trips its breaker and
    the second is answered while skipping it outright — the hop graph
    names the skipped peer."""
    from repro.agents.faults import BreakerConfig
    from repro.community import CommunityBuilder
    from repro.ontology import demo_ontology
    from repro.relational.generate import generate_table

    onto = demo_ontology(1)
    community = (
        CommunityBuilder(ontologies=[onto])
        .with_brokers(
            3,
            breaker=BreakerConfig(failure_threshold=1, cooldown=3600.0),
            **broker_kwargs,
        )
        .with_resource("R1", {"C1": generate_table(onto, "C1", 6, seed=3)},
                       "demo", brokers=["broker2"])
        # One forwarding hop: the consortium is fully connected, so a
        # deeper search would only re-probe the dead peer from broker2
        # and stack a second peer-timeout inside the first.
        .with_query_agent(brokers=["broker1"], broker_hop_count=1)
        .with_user("alice", brokers=["broker1"])
        .build()
    )
    community.bus.set_offline("broker3")
    first = community.query("alice", "select * from C1")
    second = community.query("alice", "select * from C1 where c1_s1 >= 0")
    return (f"consortium: 3 brokers, broker3 dead; first query -> "
            f"{first.row_count} rows (breaker trips), second -> "
            f"{second.row_count} rows (broker3 skipped)")


EXPLAIN_SCENARIOS: Dict[str, Callable[..., str]] = {
    "quickstart": _traced_quickstart,
    "multibroker": _traced_multibroker,
    "consortium": _explained_consortium,
}


def _run_explain(scenario: Optional[str], metrics_path: Optional[str],
                 explain_out: Optional[str]) -> int:
    """Run one scenario with the flight recorder installed and render
    the matchmaking/forensics report; nonzero when any recommend yields
    an empty explanation."""
    import json

    from repro import obs
    from repro.experiments.report import format_explain_report

    name = scenario or "quickstart"
    builder = EXPLAIN_SCENARIOS.get(name)
    if builder is None:
        print(f"unknown explain scenario {name!r}; choose from: "
              f"{', '.join(EXPLAIN_SCENARIOS)}", file=sys.stderr)
        return 2
    recorder = obs.FlightRecorder(capacity=16)
    tracer = obs.ConversationTracer()
    metrics_observer = obs.MetricsObserver()
    with obs.installed(obs.compose(metrics_observer, tracer)):
        summary = builder(flight_recorder=recorder)
    print(summary)
    print()
    report = obs.explain_report(recorder, tracer.spans)
    print(format_explain_report(report))
    if explain_out:
        with open(explain_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, default=str)
            handle.write("\n")
        print(f"[explain report written to {explain_out}]")
    if metrics_path:
        from repro.obs.export import _latest_time

        obs.registry_to_json(metrics_observer.registry, metrics_path,
                             at=_latest_time(tracer))
        print(f"[metrics registry written to {metrics_path}]")
    # The explain invariant: one verdict per advertisement considered.
    # A broker with an empty repository legitimately yields an empty
    # verdict list, so compare against ads_considered rather than
    # demanding non-emptiness.
    empty = [
        entry["trace_id"] for entry in report["recommends"]
        if len((entry.get("explanation") or {}).get("verdicts", ()))
        != entry.get("ads_considered", 0)
    ]
    if empty:
        print(f"error: {len(empty)} recommend(s) missing explanations "
              f"(expected one verdict per advertisement): "
              f"{', '.join(empty)}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# chaos scenarios (``python -m repro chaos <scenario>``)
# ----------------------------------------------------------------------
#: (loss rate, partition duration in seconds) per named chaos scenario.
CHAOS_SCENARIOS: Dict[str, tuple] = {
    "baseline": (0.0, 0.0),
    "lossy": (0.10, 0.0),
    "partition": (0.0, 600.0),
    "harsh": (0.20, 600.0),
}


def _run_chaos(scenario: Optional[str], metrics_path: Optional[str],
               full: bool) -> int:
    """Run one chaos scenario against the robustness community and
    report how delivery degraded (or didn't)."""
    from repro import obs
    from repro.experiments.robustness import chaos_config
    from repro.sim.simulator import Simulation

    name = scenario or "baseline"
    if name not in CHAOS_SCENARIOS:
        print(f"unknown chaos scenario {name!r}; choose from: "
              f"{', '.join(CHAOS_SCENARIOS)}", file=sys.stderr)
        return 2
    loss, partition = CHAOS_SCENARIOS[name]
    duration = 43_200.0 if full else 3_600.0
    config = chaos_config(loss, partition, duration=duration)

    metrics_observer = obs.MetricsObserver()
    with obs.installed(metrics_observer):
        simulation = Simulation(config)
        report = simulation.run()

    stats = simulation.bus.stats
    faults = simulation.bus.faults.stats if simulation.bus.faults else None
    registry = metrics_observer.registry

    def counter_total(prefix: str) -> float:
        return sum(c.value for key, c in registry._counters.items()
                   if key == prefix or key.startswith(prefix + "{"))

    print(f"chaos scenario {name!r}: loss={loss:.0%}, "
          f"partition={partition:.0f}s, duration={duration:.0f}s")
    print(f"  queries issued     {report.queries_issued}")
    print(f"  reply fraction     {report.reply_fraction:.1%}")
    print(f"  success fraction   {report.success_fraction:.1%}")
    print(f"  messages delivered {stats.messages_delivered}")
    print(f"  dropped (injected) {stats.dropped_injected}")
    print(f"  dropped (offline)  {stats.dropped_offline}")
    if faults is not None:
        print(f"    by loss          {faults.dropped_loss}")
        print(f"    by partition     {faults.dropped_partition}")
        print(f"    duplicated       {faults.duplicated}")
    print(f"  retries            {counter_total('agent.retry.count'):.0f}")
    print(f"  duplicates deduped {counter_total('agent.dedup.count'):.0f}")
    print(f"  breaker openings   {counter_total('broker.breaker.open'):.0f}")
    if metrics_path:
        obs.registry_to_json(registry, metrics_path, at=simulation.bus.now)
        print(f"[metrics registry written to {metrics_path}]")
    return 0


# ----------------------------------------------------------------------
# overload scenarios (``python -m repro overload <scenario>``)
# ----------------------------------------------------------------------
#: (capacity, policy, burst, brownout) per named overload scenario.
#: ``calm`` is the protected stack with no flash crowd (it should change
#: nothing); ``burst`` is the headline comparison cell; ``brownout``
#: additionally sheds consortium fan-out under backlog.
OVERLOAD_SCENARIOS: Dict[str, tuple] = {
    "calm": (8, "reject", False, False),
    "burst": (8, "reject", True, False),
    "brownout": (8, "reject", True, True),
    "unbounded": (None, "reject", True, False),
}


def _run_overload(scenario: Optional[str], metrics_path: Optional[str],
                  full: bool) -> int:
    """Run one overload scenario against the robustness community and
    report goodput, sheds, and what the protection stack did."""
    from repro import obs
    from repro.experiments.robustness import overload_config
    from repro.sim.simulator import Simulation

    name = scenario or "burst"
    if name not in OVERLOAD_SCENARIOS:
        print(f"unknown overload scenario {name!r}; choose from: "
              f"{', '.join(OVERLOAD_SCENARIOS)}", file=sys.stderr)
        return 2
    capacity, policy, burst, brownout = OVERLOAD_SCENARIOS[name]
    duration = 43_200.0 if full else 3_600.0
    config = overload_config(capacity, policy, burst=burst,
                             brownout=brownout, duration=duration)

    metrics_observer = obs.MetricsObserver()
    with obs.installed(metrics_observer):
        simulation = Simulation(config)
        report = simulation.run()

    stats = simulation.bus.stats
    registry = metrics_observer.registry

    def counter_total(prefix: str) -> float:
        return sum(c.value for key, c in registry._counters.items()
                   if key == prefix or key.startswith(prefix + "{"))

    tail = report._tail_cutoff
    answered = report.metrics.completed(after=config.warmup, before=tail)
    window_min = (tail - config.warmup) / 60.0
    print(f"overload scenario {name!r}: capacity={capacity}, "
          f"policy={policy!r}, burst={'10x' if burst else 'off'}, "
          f"brownout={brownout}, duration={duration:.0f}s")
    print(f"  queries issued     {report.queries_issued}")
    print(f"  reply fraction     {report.reply_fraction:.1%}")
    print(f"  goodput            {len(answered) / window_min:.1f} replies/min")
    print(f"  shed (reject)      {stats.shed_reject}")
    print(f"  shed (drop-oldest) {stats.shed_oldest}")
    print(f"  shed (drop-new)    {stats.shed_new}")
    print(f"  shed (expired)     {stats.shed_expired}")
    print(f"  mailbox offered    {stats.mailbox_offered}")
    print(f"  mailbox accepted   {stats.mailbox_accepted}")
    print(f"  maintenance bypass {stats.maintenance_bypass}")
    print(f"  admission sheds    {counter_total('broker.admission.shed'):.0f}")
    print(f"  brownout replies   "
          f"{counter_total('broker.admission.brownout'):.0f}")
    print(f"  expired at broker  "
          f"{counter_total('broker.admission.expired'):.0f}")
    if metrics_path:
        obs.registry_to_json(registry, metrics_path, at=simulation.bus.now)
        print(f"[metrics registry written to {metrics_path}]")
    return 0


# ----------------------------------------------------------------------
# live-ops load harness (``python -m repro load <shape>``)
# ----------------------------------------------------------------------
def _run_load(shape: Optional[str], metrics_path: Optional[str], full: bool,
              headless: bool, series_out: Optional[str]) -> int:
    """Drive one open-loop workload shape with the streaming RED/USE
    plane attached, repainting the live console each virtual-time step
    (one static frame in ``--headless`` mode).  Exits non-zero if the
    plane captured no RED or no USE signal — the acceptance check that
    the observer-derived series actually flow."""
    from repro import obs
    from repro.experiments.console import CLEAR, render_frame
    from repro.experiments.workload import (WORKLOAD_SHAPES, summarize_run,
                                            workload_config)
    from repro.sim.simulator import Simulation

    name = shape or "steady"
    if name not in WORKLOAD_SHAPES:
        print(f"unknown workload shape {name!r}; choose from: "
              f"{', '.join(WORKLOAD_SHAPES)}", file=sys.stderr)
        return 2
    duration = 43_200.0 if full else 3_600.0
    plane = obs.TimeSeriesObserver(window_s=60.0, capacity=720)
    observer = plane
    metrics_observer = None
    if metrics_path:
        metrics_observer = obs.MetricsObserver()
        observer = obs.compose(metrics_observer, plane)
    simulation = Simulation(workload_config(name, duration=duration),
                            observer=observer)
    frames = 30
    step = duration / frames
    elapsed = 0.0
    while elapsed < duration:
        elapsed = min(duration, elapsed + step)
        simulation.advance(elapsed)
        if not headless:
            print(CLEAR + render_frame(plane, simulation.bus.now, shape=name),
                  end="", flush=True)
    report = simulation.finalize()
    if headless:
        print(render_frame(plane, simulation.bus.now, shape=name), end="")
    print()
    cell = summarize_run(name, simulation, report)
    print(f"load shape {name!r}: duration={duration:.0f}s, "
          f"seed={report.config.seed}")
    print(f"  queries issued     {cell['queries_issued']}")
    print(f"  reply fraction     {cell['reply_fraction']:.1%}")
    print(f"  goodput            {cell['goodput_per_min']:.1f} replies/min")
    print(f"  p95 response       {cell['p95_response_s']:.1f}s")
    print(f"  shed rate          {cell['shed_rate']:.1%}")
    print(f"  queue high water   {cell['queue_depth_high_water']}")
    if series_out:
        count = obs.write_series_jsonl(series_out, plane)
        print(f"[{count} window records written to {series_out}]")
    if metrics_path:
        obs.registry_to_json(metrics_observer.registry, metrics_path,
                             at=simulation.bus.now)
        print(f"[metrics registry written to {metrics_path}]")
    has_red = any(
        key[0].startswith("red.")
        for window in plane.series.windows
        for key in (*window.counters, *window.sketches)
    )
    has_use = any(
        any(key[0].startswith("use.") for key in window.counters)
        or window.gauges
        for window in plane.series.windows
    )
    if not (has_red and has_use):
        print("error: the time-series plane captured no "
              f"{'RED' if not has_red else 'USE'} signal", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# MRQ resilience scenarios (``python -m repro mrq-chaos <scenario>``)
# ----------------------------------------------------------------------
#: (loss, partition seconds, churn, protected) per named scenario.
#: ``unprotected`` is the same chaos as ``harsh`` with no resilience
#: config, so the MRQ plans the paper's query-every-match fragments (one
#: per recommended resource, never failed over), for an A/B comparison.
MRQ_CHAOS_SCENARIOS: Dict[str, tuple] = {
    "calm": (0.0, 0.0, False, True),
    "lossy": (0.2, 0.0, False, True),
    "harsh": (0.2, 300.0, True, True),
    "unprotected": (0.2, 300.0, True, False),
}


def _run_mrq_chaos(scenario: Optional[str], metrics_path: Optional[str],
                   full: bool) -> int:
    """Run one multi-source query community under provider chaos and
    report completeness, honesty, and what failover/hedging did.
    Exits non-zero if any answer was silently incomplete."""
    from repro import obs
    from repro.experiments.robustness import mrq_resilience_run

    name = scenario or "harsh"
    if name not in MRQ_CHAOS_SCENARIOS:
        print(f"unknown mrq-chaos scenario {name!r}; choose from: "
              f"{', '.join(MRQ_CHAOS_SCENARIOS)}", file=sys.stderr)
        return 2
    loss, partition_s, churn, protected = MRQ_CHAOS_SCENARIOS[name]
    queries = 30 if full else 15
    metrics_observer = obs.MetricsObserver()
    row = mrq_resilience_run(loss=loss, partition_s=partition_s, churn=churn,
                             protected=protected, queries=queries,
                             observer=metrics_observer)

    print(f"mrq-chaos scenario {name!r}: loss={loss:.0%}, "
          f"partition={partition_s:.0f}s, churn={churn}, "
          f"{'failover+hedge' if protected else 'legacy fan-out'}, "
          f"queries={queries}")
    print(f"  answered            {row['answered']}/{row['queries']}")
    print(f"  complete            {row['complete']}")
    print(f"  honest partial      {row['partial']}")
    print(f"  failed              {row['failed']}")
    print(f"  silently incomplete {row['dishonest']}")
    print(f"  p95 response        {row['p95_response_s']:.1f}s")
    print(f"  provider failovers  {row['failover']:.0f}")
    print(f"  hedges sent/won     {row['hedges']:.0f}/{row['hedge_wins']:.0f}")
    print(f"  broker failovers    {row['broker_failover']:.0f}")
    print(f"  fragments exhausted {row['fragments_exhausted']:.0f}")
    if metrics_path:
        obs.registry_to_json(metrics_observer.registry, metrics_path)
        print(f"[metrics registry written to {metrics_path}]")
    if row["dishonest"]:
        print("error: incomplete answers shipped without a :partial "
              "annotation", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# recovery scenarios (``python -m repro recover <path>``)
# ----------------------------------------------------------------------
#: The three crash-healing paths (see experiments.robustness).
RECOVERY_SCENARIOS = ("cold", "replay", "sync")


def _run_recover(scenario: Optional[str], metrics_path: Optional[str],
                 full: bool) -> int:
    """Crash broker0 mid-run, restart it, and report how long its
    repository took to reconverge via the chosen recovery path."""
    from repro import obs
    from repro.experiments.robustness import measure_reconvergence

    name = scenario or "replay"
    if name not in RECOVERY_SCENARIOS:
        print(f"unknown recovery path {name!r}; choose from: "
              f"{', '.join(RECOVERY_SCENARIOS)}", file=sys.stderr)
        return 2
    duration = 7_200.0 if full else 2_400.0
    metrics_observer = obs.MetricsObserver()
    row = measure_reconvergence(name, duration=duration,
                                observer=metrics_observer)

    print(f"recovery path {name!r}: crash at t=600s, restart at t=900s, "
          f"duration={duration:.0f}s")
    print(f"  pre-crash converged  {row['pre_crash_converged']}")
    reconverged = row["reconverged_at"]
    if reconverged is None:
        print("  reconverged          never (horizon reached)")
    else:
        print(f"  reconverged at       t={reconverged:.0f}s "
              f"({row['reconvergence_s']:.0f}s after restart)")
    print(f"  journal replayed     {row['replayed']:.0f} records")
    print(f"  anti-entropy pulled  {row['sync_pulled']:.0f} records")
    print(f"  advertise messages   {row['readvertise_count']:.0f}")
    print(f"  reply fraction       {row['reply_fraction']:.1%}")
    if metrics_path:
        obs.registry_to_json(metrics_observer.registry, metrics_path)
        print(f"[metrics registry written to {metrics_path}]")
    return 0


# ----------------------------------------------------------------------
# telemetry commands (``python -m repro profile | health | bench``)
# ----------------------------------------------------------------------
def _profiled_sim(full: bool) -> str:
    """A journaled community under load: exercises every instrumented
    phase (bus.deliver, cache.lookup, match probes, journal.append)."""
    from repro.sim.config import SimConfig
    from repro.sim.simulator import run_simulation

    config = SimConfig(duration=7_200.0 if full else 1_800.0,
                       broker_journal=True)
    report = run_simulation(config)
    return (f"sim: {config.n_brokers} brokers / {config.n_resources} "
            f"resources for {config.duration:.0f}s -> "
            f"{report.queries_issued} queries, "
            f"reply fraction {report.reply_fraction:.1%}")


def _run_profile(scenario: Optional[str], profile_out: Optional[str],
                 full: bool) -> int:
    """Run one scenario under the phase profiler and print the self-time
    report; optionally export collapsed stacks for flamegraph tooling."""
    from repro.obs.profiler import PROFILER, profiling

    name = scenario or "sim"
    if name == "sim":
        runner = lambda: _profiled_sim(full)  # noqa: E731
    elif name in TRACE_SCENARIOS:
        runner = TRACE_SCENARIOS[name]
    else:
        print(f"unknown profile scenario {name!r}; choose from: "
              f"sim, {', '.join(TRACE_SCENARIOS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    with profiling(PROFILER):
        summary = runner()
        collapsed = PROFILER.collapsed()
        report = PROFILER.self_report()
    elapsed = time.perf_counter() - started
    print(summary)
    print()
    print(report)
    print(f"\n[profiled {elapsed:.2f}s wall]")
    if profile_out:
        with open(profile_out, "w", encoding="utf-8") as handle:
            handle.write(collapsed)
        print(f"[collapsed stacks written to {profile_out}]")
    return 0


def _run_health(metrics_in: Optional[str], slo_spec: Optional[str],
                metrics_path: Optional[str], full: bool) -> int:
    """Evaluate the SLOs against a metrics snapshot — from a file, or
    from a fresh simulation run — and exit non-zero on violation."""
    import json

    from repro import obs

    specs = obs.load_slo_specs(slo_spec) if slo_spec else obs.DEFAULT_SLOS
    if metrics_in:
        with open(metrics_in, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        print(f"evaluating {len(specs)} SLOs against {metrics_in}")
    else:
        from repro.sim.config import SimConfig
        from repro.sim.simulator import run_simulation

        config = SimConfig(duration=43_200.0 if full else 3_600.0)
        metrics_observer = obs.MetricsObserver()
        with obs.installed(metrics_observer):
            run_simulation(config)
        snapshot = metrics_observer.registry.snapshot()
        print(f"evaluating {len(specs)} SLOs against a "
              f"{config.duration:.0f}s simulation run")
        if metrics_path:
            obs.registry_to_json(metrics_observer.registry, metrics_path)
            print(f"[metrics registry written to {metrics_path}]")
    print()
    results = obs.evaluate_slos(snapshot, specs)
    print(obs.format_health(results))
    if not obs.health_ok(results):
        violated = [r.spec.name for r in results if r.ok is False]
        print(f"\nhealth check FAILED: {', '.join(violated)}",
              file=sys.stderr)
        return 1
    print("\nhealth check OK")
    return 0


def _run_bench(bench_dir: str, out: Optional[str], check: bool,
               baseline_path: str, threshold: float,
               write_baseline: bool) -> int:
    """Aggregate every BENCH_*.json into the unified scoreboard; with
    ``--check``, gate against the committed baseline."""
    import json
    import os

    from repro import obs

    if not os.path.isdir(bench_dir):
        print(f"benchmark directory not found: {bench_dir}", file=sys.stderr)
        return 2
    report = obs.build_report(bench_dir)
    print(obs.format_report(report))
    # A check compares in memory: it leaves the committed report alone
    # unless --out names a place for it.
    if out or not check:
        out_path = out or os.path.join(bench_dir, "BENCH_report.json")
        obs.write_report(report, out_path)
        print(f"\n[report written to {out_path}]")
    if write_baseline:
        obs.write_report(report, baseline_path)
        print(f"[baseline written to {baseline_path}]")
    if check:
        if not os.path.exists(baseline_path):
            print(f"no baseline at {baseline_path} "
                  f"(generate one with --write-baseline)", file=sys.stderr)
            return 2
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = obs.check_report(report, baseline, threshold=threshold)
        print()
        print(obs.format_check(regressions, threshold))
        if regressions:
            return 1
    return 0


def _run_trace(example: Optional[str], metrics_path: Optional[str],
               jsonl_path: Optional[str]) -> int:
    from repro import obs

    name = example or "quickstart"
    scenario = TRACE_SCENARIOS.get(name)
    if scenario is None:
        print(f"unknown trace scenario {name!r}; choose from: "
              f"{', '.join(TRACE_SCENARIOS)}", file=sys.stderr)
        return 2
    tracer = obs.ConversationTracer()
    metrics_observer = obs.MetricsObserver()
    with obs.installed(obs.compose(metrics_observer, tracer)):
        summary = scenario()
    print(summary)
    print()
    print(obs.render_span_tree(tracer))
    closed = [s for s in tracer.spans if s.end is not None]
    print()
    print(f"[{len(tracer.spans)} spans ({len(closed)} closed), "
          f"{len(tracer.messages)} messages delivered]")
    if jsonl_path:
        obs.write_jsonl(jsonl_path, tracer)
        print(f"[trace events written to {jsonl_path}]")
    if metrics_path:
        from repro.obs.export import _latest_time

        obs.registry_to_json(metrics_observer.registry, metrics_path,
                             at=_latest_time(tracer))
        print(f"[metrics registry written to {metrics_path}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the InfoSleuth paper's tables and figures.",
    )
    parser.add_argument(
        "target",
        choices=[*TARGETS, "all", "list", "trace", "chaos", "overload",
                 "load", "mrq-chaos", "recover", "explain", "profile",
                 "health", "bench"],
        help="which table/figure to regenerate ('all' for everything, "
             "'list' to enumerate targets, 'trace' to run an instrumented "
             "example community and print its conversation span tree, "
             "'chaos' to run a fault-injected robustness scenario, "
             "'overload' to run a flash-crowd scenario with or without "
             "the overload-protection stack, "
             "'load' to drive an open-loop workload shape under the live "
             "RED/USE ops console, "
             "'mrq-chaos' to run a multi-source query community under "
             "provider chaos with or without failover/hedging "
             "(non-zero exit on silently incomplete answers), "
             "'recover' to crash and heal a broker via a recovery path, "
             "'explain' to run a flight-recorded scenario and print its "
             "matchmaking verdicts and cross-broker hop graphs, "
             "'profile' to run a scenario under the phase profiler, "
             "'health' to evaluate SLOs (non-zero exit on violation), "
             "'bench' to aggregate BENCH_*.json into the scoreboard)",
    )
    parser.add_argument(
        "example", nargs="?", default=None,
        help="for 'trace': the scenario to run "
             f"({', '.join(TRACE_SCENARIOS)}; default quickstart); "
             "for 'chaos': the fault scenario "
             f"({', '.join(CHAOS_SCENARIOS)}; default baseline); "
             "for 'overload': the load scenario "
             f"({', '.join(OVERLOAD_SCENARIOS)}; default burst); "
             "for 'load': the traffic shape "
             "(steady, bursty, flashcrowd, churn; default steady); "
             "for 'mrq-chaos': the provider-chaos scenario "
             f"({', '.join(MRQ_CHAOS_SCENARIOS)}; default harsh); "
             "for 'recover': the healing path "
             f"({', '.join(RECOVERY_SCENARIOS)}; default replay); "
             "for 'explain': the forensics scenario "
             f"({', '.join(EXPLAIN_SCENARIOS)}; default quickstart); "
             "for 'profile': the profiled scenario "
             f"(sim, {', '.join(TRACE_SCENARIOS)}; default sim)",
    )
    parser.add_argument(
        "--full-scale", action="store_true",
        help="paper-scale parameters (12 simulated hours, 10 replicates); "
             "much slower",
    )
    parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="record counters/histograms while running and write the "
             "metrics registry to PATH as JSON",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="for 'trace': also write the span/message event stream to "
             "PATH as JSONL",
    )
    parser.add_argument(
        "--explain-out", metavar="PATH", default=None,
        help="for 'explain': also write the forensics report to PATH as "
             "JSON",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="for 'profile': also write collapsed stacks (flamegraph "
             "format) to PATH",
    )
    parser.add_argument(
        "--headless", action="store_true",
        help="for 'load': no live repaints — print one final frame and "
             "the summary (CI mode)",
    )
    parser.add_argument(
        "--series-out", metavar="PATH", default=None,
        help="for 'load': write the windowed RED/USE time-series to PATH "
             "as JSONL (one window record per line)",
    )
    parser.add_argument(
        "--metrics-in", metavar="PATH", default=None,
        help="for 'health': evaluate an existing metrics-registry JSON "
             "snapshot instead of running a fresh simulation",
    )
    parser.add_argument(
        "--slo-spec", metavar="PATH", default=None,
        help="for 'health': load declarative SLO specs from this JSON "
             "file instead of the built-in defaults",
    )
    parser.add_argument(
        "--bench-dir", metavar="DIR", default="benchmarks",
        help="for 'bench': directory holding the BENCH_*.json artifacts "
             "(default: benchmarks)",
    )
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="for 'bench': where to write the unified report "
             "(default: <bench-dir>/BENCH_report.json; with --check, "
             "written only when given)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="for 'bench': compare against the committed baseline and "
             "exit non-zero on regressions",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="for 'bench': the baseline report to gate against "
             "(default: <bench-dir>/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.10,
        help="for 'bench --check': relative worsening tolerated before "
             "an indicator counts as regressed (default: 0.10)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="for 'bench': also write the current report as the new "
             "baseline",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "list":
        for name in TARGETS:
            print(name)
        for name in TRACE_SCENARIOS:
            print(f"trace {name}")
        for name in CHAOS_SCENARIOS:
            print(f"chaos {name}")
        for name in OVERLOAD_SCENARIOS:
            print(f"overload {name}")
        from repro.experiments.workload import WORKLOAD_SHAPES

        for name in WORKLOAD_SHAPES:
            print(f"load {name}")
        for name in MRQ_CHAOS_SCENARIOS:
            print(f"mrq-chaos {name}")
        for name in RECOVERY_SCENARIOS:
            print(f"recover {name}")
        for name in EXPLAIN_SCENARIOS:
            print(f"explain {name}")
        for name in ("sim", *TRACE_SCENARIOS):
            print(f"profile {name}")
        print("health")
        print("bench")
        return 0
    if args.target == "trace":
        return _run_trace(args.example, args.metrics, args.trace_jsonl)
    if args.target == "explain":
        return _run_explain(args.example, args.metrics, args.explain_out)
    if args.target == "chaos":
        return _run_chaos(args.example, args.metrics, args.full_scale)
    if args.target == "overload":
        return _run_overload(args.example, args.metrics, args.full_scale)
    if args.target == "load":
        return _run_load(args.example, args.metrics, args.full_scale,
                         args.headless, args.series_out)
    if args.target == "mrq-chaos":
        return _run_mrq_chaos(args.example, args.metrics, args.full_scale)
    if args.target == "recover":
        return _run_recover(args.example, args.metrics, args.full_scale)
    if args.target == "profile":
        return _run_profile(args.example, args.profile_out, args.full_scale)
    if args.target == "health":
        return _run_health(args.metrics_in, args.slo_spec, args.metrics,
                           args.full_scale)
    if args.target == "bench":
        import os as _os

        return _run_bench(
            args.bench_dir,
            args.out,
            args.check,
            args.baseline or _os.path.join(args.bench_dir,
                                           "BENCH_baseline.json"),
            args.threshold,
            args.write_baseline,
        )

    scale = Scale(full=args.full_scale)
    targets = list(TARGETS) if args.target == "all" else [args.target]

    from contextlib import nullcontext

    if args.metrics:
        from repro import obs

        metrics_observer = obs.MetricsObserver()
        observing = obs.installed(metrics_observer)
    else:
        metrics_observer = None
        observing = nullcontext()

    with observing:
        for name in targets:
            started = time.perf_counter()
            output = TARGETS[name](scale)
            elapsed = time.perf_counter() - started
            print(output)
            print(f"[{name}: regenerated in {elapsed:.1f}s wall]")
            print()

    if args.metrics:
        from repro.obs import registry_to_json

        registry_to_json(metrics_observer.registry, args.metrics)
        print(f"[metrics registry written to {args.metrics}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
