"""The benchmark's harness: what one batch process does, and how one
run is made of batches.

A **run** (``child.py``) is a sequence of **batches**, each in a fresh
process of its own (``batch.py``), so that every batch pays interpreter
start-up and imports, has its own peak memory, and inherits no heap or
garbage-collector state from the one before.  Batch *b* of a run with
seed *S* generates its inputs from ``S * 1000 + b``, sets the workload
up from scratch, times the measured section, and only then checks the
outputs.  An end-to-end metric is one statistic over the run's batches
(the fastest batch for times; see :func:`end_to_end_metrics`), tracing
off.  With ``--trace 1`` the run is instead a single process
that runs batch 0 untraced and then again under
:mod:`benchmarks.perf.spans`, and reports the per-layer ledger;
end-to-end metrics never come from that run.

Nothing here imports the program at module level: the run-level code
only spawns processes, and the batch-level code imports the workloads
when it needs them.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: A run never reports on fewer batches than this.
MIN_BATCHES = 4


def load_spec():
    """``BENCHMARK.json``: the one list of metric names, units, bounds."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def percentile(values, fraction):
    """Nearest-rank percentile of *values* (0.0 when there are none)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def run_json(command, what):
    """Run *command* to its end; its exit status and the JSON object on
    the last line it printed.  Printing nothing is fatal."""
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{what} exited {done.returncode} without a result")
    return done.returncode, json.loads(lines[-1])


def parse_args(argv, prog, description):
    """Both entry points take the same arguments; ``--seed`` is the
    run's seed for ``child.py`` and the batch's own for ``batch.py``."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in load_spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="measured time to accumulate over batches")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--batches", type=int, default=0,
                        help="exactly this many batches, whatever --seconds")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the stated one")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one batch (inside a batch process)
# ----------------------------------------------------------------------
def calibrate():
    """Seconds for a fixed pure-Python loop: tells a slow machine from
    a slow program when two result files disagree."""
    started = perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return perf_counter() - started


@dataclass
class Batch:
    """One set-up + measured section, and what the check made of it."""

    workload: object
    ready_epoch: float  # ``time.time()`` when the measured section began
    wall_s: float
    oracle_s: float
    verdict: object
    bus_before: dict


def bus_counters(workload):
    stats = workload.bus.stats if workload.bus is not None else None
    return {
        name: getattr(stats, name, 0)
        for name in ("messages_delivered", "timers_fired", "messages_shed",
                     "queue_depth_high_water")
    }


def run_batch(name, seed, scale, recorder=None):
    """Set up and measure one batch; with *recorder* the measured
    section (and only it) is recorded as spans."""
    from benchmarks.perf.workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, scale,
                   recorder.observe if recorder is not None else (lambda o: o))
    bus_before = bus_counters(workload)
    if recorder is not None:
        recorder.reset()
    ready_epoch = time.time()
    started = perf_counter()
    workload.measure()
    finished = perf_counter()
    verdict = workload.verify()
    return Batch(workload, ready_epoch, finished - started,
                 perf_counter() - finished, verdict, bus_before)


# ----------------------------------------------------------------------
# --trace 1: the per-layer ledger
# ----------------------------------------------------------------------
def per_layer_metrics(plain, traced, recorder, calib_s):
    """The ledger: span self times and boundary counts from the traced
    batch, work counters from the program's public stats, and per-call
    latencies from the untraced batch (tracing would inflate them)."""
    rec, workload, verdict = recorder, traced.workload, traced.verdict
    self_time, calls, counts = rec.self_time, rec.call_count, rec.counts
    on_bus = workload.bus is not None
    bus_after = bus_counters(workload)
    bus = {key: bus_after[key] - traced.bus_before[key] for key in bus_after}
    delivered = bus["messages_delivered"]
    stats = workload.stats_delta()
    queries = stats.get("queries_answered", 0)
    hits = stats.get("cache_hits", 0)

    bus_self = self_time("agents.bus.run_until", "agents.bus.run",
                         "agents.bus.send")
    broker_self = self_time("agents.broker.handle", "agents.broker.recommend",
                            "agents.broker.timer")
    recommends = calls("agents.broker.recommend")
    mrq_self = self_time("agents.mrq.handle", "agents.mrq.timer")
    mrq_queries = counts["agents.mrq.asks"]
    hook_self = self_time("obs.hook")
    query_calls = calls("core.repository.query")
    overlap_calls = calls("constraints.overlap")

    query_s, write_s = plain.workload.query_s, plain.workload.write_s
    after_write = query_s[::10] if write_s else []

    return {
        "agents.bus.dispatch_self_s": bus_self,
        "agents.bus.events": delivered + bus["timers_fired"],
        "agents.bus.messages_delivered": delivered,
        "agents.bus.timers_fired": bus["timers_fired"],
        "agents.bus.messages_shed": bus["messages_shed"],
        "agents.bus.queue_depth_high_water": bus_after["queue_depth_high_water"],
        "agents.bus.us_per_msg": ratio(bus_self, delivered) * 1e6,
        "agents.bus.msgs_per_s": ratio(delivered, plain.wall_s),
        "agents.base.handle_self_s": self_time("agents.base.handle"),
        "agents.base.handle_calls": calls("agents.base.handle"),
        "agents.base.timer_self_s": self_time("agents.base.timer"),
        "agents.base.timer_calls": calls("agents.base.timer"),
        "kqml.message_init_calls": calls("kqml.message_init"),
        "kqml.message_init_self_s": self_time("kqml.message_init"),
        "agents.broker.handle_self_s": broker_self,
        "agents.broker.handle_calls": calls("agents.broker.handle",
                                            "agents.broker.recommend"),
        "agents.broker.recommends": recommends,
        "agents.broker.us_per_recommend": ratio(
            self_time("agents.broker.recommend"), recommends) * 1e6,
        "agents.broker.forwards": counts["agents.broker.sent"],
        "sim.loadgen_self_s": self_time("sim.loadgen.handle",
                                        "sim.loadgen.timer"),
        "sim.queries_issued": verdict.attempted if on_bus else 0,
        "sim.queries_answered": verdict.useful if on_bus else 0,
        "sim.virtual_mean_response_s": ratio(sum(verdict.responses),
                                             len(verdict.responses)),
        "sim.virtual_p95_response_s": percentile(verdict.responses, 0.95),
        "obs.hook_calls": calls("obs.hook"),
        "obs.hook_self_s": hook_self,
        "obs.us_per_msg": ratio(hook_self, delivered) * 1e6,
        "core.repository.query_self_s": self_time("core.repository.query"),
        "core.repository.query_calls": query_calls,
        "core.repository.cache_hit_ratio": ratio(
            hits, hits + stats.get("cache_misses", 0)),
        "core.repository.ads_considered_ratio": ratio(
            stats.get("advertisements_reasoned_over", 0),
            queries * len(workload.ads)),
        "core.repository.advertise_self_s": self_time(
            "core.repository.advertise"),
        "core.repository.advertise_calls": calls("core.repository.advertise"),
        "core.repository.unadvertise_self_s": self_time(
            "core.repository.unadvertise"),
        "core.repository.first_query_after_write_us": median(after_write) * 1e6,
        "core.repository.query_p50_us": median(query_s) * 1e6,
        "core.repository.query_p99_us": percentile(query_s, 0.99) * 1e6,
        "core.repository.write_p50_us": median(write_s) * 1e6,
        "core.repository.write_p95_us": percentile(write_s, 0.95) * 1e6,
        "constraints.overlap_calls": overlap_calls,
        "constraints.overlap_self_s": self_time("constraints.overlap"),
        "constraints.overlaps_per_query": ratio(overlap_calls, query_calls),
        "agents.mrq.handle_self_s": mrq_self,
        "agents.mrq.queries": mrq_queries,
        "agents.mrq.us_per_query": ratio(mrq_self, mrq_queries) * 1e6,
        "agents.mrq.subqueries": counts["agents.mrq.sent"],
        "agents.resource.handle_self_s": self_time("agents.resource.handle",
                                                   "agents.resource.timer"),
        "agents.resource.subqueries_served": counts["agents.resource.asks"],
        "sql.execute_calls": calls("sql.execute"),
        "sql.execute_self_s": self_time("sql.execute"),
        "sql.rows_scanned": counts["sql.rows_scanned"],
        "relational.insert_calls": calls("relational.insert"),
        "relational.insert_self_s": self_time("relational.insert"),
        "relational.combine_self_s": self_time("relational.combine"),
        "trace.coverage": ratio(rec.total_self_time(), traced.wall_s),
        "trace.overhead_ratio": ratio(traced.wall_s, plain.wall_s),
        "trace.spans": len(rec.starts),
        "env.oracle_s": plain.oracle_s + traced.oracle_s,
        "env.calib_s": calib_s,
    }


def traced_batch(name, seed, scale):
    """The same batch twice — untraced, then under the span wrappers —
    so latencies and ``trace.overhead_ratio`` have an untraced base."""
    from benchmarks.perf.spans import tracing

    calib_before = calibrate()
    plain = run_batch(name, seed, scale)
    gc.collect()  # the first pass's garbage is not the second's cost
    with tracing() as recorder:
        traced = run_batch(name, seed, scale, recorder)
    calib_s = median([calib_before, calibrate()])
    ledger = per_layer_metrics(plain, traced, recorder, calib_s)
    OUT_DIR.mkdir(exist_ok=True)
    recorder.dump(OUT_DIR / f"trace_{name}.json", workload=name, seed=seed,
                  scale=scale, traced_wall_s=traced.wall_s)
    return [plain, traced], ledger


def batch_main(argv):
    """``batch.py``: one batch in this process, one JSON record out."""
    args = parse_args(argv, "benchmarks/perf/batch.py", batch_main.__doc__)
    record = {}
    if args.trace:
        batches, record["ledger"] = traced_batch(
            args.workload, args.seed, args.scale)
    else:
        batches = [run_batch(args.workload, args.seed, args.scale)]
        record["ready_epoch"] = batches[0].ready_epoch
        record["wall_s"] = batches[0].wall_s
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for key in ("attempted", "useful", "wrong"):
        record[key] = sum(getattr(b.verdict, key) for b in batches)
    print(json.dumps(record))
    return 0


# ----------------------------------------------------------------------
# one run (spawns batch processes)
# ----------------------------------------------------------------------
def spawn_batch(args, index):
    """Batch *index* of the run in a process of its own; its record,
    with ``setup_s`` counted from the moment of spawning."""
    command = [
        sys.executable, str(HERE / "batch.py"),
        "--workload", args.workload, "--seed", str(args.seed * 1000 + index),
        "--scale", str(args.scale), "--trace", str(args.trace),
    ]
    spawned = time.time()
    status, record = run_json(command, f"batch {index} of {args.workload}")
    if status != 0:
        raise SystemExit(f"batch {index} of {args.workload} exited {status}")
    if "ready_epoch" in record:
        record["setup_s"] = record.pop("ready_epoch") - spawned
    return record


def end_to_end_metrics(batches):
    """One value per metric from the run's batches.

    Times are the *fastest* batch's (and throughput the best batch's):
    interference from outside the process only ever adds time, and on a
    shared machine it comes in bursts that slow several consecutive
    batches, which a median would pass on.  Memory and the answered
    share are properties of the input, not of the machine's mood, so
    they are medians: one batch that drew an unlucky community (a seed
    that overloads one broker, say) does not decide the run's value."""
    return {
        "setup_s": min(b["setup_s"] for b in batches),
        "wall_s": min(b["wall_s"] for b in batches),
        "queries_per_s": max(ratio(b["useful"], b["wall_s"]) for b in batches),
        "peak_rss_mb": median([b["peak_rss_mb"] for b in batches]),
        "answered_fraction": median([ratio(b["useful"], b["attempted"])
                                     for b in batches]),
    }


def run_main(argv):
    """``child.py``: one run of one workload, one JSON result line out."""
    args = parse_args(argv, "benchmarks/perf/child.py", run_main.__doc__)
    spec = load_spec()
    if args.trace:
        batches = [spawn_batch(args, 0)]
        values, declared = batches[0]["ledger"], spec["per_layer"]
    else:
        batches = []
        while (len(batches) < args.batches if args.batches
               else len(batches) < MIN_BATCHES
               or sum(b["wall_s"] for b in batches) < args.seconds):
            batches.append(spawn_batch(args, len(batches)))
        values, declared = end_to_end_metrics(batches), spec["end_to_end"]
    names = {metric["name"] for metric in declared}
    if set(values) != names:
        raise SystemExit(f"metrics computed and metrics declared in "
                         f"{SPEC_PATH.name} differ: {sorted(set(values) ^ names)}")
    failed = sum(b["wrong"] for b in batches)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(b["attempted"] for b in batches),
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in declared
        },
    }))
    return 0 if failed == 0 else 1
