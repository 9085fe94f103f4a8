"""``python -m benchmarks.perf run``: every workload, every run a fresh
``child.py`` process, into ``out/results.json``.

Per workload: five measured runs (tracing off, three batches each, so
every count is fixed by the seed) and one traced run.  End-to-end
metrics are reported as the median of the five with their quartiles;
per-layer metrics are the traced run's.  ``--quick`` is the self-test's
size: one run, one batch, 1/20 scale.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys

from benchmarks.perf.harness import HERE, OUT_DIR, load_spec, run_json

RUNS = 5
BATCHES = 3
QUICK_SCALE = 0.05


def run_child(workload, seed, trace, quick):
    """One ``child.py`` process; its parsed result line."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--batches", "1" if quick else str(BATCHES),
        "--scale", str(QUICK_SCALE if quick else 1.0),
    ]
    # A run that failed its checks still prints its result; it is the
    # ``correct`` field, not the exit status, that is carried forward.
    return run_json(command, f"{workload} run")[1]


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload, seed, quick):
    measured = [run_child(workload, seed, 0, quick)
                for _ in range(1 if quick else RUNS)]
    traced = run_child(workload, seed, 1, quick)
    end_to_end = {}
    for name, first in measured[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in measured]
        q1, middle, q3 = quartiles(values)
        end_to_end[name] = {"unit": first["unit"], "median": middle,
                            "q1": q1, "q3": q3, "values": values}
    # Inputs are a function of the seed alone, so every child must have
    # attempted, answered and failed exactly the same operations.
    repeatable = len({
        (run["attempted"], run["failed"],
         run["metrics"]["answered_fraction"]["value"])
        for run in measured
    }) == 1
    return {
        "correct": repeatable and traced["correct"]
        and all(run["correct"] for run in measured),
        "repeatable": repeatable,
        "attempted": measured[0]["attempted"],
        "failed": max(run["failed"] for run in measured),
        "end_to_end": end_to_end,
        "per_layer": traced["metrics"],
    }


def print_workload(name, result, bounds):
    print(f"\n== {name}: {'ok' if result['correct'] else 'FAILED'} "
          f"(attempted {result['attempted']}, failed {result['failed']}"
          f"{'' if result['repeatable'] else ', counts differ between runs'})")
    for metric, entry in result["end_to_end"].items():
        print(f"  {metric:<40} {entry['median']:>14.6g} {entry['unit']:<8}"
              f" [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
              f"  bound {bounds[metric]:.0%}")
    for metric, entry in result["per_layer"].items():
        print(f"  {metric:<40} {entry['value']:>14.6g} {entry['unit']}")


def run(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    for name in chosen:
        results[name] = run_workload(name, args.seed, args.quick)
        print_workload(name, results[name], bounds)
    OUT_DIR.mkdir(exist_ok=True)
    out = args.out or OUT_DIR / "results.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({
            "meta": {
                "seed": args.seed,
                "quick": args.quick,
                "runs": 1 if args.quick else RUNS,
                "batches": 1 if args.quick else BATCHES,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "machine": platform.platform(),
            },
            "workloads": results,
        }, handle, indent=1)
        handle.write("\n")
    print(f"\nwrote {out}")
    return 0 if all(r["correct"] for r in results.values()) else 1
