"""``python -m benchmarks.perf compare A.json B.json``: one row per
workload x end-to-end metric, B judged against A.

Verdicts, with each metric's own bound from ``BENCHMARK.json``:

* ``unresolved`` — a side's inter-quartile spread exceeds the bound and
  the two sides' runs overlap: the runs cannot tell;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``better``     — every run of B beats every run of A, by more than
  the spread between A's own runs;
* ``within``     — anything else.

Exit status is non-zero on any ``worse``, and when B answered a smaller
share of the same operations (same seed and size) or failed more.
"""

from __future__ import annotations

import json

from benchmarks.perf.harness import load_spec


def spread(entry):
    return (entry["q3"] - entry["q1"]) / entry["median"] if entry["median"] else 0.0


def side(entry):
    return f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"


def judge(a, b, higher_is_better, bound):
    """The verdict for one metric on one workload."""
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    a_runs = [sign * v for v in a["values"]]  # lower is better from here
    b_runs = [sign * v for v in b["values"]]
    overlap = min(b_runs) <= max(a_runs) and min(a_runs) <= max(b_runs)
    if overlap and max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if max(b_runs) < min(a_runs) and -worse_by > spread(a):
        return "better"
    return "within"


def compare(args):
    spec = load_spec()
    with open(args.a, encoding="utf-8") as handle:
        a_file = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        b_file = json.load(handle)
    same_inputs = all(a_file["meta"][key] == b_file["meta"][key]
                      for key in ("seed", "runs", "batches", "quick"))
    problems = []
    row = "{:<20} {:<18} {:<34} {:<34} {:<24} {:<6} {}"
    print(row.format("workload", "metric", "A median [q1, q3]",
                     "B median [q1, q3]", "B/A (base A)", "bound", "verdict"))
    for name, a_work in a_file["workloads"].items():
        b_work = b_file["workloads"].get(name)
        if b_work is None:
            continue
        for metric in spec["end_to_end"]:
            a = a_work["end_to_end"][metric["name"]]
            b = b_work["end_to_end"][metric["name"]]
            verdict = judge(a, b, metric["better"] == "higher", metric["bound"])
            if verdict == "worse":
                problems.append(f"{name} {metric['name']}: worse")
            print(row.format(
                name, metric["name"], side(a), side(b),
                f"{b['median'] / a['median']:.4f} ({a['median']:.5g} {a['unit']})",
                f"{metric['bound']:.0%}", verdict))
        a_answered = a_work["end_to_end"]["answered_fraction"]["median"]
        b_answered = b_work["end_to_end"]["answered_fraction"]["median"]
        if same_inputs and b_answered < a_answered:
            problems.append(f"{name}: answered {b_answered:.6g} of the same "
                            f"operations, down from {a_answered:.6g}")
        if b_work["failed"] * a_work["attempted"] > a_work["failed"] * b_work["attempted"]:
            problems.append(f"{name}: {b_work['failed']} of {b_work['attempted']} "
                            f"failed the correctness check, up from "
                            f"{a_work['failed']} of {a_work['attempted']}")
    for problem in problems:
        print("REGRESSION", problem)
    return 1 if problems else 0
