"""Wall-clock benchmark of the reproduction (see ``README.md`` here).

Six fixed-size workloads, end-to-end metrics measured with tracing off,
and a per-layer ledger taken from a separate traced run whose spans are
recorded by this package's own wrappers around each layer's public
calls — nothing under ``src/`` is edited or instrumented.

* ``python3 benchmarks/perf/child.py --workload W --seed S --seconds N
  --trace 0|1`` — one run of one workload (the ``BENCHMARK.json``
  command);
* ``python -m benchmarks.perf run`` — every workload, five measured
  children plus one traced child each, into ``out/results.json``;
* ``python -m benchmarks.perf compare A.json B.json`` — verdict table.
"""
