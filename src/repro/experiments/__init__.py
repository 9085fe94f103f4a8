"""Experiment harness: everything needed to regenerate the paper's
Tables 1-6 and Figures 14-17.

* :mod:`repro.experiments.streams` — the Table 1 query streams and the
  Table 2 experiment configurations, built as live communities;
* :mod:`repro.experiments.live` — the InfoSleuth-system experiments
  (Tables 3 and 4: multibroker ratios, specialization ratios);
* :mod:`repro.experiments.figures` — the simulation experiments
  (Figures 14-17);
* :mod:`repro.experiments.robustness` — the failure experiments
  (Tables 5 and 6);
* :mod:`repro.experiments.report` — plain-text rendering of the rows
  and series, in the paper's shapes;
* :mod:`repro.experiments.workload` — the open-loop live-ops traffic
  shapes (steady/bursty/flashcrowd/churn) behind ``python -m repro
  load``;
* :mod:`repro.experiments.console` — the live ANSI dashboard renderer
  for those runs.
"""

from repro._lazy import lazy_exports

# Resolved on first use: a caller of one experiment does not import the
# simulator, the live harness and the console together.
__getattr__, __dir__ = lazy_exports(__name__, {
    "streams": [
        "EXPERIMENT_STREAMS",
        "STREAMS",
        "QueryStream",
        "build_experiment_community",
        "resources_required",
    ],
    "live": [
        "LiveRunResult",
        "run_live_experiment",
        "table2_configurations",
        "table3_ratios",
        "table4_ratios",
    ],
    "figures": [
        "figure14_series",
        "figure15_series",
        "figure16_series",
        "figure17_series",
    ],
    "robustness": ["chaos_config", "chaos_grid", "table5_grid", "table6_grid"],
    "report": ["format_series", "format_table"],
    "workload": [
        "WORKLOAD_SHAPES",
        "load_grid",
        "run_workload",
        "summarize_run",
        "workload_config",
    ],
    "console": ["render_frame"],
})

__all__ = [
    "WORKLOAD_SHAPES",
    "EXPERIMENT_STREAMS",
    "LiveRunResult",
    "QueryStream",
    "STREAMS",
    "build_experiment_community",
    "chaos_config",
    "chaos_grid",
    "figure14_series",
    "figure15_series",
    "figure16_series",
    "figure17_series",
    "format_series",
    "format_table",
    "load_grid",
    "render_frame",
    "resources_required",
    "run_live_experiment",
    "run_workload",
    "summarize_run",
    "table2_configurations",
    "table3_ratios",
    "table4_ratios",
    "table5_grid",
    "table6_grid",
    "workload_config",
]
