"""The unified bench scoreboard behind ``python -m repro bench``.

Each PR leaves machine-readable artifacts in ``benchmarks/`` —
``BENCH_match.json`` (matchmaking microbenchmark), ``BENCH_chaos.json``
(chaos grid), ``BENCH_recovery.json`` (crash-recovery paths),
``BENCH_obs.json`` (per-test wall times), ``BENCH_telemetry.json``
(tracing overhead/retention), ``BENCH_overload.json`` (flash-crowd
overload grid).  This module folds them into one
schema-versioned report (``BENCH_report.json``) whose unit is the
**indicator**: a named scalar with a direction (higher or lower is
better) and a ``checked`` flag.

Machine-independent indicators (speedups, fractions, retention rates)
are ``checked`` and participate in ``--check`` regression gating against
a committed baseline; raw wall-clock indicators are recorded for the
table but never gated — CI machines differ.  Gating is two-sided on
purpose only in the *worse* direction: getting faster or more successful
than baseline is not a failure.

A regression requires the value to be worse than baseline by **both**
the relative threshold and a small absolute floor, so near-zero
indicators (overhead fractions) do not flap on noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

#: Bump when the report layout changes shape.
REPORT_SCHEMA_VERSION = 1

#: Minimum absolute worsening (on top of the relative threshold) before
#: a checked indicator counts as regressed.
DEFAULT_ABS_FLOOR = 0.01


@dataclass(frozen=True)
class Indicator:
    """One scalar the scoreboard tracks across PRs."""

    key: str
    value: float
    #: "higher" or "lower" — which direction is an improvement.
    better: str
    #: The artifact file this came from.
    source: str
    #: Checked indicators participate in ``--check`` gating.
    checked: bool = True

    def as_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "better": self.better,
            "source": self.source,
            "checked": self.checked,
        }


@dataclass
class Regression:
    """One checked indicator that got worse than baseline."""

    key: str
    baseline: float
    current: float
    better: str

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    def describe(self) -> str:
        arrow = "fell" if self.better == "higher" else "rose"
        return (f"{self.key}: {arrow} {self.baseline:.4g} -> "
                f"{self.current:.4g} (worse is "
                f"{'lower' if self.better == 'higher' else 'higher'})")


# ----------------------------------------------------------------------
# per-artifact extractors
# ----------------------------------------------------------------------
def _extract_match(data: Mapping, source: str) -> List[Indicator]:
    out = []
    # Speed-ups are same-machine ratios, so they are gated; raw walls
    # and the per-write cost are recorded only.
    for row in ("speedup_plane_vs_scan", "speedup_cache_vs_scan"):
        for size, speedup in sorted((data.get(row) or {}).items(),
                                    key=lambda kv: int(kv[0])):
            out.append(Indicator(f"match.{row}.size={size}",
                                 float(speedup), "higher", source))
    for variant, by_size in sorted((data.get("wall_seconds") or {}).items()):
        for size, wall in sorted(by_size.items(), key=lambda kv: int(kv[0])):
            out.append(Indicator(f"match.wall_s.{variant}.size={size}",
                                 float(wall), "lower", source, checked=False))
    for size, micros in sorted((data.get("write_us") or {}).items(),
                               key=lambda kv: int(kv[0])):
        out.append(Indicator(f"match.write_us.size={size}",
                             float(micros), "lower", source, checked=False))
    return out


def _extract_chaos(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for cell in data.get("cells", ()):
        tag = (f"loss={cell.get('loss_rate', 0):g},"
               f"part={cell.get('partition_duration', 0):g}")
        if "success_fraction" in cell:
            out.append(Indicator(f"chaos.success_fraction.{tag}",
                                 float(cell["success_fraction"]), "higher",
                                 source))
        if "reply_fraction" in cell:
            out.append(Indicator(f"chaos.reply_fraction.{tag}",
                                 float(cell["reply_fraction"]), "higher",
                                 source))
        if "p95_response_s" in cell:
            # Virtual-time latency: deterministic given the seed, gate it.
            out.append(Indicator(f"chaos.p95_response_s.{tag}",
                                 float(cell["p95_response_s"]), "lower",
                                 source))
    return out


def _extract_recovery(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for cell in data.get("cells", ()):
        tag = f"path={cell.get('path')},loss={cell.get('loss_rate', 0):g}"
        if "mean_reconvergence_s" in cell:
            out.append(Indicator(f"recovery.mean_reconvergence_s.{tag}",
                                 float(cell["mean_reconvergence_s"]), "lower",
                                 source))
    return out


def _extract_obs(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for record in data.get("tests", ()):
        test = record.get("test", "?")
        # Strip the path down to the test function for a stable key.
        short = test.rsplit("::", 1)[-1]
        if "wall_seconds" in record:
            out.append(Indicator(f"obs.wall_s.{short}",
                                 float(record["wall_seconds"]), "lower",
                                 source, checked=False))
    return out


def _extract_telemetry(data: Mapping, source: str) -> List[Indicator]:
    out = []
    # Wall-clock ratios and per-message costs are recorded but never
    # gated: they move with machine load.  The gated indicators are the
    # deterministic ones — retention is a count ratio fixed by the seed.
    for key in ("overhead_sampled_vs_untraced", "overhead_full_vs_untraced",
                "overhead_sampled_vs_metrics_baseline",
                "tracer_us_per_message", "leave_on_over_unobserved",
                "leave_on_us_per_message"):
        if key in data:
            out.append(Indicator(f"telemetry.{key}", float(data[key]),
                                 "lower", source, checked=False))
    if "failed_retention" in data:
        out.append(Indicator("telemetry.failed_retention",
                             float(data["failed_retention"]), "higher",
                             source))
    if "span_retention" in data:
        out.append(Indicator("telemetry.span_retention",
                             float(data["span_retention"]), "lower", source))
    for variant, wall in sorted((data.get("wall_seconds") or {}).items()):
        out.append(Indicator(f"telemetry.wall_s.{variant}", float(wall),
                             "lower", source, checked=False))
    return out


def _extract_overload(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for cell in data.get("cells", ()):
        tag = cell.get("cell", "?")
        if "goodput_per_min" in cell:
            out.append(Indicator(f"overload.goodput_per_min.{tag}",
                                 float(cell["goodput_per_min"]), "higher",
                                 source))
        if "shed_rate" in cell:
            out.append(Indicator(f"overload.shed_rate.{tag}",
                                 float(cell["shed_rate"]), "lower", source))
        if "p95_response_s" in cell:
            out.append(Indicator(f"overload.p95_response_s.{tag}",
                                 float(cell["p95_response_s"]), "lower",
                                 source))
        if "maintenance_shed" in cell:
            # The priority-lane guarantee, measured: must stay at zero.
            out.append(Indicator(f"overload.maintenance_shed.{tag}",
                                 float(cell["maintenance_shed"]), "lower",
                                 source))
    if "goodput_ratio_protected_vs_unbounded" in data:
        out.append(Indicator(
            "overload.goodput_ratio",
            float(data["goodput_ratio_protected_vs_unbounded"]), "higher",
            source))
    return out


def _extract_mrq_resilience(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for cell in data.get("cells", ()):
        tag = f"{cell.get('cell', '?')}.{cell.get('variant', '?')}"
        if "complete_fraction" in cell:
            out.append(Indicator(f"mrq.complete_fraction.{tag}",
                                 float(cell["complete_fraction"]), "higher",
                                 source))
        if "dishonest" in cell:
            # The honesty guarantee, measured: must stay at zero.
            out.append(Indicator(f"mrq.dishonest.{tag}",
                                 float(cell["dishonest"]), "lower", source))
        if "p95_response_s" in cell:
            # Virtual-time latency: deterministic given the seeds, gate it.
            out.append(Indicator(f"mrq.p95_response_s.{tag}",
                                 float(cell["p95_response_s"]), "lower",
                                 source))
    if "complete_ratio_protected_vs_baseline" in data:
        out.append(Indicator(
            "mrq.complete_ratio",
            float(data["complete_ratio_protected_vs_baseline"]), "higher",
            source))
    if "partial_annotation_coverage" in data:
        out.append(Indicator(
            "mrq.partial_annotation_coverage",
            float(data["partial_annotation_coverage"]), "higher", source))
    return out


def _extract_load(data: Mapping, source: str) -> List[Indicator]:
    out = []
    for cell in data.get("cells", ()):
        tag = cell.get("shape", "?")
        # All four are virtual-time arithmetic under a fixed seed —
        # deterministic, so they gate against the committed baseline.
        if "goodput_per_min" in cell:
            out.append(Indicator(f"load.goodput_per_min.{tag}",
                                 float(cell["goodput_per_min"]), "higher",
                                 source))
        if "p95_response_s" in cell:
            out.append(Indicator(f"load.p95_response_s.{tag}",
                                 float(cell["p95_response_s"]), "lower",
                                 source))
        if "shed_rate" in cell:
            out.append(Indicator(f"load.shed_rate.{tag}",
                                 float(cell["shed_rate"]), "lower", source))
        if "reply_fraction" in cell:
            out.append(Indicator(f"load.reply_fraction.{tag}",
                                 float(cell["reply_fraction"]), "higher",
                                 source))
    if "plane_us_per_message" in data:
        # Wall-clock plane overhead: informational only, never gated.
        out.append(Indicator("load.plane_us_per_message",
                             float(data["plane_us_per_message"]), "lower",
                             source, checked=False))
    return out


#: filename -> extractor; unknown BENCH_* files are listed but skipped.
_EXTRACTORS = {
    "BENCH_match.json": _extract_match,
    "BENCH_chaos.json": _extract_chaos,
    "BENCH_recovery.json": _extract_recovery,
    "BENCH_obs.json": _extract_obs,
    "BENCH_telemetry.json": _extract_telemetry,
    "BENCH_overload.json": _extract_overload,
    "BENCH_mrq_resilience.json": _extract_mrq_resilience,
    "BENCH_load.json": _extract_load,
}

#: Artifact names the scoreboard itself writes (never re-ingested).
_REPORT_FILES = {"BENCH_report.json", "BENCH_baseline.json"}


# ----------------------------------------------------------------------
# report construction
# ----------------------------------------------------------------------
def build_report(bench_dir: str) -> Dict[str, object]:
    """Fold every known ``BENCH_*.json`` under *bench_dir* into one
    schema-versioned report dict (deterministic key order throughout)."""
    indicators: Dict[str, Indicator] = {}
    sources: List[str] = []
    skipped: List[str] = []
    for filename in sorted(os.listdir(bench_dir)):
        if not (filename.startswith("BENCH_") and filename.endswith(".json")):
            continue
        if filename in _REPORT_FILES:
            continue
        extractor = _EXTRACTORS.get(filename)
        if extractor is None:
            skipped.append(filename)
            continue
        path = os.path.join(bench_dir, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            skipped.append(filename)
            continue
        sources.append(filename)
        for indicator in extractor(data, filename):
            indicators[indicator.key] = indicator
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "sources": sources,
        "skipped": skipped,
        "indicators": {
            key: indicators[key].as_dict() for key in sorted(indicators)
        },
    }


def write_report(report: Mapping, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: Mapping) -> str:
    """The scoreboard as a text table, one indicator per line."""
    indicators = report.get("indicators", {})
    if not indicators:
        return "(no benchmark artifacts found)"
    width = max(len(k) for k in indicators) + 2
    lines = [f"{'indicator':<{width}}{'value':>12}  {'dir':<7}{'gated':<7}source"]
    for key in sorted(indicators):
        entry = indicators[key]
        lines.append(
            f"{key:<{width}}{entry['value']:>12.4g}  "
            f"{entry['better']:<7}{'yes' if entry['checked'] else 'no':<7}"
            f"{entry['source']}"
        )
    skipped = report.get("skipped")
    if skipped:
        lines.append(f"(skipped unknown artifacts: {', '.join(skipped)})")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# regression gating
# ----------------------------------------------------------------------
def check_report(report: Mapping, baseline: Mapping,
                 threshold: float = 0.10,
                 abs_floor: float = DEFAULT_ABS_FLOOR) -> List[Regression]:
    """Checked indicators in *report* that are worse than *baseline* by
    more than *threshold* (relative) **and** *abs_floor* (absolute).
    Indicators present only on one side are ignored — adding a benchmark
    must not fail the gate."""
    if baseline.get("schema") != report.get("schema"):
        raise ValueError(
            f"schema mismatch: baseline {baseline.get('schema')} "
            f"vs report {report.get('schema')}"
        )
    regressions: List[Regression] = []
    base_indicators = baseline.get("indicators", {})
    for key in sorted(report.get("indicators", {})):
        entry = report["indicators"][key]
        base = base_indicators.get(key)
        if base is None or not entry.get("checked") or not base.get("checked"):
            continue
        value = float(entry["value"])
        ref = float(base["value"])
        if entry.get("better") == "higher":
            worse_by = ref - value
        else:
            worse_by = value - ref
        if worse_by > abs_floor and worse_by > threshold * abs(ref):
            regressions.append(Regression(
                key=key, baseline=ref, current=value,
                better=entry.get("better", "higher"),
            ))
    return regressions


def format_check(regressions: Sequence[Regression],
                 threshold: float) -> str:
    if not regressions:
        return f"bench check OK (no regressions beyond {threshold:.0%})"
    lines = [f"bench check FAILED: {len(regressions)} regression(s) "
             f"beyond {threshold:.0%}:"]
    lines.extend(f"  - {r.describe()}" for r in regressions)
    return "\n".join(lines)
