"""Self-test of the benchmark harness.

Outside tier-1's ``testpaths`` on purpose; run it as

    python -m pytest benchmarks/perf -q

It drives the real commands at ``--quick`` size (1/20 scale, one run).
"""

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.perf import compare, harness, spans  # noqa: E402
from benchmarks.perf.suite import quartiles  # noqa: E402

SPEC = harness.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SOURCES = sorted(p for p in HERE.glob("*.py") if p.name != Path(__file__).name)


def module_cli(*args):
    return subprocess.run([sys.executable, "-m", "benchmarks.perf", *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``run --quick`` over every workload; (result file, results)."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    done = module_cli("run", "--quick", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:]
    return out, json.loads(out.read_text(encoding="utf-8")), done.stdout


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert len(SPEC["command"]) <= 32
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in SPEC[group]]
        assert len(names) == len(set(names)), group
        assert all(NAME.fullmatch(name) for name in names), group
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher"), metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workload_names_match_the_registry():
    from benchmarks.perf.workloads import WORKLOADS

    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


# ----------------------------------------------------------------------
# a quick run of everything
# ----------------------------------------------------------------------
def test_every_declared_metric_is_emitted_for_every_workload(quick):
    _, results, stdout = quick
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, result in results["workloads"].items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
        for metric in SPEC["end_to_end"]:
            entry = result["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["median"] > 0, (name, metric["name"])  # never 0
        for metric in SPEC["per_layer"]:
            assert result["per_layer"][metric["name"]]["unit"] == metric["unit"]
        assert 0 < result["per_layer"]["trace.coverage"]["value"] <= 1.0 + 1e-9
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.search(rf"^\s+{re.escape(metric['name'])}\s", stdout, re.M), \
            f"{metric['name']} is not printed by name"


def test_layers_are_zero_where_the_workload_does_not_cross_them(quick):
    _, results, _ = quick
    for name, result in results["workloads"].items():
        ledger = {k: v["value"] for k, v in result["per_layer"].items()}
        if name != "mrq_live":
            assert not any(v for k, v in ledger.items()
                           if k.startswith(("sql.", "relational.",
                                            "agents.mrq.", "agents.resource.")))
        if name != "flashcrowd_observed":
            assert ledger["obs.hook_calls"] == 0
        if name.startswith("match_"):
            assert ledger["agents.bus.events"] == 0
            assert ledger["core.repository.query_p99_us"] > 0
    observed = results["workloads"]["flashcrowd_observed"]["per_layer"]
    assert observed["obs.hook_self_s"]["value"] > 0


def test_spans_nest_and_self_times_are_not_negative(quick):
    for workload in SPEC["workloads"]:
        trace = json.loads((harness.OUT_DIR / f"trace_{workload['name']}.json")
                           .read_text(encoding="utf-8"))
        rows = trace["spans"]
        assert rows, workload["name"]
        inside = [0.0] * len(rows)  # µs covered by each span's children
        child_count = [0] * len(rows)
        for name_id, start, end, parent in rows:
            assert 0 <= name_id < len(trace["names"])
            assert start <= end
            if parent >= 0:
                _, parent_start, parent_end, _ = rows[parent]
                assert parent_start <= start and end <= parent_end
                inside[parent] += end - start
                child_count[parent] += 1
        # Each time was rounded to 0.1 µs on the way out, hence the slack.
        for (_, start, end, _), covered, n in zip(rows, inside, child_count):
            assert end - start - covered >= -0.1 * (n + 1)


def test_wrappers_are_fully_removed_after_a_traced_run():
    before = spans.patch_targets()
    assert len(before) >= 15
    harness.traced_batch("mrq_live", seed=11, scale=0.05)
    after = spans.patch_targets()
    assert [(o, a) for o, a, _ in after] == [(o, a) for o, a, _ in before]
    assert all(new is old for (_, _, new), (_, _, old) in zip(after, before))


def test_a_checkout_without_the_program_is_an_error(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "match_read", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert done.returncode != 0 and done.stdout == ""


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def entry(*values):
    q1, median, q3 = quartiles(list(values))
    return {"unit": "s", "median": median, "q1": q1, "q3": q3,
            "values": list(values)}


def test_compare_verdicts():
    steady = entry(1.00, 1.01, 1.02, 1.01, 1.00)
    assert compare.judge(steady, entry(1.02, 1.03, 1.02, 1.01, 1.03), False, 0.05) == "within"
    assert compare.judge(steady, entry(1.10, 1.11, 1.12, 1.10, 1.11), False, 0.05) == "worse"
    assert compare.judge(steady, entry(0.90, 0.91, 0.92, 0.90, 0.91), False, 0.05) == "better"
    assert compare.judge(steady, entry(0.90, 0.91, 0.92, 0.90, 0.91), True, 0.05) == "worse"
    noisy = entry(0.8, 1.0, 1.3, 0.9, 1.2)
    assert compare.judge(steady, noisy, False, 0.05) == "unresolved"


def test_compare_exit_status(quick, tmp_path):
    out, results, _ = quick
    same = module_cli("compare", str(out), str(out))
    assert same.returncode == 0 and "worse" not in same.stdout
    assert len(re.findall(r"\bwithin\b", same.stdout)) == \
        len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    slower = json.loads(json.dumps(results))
    wall = slower["workloads"]["match_read"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 1.5
    wall["values"] = [v * 1.5 for v in wall["values"]]
    doctored = tmp_path / "slower.json"
    doctored.write_text(json.dumps(slower), encoding="utf-8")
    worse = module_cli("compare", str(out), str(doctored))
    assert worse.returncode != 0 and "REGRESSION match_read wall_s" in worse.stdout
    fewer = json.loads(json.dumps(results))
    answered = fewer["workloads"]["flashcrowd"]["end_to_end"]["answered_fraction"]
    answered["median"] *= 0.99
    doctored.write_text(json.dumps(fewer), encoding="utf-8")
    assert module_cli("compare", str(out), str(doctored)).returncode != 0


# ----------------------------------------------------------------------
# the narrow API surface
# ----------------------------------------------------------------------
#: What the workloads may import from the program.
WORKLOAD_API = {
    ("repro", "obs"),  # compose, the three observers, TraceBudget
    ("repro.constraints", "parse_constraint"),
    ("repro.core", "Advertisement"),
    ("repro.core", "BrokerQuery"),
    ("repro.core", "BrokerRepository"),
    ("repro.core", "MatchContext"),
    ("repro.experiments", "build_experiment_community"),
    ("repro.experiments", "workload_config"),
    ("repro.ontology", "AgentLocation"),
    ("repro.ontology", "ContentInfo"),
    ("repro.ontology", "ServiceDescription"),
    ("repro.sim", "BrokerStrategy"),
    ("repro.sim", "SimConfig"),
    ("repro.sim", "Simulation"),
}
#: The span wrappers additionally name the layer boundaries they wrap.
SPAN_API = {
    ("repro", "obs"),
    ("repro.agents", "Agent"),
    ("repro.agents", "MessageBus"),
    ("repro.constraints", "Constraint"),
    ("repro.core", "BrokerRepository"),
    ("repro.kqml", "KqmlMessage"),
    ("repro.relational", "Table"),
    ("repro.relational", "join_on_key"),
    ("repro.relational", "union_all"),
    ("repro.sql", "execute_select"),
}
ALLOWED = {"workloads.py": WORKLOAD_API, "spans.py": SPAN_API}
OBS_API = {"compose", "SamplingTracer", "TraceBudget", "MetricsObserver",
           "TimeSeriesObserver", "Observer"}
FORBIDDEN_KEYWORDS = {"engine", "index_mode", "index_by_ontology",
                      "match_cache_size", "store", "matching_engine"}


def violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in ("repro", "tests")]
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            if top == "tests":
                found.append(f"from {node.module} import ...")
            elif top == "repro":
                found += [f"from {node.module} import {alias.name}"
                          for alias in node.names
                          if (node.module, alias.name)
                          not in ALLOWED.get(path.name, set())]
        elif isinstance(node, ast.keyword) and node.arg in FORBIDDEN_KEYWORDS:
            found.append(f"{node.arg}= (line {node.value.lineno})")
        elif isinstance(node, ast.Attribute):
            private = node.attr.startswith("_") and not node.attr.startswith("__")
            own = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if private and not own:
                found.append(f".{node.attr} (line {node.lineno})")
            if isinstance(node.value, ast.Name) and node.value.id == "obs" \
                    and node.attr not in OBS_API:
                found.append(f"obs.{node.attr} (line {node.lineno})")
    return found


def test_benchmark_uses_only_the_narrow_api():
    assert {p.name for p in SOURCES} >= {"workloads.py", "spans.py", "harness.py"}
    for path in SOURCES:
        assert violations(path) == [], path.name


def test_the_guard_catches_violations(tmp_path):
    bad = tmp_path / "workloads.py"
    bad.write_text(
        "from repro.core.columnar import ColumnarPlane\n"
        "from tests.test_core_matcher import make_ad\n"
        "repo = BrokerRepository(context, engine='columnar')\n"
        "plane = repo._plane()\n"
        "obs.install(x)\n", encoding="utf-8")
    assert len(violations(bad)) == 5
