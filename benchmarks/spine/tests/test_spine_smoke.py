"""Smoke test of the measurement spine (collected by the tier-1 command).

Runs every workload at tiny sizes, untraced and traced, in one child
interpreter, and checks the contract between ``BENCHMARK.json`` and what the
runner prints: every named metric present with its unit, every oracle
passing, the percentile sample-count guard firing on an undersized run, and
no import in ``benchmarks/spine/*.py`` outside the allow-listed public
surface of the program under test.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent.parent
ROOT = SPINE.parent.parent
RUN = [sys.executable, str(SPINE / "run.py")]

#: The surface ROADMAP items 2-3 promise to keep; the refactors the spine
#: exists to judge may move anything else.
ALLOWED_REPRO_IMPORTS = {
    "repro": {"Database"},
    "repro.engine.parser": {"parse_statement", "tokenize"},
    "repro.engine.plancache": {"PlanCache", "normalize_statement"},
    "repro.engine.serving": {"DatabaseServer", "ServingClient", "json_frame"},
    "repro.convex": {"sgd"},
    "repro.convex.objectives": {"LogisticObjective"},
    "repro.datasets": None,  # any generator or loader
    "repro.methods": None,  # any method driver module
    "repro.methods.sketches": None,
}
ALLOWED_DATABASE_KEYWORDS = {"num_segments", "parallel", "plan_cache"}


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory) -> list:
    out = tmp_path_factory.mktemp("spine") / "smoke.json"
    completed = subprocess.run(
        RUN + ["--smoke", "--traced", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stdout[-2000:] + completed.stderr[-2000:]
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)["results"]


def test_every_named_metric_is_reported_with_its_unit(contract, smoke_results):
    workloads = [w["name"] for w in contract["workloads"]]
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in contract[section]}
        by_workload = {r["workload"]: r for r in smoke_results if r["traced"] is traced}
        assert sorted(by_workload) == sorted(workloads)
        for name, result in by_workload.items():
            reported = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
            assert reported == expected, name
            for entry in result["metrics"].values():
                assert isinstance(entry["value"], (int, float))


def test_oracles_pass_and_nothing_fails(smoke_results):
    for result in smoke_results:
        assert result["attempted"] >= 1
        assert result["failed"] == 0, (result["workload"], result["detail"]["problems"])
        assert result["correct"] is True
        assert result["fingerprint"]["cpu_count"] and result["fingerprint"]["sizes"]


def test_end_to_end_metrics_are_never_zero(smoke_results):
    for result in smoke_results:
        if not result["traced"]:
            for metric, entry in result["metrics"].items():
                assert entry["value"] > 0, (result["workload"], metric)


def test_every_per_layer_metric_is_filled_by_some_workload(contract, smoke_results):
    filled = set()
    for result in smoke_results:
        if result["traced"]:
            filled |= set(result["metrics"]) - set(result["detail"]["absent"])
    assert {m["name"] for m in contract["per_layer"]} == filled


def test_traced_runs_write_their_traces(smoke_results):
    for result in smoke_results:
        if result["traced"]:
            trace_file = ROOT / result["detail"]["trace_file"]
            assert trace_file.exists() and result["detail"]["spans"] > 0
            first = json.loads(trace_file.read_text(encoding="utf-8").splitlines()[0])
            assert {"id", "parent", "name", "request", "start", "end"} <= set(first)


def _load_common():
    spec = importlib.util.spec_from_file_location("spine_common", SPINE / "common.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_percentile_guard_refuses_an_unsupported_tail():
    common = _load_common()
    samples = [float(i) for i in range(150)]
    assert common.percentile(samples, 50.0) == pytest.approx(74.5)
    with pytest.raises(common.UndersizedSampleError):
        common.percentile(samples, 95.0)  # 7.5 samples beyond, 10 required
    assert common.percentile(samples, 95.0, guard=False) > 140


def test_percentile_guard_fires_on_an_undersized_run():
    completed = subprocess.run(
        RUN + ["--workload", "serve_mixed", "--smoke", "--seconds", "0.05"],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert "UndersizedSampleError" in completed.stderr
    assert '"metrics"' not in completed.stdout


def _spine_sources():
    return sorted(p for p in SPINE.glob("*.py"))


def test_only_the_public_surface_is_imported():
    for path in _spine_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    assert top != "repro" or alias.name == "repro", (path.name, alias.name)
                    assert top != "harness", path.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                assert node.module != "harness", path.name
                if node.module.split(".")[0] != "repro":
                    continue
                assert node.module in ALLOWED_REPRO_IMPORTS, (path.name, node.module)
                names = ALLOWED_REPRO_IMPORTS[node.module]
                if names is not None:
                    imported = {alias.name for alias in node.names}
                    assert imported <= names, (path.name, node.module, imported - names)


def test_no_database_behaviour_flag_is_passed():
    for path in _spine_sources():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Database":
                keywords = {keyword.arg for keyword in node.keywords}
                assert keywords <= ALLOWED_DATABASE_KEYWORDS, (path.name, keywords)
                assert len(node.args) == 0, (path.name, "pass num_segments by keyword")
    for banned in ("SimpleSelectPlan", "_result_payload", "simulated_parallel_seconds"):
        for path in _spine_sources():
            assert banned not in path.read_text(encoding="utf-8"), (path.name, banned)
