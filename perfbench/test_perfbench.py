"""Self-test of the benchmark in smoke mode (tiny sizes, about a second a run).

Checks that every metric BENCHMARK.json names is emitted with its unit,
that all outputs pass their checks, that two traced runs with one seed
give identical deterministic counters, and that the benchmark refuses to
run without the library next to it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"s"}


def bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parsed(done: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def deterministic(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIME_UNITS and name != "trace.overhead_frac"
    }


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    name = request.param
    return name, parsed(bench(name, 0)), parsed(bench(name, 1)), parsed(bench(name, 1))


def test_result_line_has_contract_keys(runs):
    _name, (_report, result), _t1, _t2 = runs
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1


def test_end_to_end_metrics_emitted_with_units(runs):
    _name, (report, result), _t1, _t2 = runs
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["failed_frac"] == {"value": 0.0, "unit": "fraction"}
    for key in ("env", "seed", "samples", "latency_tail_percentile", "stdout_sha256"):
        assert key in report


def test_per_layer_metrics_emitted_with_units(runs):
    _name, _untraced, (_report, result), _t2 = runs
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] is True


def test_traced_counters_repeat_exactly(runs):
    _name, (plain_report, _), (report1, result1), (report2, result2) = runs
    assert deterministic(result1) == deterministic(result2)
    assert report1["stdout_sha256"] == report2["stdout_sha256"] == plain_report["stdout_sha256"]


def test_layers_follow_the_workload(runs):
    name, _untraced, (_report, result), _t2 = runs
    calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
    median_calls = [v for k, v in calls.items() if k.startswith("median_order.")]
    if name == "structure":
        assert not any(median_calls)
        assert calls["stars.recognize.calls"] > 0
    else:
        assert any(median_calls)
    if name == "witness":
        assert calls["good_edges.all_missing_edges_good.calls"] == 2 * calls["good_edges.find_witness.calls"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
