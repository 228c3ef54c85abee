"""Smoke test of the benchmark at tiny sizes.

Runs ``bench/run.py --tiny`` for every workload with tracing off and on, and
checks the printed result against ``BENCHMARK.json``: the same workload and
metric names and units in both directions, and traced per-layer self times
plus the benchmark's glue adding up to the traced wall time.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("qubit", "noise", "lindblad", "zeno", "config", "cli", "tables")


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_names_match_spec():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_matches_spec(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "analytic_cli":       # exact checks only, so no seed can fail them
        assert result["correct"] and result["failed"] == 0
    if trace:
        layer_self = [values[f"{layer}.self_s"] for layer in LAYERS]
        assert min(layer_self) >= 0.0 and values["bench.glue_self_s"] >= 0.0
        assert sum(layer_self) + values["bench.glue_self_s"] == pytest.approx(
            values["bench.wall_s"], rel=1e-9)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "analytic_cli", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
