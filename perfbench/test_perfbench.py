"""Tests of the benchmark itself (about three minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import metric_units  # noqa: E402

BYPASSED = ("gaussian.", "hilbert.", "lattice.close.")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)


def _traced(workload: str, seed: int) -> dict:
    proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    gated = [w["name"] for w in spec["workloads"]]
    assert set(gated) < set(run.WORKLOADS)
    plan = json.loads((HERE / "plan.json").read_text())
    mapped = {name for entry in plan["layer_map"] for name in entry["metrics"]}
    assert mapped == set(metric_units())
    assert set(plan["workloads"]) == set(run.WORKLOADS)
    assert plan["gated_workloads"] == gated


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_calls_repeat_exactly(workload):
    first, second = _traced(workload, 3), _traced(workload, 3)
    calls = [name for name in first if name.endswith(".calls")]
    assert calls
    assert {n: first[n] for n in calls} == {n: second[n] for n in calls}
    assert first["generate.attempts_per_spec"] == second["generate.attempts_per_spec"]
    if workload == "classical_check":
        assert all(v == 0 for n, v in first.items() if n.startswith(BYPASSED))
    else:
        assert first["models.SignatureSpace.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "classical_check", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
