"""Smoke test of the benchmark on tiny instances of every workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NOT_SOLVE = {"graph.load_graph_s", "trace.overhead_s", "trace.solve_s"}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w["why"] for w in workloads.WORKLOADS.values()]


def test_instances_repeat_for_a_seed():
    assert workloads.instances("query-heavy", 4) == workloads.instances("query-heavy", 4)
    assert workloads.instances("query-heavy", 4) != workloads.instances("query-heavy", 5)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_plain_run(workload):
    result = run.bench(workload, 5, 0.5, 0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run(workload):
    result = run.bench(workload, 5, 0.5, 1, tiny=True)
    # correct covers the traced-vs-plain invariance check
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = result["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    self_times = sum(v["value"] for k, v in got.items() if k.endswith("_s") and k not in NOT_SOLVE)
    assert self_times == pytest.approx(got["trace.solve_s"]["value"], rel=1e-6)


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "seq-light", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
