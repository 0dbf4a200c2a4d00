"""Checks of the benchmark harness, on the smoke-sized workloads.

    python3 -m pytest -q perfbench/test_harness.py

Each test starts ``run.py --smoke`` in a fresh process, as the benchmark
is run, and reads the two JSON lines it prints last.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload, seed, trace, root=ROOT):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)


def results(workload, seed, trace):
    done = run_bench(workload, seed, trace)
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info["failures"]
    assert info["fail_rate"] == 0.0
    return info, result


def assert_metrics(result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_positive(workload):
    info, result = results(workload, seed=1, trace=0)
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    env = info["environment"]
    assert env["numpy"] and env["scipy"] and env["nproc"] >= 1
    assert set(env["blas_threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    info, result = results(workload, seed=1, trace=1)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert info["traced_wall_s_samples"] and info["wall_s_samples"]
    metrics = result["metrics"]
    assert metrics["assembly.build_saddle.calls"]["value"] >= 1
    assert metrics["mesh.refine_uniform.calls"]["value"] >= 1
    if workload != "assemble-p5-L7":
        assert metrics["solver.splu.calls"]["value"] == metrics["solver.solve.calls"]["value"]
        assert metrics["solver.lu_solve.calls"]["value"] == 2 * metrics["solver.splu.calls"]["value"]
        assert metrics["solver.fill_ratio"]["value"] > 1


def test_seed_reorders_sweep_without_changing_results():
    first, _ = results("sweep-catalog", seed=1, trace=0)
    second, _ = results("sweep-catalog", seed=2, trace=0)
    assert first["case_order"] != second["case_order"]
    assert sorted(first["case_order"]) == sorted(second["case_order"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("study-p1-L6", 1, 0, root=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
