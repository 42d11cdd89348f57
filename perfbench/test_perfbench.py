"""Smoke tests of the benchmark itself: `python3 -m pytest perfbench`."""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import METRICS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

# counts that must repeat exactly between runs of the same code and seed
EXACT = [name for name, (unit, _) in METRICS.items()
         if unit in ("count", "bytes")]


def bench(workload, *extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "1", "--smoke"] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_end_to_end_metrics(workload):
    _, result = bench(workload)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_exactly(workload):
    _, first = bench(workload, "--trace", "1")
    _, second = bench(workload, "--trace", "1")
    assert first["correct"] and second["correct"]
    assert sorted(first["metrics"]) == sorted(
        m["name"] for m in SPEC["per_layer"])
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name


def test_cohomology_dims_do_not_depend_on_the_seed():
    dims = [line for seed in ("0", "7")
            for line in bench("cohomology", "--seed", seed)[0].splitlines()
            if "dims" in line]
    assert len(dims) == 2 and dims[0] == dims[1]


def test_all_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for w in SPEC["workloads"]:
        assert "workload=%s " % w["name"] in proc.stdout


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deform",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
