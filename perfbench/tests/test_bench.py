"""Tests of the benchmark itself: run with ``python -m pytest perfbench/tests``."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import quantmc.harness
import tracer
from quantmc.onebit import violation_measure
from quantmc.solvers import SolverReport

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(cwd, workload, trace, seconds=0.1):
    cmd = [sys.executable if arg == "python3" else arg for arg in SPEC["command"]]
    cmd += ["--workload", workload, "--seed", "5", "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    out = _command(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    out = _command(tmp_path, "rate_sweep", 0)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _zero_quantized(Q, mask, radius, params=None):
    q = np.asarray(Q)
    return SolverReport(np.zeros_like(q), 0, 0.0, float(np.linalg.norm(q)), True, 0.0)


def _zero_one_bit(system, reg_weight, params=None):
    zero = np.zeros((system.mask.dims.n1, system.mask.dims.n2))
    return SolverReport(zero, 0, 0.0, violation_measure(system, zero), True, 0.0)


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_check_rejects_a_zero_solver(monkeypatch, workload):
    monkeypatch.setattr(quantmc.harness, "solve_quantized_mc", _zero_quantized)
    monkeypatch.setattr(quantmc.harness, "solve_one_bit_mc", _zero_one_bit)
    run = bench.measure(bench.WORKLOADS[workload], seed=5, seconds=0, trace=False)
    failures = bench.check(run)
    assert any(f.startswith("median_rel_err") for f in failures)
    if workload == "onebit_known":
        assert any("zeta" in f for f in failures)


def test_self_time_and_tail():
    spans = [
        tracer.Span("harness.run_experiment", 0.0, 10.0, -1, -1),
        tracer.Span("solvers.solve_quantized_mc", 1.0, 9.0, 0, 0),
        tracer.Span("solvers.svd", 2.0, 3.0, 1, 0),
        tracer.Span("solvers.svd", 4.0, 6.0, 1, 0),
    ]
    assert tracer.self_times(spans) == [2.0, 5.0, 1.0, 2.0]
    assert tracer.tail(range(5)) == (2, 50.0, 5)
    assert tracer.tail(range(40)) == (29, 75.0, 40)
