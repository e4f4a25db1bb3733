"""Tests of the benchmark harness itself.

    python3 -m pytest bench/check_harness.py

The file name keeps these out of the library's own test run, which
collects ``test_*.py``; the smoke runs take about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner  # noqa: E402


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_every_declared_metric(trace, kind):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    results = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(results) == set(workloads.WORKLOADS)
    for name, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (name, out.stdout)
        units = {k: m["unit"] for k, m in result["metrics"].items()}
        assert units == _declared(kind), name


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweeps", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_op_over_its_cap_fails_as_timeout():
    op = workloads.Op("slow sweep", "cli", {"argv": workloads._sweep_argv(
        0.5, 2, 4.0, 12.0, 5, smoke=False)}, 0.2)
    runner = Runner(deadline=float("inf"), run_op=workloads.run_op)
    assert runner.run(op) is None
    assert runner.attempted == 1
    assert runner.errors[0]["error"].startswith("timeout")


def test_run_budget_spent_fails_remaining_ops():
    runner = Runner(deadline=0.0, run_op=workloads.run_op)
    assert runner.run(workloads.warmup_op()) is None
    assert "budget" in runner.errors[0]["error"]


def test_check_rejects_a_perturbed_output():
    op = next(op for op in workloads.build("sweeps", 7).ops
              if op.kind == "implied")
    assert checks.check(op, workloads.REF_POINT_N3) is None
    assert checks.check(op, workloads.REF_POINT_N3 + 1e-6) is not None


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("a.outer"), tracer.name_id("a.inner")
    i = tracer.open(outer)
    j = tracer.open(inner)
    tracer.close(j)
    tracer.close(i)
    summary = tracer.summary()
    dur = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    assert summary["calls"] == {"a.outer": 1, "a.inner": 1}
    assert summary["self_s"]["a.outer"] == pytest.approx(dur[0] - dur[1])
    assert summary["self_s"]["a.inner"] == pytest.approx(dur[1])


def test_install_patches_every_binding_site_and_counts():
    import numpy as np
    from mehler import geometry, kernel, quadrature
    original = quadrature.integrate_gamma_log
    tracer = Tracer()
    tracer.install()
    try:
        assert kernel.integrate_gamma_log is quadrature.integrate_gamma_log
        assert kernel.integrate_gamma_log is not original
        kernel.apply_indicator_log(0.5, geometry.Ball([8.0], 0.125), np.array([8.5]))
    finally:
        tracer.uninstall()
    assert quadrature.integrate_gamma_log is original
    assert kernel.integrate_gamma_log is original
    summary = tracer.summary()
    counts = summary["counts"]
    assert summary["calls"]["quadrature.integrate_gamma_log"] == 1
    assert counts["quadrature.passes"] == 2   # order 16, then 32
    assert counts["quadrature.max_order"] == 32
    assert counts["quadrature.points"] == 48
    assert counts["quadrature.final_points"] == 32
    assert counts["kernel.mehler_log_values.points"] == 48
