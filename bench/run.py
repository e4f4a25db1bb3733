"""Benchmark of the mehler library: one workload per run, in fresh processes.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all                 # every workload, a table
    python3 bench/run.py --workload all --smoke         # tiny sizes, plumbing only

Workloads and their inputs are defined in ``workloads.py``.  A run never
reuses an interpreter: set-up is timed in fresh processes and the
workload runs in another (``worker.py``), so the library's caches and
import state never carry over.  Nothing runs concurrently.

With ``--trace 0`` the last line of stdout is a JSON object whose
metrics are the end-to-end ones:

* ``setup_s``: median, over five fresh interpreters spread over the
  run, of the time from process start to ready: ``import mehler`` plus
  the README ``apply`` example through the CLI;
* ``wall_s``: median time of one pass of the workload's fixed work;
* ``peak_rss_mb``: the worker's maximum resident set size;
* ``ok_share``: the share of ops that returned a correct output within
  their cap (one minus the error rate, which is 0 when all is well).

Both times are scaled to a reference host speed (see ``calibrate.py``):
a fixed loop is timed about once a second through the run, and a raw
time t is reported as t * 0.07 s / (mean loop time), seconds on a host
where the loop takes 0.07 s.  The raw times are on the ``details`` line.

With ``--trace 1`` the worker runs one untraced pass and two traced ones
(see ``tracer.py``) and the metrics are per layer, from the traced
passes; every count must repeat exactly between the two.  Earlier lines
of stdout give host facts, failures and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # the whole run, set-up and checks included
CHECK_RESERVE_S = 15.0
# one process, no worker threads: BLAS pools are held at one thread
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import workloads  # noqa: E402
from calibrate import REFERENCE_S, loop_s  # noqa: E402


class HarnessError(RuntimeError):
    """The benchmark itself could not produce a result."""


def spawn_worker(args: list[str], timeout: float):
    """Start worker.py, time it to its ``ready`` line, return (seconds, report)."""
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, bufsize=0, env=env,
                            cwd=ROOT)
    try:
        # byte by byte, so that nothing after the line is buffered here
        line = b""
        while not line.endswith(b"\n"):
            left = timeout - (time.perf_counter() - start)
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise HarnessError(f"worker not ready after {timeout:.0f} s")
            byte = os.read(proc.stdout.fileno(), 1)
            if not byte:
                break
            line += byte
        setup = time.perf_counter() - start
        if line != b"ready\n":
            raise HarnessError(f"worker not ready: {line!r}")
        rest, _ = proc.communicate(timeout=max(1.0, timeout - setup))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker still running after {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"worker exited with {proc.returncode}")
    return setup, json.loads(rest.decode().strip().splitlines()[-1])


def _check_all(ops, outputs, failures):
    for op, output in zip(ops, outputs):
        if output is not None:
            reason = checks.check(op, output)
            if reason:
                failures.append({"op": op.name, "error": reason})


def layer_metrics(summary: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]

    def module_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def module_calls(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    points = counts.get("quadrature.points", 0)
    kpoints = counts.get("kernel.mehler_log_values.points", 0)
    kself = self_s.get("kernel.mehler_log_values", 0.0)
    out = {
        "quadrature.integrate_gamma_log.calls":
            (calls.get("quadrature.integrate_gamma_log", 0), "count"),
        "quadrature.integrate_gamma_log.self_s":
            (self_s.get("quadrature.integrate_gamma_log", 0.0), "s"),
        "quadrature.points": (points, "count"),
        "quadrature.passes": (counts.get("quadrature.passes", 0), "count"),
        "quadrature.max_order": (counts.get("quadrature.max_order", 0), "count"),
        "quadrature.final_pass_share":
            (counts.get("quadrature.final_points", 0) / points if points else 0.0,
             "ratio"),
        "quadrature.failures": (counts.get("quadrature.failures", 0), "count"),
        "kernel.mehler_log_values.points": (kpoints, "count"),
        "kernel.mehler_log_values.points_per_s":
            (kpoints / kself if kself else 0.0, "1/s"),
        "lognum.log_sum_weighted.terms":
            (counts.get("lognum.log_sum_weighted.terms", 0), "count"),
        "measure.log_gamma_interval.calls":
            (calls.get("measure.log_gamma_interval", 0), "count"),
        "geometry.calls": (module_calls("geometry"), "count"),
        "trace.spans": (summary["spans"], "count"),
    }
    # time in the functions every workload calls
    for name in ("kernel.apply_indicator_log", "kernel.mehler_log_values",
                 "lognum.log_sum_weighted"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    # functions some workloads never call: their time as a share of the
    # pass, so that a layer left out reads 0 of the pass, not 0 seconds
    for name in ("kernel.apply_via_translation", "measure.gamma_log",
                 "experiments.offdiag_lhs_log",
                 "experiments.hypercontractivity_check", "cli.main"):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_share"] = (self_s.get(name, 0.0) / wall, "ratio")
    for layer in ("quadrature", "kernel", "lognum", "measure", "geometry",
                  "estimates", "experiments"):
        out[f"{layer}.self_s"] = (module_self(layer), "s")
    return out


def traced_metrics(trace: dict, failures: list) -> dict:
    """Per-layer metrics of the traced passes; their counts must agree."""
    first, second = trace["summaries"]
    for key in ("calls", "counts"):
        if first[key] != second[key]:
            diff = {k: (first[key].get(k), second[key].get(k))
                    for k in set(first[key]) | set(second[key])
                    if first[key].get(k) != second[key].get(k)}
            failures.append({"op": "traced passes",
                             "error": f"{key} differ between passes: {diff}"})
    per_pass = [layer_metrics(s, w)
                for s, w in zip(trace["summaries"], trace["walls"])]
    metrics = {}
    for key, (value, unit) in per_pass[0].items():
        if unit != "count":
            value = statistics.median(p[key][0] for p in per_pass)
        metrics[key] = {"value": value, "unit": unit}
    overhead = statistics.median(trace["walls"]) - trace["untraced_wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def host_facts() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
                .get("openblas configuration"),
        "blas_threads": {k: v for k, v in CHILD_ENV.items()
                         if k.endswith("_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """One benchmark run: the result object the last line reports."""
    start = time.perf_counter()
    failures: list[dict] = []
    attempted = 0
    setups, loops = [], []
    warmup = workloads.warmup_op()

    def record(setup, report):
        nonlocal attempted
        setups.append(setup)
        loops.extend(report.get("loops", ()))
        attempted += report["attempted"]
        failures.extend(report["errors"])
        _check_all([warmup], [report["warmup"]], failures)

    def probe_setup(count):
        for _ in range(0 if trace else count):
            loops.extend(loop_s() for _ in range(3))
            record(*spawn_worker(["--probe", "--budget", "60"], 60.0))

    # set-up samples before and after the workload, so that they spread
    # over the run as the passes do
    before = SETUP_SAMPLES // 2
    probe_setup(before)
    budget = (RUN_LIMIT_S - CHECK_RESERVE_S - (time.perf_counter() - start)
              - 3.0 * (SETUP_SAMPLES - 1 - before))
    argv = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--budget", f"{budget:.3f}"]
    setup, report = spawn_worker(argv + (["--smoke"] if smoke else []),
                                 budget + 10.0)
    record(setup, report)
    probe_setup(SETUP_SAMPLES - 1 - before)

    wl = workloads.build(name, seed, smoke)
    _check_all(wl.ops, report["first"], failures)
    _check_all(wl.probes, report["probes"], failures)

    metrics = traced_metrics(report["trace"], failures) if trace else None
    # one record per failed op, plus one if the traced counts disagree
    failed = min(attempted, len(failures))
    if metrics is None:
        scale = REFERENCE_S / statistics.mean(loops)
        metrics = {
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "wall_s": {"value": statistics.median(report["walls"]) * scale,
                       "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "ok_share": {"value": (attempted - failed) / attempted,
                         "unit": "ratio"},
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {"failures": failures, "raw_setup_s": setups,
                    "raw_walls": report.get("walls") or report["trace"]["walls"],
                    "loop_s": {"count": len(loops), "mean": statistics.mean(loops),
                               "min": min(loops), "max": max(loops)},
                    "part_wall_s": report.get("part_wall_s"),
                    "error_rate": failed / attempted,
                    "run_s": time.perf_counter() - start},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and loose tolerances, for testing "
                             "the harness itself")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mehler" / "__init__.py").is_file():
        print(f"bench: no library source at {ROOT / 'src' / 'mehler'}",
              file=sys.stderr)
        return 2
    print("host: " + json.dumps(host_facts()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  args.smoke)
        except HarnessError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        details = result.pop("details")
        for failure in details["failures"]:
            print(f"failed: {name}: {failure['op']}: {failure['error']}")
        print(f"details: {name}: " + json.dumps(details))
        for key, metric in result["metrics"].items():
            print(f"{name:14s} {key:48s} {metric['value']:>16.6g} {metric['unit']}")
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
