"""Runs one workload in a fresh interpreter and reports what it measured.

Started by ``run.py``, never by hand.  It imports ``mehler`` from the
checkout's ``src``, runs the warm-up op and prints ``ready``; the parent
times set-up up to that line.  Then, unless ``--probe`` was given, it
runs the workload's passes and probes and prints one JSON line with the
pass times, the calibration loop times (see ``calibrate.py``), the
outputs of the first pass and of the probes, the ops that failed, the
tracer's summaries and the peak RSS.  Outputs are
checked by the parent, so the oracles' imports do not count here.

Every op runs under a wall-time cap (SIGALRM, so no extra thread); an op
that hits it is recorded as failed with "timeout", and once the run's
budget is spent every op left is recorded the same way without running.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from calibrate import INTERVAL_S, loop_s

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no
    ``except Exception`` in the library can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout


class Runner:
    """Runs ops under their caps and records every failure."""

    def __init__(self, deadline: float, run_op):
        self.deadline = deadline
        self.run_op = run_op
        self.attempted = 0
        self.errors: list[dict] = []
        self.part_walls: dict[str, list[float]] = {}
        self.loops: list[float] = []
        self._next_loop = time.perf_counter()

    def fail(self, op, reason: str) -> None:
        self.errors.append({"op": op.name, "error": reason})

    def run(self, op):
        """The op's output, or None after recording why there is none."""
        self.attempted += 1
        cap = min(op.cap_s, self.deadline - time.monotonic())
        if cap <= 0.0:
            self.fail(op, "timeout: run budget spent before the op started")
            return None
        previous = signal.signal(signal.SIGALRM, _alarm)
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, cap)
                return self.run_op(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        except OpTimeout:
            self.fail(op, f"timeout after {cap:.1f} s")
        except Exception as exc:
            self.fail(op, f"{type(exc).__name__}: {exc} | "
                          + traceback.format_exc(limit=-3).replace("\n", " "))
        return None

    def calibrate(self, force: bool = False) -> None:
        """Time the calibration loop if a second has passed since the last."""
        if force or time.perf_counter() >= self._next_loop:
            self.loops.append(loop_s())
            self._next_loop = time.perf_counter() + INTERVAL_S

    def run_pass(self, ops, first=None):
        """Wall time and outputs of one pass; later passes must repeat the first.

        The pass time is the sum of its ops' times, leaving out the
        calibration loops timed between ops.  The time of each part of
        the pass (ops named alike up to the first space) is added to
        ``part_walls``.
        """
        outputs, parts = [], {}
        for op in ops:
            start = time.perf_counter()
            outputs.append(self.run(op))
            part = op.name.split(" ")[0]
            parts[part] = parts.get(part, 0.0) + time.perf_counter() - start
            self.calibrate()
        wall = sum(parts.values())
        for part, seconds in parts.items():
            self.part_walls.setdefault(part, []).append(seconds)
        if first is not None:
            for op, want, got in zip(ops, first, outputs):
                if want is not None and got is not None and got != want:
                    self.fail(op, "output differs from the first pass")
        return wall, outputs


def timed_passes(runner, ops, seconds):
    """Passes until the next would end after ``seconds``; at least one."""
    end = time.perf_counter() + seconds
    walls, first = [], None
    while True:
        wall, outputs = runner.run_pass(ops, first)
        walls.append(wall)
        first = first if first is not None else outputs
        if runner.errors or time.perf_counter() + wall > end:
            return walls, first


def traced_passes(runner, ops):
    """One untraced pass, then two traced passes whose counts must agree."""
    from tracer import Tracer
    untraced, first = runner.run_pass(ops)
    tracer = Tracer()
    walls, summaries = [], []
    tracer.install()
    try:
        for _ in range(2):
            tracer.reset()
            wall, _ = runner.run_pass(ops, first)
            walls.append(wall)
            summaries.append(tracer.summary())
    finally:
        tracer.uninstall()
    return first, {"untraced_wall_s": untraced, "walls": walls,
                   "summaries": summaries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds after which every op left fails")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.budget

    sys.path.insert(0, str(SRC))
    import mehler
    if not Path(mehler.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"worker: mehler imported from {mehler.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    runner = Runner(deadline, workloads.run_op)
    warmup = runner.run(workloads.warmup_op())
    print("ready", flush=True)
    report = {"warmup": warmup}
    if not args.probe:
        wl = workloads.build(args.workload, args.seed, args.smoke)
        if args.trace:
            report["first"], report["trace"] = traced_passes(runner, wl.ops)
        else:
            runner.calibrate(force=True)
            report["walls"], report["first"] = timed_passes(
                runner, wl.ops, args.seconds)
            runner.calibrate(force=True)
            report["part_wall_s"] = {part: statistics.median(walls) for part, walls
                                     in runner.part_walls.items()}
        report["probes"] = [runner.run(op) for op in wl.probes]
    report["loops"] = runner.loops
    report["attempted"] = runner.attempted
    report["errors"] = runner.errors
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
