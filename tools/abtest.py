"""Interleaved in-process comparison of two source trees on a benchmark
workload.

    python3 tools/abtest.py PARENT_SRC CHANGE_SRC    # routes, 40 rounds
    python3 tools/abtest.py PARENT_SRC CHANGE_SRC --workload sweeps
    python3 tools/abtest.py src src --smoke --rounds 2   # plumbing only

PARENT_SRC and CHANGE_SRC are directories that hold a ``mehler``
package, such as the ``src`` folder of a ``git archive`` of each commit.
Both load into this one process, under the package names
``mehler_parent`` and ``mehler_change`` (the package's imports are
relative).  Before a side runs, ``sys.modules["mehler"]`` and its
submodules point at that side, so ``bench/workloads.py`` builds and
runs its ops unchanged.

First every op and probe output of the workload at seeds 3 and 77 must
be equal on both sides, compared by ``repr`` (so to the bit); a
difference prints the op and exits 1 before any timing.  Then each
round times whole passes of the seed-3 ops: three passes per side, the
best kept, with the side that goes first flipped every round, so drift
of a shared host lands on both sides alike.  The last line of stdout is
JSON: the median best pass of each side in ms, the median of the
per-round ratios change/parent with its quartiles, and the number of
rounds the change was faster.  Run lengths, not time limits, bound the
work; nothing here gates on a timing.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 77)
SIDES = ("parent", "change")
PASSES_PER_ROUND = 3


def _load(name: str, path: Path, **kwargs):
    # a module from its file, registered under name before it runs
    spec = importlib.util.spec_from_file_location(name, path, **kwargs)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_side(name: str, src: Path) -> dict:
    """The package under ``src / "mehler"`` loaded as ``name``, every
    submodule imported: a map from ``mehler`` module names to modules."""
    folder = Path(src) / "mehler"
    if not (folder / "__init__.py").is_file():
        raise ValueError(f"no mehler package in {str(src)!r}")
    modules = {"mehler": _load(name, folder / "__init__.py",
                               submodule_search_locations=[str(folder)])}
    for path in sorted(folder.glob("*.py")):
        if path.stem != "__init__":
            modules[f"mehler.{path.stem}"] = importlib.import_module(
                f"{name}.{path.stem}")
    return modules


def _run_all(workloads, modules: dict, ops) -> list:
    sys.modules.update(modules)
    return [workloads.run_op(op) for op in ops]


def _pass_s(workloads, modules: dict, ops) -> float:
    sys.modules.update(modules)
    start = time.perf_counter()
    for op in ops:
        workloads.run_op(op)
    return time.perf_counter() - start


def compare(parent: Path, change: Path, workload: str = "routes",
            rounds: int = 40, smoke: bool = False) -> int:
    if rounds < 2:
        raise ValueError("rounds must be at least 2, for quartiles")
    saved = {name: module for name, module in sys.modules.items()
             if name.split(".")[0] == "mehler"}
    try:
        workloads = _load("abtest_workloads", ROOT / "bench" / "workloads.py")
        sides = {side: load_side(f"mehler_{side}", src)
                 for side, src in zip(SIDES, (parent, change))}
        compared = 0
        for seed in SEEDS:
            built = workloads.build(workload, seed, smoke)
            ops = [workloads.warmup_op(), *built.ops, *built.probes]
            outs = {side: _run_all(workloads, modules, ops)
                    for side, modules in sides.items()}
            for op, a, b in zip(ops, outs["parent"], outs["change"]):
                if repr(a) != repr(b):
                    print(f"abtest: outputs differ at seed {seed}, op "
                          f"{op.name!r}: {a!r} != {b!r}", file=sys.stderr)
                    return 1
                compared += 1
        ops = workloads.build(workload, SEEDS[0], smoke).ops
        best = {side: [] for side in SIDES}
        for i in range(rounds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                best[side].append(min(
                    _pass_s(workloads, sides[side], ops)
                    for _ in range(PASSES_PER_ROUND)))
    finally:
        # leave the importer's own mehler, if any, as it was
        ours = ("mehler", "mehler_parent", "mehler_change", "abtest_workloads")
        for name in [n for n in sys.modules if n.split(".")[0] in ours]:
            del sys.modules[name]
        sys.modules.update(saved)
    ratios = [c / p for p, c in zip(best["parent"], best["change"])]
    quartiles = statistics.quantiles(ratios, n=4)
    report = {
        "workload": workload, "smoke": smoke, "rounds": rounds,
        "seeds_compared": list(SEEDS), "outputs_compared": compared,
        "outputs_equal": True,
        "parent_median_ms": 1e3 * statistics.median(best["parent"]),
        "change_median_ms": 1e3 * statistics.median(best["change"]),
        "change_over_parent_median": statistics.median(ratios),
        "iqr": [quartiles[0], quartiles[2]],
        "change_faster_rounds": sum(r < 1.0 for r in ratios),
    }
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_SRC")
    parser.add_argument("change", type=Path, metavar="CHANGE_SRC")
    parser.add_argument("--workload", choices=("routes", "sweeps"),
                        default="routes")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--smoke", action="store_true",
                        help="the workload's tiny sizes: plumbing only")
    args = parser.parse_args(argv)
    return compare(args.parent, args.change, args.workload, args.rounds,
                   args.smoke)


if __name__ == "__main__":
    # one BLAS thread, as in the benchmark's worker (numpy reads it when
    # the workloads first import it)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.exit(main())
