"""Benchmark workloads: inputs made from a seed, and the ops that run them.

One pass of a workload is its fixed work; ``wall_s`` is the median time
of a pass.  An op is plain data (kind, params, cap, check), so the worker
process that runs it and the parent process that checks its output
rebuild the same op from the same seed.  Outputs are checked in the
parent (see ``checks.py``), keeping the oracles' imports out of the
measured process.

Two workloads, one for each kind of work an optimisation could target;
each exercises what the other bypasses:

* ``sweeps``: the sweep path, in three parts whose times are reported
  apart on the details line:
  - ``sweep-n1-deep``: n = 1 sweeps through the CLI on |c| in [4, 30] at
    t below and above the failure threshold, log values down to about
    -1024.  Thousands of tiny integrals: per-call Python overhead.
  - ``sweep-n2``: the README n = 2 sweep.  Array-bound: polar node grids
    and millions of kernel points per grid point, the nested quadrature
    that a collapse would remove.
  - ``point-n3``: one grid point of the n = 3 sweep, the only run of the
    3-D polar node grids.
* ``routes``: the criterion-5 hypercheck grid through the CLI plus
  three-route n = 1 triples.  Mostly QUADPACK and Gauss-Hermite; it
  bypasses the sweep's nested kernel-form quadrature.

They are two, not one per part, because a run must be long enough to
average over the host's speed swings (see ``calibrate.py``), and the
benchmark's fixed total time allows longer runs with fewer workloads.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field

import numpy as np

# Values printed at commit 86ec6b3 (the first benchmarked commit) by
#   mehler sweep --t 0.5 --p 1 --q 2 --k 1 --n 2 --cmin 4 --cmax 12 --steps 5
# as (cB_norm, log_lhs, log_gammaB, log_implied_const) ...
REF_SWEEP_N2 = (
    (4.0, -14.556124360717748, -18.343727496088661, 3.8501031353709134),
    (6.0, -30.332706778751561, -39.135100080869726, 8.8301710798959441),
    (8.0, -51.926437877987993, -67.703596237479729, 15.792783359491736),
    (10.0, -79.352546933324774, -104.14670044258321, 24.804153509258441),
    (12.0, -112.64269764660901, -148.50961351438943, 35.873860312224878),
)
# ... and by implied_constant_log(p=1, q=2, t=0.5, B(4 e_1, 1/4), k=1) at
# base order 3, which equals the value at orders 2, 4 and 8 to the bit.
REF_POINT_N3 = 3.9322660522587825

# criterion 5 of the acceptance suite
HYPER_T = (0.2, 0.4, 0.7, 1.2, 2.0)
HYPER_P = (1.05, 1.2, 1.4, 1.7, 2.0)
HYPER_LAM = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Op:
    """One call into the library, its wall-time cap and how to check it.

    ``kind`` selects the runner in ``RUNNERS``; ``check`` is a dict whose
    ``kind`` selects the check in ``checks.CHECKS``.
    """

    name: str
    kind: str
    params: dict
    cap_s: float
    check: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]      # one pass: the fixed work wall_s times
    probes: tuple[Op, ...]   # run once per run after the passes, untimed


# -- runners (worker side; they import mehler lazily) --------------------

def _run_cli(params):
    from mehler import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(params["argv"]))
    return {"rc": rc, "stdout": buf.getvalue()}


def _spec(params):
    from mehler import quadrature
    kwargs = {k: params[k] for k in ("order", "tol") if k in params}
    return quadrature.QuadratureSpec(**kwargs)


def _run_implied(params):
    from mehler import estimates, experiments, geometry
    hyp = estimates.OffDiagHypothesis(p=params["p"], q=params["q"])
    ball = geometry.make_maximal_admissible_ball(np.array(params["center"]))
    return experiments.implied_constant_log(
        hyp, params["t"], ball, params["k"], _spec(params)).log_magnitude


def _run_inner(params):
    from mehler import geometry, kernel
    ball = geometry.Ball(np.array(params["center"]), params["radius"])
    value = kernel.apply_indicator_log(
        params["t"], ball, np.array(params["y"]), _spec(params)).log_magnitude
    if len(params["center"]) != 1:
        return [value]
    c, r = params["center"][0], params["radius"]
    return [value, kernel.apply_indicator_closed_log(
        params["t"], c - r, c + r, params["y"][0])]


def _run_gamma(params):
    from mehler import geometry, measure
    ball = geometry.Ball(np.array(params["center"]), params["radius"])
    return measure.gamma_log(ball, _spec(params)).log_magnitude


def _run_triple(params):
    from mehler import geometry, kernel
    t, a, b, y = params["t"], params["a"], params["b"], params["y"]
    spec = _spec(params)
    closed = kernel.apply_indicator_closed_log(t, a, b, y)
    kern = kernel.apply_indicator_log(
        t, geometry.Ball(np.array([0.5 * (a + b)]), 0.5 * (b - a)),
        np.array([y]), spec).log_magnitude

    def indicator(pts):
        z = pts[:, 0]
        return ((z >= a) & (z < b)).astype(float)

    trans = kernel.apply_via_translation(t, indicator, np.array([y]), spec,
                                         breakpoints=(a, b))
    return [closed, kern, trans]


RUNNERS = {
    "cli": _run_cli,
    "implied": _run_implied,
    "inner": _run_inner,
    "gamma": _run_gamma,
    "triple": _run_triple,
}


def run_op(op: Op):
    return RUNNERS[op.kind](op.params)


# -- workloads from a seed ------------------------------------------------

def warmup_op() -> Op:
    """The README ``mehler apply`` example: import-time work plus one op."""
    argv = ["apply", "--t", "0.5", "--center", "8", "--y", "8.5"]
    return Op("warmup apply", "cli", {"argv": argv}, 30.0,
              {"kind": "apply", "t": 0.5, "center": 8.0, "y": 8.5})


def _tol_params(smoke: bool, order: int | None = None) -> dict:
    params = {} if order is None else {"order": order}
    if smoke:
        params["tol"] = 1e-4
    return params


def _sweep_argv(t, n, cmin, cmax, steps, smoke, order=None):
    argv = ["sweep", "--t", repr(t), "--p", "1", "--q", "2", "--k", "1",
            "--n", str(n), "--cmin", repr(cmin), "--cmax", repr(cmax),
            "--steps", str(steps)]
    if order is not None:
        argv += ["--order", str(order)]
    if smoke:
        argv += ["--tol", "1e-4"]
    return argv


def _sweep_op(part, t, n, cmin, cmax, steps, cap, smoke, refs=None,
              order=None):
    check = {"kind": "sweep", "t": t, "n": n, "p": 1.0, "q": 2.0, "k": 1,
             "grid": np.linspace(cmin, cmax, steps).tolist(),
             "rtol": 1e-3 if smoke else 1e-7, "refs": refs}
    return Op(f"{part} t={t}", "cli",
              {"argv": _sweep_argv(t, n, cmin, cmax, steps, smoke, order)},
              cap, check)


def _annulus_point(rng, center, radius, k=1):
    """A point of C_k(B(center, radius)) at a seeded distance and direction."""
    center = np.asarray(center, dtype=float)
    direction = rng.normal(size=center.size)
    direction /= np.linalg.norm(direction)
    rho = rng.uniform(2.0 ** k * radius, 2.0 ** (k + 1) * radius)
    return (center + rho * direction).tolist()


def _inner_probes(rng, t, n, grid, count, per_ball, smoke, order=None):
    probes = []
    for c in rng.choice(np.asarray(grid), size=count, replace=False):
        center = [float(c)] + [0.0] * (n - 1)
        radius = 1.0 / float(c)
        for _ in range(per_ball):
            params = {"t": t, "center": center, "radius": radius,
                      "y": _annulus_point(rng, center, radius),
                      **_tol_params(smoke, order)}
            probes.append(Op(f"inner n={n} t={t} c={float(c):.6g}", "inner",
                             params, 30.0,
                             {"kind": "inner",
                              "rtol": 1e-3 if smoke else 1e-7}))
    return probes


def _sweep_n1_deep(rng, smoke):
    # the seed moves the low end of the grid; every grid point costs the
    # same number of integrals, so the work does not depend on it
    cmin = 4.0 + float(rng.uniform(0.0, 1.0))
    cmax, steps = (8.0, 4) if smoke else (30.0, 27)
    ops = [_sweep_op("sweep-n1-deep", t, 1, cmin, cmax, steps, 30.0, smoke)
           for t in (0.5, 1.5)]
    grid = np.linspace(cmin, cmax, steps)
    probes = [p for t in (0.5, 1.5)
              for p in _inner_probes(rng, t, 1, grid, 4, 2, smoke)]
    return ops, probes


def _sweep_n2(rng, smoke):
    # the README grid itself, so the reference values apply; the seed picks
    # the inner-value probes
    if smoke:
        op = _sweep_op("sweep-n2", 0.5, 2, 4.0, 5.5, 4, 60.0, True, order=4)
        grid = op.check["grid"]
    else:
        op = _sweep_op("sweep-n2", 0.5, 2, 4.0, 12.0, 5, 90.0, False,
                       refs=[list(r) for r in REF_SWEEP_N2])
        grid = [r[0] for r in REF_SWEEP_N2]
    probes = _inner_probes(rng, 0.5, 2, grid, 2, 2, smoke, 4 if smoke else None)
    return [op], probes


def _point_n3(rng, smoke):
    # gamma is rotation invariant, so a seeded direction of c_B keeps the
    # value (and the reference) while moving every node
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    center = (4.0 * direction).tolist()
    order = 2 if smoke else 3
    params = {"center": center, "t": 0.5, "k": 1, "p": 1.0, "q": 2.0,
              **_tol_params(smoke, order)}
    rtol = 1e-3 if smoke else 1e-7
    op = Op("point-n3 |c|=4", "implied", params, 90.0,
            {"kind": "implied", "rtol": rtol,
             "ref": None if smoke else REF_POINT_N3})
    ball = {"center": center, "radius": 0.25, **_tol_params(smoke, order)}
    probes = [Op("gamma n=3 |c|=4", "gamma", ball, 30.0,
                 {"kind": "gamma", "rtol": rtol})]
    for _ in range(1 if smoke else 3):
        params = {"t": 0.5, "center": center, "radius": 0.25,
                  "y": _annulus_point(rng, center, 0.25),
                  **_tol_params(smoke, order)}
        probes.append(Op("inner n=3 |c|=4", "inner", params, 30.0,
                         {"kind": "inner", "rtol": rtol}))
    return [op], probes


def _routes(rng, smoke):
    grid = ([(0.4, 1.2, 1.0), (0.4, 2.0, 1.0)] if smoke else
            [(t, p, lam) for t in HYPER_T for p in HYPER_P for lam in HYPER_LAM])
    ops = [Op(f"hypercheck t={t} p={p} lambda={lam}", "cli",
              {"argv": ["hypercheck", "--t", repr(t), "--p", repr(p),
                        "--lambda", repr(lam)]}, 10.0,
              {"kind": "hypercheck", "t": t, "p": p, "lam": lam})
           for t, p, lam in grid]
    # criterion 3's draw: an interval, a time and a point near it
    for i in range(3 if smoke else 100):
        t = float(rng.uniform(0.2, 2.0))
        a = float(rng.uniform(-2.5, 1.5))
        b = a + float(rng.uniform(0.4, 1.5))
        y = float(rng.uniform(a - 1.0, b + 1.0))
        ops.append(Op(f"triple {i}", "triple",
                      {"t": t, "a": a, "b": b, "y": y, "tol": 1e-10},
                      10.0, {"kind": "triple"}))
    return ops, []


PARTS = {
    "sweeps": (_sweep_n1_deep, _sweep_n2, _point_n3),
    "routes": (_routes,),
}
WORKLOADS = tuple(PARTS)


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's ops for one seed; the same seed gives the same ops."""
    if name not in PARTS:
        raise ValueError(f"unknown workload {name!r}; valid: {WORKLOADS}")
    rng = np.random.default_rng(seed)
    ops, probes = [], []
    for part in PARTS[name]:
        part_ops, part_probes = part(rng, smoke)
        ops += part_ops
        probes += part_probes
    return Workload(tuple(ops), tuple(probes))
