"""Per-call cost of the library's layers at the sizes the CLI serves.

    python3 tools/microbench.py                 # 15 repeats per layer
    python3 tools/microbench.py --repeat 1 --calls 1   # a smoke run

Each layer is called ``--calls`` times per repeat (by default as many as
fill about 20 ms).  Every repeat times all layers once, in an order
rotated by one from the repeat before, so drift of a shared host lands on
every layer alike; the median and the quartiles over the repeats of the
time per call are printed in microseconds.  The inputs are fixed: a 1-D
interval route at a criterion-3-like draw (the erf closed form also on
a span off the origin, where it takes its erfcx branch), the README
``hypercheck`` and, on their own, that hypercheck's 2-D L^2 and 1-D L^p
integrals over the full space;
the ball measure on 1,024 translated balls of the README sweep at
t = 0.5 in n = 2, 3 and 6 (the n = 2 balls' distances and radii also in
n = 1, as intervals), and at t = 0.001 in n = 2, where the balls are
wide and the order doubles further; the n = 2 balls' distances at
radius 1e-170, where every transverse slice leaves the normal floats;
one n = 3 annulus measure on the axial rule; the README n = 2 sweep at
t = 0.001, where the ball measure is interpolated along each row, and
the README n = 3 sweep at t = 0.0001, where the interpolant needs 64
Chebyshev points and keeps about 21 of them; an n = 6 sweep at t = 0.5
on [4, 30] x 8; and the n = 1 sweep of the
benchmark's ``sweep-n1-deep`` part at t = 0.5, 27 points on [4.9, 30],
where the per-row work around the quadrature shows.
Two pieces of the n = 1 routes are timed alone: the polar nodes of the
kernel form's first pass (orders 16 and 32) and QUADPACK's QK21 rule
with its error estimate on 3 panels.
The kernel-form route is timed three times: on that one interval,
cycling through seeded criterion-3 draws, each with its own interval,
as the benchmark's ``routes`` triples call it, and on the n = 3 ball
B(8 e_1, 1/8) of the README sweep, whose two passes of 8,192 and 65,536
polar nodes make it array-bound.  The CLI is timed twice: the README
``hypercheck`` whole, and its argv parsing alone.  The library is imported from
the ``src`` directory next to this one; one process, one thread, nothing
cached between layers except what the library caches itself.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mehler import cli, experiments, kernel, lognum, quadrature  # noqa: E402
from mehler.estimates import OffDiagHypothesis  # noqa: E402
from mehler.geometry import Ball, FullSpace  # noqa: E402
from mehler.measure import log_gamma_ball  # noqa: E402

# a criterion-3 draw (t, [a, b], y) at the benchmark's tolerance
T, A, B, Y = 0.7, -0.4, 0.6, 0.9
SPEC = quadrature.QuadratureSpec(tol=1e-10)
# the README sweep's hypothesis and grid, and the deep n = 1 grid
SWEEP = (OffDiagHypothesis(p=1.0, q=2.0), [4.0, 6.0, 8.0, 10.0, 12.0])
DEEP = np.linspace(4.9, 30.0, 27)
WIDE = np.linspace(4.0, 30.0, 8)
# the README hypercheck
HYPER = (0.5, 1.3678794411714423, 2.0)
# its ||e^{tL} f||_2^2 = <f, e^{2tL} f> integrand for f(x) = e^{lam x},
# lam ((1 + e^{-2t}) x + sqrt(1 - e^{-4t}) u) at (x, u)
_, _ONE_MINUS, _ONE_PLUS = kernel._time_factors(2.0 * HYPER[0])
_S2 = np.sqrt(_ONE_MINUS)


def _l2_integrand(pts):
    return HYPER[2] * (_ONE_PLUS * pts[:, 0] + _S2 * pts[:, 1])


def _lp_integrand(pts):
    return HYPER[1] * HYPER[2] * pts[:, 0]


def _indicator(pts):
    z = pts[:, 0]
    return ((z >= A) & (z < B)).astype(float)


HYPER_ARGV = ["hypercheck", "--t", repr(HYPER[0]), "--p", repr(HYPER[1]),
              "--lambda", repr(HYPER[2])]
# an n = 3 ball of the README sweep and a point of its first annulus:
# the kernel form settles at order 32, passes of 8,192 and 65,536 nodes
BALL3, Y3 = Ball(np.array([8.0, 0.0, 0.0]), 0.125), np.array([8.3, 0.1, 0.0])


def _cli_hypercheck():
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(HYPER_ARGV)


def _translated_balls(n: int, t: float = 0.5):
    # the balls B((c - e^{-t} y)/s, r/s) whose measure is e^{tL} 1_B(y) at
    # the order-16 axial nodes y of C_1(B), for the maximal admissible balls
    # at |c| = 4, 6, 8, 10 of the README sweep at time t: 4 x 256 balls
    norms = np.array([4.0, 6.0, 8.0, 10.0])
    radii = 1.0 / norms
    x, z, _ = quadrature._axial_nodes(norms, 2.0 * radii, 4.0 * radii, n, 16)
    em, one_minus, _ = kernel._time_factors(t)
    s = np.sqrt(one_minus)
    return np.hypot(norms[:, None] - em * x, em * z) / s, radii[:, None] / s


def _draws(rng, count: int):
    # criterion-3 draws (t, interval as a ball, y), as in the ``routes``
    # workload
    for _ in range(count):
        t = float(rng.uniform(0.2, 2.0))
        a = float(rng.uniform(-2.5, 1.5))
        b = a + float(rng.uniform(0.4, 1.5))
        y = float(rng.uniform(a - 1.0, b + 1.0))
        yield t, Ball(np.array([0.5 * (a + b)]), 0.5 * (b - a)), np.array([y])


def layers():
    """(name, zero-argument call) for every layer, inputs built once."""
    rng = np.random.default_rng(0)
    terms = rng.normal(scale=10.0, size=32)
    rows = rng.normal(scale=10.0, size=(16, 32))
    x = rng.normal(size=(64, 1))
    y = np.array([[0.3]])
    ball = Ball(np.array([0.5 * (A + B)]), 0.5 * (B - A))
    panels = rng.normal(size=(3, 21))
    halves = np.array([0.25, 0.5, 0.25])
    draws = itertools.cycle(list(_draws(rng, 64)))
    balls2, balls3 = _translated_balls(2), _translated_balls(3)
    balls6 = _translated_balls(6)
    small_t = _translated_balls(2, 1e-3)
    return [
        ("lognum.log_sum_weighted, 32 terms",
         lambda: lognum.log_sum_weighted(terms)),
        ("lognum.log_sum_weighted, 16 x 32 rows",
         lambda: lognum.log_sum_weighted(rows, axis=-1)),
        ("quadrature._log_rel_converged, floats",
         lambda: quadrature._log_rel_converged(-1.25, -1.25 + 1e-12, 1e-8)),
        ("kernel.mehler_log_values, 64 points",
         lambda: kernel.mehler_log_values(T, x, y)),
        ("kernel.apply_indicator_closed_log (erf)",
         lambda: kernel.apply_indicator_closed_log(T, A, B, Y)),
        ("kernel.apply_indicator_closed_log (erf), span off the origin",
         lambda: kernel.apply_indicator_closed_log(T, 1.0, 2.0, Y)),
        ("quadrature._polar_nodes, n = 1, orders 16 and 32",
         lambda: quadrature._polar_nodes(ball.center, 0.0, ball.radius, 1,
                                         16, 32)),
        ("kernel.apply_indicator_log (kernel form)",
         lambda: kernel.apply_indicator_log(T, ball, np.array([Y]), SPEC)),
        ("kernel.apply_indicator_log (kernel form), distinct intervals",
         lambda: kernel.apply_indicator_log(*next(draws), SPEC)),
        ("kernel.apply_indicator_log (kernel form), n = 3, B(8e_1, 1/8)",
         lambda: kernel.apply_indicator_log(T, BALL3, Y3)),
        ("kernel._gauss_kronrod, 3 panels",
         lambda: kernel._gauss_kronrod(panels, halves)),
        ("kernel.apply_via_translation (QK21)",
         lambda: kernel.apply_via_translation(T, _indicator, np.array([Y]),
                                              SPEC, breakpoints=(A, B))),
        ("quadrature.integrate_gamma_log, FullSpace(2)",
         lambda: quadrature.integrate_gamma_log(_l2_integrand,
                                                FullSpace(2))),
        ("quadrature.integrate_gamma_log, FullSpace(1)",
         lambda: quadrature.integrate_gamma_log(_lp_integrand,
                                                FullSpace(1))),
        ("measure.log_gamma_ball, 1,024 translated balls, n = 1",
         lambda: log_gamma_ball(*balls2, 1)),
        ("measure.log_gamma_ball, 1,024 translated balls, n = 2",
         lambda: log_gamma_ball(*balls2, 2)),
        ("measure.log_gamma_ball, 1,024 translated balls, n = 3",
         lambda: log_gamma_ball(*balls3, 3)),
        ("measure.log_gamma_ball, 1,024 translated balls, n = 6",
         lambda: log_gamma_ball(*balls6, 6)),
        ("measure.log_gamma_ball, 1,024 translated balls, n = 2, t = 0.001",
         lambda: log_gamma_ball(*small_t, 2)),
        ("measure.log_gamma_ball, 1,024 balls of radius 1e-170, n = 2",
         lambda: log_gamma_ball(balls2[0], 1e-170, 2)),
        ("quadrature.integrate_axial_log, n = 3 annulus measure",
         lambda: quadrature.integrate_axial_log(
             lambda x, z: np.zeros(x.shape), 8.0, 0.25, 0.5, 3)),
        ("experiments.sweep_blowup, README grid, n = 2, t = 0.001",
         lambda: experiments.sweep_blowup(SWEEP[0], 0.001, 1, 2, SWEEP[1])),
        ("experiments.sweep_blowup, README grid, n = 3, t = 0.0001",
         lambda: experiments.sweep_blowup(SWEEP[0], 1e-4, 1, 3, SWEEP[1])),
        ("experiments.sweep_blowup, [4, 30] x 8, n = 6, t = 0.5",
         lambda: experiments.sweep_blowup(SWEEP[0], 0.5, 1, 6, WIDE)),
        ("experiments.sweep_blowup, [4.9, 30] x 27, n = 1, t = 0.5",
         lambda: experiments.sweep_blowup(SWEEP[0], 0.5, 1, 1, DEEP)),
        ("experiments.hypercontractivity_check",
         lambda: experiments.hypercontractivity_check(*HYPER)),
        ("cli argv parsing, hypercheck", lambda: cli._parse(HYPER_ARGV)),
        ("cli hypercheck", _cli_hypercheck),
    ]


def _per_call_s(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls


def measure(repeat: int, calls: int | None = None):
    """(name, median, lower and upper quartile) of the microseconds per
    call for every layer.

    The repeats go round-robin: each one times every layer once, starting
    one layer later than the repeat before, so a host that speeds up or
    slows down during the run moves every layer alike.
    """
    named = layers()
    counts = []
    for _, call in named:
        call()  # warm the library's node caches
        counts.append(
            calls or max(1, int(0.02 / max(_per_call_s(call, 3), 1e-9))))
    times = [[] for _ in named]
    for r in range(repeat):
        for j in range(len(named)):
            i = (r + j) % len(named)
            times[i].append(_per_call_s(named[i][1], counts[i]))
    return [(name, *(1e6 * np.percentile(ts, (50, 25, 75))))
            for (name, _), ts in zip(named, times)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=15)
    parser.add_argument("--calls", type=int, default=None,
                        help="calls per repeat (default: about 20 ms worth)")
    args = parser.parse_args(argv)
    if args.repeat < 1 or (args.calls is not None and args.calls < 1):
        parser.error("--repeat and --calls must be positive")
    rows = measure(args.repeat, args.calls)
    width = max(len(row[0]) for row in rows)
    print(f"{'layer':<{width}}  {'median':>9} {'q25':>9} {'q75':>9}  us/call")
    for name, median, q25, q75 in rows:
        print(f"{name:<{width}}  {median:9.1f} {q25:9.1f} {q75:9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
