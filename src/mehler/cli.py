"""Command-line front end.

Subcommands
-----------
kernel     log Mehler kernel value at (t, x, y)
gamma      log Gaussian measure of a ball or annulus
apply      e^{tL} applied to a ball indicator at a point
sweep      implied-constant blow-up sweep over |c_B| (CSV/JSON)
regime     (p, q, t) classification grid (CSV/JSON)
hypercheck contraction ratio, closed form vs quadrature
selftest   run the built-in invariant suite

CSV is the primary output (17 significant digits, ``#`` comment lines,
LF endings); ``--format json`` mirrors the same fields.  Exit codes:
0 success, 2 invalid parameters, 3 numerical non-convergence.  The
relative tolerance is 1e-8 unless ``--tol`` sets it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .estimates import OffDiagHypothesis, nelson_min_p
from .experiments import (
    SweepAborted,
    hypercontractivity_check,
    regime_map,
    sweep_blowup,
)
from .geometry import Annulus, Ball, make_maximal_admissible_ball
from .kernel import apply_indicator_closed_log, apply_indicator_log, mehler_log
from .lognum import LogNumber
from .measure import gamma_log
from .quadrature import QuadratureConvergenceError, QuadratureSpec
from .selftest import run_selftest

__all__ = ["main", "build_parser"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _point(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")], dtype=float)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated point: {text!r}") from exc


def _add_quad_options(sub):
    defaults = QuadratureSpec()
    sub.add_argument("--order", type=int, default=defaults.order,
                     help="base quadrature order (doubled on refinement)")
    sub.add_argument("--tol", type=float, default=defaults.tol,
                     help="relative tolerance (default 1e-8)")


def _add_output_options(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default="-",
                     help="output path ('-' for stdout)")


def _spec_from(args) -> QuadratureSpec:
    return QuadratureSpec(order=args.order, tol=args.tol)


def _check_output(path) -> None:
    # refuse, before any work runs, an output path that cannot be written
    if path in ("-", None):
        return
    folder = os.path.dirname(os.path.abspath(path))
    if (os.path.isdir(path) or not os.path.isdir(folder) or not os.access(
            path if os.path.exists(path) else folder, os.W_OK)):
        raise ValueError(f"cannot write the output to {path!r}")


def _emit(args, text: str):
    if getattr(args, "output", "-") in ("-", None):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_table(args, header: list[str], rows: list[list],
                comments: list[str], extras: dict | None = None):
    if args.format == "json":
        payload = {"rows": [dict(zip(header, row)) for row in rows]}
        payload.update(extras or {})
        _emit(args, json.dumps(payload, indent=2) + "\n")
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row))
    for comment in comments:
        lines.append(f"# {comment}")
    _emit(args, "\n".join(lines) + "\n")


def _linear_or_none(value: LogNumber):
    return value.to_float() if value.is_finite_float() else None


def _scalar_output(args, fields: dict, comments=(),
                   extras: dict | None = None):
    if args.format == "json":
        _emit(args, json.dumps({**fields, **(extras or {})}, indent=2) + "\n")
        return
    row = ",".join("" if v is None else (_fmt(v) if isinstance(v, float) else str(v))
                   for v in fields.values())
    lines = [",".join(fields), row, *(f"# {comment}" for comment in comments)]
    _emit(args, "\n".join(lines) + "\n")


# -- subcommands ---------------------------------------------------------

def _cmd_kernel(args) -> int:
    value = mehler_log(args.t, args.x, args.y)
    _scalar_output(args, {
        "log_mehler": value.log_magnitude,
        "mehler": _linear_or_none(value),
    })
    return 0


def _region_from(args):
    if args.radius is not None:
        ball = Ball(args.center, args.radius)
    else:
        ball = make_maximal_admissible_ball(args.center)
    if getattr(args, "k", None) is not None:
        return Annulus(ball, args.k), ball
    return ball, ball


def _cmd_gamma(args) -> int:
    region, _ = _region_from(args)
    value = gamma_log(region, _spec_from(args))
    _scalar_output(args, {
        "log_measure": value.log_magnitude,
        "measure": _linear_or_none(value),
    })
    return 0


def _cmd_apply(args) -> int:
    spec = _spec_from(args)
    _, ball = _region_from(args)
    value = apply_indicator_log(args.t, ball, args.y, spec)
    fields = {"log_value": value.log_magnitude,
              "value": _linear_or_none(value)}
    if ball.dim == 1:
        c = float(ball.center[0])
        fields["log_erf_closed_form"] = apply_indicator_closed_log(
            args.t, c - ball.radius, c + ball.radius, float(args.y[0]))
    _scalar_output(args, fields)
    return 0


def _cmd_sweep(args) -> int:
    hyp = OffDiagHypothesis(p=args.p, q=args.q, theta=args.theta, c=args.c)
    # non-finite ends give NaN or inf grid values, refused by sweep_blowup
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(args.cmin, args.cmax, args.steps)
    result = sweep_blowup(hyp, args.t, args.k, args.n, grid, _spec_from(args))
    rows = [[r.cB_norm, r.log_lhs, r.log_gammaB, r.log_implied_const]
            for r in result.rows]
    footer = (f"fitted_slope={_fmt(result.fitted_slope)} "
              f"predicted_slope={_fmt(result.predicted_slope)} "
              f"rel_err={_fmt(result.slope_rel_error)}")
    _emit_table(args, ["cB_norm", "log_lhs", "log_gammaB", "log_implied_const"],
                rows, [footer],
                extras={"fitted_slope": result.fitted_slope,
                        "predicted_slope": result.predicted_slope,
                        "rel_err": result.slope_rel_error})
    return 0


def _cmd_regime(args) -> int:
    with np.errstate(invalid="ignore", over="ignore"):  # refused later
        p_grid = np.linspace(args.pmin, args.pmax, args.psteps)
        t_grid = np.linspace(args.tmin, args.tmax, args.tsteps)
    result = regime_map(p_grid, [args.qfixed], t_grid)
    rows = [[c.p, c.q, c.t, c.t_star, c.p_nelson, c.regime]
            for c in result.cells]
    comments = [f"skipped p={_fmt(p)} q={_fmt(q)} t={_fmt(t)}: {reason}"
                for p, q, t, reason in result.skipped]
    _emit_table(args, ["p", "q", "t", "t_star", "p_nelson", "class"],
                rows, comments,
                extras={"skipped": [
                    {"p": p, "q": q, "t": t, "reason": reason}
                    for p, q, t, reason in result.skipped]})
    return 0


def _cmd_hypercheck(args) -> int:
    res = hypercontractivity_check(args.t, args.p, args.lam, _spec_from(args))
    threshold = nelson_min_p(args.t)
    verdict = ("contraction (p >= 1 + e^{-2t})"
               if args.p >= threshold else
               "no contraction (p < 1 + e^{-2t})")
    _scalar_output(args, {
        "ratio_closed_form": res.ratio_closed_form,
        "ratio_numeric": res.ratio_numeric,
        "p_nelson": threshold,
    }, [f"verdict: {verdict}"], extras={"verdict": verdict})
    return 0


def _cmd_selftest(args) -> int:
    ok = run_selftest(seed=args.seed, stream=sys.stdout)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mehler",
        description="Ornstein-Uhlenbeck semigroup numerics: log-domain "
                    "Mehler kernel, Gaussian measures and off-diagonal "
                    "estimate experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="evaluate the Mehler kernel")
    p_kernel.add_argument("--t", type=float, required=True)
    p_kernel.add_argument("--x", type=_point, required=True)
    p_kernel.add_argument("--y", type=_point, required=True)
    _add_output_options(p_kernel)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_gamma = sub.add_parser("gamma", help="Gaussian measure of a set")
    p_gamma.add_argument("--center", type=_point, required=True)
    p_gamma.add_argument("--radius", type=float, default=None,
                         help="ball radius (default: maximal admissible)")
    p_gamma.add_argument("--k", type=int, default=None,
                         help="annulus index; omit for the ball itself")
    _add_quad_options(p_gamma)
    _add_output_options(p_gamma)
    p_gamma.set_defaults(func=_cmd_gamma)

    p_apply = sub.add_parser("apply", help="apply e^{tL} to a ball indicator")
    p_apply.add_argument("--t", type=float, required=True)
    p_apply.add_argument("--center", type=_point, required=True)
    p_apply.add_argument("--radius", type=float, default=None)
    p_apply.add_argument("--y", type=_point, required=True)
    _add_quad_options(p_apply)
    _add_output_options(p_apply)
    p_apply.set_defaults(func=_cmd_apply)

    p_sweep = sub.add_parser("sweep", help="implied-constant blow-up sweep")
    p_sweep.add_argument("--t", type=float, required=True)
    p_sweep.add_argument("--p", type=float, required=True)
    p_sweep.add_argument("--q", type=float, required=True)
    p_sweep.add_argument("--k", type=int, default=1)
    p_sweep.add_argument("--n", type=int, default=1)
    p_sweep.add_argument("--cmin", type=float, required=True)
    p_sweep.add_argument("--cmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--theta", type=float, default=0.0)
    p_sweep.add_argument("--c", type=float, default=0.5,
                         help="decay coefficient in the template")
    _add_quad_options(p_sweep)
    _add_output_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_regime = sub.add_parser("regime", help="classify (p, q, t) cells")
    p_regime.add_argument("--pmin", type=float, required=True)
    p_regime.add_argument("--pmax", type=float, required=True)
    p_regime.add_argument("--psteps", type=int, required=True)
    p_regime.add_argument("--qfixed", type=float, required=True)
    p_regime.add_argument("--tmin", type=float, required=True)
    p_regime.add_argument("--tmax", type=float, required=True)
    p_regime.add_argument("--tsteps", type=int, required=True)
    _add_output_options(p_regime)
    p_regime.set_defaults(func=_cmd_regime)

    p_hyper = sub.add_parser("hypercheck",
                             help="contraction ratio for f = e^{lambda x}")
    p_hyper.add_argument("--t", type=float, required=True)
    p_hyper.add_argument("--p", type=float, required=True)
    p_hyper.add_argument("--lambda", dest="lam", type=float, required=True)
    _add_quad_options(p_hyper)
    _add_output_options(p_hyper)
    p_hyper.set_defaults(func=_cmd_hypercheck)

    p_self = sub.add_parser("selftest", help="run the invariant suite")
    p_self.add_argument("--seed", type=int, default=42)
    p_self.set_defaults(func=_cmd_selftest)

    return parser


# parse_args leaves the parser as it found it, so one per process serves
# every call; building it costs several times a small subcommand's work
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output(getattr(args, "output", None))
        return args.func(args)
    except (QuadratureConvergenceError, SweepAborted) as exc:
        print(f"mehler: numerical non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"mehler: invalid parameters: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
