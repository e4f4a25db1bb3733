"""Correctness checks on op outputs, against ``oracles`` and recorded values.

Each check returns None when the output is right, else a one-line reason.
Tolerances: quadrature outputs must match within ten times the relative
tolerance they were computed to (a scheme converged to a relative change
of 1e-8 per refinement can sit a few tolerances from the limit); the
hypercheck ratio within 1e-6 of its closed form and on the right side of
1 (criterion 5); the three n = 1 routes within 1e-8 of each other
(criterion 3); sweep slopes within 15% of the closed form below the
failure threshold and negative above it (criterion 6).
"""

from __future__ import annotations

import math

import numpy as np

import oracles


def _parse_csv(text: str):
    lines = [ln for ln in text.splitlines() if ln]
    body = [ln for ln in lines if not ln.startswith("#")]
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    header = body[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in body[1:]]
    return header, rows, comments


def _cli_failed(output):
    if output["rc"] != 0:
        return f"exit code {output['rc']}"
    return None


def _log_mismatch(what, got, want, rtol):
    if oracles.rel_close_log(got, want, rtol):
        return None
    return f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})"


def check_sweep(spec, params, output):
    failed = _cli_failed(output)
    if failed:
        return failed
    header, rows, comments = _parse_csv(output["stdout"])
    if header != ["cB_norm", "log_lhs", "log_gammaB", "log_implied_const"]:
        return f"unexpected header {header}"
    grid = spec["grid"]
    if len(rows) != len(grid):
        return f"{len(rows)} rows for a grid of {len(grid)}"
    t, n, p, q, k, rtol = (spec[key] for key in ("t", "n", "p", "q", "k", "rtol"))
    for row, c, ref in zip(rows, grid, spec["refs"] or [None] * len(rows)):
        cb, lhs, lgb, implied = row
        if abs(cb - c) > 1e-12 * c:
            return f"row |c|={cb} off the grid value {c}"
        r = 1.0 / c
        for what, got, want in (
                ("log_gammaB", lgb, oracles.log_gamma_ball(c, r, n)),
                ("log_lhs", lhs, oracles.annulus_lq_log(t, q, c, r, k, n))):
            bad = _log_mismatch(f"|c|={c} {what} vs oracle", got, want, rtol)
            if bad:
                return bad
        want = oracles.implied_constant_log(p, 0.0, 0.5, t, k, r, lhs, lgb)
        if abs(implied - want) > 1e-9 * max(1.0, abs(want)):
            return f"|c|={c} log_implied_const {implied!r} != lhs - rhs {want!r}"
        if ref is not None:
            for what, got, want in zip(("log_lhs", "log_gammaB", "log_implied_const"),
                                       row[1:], ref[1:]):
                bad = _log_mismatch(f"|c|={c} {what} vs reference", got, want, rtol)
                if bad:
                    return bad
    xs = np.array(grid) ** 2
    fitted = float(np.polyfit(xs, [row[3] for row in rows], 1)[0])
    predicted = oracles.blowup_slope(p, q, t)
    d = 1.0 / p - 1.0 / q
    t_star = math.log1p(d) - math.log1p(-d)
    if t < t_star and abs(fitted - predicted) > 0.15 * abs(predicted):
        return f"slope {fitted} not within 15% of {predicted} below the threshold"
    if t > t_star and not fitted < 0.0:
        return f"slope {fitted} not negative above the threshold"
    footer = dict(item.split("=") for item in comments[-1].split())
    if abs(float(footer["fitted_slope"]) - fitted) > 1e-9 * abs(fitted):
        return f"footer slope {footer['fitted_slope']} != refit {fitted}"
    if abs(float(footer["predicted_slope"]) - predicted) > 1e-12:
        return f"footer prediction {footer['predicted_slope']} != {predicted}"
    return None


def check_hypercheck(spec, params, output):
    failed = _cli_failed(output)
    if failed:
        return failed
    header, rows, comments = _parse_csv(output["stdout"])
    closed_lib, ratio, p_nelson = rows[0]
    t, p, lam = spec["t"], spec["p"], spec["lam"]
    want = oracles.hyper_ratio(t, p, lam)
    if abs(ratio / want - 1.0) > 1e-6:
        return f"ratio {ratio!r} vs closed form {want!r}"
    if abs(closed_lib / want - 1.0) > 1e-12:
        return f"printed closed form {closed_lib!r} vs {want!r}"
    threshold = 1.0 + math.exp(-2.0 * t)
    if abs(p_nelson - threshold) > 1e-15:
        return f"p_nelson {p_nelson!r} vs {threshold!r}"
    contracts = p >= threshold
    if contracts and not ratio <= 1.0 + 1e-9:
        return f"ratio {ratio!r} > 1 at p >= 1 + e^(-2t)"
    if not contracts and not ratio > 1.0:
        return f"ratio {ratio!r} <= 1 at p < 1 + e^(-2t)"
    if comments != [f"verdict: {'contraction' if contracts else 'no contraction'}"
                    f" (p {'>=' if contracts else '<'} 1 + e^{{-2t}})"]:
        return f"verdict {comments} on the wrong side"
    return None


def check_triple(spec, params, output):
    closed, kern, trans = output
    t, a, b, y = params["t"], params["a"], params["b"], params["y"]
    want = oracles.inner_log(t, [0.5 * (a + b)], 0.5 * (b - a), [y])
    if not oracles.rel_close_log(closed, want, 1e-10):
        return f"erf closed form {closed!r} vs oracle {want!r}"
    if not oracles.rel_close_log(kern, closed, 1e-8):
        return f"kernel form {kern!r} vs closed form {closed!r}"
    if not (trans > 0.0 and abs(trans / math.exp(closed) - 1.0) <= 1e-8
            and abs(trans / math.exp(kern) - 1.0) <= 1e-8):
        return f"translation route {trans!r} vs exp({closed!r})"
    return None


def check_inner(spec, params, output):
    want = oracles.inner_log(params["t"], params["center"], params["radius"],
                             params["y"])
    bad = _log_mismatch("kernel form vs oracle", output[0], want, spec["rtol"])
    if bad or len(output) == 1:
        return bad
    return _log_mismatch("erf closed form vs oracle", output[1], want, 1e-10)


def check_gamma(spec, params, output):
    center = np.asarray(params["center"])
    want = oracles.log_gamma_ball(float(np.linalg.norm(center)),
                                  params["radius"], center.size)
    return _log_mismatch("gamma(B) vs oracle", output, want, spec["rtol"])


def check_implied(spec, params, output):
    t, k, p, q = params["t"], params["k"], params["p"], params["q"]
    center = np.asarray(params["center"])
    c, n = float(np.linalg.norm(center)), center.size
    r = min(1.0, 1.0 / c)
    lgb = oracles.log_gamma_ball(c, r, n)
    lhs = oracles.annulus_lq_log(t, q, c, r, k, n)
    want = oracles.implied_constant_log(p, 0.0, 0.5, t, k, r, lhs, lgb)
    bad = _log_mismatch("implied constant vs oracle", output, want, spec["rtol"])
    if bad or spec["ref"] is None:
        return bad
    return _log_mismatch("implied constant vs reference", output, spec["ref"],
                         spec["rtol"])


def check_apply(spec, params, output):
    failed = _cli_failed(output)
    if failed:
        return failed
    header, rows, _ = _parse_csv(output["stdout"])
    fields = dict(zip(header, rows[0]))
    c, t, y = spec["center"], spec["t"], spec["y"]
    want = oracles.inner_log(t, [c], min(1.0, 1.0 / c), [y])
    return (_log_mismatch("log_value vs oracle", fields["log_value"], want, 1e-7)
            or _log_mismatch("log_erf_closed_form vs oracle",
                             fields["log_erf_closed_form"], want, 1e-10))


CHECKS = {
    "sweep": check_sweep,
    "hypercheck": check_hypercheck,
    "apply": check_apply,
    "triple": check_triple,
    "inner": check_inner,
    "gamma": check_gamma,
    "implied": check_implied,
}


def check(op, output):
    """None if ``output`` is right for ``op``, else the reason it is not."""
    try:
        return CHECKS[op.check["kind"]](op.check, op.params, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
