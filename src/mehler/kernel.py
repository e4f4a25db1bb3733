"""Log-domain Mehler kernel and semigroup application routes.

The Ornstein-Uhlenbeck semigroup acts on L^2(gamma) by

    e^{tL} u(x) = integral M_t(x, y) u(y) dgamma(y),

where the kernel, written against the Gaussian measure, is

    M_t(x, y) = (1 - e^{-2t})^{-n/2}
                * exp(-e^{-t} |x - y|^2 / (1 - e^{-2t}))
                * exp(e^{-t} (|x|^2 + |y|^2) / (1 + e^{-t})).

Equivalently M_t(x, y) = p_t(x, y) / gamma'(y) with p_t the transition
density of the process  x -> e^{-t} x + sqrt((1 - e^{-2t})/2) N(0, I),
which yields the translation route

    e^{tL} f(x) = integral f(e^{-t} x + sqrt(1 - e^{-2t}) u) dgamma(u)

used here as an independent cross-check against the kernel-form
quadrature.  For the indicator of a ball it gives the Gaussian measure
of a translated ball (``measure.log_gamma_ball``), which is how the
sweeps in ``experiments`` evaluate e^{tL} 1_B.  For a smooth positive f
given by log f, ``_translation_log_values`` evaluates the same average
at many points x in one log-domain Gauss-Hermite pass per order; the
hypercontractivity check applies the semigroup that way.  The scalar
QUADPACK route ``apply_via_translation`` stays the independent
cross-check.  The kernel is evaluated only in log domain: the linear
value overflows once the exponent passes ~709, and the blow-up
experiments push exponents toward 900.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .geometry import Ball, as_point
from .lognum import LogNumber, log_sum_weighted
from .measure import log_gamma_interval
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    _check_node_budget,
    _fullspace_nodes,
    _refine_each,
    integrate_gamma_log,
)

__all__ = [
    "check_time",
    "mehler_log_values",
    "mehler_log",
    "apply_indicator_log",
    "apply_indicator_closed_log",
    "apply_via_translation",
]


def check_time(t: float) -> float:
    """Validate a semigroup time: positive and finite."""
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"semigroup time must be positive and finite, got {t}")
    return t


def _time_factors(t: float) -> tuple[float, float, float]:
    # e^{-t}, 1 - e^{-2t} (stable for tiny t), 1 + e^{-t}
    em = math.exp(-t)
    return em, -math.expm1(-2.0 * t), 1.0 + em


def mehler_log_values(t: float, x, y):
    """log M_t(x, y), vectorized over broadcast leading axes.

    ``x`` and ``y`` are arrays whose last axis holds the coordinates; the
    result drops that axis.  The expression is symmetric in (x, y) term
    by term, so swapping the arguments reproduces identical bits.
    """
    t = check_time(t)
    em, one_minus, one_plus = _time_factors(t)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[-1] != y.shape[-1]:
        raise ValueError("x and y must share the coordinate dimension")
    n = x.shape[-1]
    diff2 = np.sum((x - y) ** 2, axis=-1)
    sumsq = np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1)
    return (-0.5 * n * math.log(one_minus)
            - em * diff2 / one_minus
            + em * sumsq / one_plus)


def mehler_log(t: float, x, y) -> LogNumber:
    """log M_t(x, y) at a single pair of points; the kernel is positive."""
    xv = as_point(x)
    yv = as_point(y)
    return LogNumber.from_log(float(mehler_log_values(t, xv, yv)))


def apply_indicator_log(t: float, ball: Ball, y,
                        spec: QuadratureSpec | None = None) -> LogNumber:
    """log of  e^{tL} 1_B(y) = integral_B M_t(x, y) dgamma(x).

    Kernel-form route: log-domain quadrature of the Mehler kernel over
    the ball (interval nodes in n = 1, polar nodes in n = 2, 3).
    """
    t = check_time(t)
    yv = as_point(y)
    if yv.size != ball.dim:
        raise ValueError("y must live in the ball's dimension")
    return integrate_gamma_log(
        lambda pts: mehler_log_values(t, pts, yv[None, :]), ball, spec)


def apply_indicator_closed_log(t: float, a: float, b: float, y: float) -> float:
    """log of  e^{tL} 1_[a,b](y)  in one dimension, in closed form.

    From the translation route, e^{tL} 1_[a,b](y) is the gamma measure of
    the interval [(a - e^{-t} y)/s, (b - e^{-t} y)/s] with
    s = sqrt(1 - e^{-2t}); evaluated through tail log-CDFs.
    """
    t = check_time(t)
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)
    return log_gamma_interval((a - em * y) / s, (b - em * y) / s)


def _translation_quad_1d(f, shift: float, scale: float, tol: float,
                         breakpoints) -> float:
    # integral f(shift + scale*u) pi^{-1/2} e^{-u^2} du on u in [-12, 12].
    # For bounded f the dropped tail is below e^{-144} relative.  A growing
    # f moves the mass outward: for f(z) = e^{lam z} it peaks at
    # u = lam*scale/2, and near the cut the dropped tail is of the order
    # of the integrand at u = +-12, so a value whose edge integrand
    # exceeds tol relative raises instead of coming back too small.
    # The caller's breakpoints, mapped to u, are the only interior panel
    # boundaries: between them the integrand is smooth, so QUADPACK's
    # error estimate holds without more panels.  Without breakpoints the
    # unit grid stands in for jumps the caller did not name.
    # Imported here: only this route uses QUADPACK, and scipy.integrate
    # pulls in scipy.optimize, scipy.sparse.linalg and scipy.fft.
    from scipy import integrate

    cut = 12.0

    def integrand(u):
        z = np.array([[shift + scale * u]])
        return float(f(z)[0]) * math.exp(-u * u) / math.sqrt(math.pi)

    if breakpoints is None:
        pins = range(-int(cut), int(cut) + 1)
    else:
        mapped = ((float(z) - shift) / scale for z in breakpoints)
        pins = {u for u in mapped if -cut < u < cut}
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, abserr = integrate.quad(
                integrand, -cut, cut, epsabs=0.0, epsrel=tol,
                limit=800, points=sorted(pins) or None)
        except integrate.IntegrationWarning as exc:
            raise QuadratureConvergenceError(
                f"translation-route quadrature did not converge: {exc}",
                (math.nan, math.nan)) from exc
    edge = max(abs(integrand(-cut)), abs(integrand(cut)))
    if edge > tol * abs(value):
        raise QuadratureConvergenceError(
            f"translation-route quadrature truncated at |u| = {cut}: the "
            f"integrand there is {edge}, above {tol} relative to the value "
            f"{value}", (math.nan, math.nan))
    return value


def apply_via_translation(t: float, f, x, spec: QuadratureSpec | None = None,
                          breakpoints=None) -> float:
    """e^{tL} f(x) through the translated-Gaussian average.

    Parameters
    ----------
    t : float
        Semigroup time.
    f : callable
        Maps an (m, n) array of points to an (m,) array of values; must
        be gamma-integrable at the translated arguments.
    x : array_like
        Evaluation point.
    spec : QuadratureSpec, optional
        Only ``tol`` (and for n >= 2 ``order``/``max_refinements``) are
        used.
    breakpoints : iterable of float, optional
        One-dimensional only: every location where f jumps or kinks.
        They become the only interior panel boundaries of the adaptive
        rule (those outside the |u| <= 12 window are dropped), so an
        indicator costs a few panels.  Without them the rule pins the
        integers of [-12, 12] in u as panel boundaries instead, to catch
        jumps it was not told of.

    In one dimension this runs adaptive Gauss-Kronrod (QUADPACK) on the
    translated integrand, a route sharing nothing with the log-domain
    kernel quadrature; in n = 2, 3 it falls back to tensor Gauss-Hermite
    refinement and expects a smooth f.

    The one-dimensional rule integrates u over [-12, 12] only, which is
    exact to double precision when f is bounded.  When f grows, its
    weighted mass must lie well inside that window: for f(z) = e^{lam z}
    the integrand peaks at u = lam sqrt(1 - e^{-2t}) / 2.  When the
    integrand at u = +-12 exceeds ``tol`` relative to the value, the
    window has cut off mass and ``QuadratureConvergenceError`` is raised
    (at t = 1, lam = 15 passes with an edge ratio of 6e-12; lam = 20,
    whose window value is low by about 7e-5, raises).
    """
    t = check_time(t)
    spec = spec if spec is not None else QuadratureSpec()
    xv = as_point(x)
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)
    n = xv.size
    if n == 1:
        return _translation_quad_1d(f, em * float(xv[0]), s, spec.tol,
                                    breakpoints)
    if n > 3:
        raise ValueError("supported dimensions are 1..3")

    order = spec.order
    prev = None
    cur = None
    for _ in range(spec.max_refinements + 1):
        _check_node_budget("translation route", n, order, order ** n, cur)
        pts, lw = _fullspace_nodes(n, order)
        vals = np.asarray(f(em * xv[None, :] + s * pts), dtype=float)
        prev, cur = cur, float(np.sum(vals * np.exp(lw)))
        if prev is not None and _rel_close(cur, prev, spec.tol):
            return cur
        order *= 2
    raise QuadratureConvergenceError(
        f"translation-route refinement exhausted; last two values ({prev}, {cur})",
        (prev, cur))


def _translation_log_values(t: float, f_log, xs,
                            spec: QuadratureSpec | None = None):
    """log e^{tL} f(x) for every x in ``xs`` (n = 1), f given by log f.

    With s = sqrt(1 - e^{-2t}) and Gauss-Hermite nodes u_j, log-weights
    log w_j against gamma,

        log e^{tL} f(x) = logsumexp_j [log f(e^{-t} x + s u_j) + log w_j],

    evaluated for all points and nodes as one (points, order) array, so
    f may grow far past float range.  ``f_log`` maps an array of
    arguments to log f elementwise; f must be smooth.  The order doubles
    from ``spec.order`` until every entry changes by at most ``spec.tol``
    relative; a pass over more than ``quadrature.MAX_NODES`` (point,
    node) pairs raises instead, so callers with many points pass them in
    chunks.
    """
    t = check_time(t)
    spec = spec if spec is not None else QuadratureSpec()
    xs = np.asarray(xs, dtype=float)
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)

    def one_pass(order):
        u, lw = _fullspace_nodes(1, order)
        return log_sum_weighted(f_log(em * xs[..., None] + s * u[:, 0]), lw,
                                axis=-1)

    return _refine_each(one_pass, lambda order: xs.size * order, 1, spec,
                        spec.tol, "translation-route Gauss-Hermite pass",
                        lambda i: f"x = {np.ravel(xs)[i]}")


def _rel_close(a: float, b: float, tol: float) -> bool:
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    return abs(a - b) <= tol * scale
