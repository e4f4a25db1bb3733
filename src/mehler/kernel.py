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
cross-check: one-dimensional, with the caller's ``breakpoints`` (the
jumps of f) as its only panel boundaries.  The kernel is evaluated only
in log domain: the linear value overflows once the exponent passes ~709,
and the blow-up experiments push exponents toward 900.
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
    with np.errstate(over="ignore"):  # tiny t: the log kernel is -inf
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
    the ball, on the polar nodes about its center.
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


def apply_via_translation(t: float, f, x, spec: QuadratureSpec | None = None,
                          *, breakpoints) -> float:
    """e^{tL} f(x) for a point x with one coordinate, by QUADPACK.

    Adaptive Gauss-Kronrod on  integral f(e^{-t} x + s u) dgamma(u),
    s = sqrt(1 - e^{-2t}): a route sharing nothing with the log-domain
    kernel quadrature.  ``f`` maps an (m, 1) array of points to (m,)
    values; only ``spec.tol`` is used.  ``breakpoints`` (required) names
    every place where f jumps or kinks; those inside the |u| < 12 window
    are the only panel boundaries, and ``()`` declares f smooth, one
    panel.  A point with more coordinates raises ``ValueError``.

    Only |u| <= 12 is integrated, exact to double precision for bounded
    f.  A growing f moves the mass outward (e^{lam z} peaks at
    u = lam s / 2), and the dropped tail is of the order of the
    integrand at u = +-12; when that exceeds ``tol`` relative to the
    value, ``QuadratureConvergenceError`` is raised (at t = 1, lam = 15
    passes with an edge ratio of 6e-12; lam = 20, low by 7e-5, raises).
    """
    # Imported here: only this route uses QUADPACK, and scipy.integrate
    # pulls in scipy.optimize, scipy.sparse.linalg and scipy.fft.
    from scipy import integrate

    t = check_time(t)
    tol = (spec if spec is not None else QuadratureSpec()).tol
    xv = as_point(x)
    if xv.size != 1:
        raise ValueError(
            f"the translation route is one-dimensional, got a point with "
            f"{xv.size} coordinates")
    em, one_minus, _ = _time_factors(t)
    shift, scale = em * float(xv[0]), math.sqrt(one_minus)
    cut = 12.0

    def integrand(u):
        z = np.array([[shift + scale * u]])
        return float(f(z)[0]) * math.exp(-u * u) / math.sqrt(math.pi)

    mapped = ((float(z) - shift) / scale for z in breakpoints)
    pins = sorted({u for u in mapped if -cut < u < cut})
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            value, _ = integrate.quad(
                integrand, -cut, cut, epsabs=0.0, epsrel=tol,
                limit=800, points=pins or None)
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

