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
sweeps in ``experiments`` evaluate e^{tL} 1_B; the hypercontractivity
check writes ||e^{tL} f||_2^2 as <f, e^{2tL} f>, one 2-D Gauss-Hermite
integral of the same average.  The scalar route
``apply_via_translation`` stays the independent cross-check:
one-dimensional adaptive Gauss-Kronrod (QUADPACK's QK21 rule and error
estimate, every panel of a pass in one call of f), with the caller's
``breakpoints`` (the jumps of f) as its initial panel boundaries.  The
kernel is evaluated only in log domain: the linear value overflows once
the exponent passes ~709, and the blow-up experiments push exponents
toward 900.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Ball, as_point, check_time
from .lognum import LogNumber
from .measure import _MAX_RADIUS, log_gamma_interval
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_gamma_log,
)

__all__ = [
    "mehler_log_values",
    "mehler_log",
    "apply_indicator_log",
    "apply_indicator_closed_log",
    "apply_via_translation",
]


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
    # tiny t gives -inf, far-out points NaN (inf - inf): LogNumber refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        diff2 = np.square(x - y).sum(axis=-1)
        sumsq = (x * x).sum(axis=-1) + (y * y).sum(axis=-1)
        return (-0.5 * n * math.log(one_minus)
                - em * diff2 / one_minus
                + em * sumsq / one_plus)


def mehler_log(t: float, x, y) -> LogNumber:
    """log M_t(x, y) at a single pair of points; the kernel is positive."""
    xv = as_point(x)
    yv = as_point(y)
    return LogNumber(mehler_log_values(t, xv, yv))


def apply_indicator_log(t: float, ball: Ball, y,
                        spec: QuadratureSpec | None = None) -> LogNumber:
    """log of  e^{tL} 1_B(y) = integral_B M_t(x, y) dgamma(x).

    Kernel-form route: log-domain quadrature of the Mehler kernel over
    the ball, on the polar nodes about its center.  A radius above 2^511,
    where the kernel at those nodes is inf - inf, raises ``ValueError``
    before any pass runs.
    """
    t = check_time(t)
    yv = as_point(y)
    if yv.size != ball.dim:
        raise ValueError("y must live in the ball's dimension")
    if ball.radius > _MAX_RADIUS:
        raise ValueError(f"radius {ball.radius} is above 2^511 in n = "
                         f"{ball.dim}: its square nears float overflow")
    return integrate_gamma_log(
        lambda pts: mehler_log_values(t, pts, yv[None, :]), ball, spec)


def apply_indicator_closed_log(t: float, a: float, b: float, y: float,
                               width: float | None = None) -> float:
    """log of  e^{tL} 1_[a,b](y)  in one dimension, in closed form.

    From the translation route, e^{tL} 1_[a,b](y) is the gamma measure of
    the interval [(a - e^{-t} y)/s, (b - e^{-t} y)/s] with
    s = sqrt(1 - e^{-2t}), by ``measure.log_gamma_interval``.  Callers
    that know a center and a radius pass ``width`` = b - a = 2 radius
    exactly, as there: a narrow interval's ends may round to one float.
    """
    t = check_time(t)
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)
    return log_gamma_interval((a - em * y) / s, (b - em * y) / s,
                              None if width is None else width / s)


# QUADPACK's 21-point Gauss-Kronrod rule (QK21) on [-1, 1], to double
# precision: the Kronrod nodes in [0, 1] from the outside in, ending at 0,
# their weights, and the weights of the 10-point Gauss rule on every
# second node from the outside (0.9739..., ..., 0.1488...)
_QK21_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
           0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
           0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
           0.14887433898163122, 0.0)
_QK21_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
            0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
            0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
            0.14773910490133849, 0.1494455540029169)
_QK21_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
            0.26926671930999635, 0.29552422471475287)
# the same rule over all 21 nodes in ascending order, Gauss weights 0 off
# the Gauss nodes
_GK_X = np.concatenate((np.negative(_QK21_X[:-1]), _QK21_X[::-1]))
_GK_WK = np.array(_QK21_WK[:-1] + _QK21_WK[::-1])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2] = _QK21_WG
_GK_WG[11:20:2] = _QK21_WG[::-1]
# QUADPACK's cap on the subintervals of one adaptive integral
MAX_PANELS = 800
_ROUNDOFF = 50.0 * np.finfo(float).eps


def _gauss_kronrod(fv, half):
    """QK21 value and QUADPACK error estimate of each panel (row of fv)."""
    resk = fv @ _GK_WK
    err = np.abs(resk - fv @ _GK_WG) * half
    # |K - G| scaled by the deviation of f from its mean on the panel, then
    # floored at the roundoff of the panel's sum
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ _GK_WK * half
    ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk * half, np.maximum(_ROUNDOFF * (np.abs(fv) @ _GK_WK) * half,
                                   err)


def apply_via_translation(t: float, f, x, spec: QuadratureSpec | None = None,
                          *, breakpoints) -> float:
    """e^{tL} f(x) for a point x with one coordinate, by adaptive QK21.

    Adaptive Gauss-Kronrod on  integral f(e^{-t} x + s u) dgamma(u),
    s = sqrt(1 - e^{-2t}): a route sharing nothing with the log-domain
    kernel quadrature.  ``f`` maps an (m, 1) array of points to (m,)
    values; only ``spec.tol`` is used.  ``breakpoints`` (required) names
    every place where f jumps or kinks; those inside the |u| < 12 window
    are the only initial panel boundaries, and ``()`` declares f smooth,
    one panel.  A point with more coordinates raises ``ValueError``.

    Each pass evaluates QUADPACK's 21-point Gauss-Kronrod rule on every
    new panel in one call of ``f``, with QUADPACK's error estimate per
    panel.  It stops once the estimates sum to at most ``tol`` relative
    to the value; otherwise the panels carrying the excess error, largest
    first, are bisected.  Past ``MAX_PANELS`` panels, or when ``f``
    returns a value that is not finite or the sums overflow,
    ``QuadratureConvergenceError`` is raised.

    Only |u| <= 12 is integrated, exact to double precision for bounded
    f.  A growing f moves the mass outward (e^{lam z} peaks at
    u = lam s / 2), and the dropped tail is of the order of the
    integrand at u = +-12; when that exceeds ``tol`` relative to the
    value, ``QuadratureConvergenceError`` is raised (at t = 1, lam = 15
    passes with an edge ratio of 6e-12; lam = 20, low by 7e-5, raises).
    """
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

    def evaluate(lo, hi, extra=()):
        # one call of f on the QK21 nodes of every panel [lo, hi], plus
        # the points ``extra``; e^{-u^2} >= e^{-144} on the window, so the
        # weight never underflows.  Returns the rows lo, hi, value, error.
        half = 0.5 * (hi - lo)
        u = np.concatenate((
            ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X).ravel(),
            extra))
        z = shift + scale * u
        # one value per point: an (m, 1) result must not broadcast to (m, m)
        fz = np.asarray(f(z[:, None]), dtype=float).reshape(u.shape)
        if not np.isfinite(fz).all():
            raise QuadratureConvergenceError(
                f"translation-route integrand is not finite at "
                f"z = {z[~np.isfinite(fz)][0]}", (math.nan, math.nan))
        fv = fz * np.exp(-u * u) / math.sqrt(math.pi)
        rule = _gauss_kronrod(fv[:21 * lo.size].reshape(-1, 21), half)
        return np.array((lo, hi, *rule)), fv[21 * lo.size:]

    mapped = ((float(z) - shift) / scale for z in breakpoints)
    edges = np.array([-cut, *sorted({u for u in mapped if -cut < u < cut}),
                      cut])
    # overflow in f or in the panel sums shows as a value that is not
    # finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        # the first call also takes the window's two edge points
        panels, at_edges = evaluate(edges[:-1], edges[1:], (-cut, cut))
        while True:
            lo, hi, value, err = panels
            total = float(value.sum())
            excess = float(err.sum()) - tol * abs(total)
            if not math.isfinite(excess):
                raise QuadratureConvergenceError(
                    f"translation-route quadrature overflows: value "
                    f"{total}, error estimate {err.sum()}",
                    (math.nan, math.nan))
            if excess <= 0.0:
                break
            if lo.size >= MAX_PANELS:
                raise QuadratureConvergenceError(
                    f"translation-route quadrature did not converge within "
                    f"the cap of {MAX_PANELS} subintervals: {lo.size} "
                    f"subintervals leave an error estimate of {err.sum()}, "
                    f"above {tol} relative to the value {total}",
                    (math.nan, math.nan))
            # bisect the fewest largest-error panels whose errors cover the
            # excess, as many as the cap leaves room for
            order = np.argsort(-err)
            count = int(np.searchsorted(np.cumsum(err[order]), excess)) + 1
            split = order[:min(count, MAX_PANELS - lo.size)]
            mid = 0.5 * (lo[split] + hi[split])
            halves, _ = evaluate(np.concatenate((lo[split], mid)),
                                 np.concatenate((mid, hi[split])))
            panels = np.concatenate(
                (np.delete(panels, split, axis=1), halves), axis=1)
    edge = float(np.abs(at_edges).max())
    if edge > tol * abs(total):
        raise QuadratureConvergenceError(
            f"translation-route quadrature truncated at |u| = {cut}: the "
            f"integrand there is {edge}, above {tol} relative to the value "
            f"{total}", (math.nan, math.nan))
    return total

