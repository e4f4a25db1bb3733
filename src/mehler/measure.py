"""Gaussian measure of intervals, balls and annuli, in log domain.

gamma(S) = integral_S pi^{-n/2} exp(-|x|^2) dx.  One-dimensional sets go
through the error-function closed form evaluated via the normal log-CDF,
which keeps full relative precision for magnitudes like exp(-900).

``log_gamma_ball`` is the one ball-measure primitive.  It is
array-valued over the center distance and the radius and, in n = 2, 3,
reduces a ball to a one-dimensional integral along its axis
(incomplete-gamma transverse slices); the sweep evaluates e^{tL} 1_B at
every annulus node through it, and ``gamma_log`` measures every region
of inner radius 0 through it: the balls and C_0(B) = 2B.  The other
annuli in n = 2, 3 are the axial rule of
``quadrature.integrate_axial_log`` with a zero integrand: a sum of
positive terms, where gamma(outer ball) - gamma(inner ball) would cancel
when both are near 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, gammainc, log_ndtr

from .geometry import Annulus, Ball, FullSpace, _check_shape
from .lognum import LogNumber, log_sum_weighted
from .quadrature import (
    _LOG_SQRT_PI,
    QuadratureSpec,
    _check_dim,
    _legendre_rule,
    _refine_each,
    integrate_axial_log,
)

__all__ = ["log_gamma_interval", "log_gamma_ball", "gamma_log"]

_SQRT2 = math.sqrt(2.0)


def log_gamma_interval(a, b):
    """log gamma([a, b]) in one dimension; endpoints may be infinite.

    Equivalent to log((erf(b) - erf(a)) / 2) but evaluated through tail
    log-CDFs so intervals deep in either tail keep relative precision.
    Array-valued: ``a`` and ``b`` broadcast, and scalar endpoints give a
    float.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (a <= b).all():  # one scan: a NaN endpoint fails it too
        raise ValueError("interval endpoints must not be NaN"
                         if np.isnan(a).any() or np.isnan(b).any()
                         else "interval needs a <= b")
    # reflect intervals in the left half-line into the right one
    flip = b <= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        # right tail: gamma([lo, hi]) = Q(lo) - Q(hi), Q(x) = Phi(-sqrt(2) x)
        upper = log_ndtr(-_SQRT2 * lo)
        tail = upper + np.log(-np.expm1(log_ndtr(-_SQRT2 * hi) - upper))
        # past lo ~ 1.3e154 upper underflows, and -inf - (-inf) is NaN
        tail = np.where(upper == -math.inf, upper, tail)
        # straddles the origin: the two halves add, no cancellation
        middle = np.log(0.5 * (erf(hi) + erf(-lo)))
    out = np.where(hi == math.inf, upper, np.where(lo >= 0.0, tail, middle))
    out = np.where(a == b, -math.inf, out)
    return float(out) if out.ndim == 0 else out


def _inner_tol(spec: QuadratureSpec) -> float:
    # the tolerance of an inner step nested in an outer rule at spec.tol
    return max(spec.tol * 1e-2, 1e-12)


def log_gamma_ball(center_norms, radius, n: int,
                   spec: QuadratureSpec | None = None):
    """log gamma_n(B(m, radius)) for every |m| in ``center_norms``.

    gamma is rotation invariant, so only the distance a = |m| of the
    center matters.  ``radius`` is a number or an array that broadcasts
    against ``center_norms``; a NaN distance, or a radius outside
    (0, inf), raises ``ValueError`` before any pass runs.  In n = 1 this
    is the interval (a - radius, a + radius).  In n = 2, 3, with the axis
    along m and x = a + radius cos(theta),

        gamma_n(B) = int_0^pi pi^{-1/2} exp(-(a + radius cos theta)^2)
                     F_{n-1}(radius^2 sin^2 theta) radius sin theta dtheta,

    where F_{n-1}(u) = P((n - 1)/2, u), the regularized incomplete gamma
    function, measures the (n-1)-ball of squared radius u in the
    transverse slice.  Every term is positive, so Gauss-Legendre nodes in
    theta are summed by log-sum-exp; the order doubles from ``spec.order``
    until every entry changes by less than max(spec.tol / 100, 1e-12)
    relative.  A pass over more than ``quadrature.MAX_NODES`` (center,
    node) pairs raises instead, so callers with many centers pass them
    in chunks.  This is gamma(B) = P(chi'^2_n(2 a^2) <= 2 radius^2), the
    noncentral chi-square CDF, kept in log domain far below exp(-700).
    """
    norms = np.asarray(center_norms, dtype=float)
    radius = np.asarray(radius, dtype=float)
    _check_shape(norms, 0.0, radius)
    n = _check_dim(n)
    if n == 1:
        return log_gamma_interval(norms - radius, norms + radius)
    spec = spec if spec is not None else QuadratureSpec()
    shape = np.broadcast_shapes(norms.shape, radius.shape)
    return _refine_each(
        lambda order: _log_ball_slices(norms, radius, n, order),
        lambda order: math.prod(shape) * order, spec,
        _inner_tol(spec), f"ball measure in n = {n}",
        lambda i: (f"radius {np.broadcast_to(radius, shape).flat[i]}, "
                   f"center distance {np.broadcast_to(norms, shape).flat[i]}"))


def _log_ball_slices(norms, radius, n: int, order: int):
    # Gauss-Legendre in theta on [0, pi], one row of nodes per center; the
    # slices depend on the radius alone, so they are built at its shape
    nodes, logw = _legendre_rule(order)
    theta = 0.5 * math.pi * (nodes + 1.0)
    sin_t = np.sin(theta)
    radius = radius[..., None]
    x = norms[..., None] + radius * np.cos(theta)
    u = (radius * sin_t) ** 2
    log_slice = np.log(gammainc(0.5 * (n - 1), u))
    log_terms = (logw + np.log(0.5 * math.pi * radius) - _LOG_SQRT_PI
                 + np.log(sin_t) + log_slice) - x * x
    return log_sum_weighted(log_terms, axis=-1)


def gamma_log(region, spec: QuadratureSpec | None = None) -> LogNumber:
    """Log Gaussian measure of a ball, annulus or the full space.

    Supported dimensions are 1, 2 and 3.  The full space has measure 1
    (gamma is a probability measure).  A region with inner radius 0 (a
    ball, or C_0(B) = 2B) goes through ``log_gamma_ball``; other annuli
    through the erf closed form in n = 1 and the axial rule in n = 2, 3.
    """
    if isinstance(region, FullSpace):
        return LogNumber(0.0)
    if not isinstance(region, (Ball, Annulus)):
        raise TypeError(f"cannot measure {type(region).__name__}")
    c, ri, ro = region.center_norm, region.inner_radius, region.outer_radius
    if ri == 0.0:
        log = log_gamma_ball(c, ro, region.dim, spec)
    elif region.dim == 1:
        log = np.logaddexp(log_gamma_interval(c - ro, c - ri),
                           log_gamma_interval(c + ri, c + ro))
    else:
        log = integrate_axial_log(lambda x, z: np.zeros(x.shape), c, ri, ro,
                                  region.dim, spec)[0]
    return LogNumber(log)
