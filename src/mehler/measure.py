"""Gaussian measure of intervals, balls and annuli, in log domain.

gamma(S) = integral_S pi^{-n/2} exp(-|x|^2) dx.  One-dimensional sets go
through the error-function closed form, scaled (erfcx) past the origin,
which keeps full relative precision for magnitudes like exp(-900).

``log_gamma_ball`` is the one ball-measure primitive.  It is
array-valued over the center distance and the radius and, in n = 2, 3,
reduces a ball to a one-dimensional integral along its axis
(incomplete-gamma transverse slices); the sweep samples e^{tL} 1_B
through it at the Chebyshev points of its interpolants, and
``gamma_log`` measures every region of inner radius 0 through it: the
balls and C_0(B) = 2B.  The other annuli in n = 2, 3 are the axial rule of
``quadrature.integrate_axial_log`` with a zero integrand: a sum of
positive terms, where gamma(outer ball) - gamma(inner ball) would cancel
when both are near 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfcx, gammainc

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


def log_gamma_interval(a, b, width=None):
    """log gamma([a, b]) in one dimension; endpoints may be infinite.

    Equivalent to log((erf(b) - erf(a)) / 2).  Right of the origin (a span
    left of it is reflected) it is the log of e^{-a^2} (erfcx(a) - erfcx(b)
    e^{-w (a + b)}) / 2, w = b - a, erfcx(x) = e^{x^2} erfc(x) (W. J. Cody,
    Math. Comp. 23 (1969) 631), which keeps relative precision deep in
    either tail.  Callers that know a center and a radius pass ``width``
    = 2 radius exactly: far out, the two ends round to one float.  The
    arguments broadcast; scalar endpoints give a float.
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
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        width = b - a if width is None else width
        # hi^2 = lo^2 + w (lo + hi), and -lo^2, the large term, comes last;
        # the share of erfc(lo) past hi is 1 for an empty span and NaN (0/0)
        # at lo = inf: fmin takes both to 1
        erfcx_lo = erfcx(lo)
        past = erfcx(hi) / erfcx_lo * np.exp(-width * (lo + hi))
        tail = np.log(0.5 * erfcx_lo) + np.log1p(-np.fmin(past, 1.0)) - lo * lo
        # straddles the origin: the two halves add, no cancellation
        middle = np.log(0.5 * (erf(hi) + erf(-lo)))
    out = np.where(lo >= 0.0, tail, middle)
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
    is the interval (a - radius, a + radius) of width 2 radius, exact
    however far out a is.  In n = 2, 3, with the axis along m and
    x = a + radius cos(theta),

        gamma_n(B) = int_0^pi pi^{-1/2} exp(-(a + radius cos theta)^2)
                     F_{n-1}(radius^2 sin^2 theta) radius sin theta dtheta,

    where F_{n-1}(u) = P((n - 1)/2, u), the regularized incomplete gamma
    function, measures the (n-1)-ball of squared radius u in the
    transverse slice.  Every term is positive, so Gauss-Legendre nodes in
    theta are summed by log-sum-exp over an (order, *broadcast shape)
    array, theta on the leading axis; an entry gets the same bits alone
    as in any batch, and the inputs are never written.  The order doubles
    from ``spec.order`` until every entry changes by less than
    max(spec.tol / 100, 1e-12) relative.  A pass over more than
    ``quadrature.MAX_NODES`` (center, node) pairs, or above order 1024,
    raises instead.  This is gamma(B) = P(chi'^2_n(2 a^2) <= 2 radius^2),
    the noncentral chi-square CDF, kept in log domain far below exp(-700).
    """
    norms = np.asarray(center_norms, dtype=float)
    radius = np.asarray(radius, dtype=float)
    _check_shape(norms, 0.0, radius)
    n = _check_dim(n)
    if n == 1:
        return log_gamma_interval(norms - radius, norms + radius, 2 * radius)
    spec = spec if spec is not None else QuadratureSpec()
    shape = np.broadcast_shapes(norms.shape, radius.shape)
    return _refine_each(
        lambda order: _log_ball_slices(norms, radius, n, order),
        lambda order: math.prod(shape) * order, spec,
        _inner_tol(spec), f"ball measure in n = {n}",
        lambda i: (f"radius {np.broadcast_to(radius, shape).flat[i]}, "
                   f"center distance {np.broadcast_to(norms, shape).flat[i]}"))


def _log_ball_slices(norms, radius, n: int, order: int):
    # Gauss-Legendre in theta on [0, pi], the nodes on a leading axis so
    # that the sum runs over contiguous slabs of entries: -x^2 at every
    # entry, weighed by the slices, built at the radius's shape alone
    lead = (order,) + (1,) * max(norms.ndim, radius.ndim)
    if norms.size == radius.size == 1:
        # numpy sums a lone column pairwise but side-by-side columns slab
        # by slab: a lone entry runs as two, so its bits match any batch
        return _log_ball_slices(np.repeat(norms.ravel(), 2), radius.ravel(),
                                n, order)[:1].reshape(lead[1:])
    nodes, logw = _legendre_rule(order)
    theta = (0.5 * math.pi * (nodes + 1.0)).reshape(lead)
    sin_t = np.sin(theta)
    x = norms + radius * np.cos(theta)
    log_slice = np.log(gammainc(0.5 * (n - 1), (radius * sin_t) ** 2))
    log_weights = (logw.reshape(lead) + np.log(0.5 * math.pi * radius)
                   - _LOG_SQRT_PI + np.log(sin_t) + log_slice)
    x *= x  # this pass's own array, squared and negated in place
    return log_sum_weighted(np.negative(x, out=x), log_weights, axis=0)


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
    elif region.dim == 1:  # two spans of width ro - ri, exactly 2^k r_B
        log = np.logaddexp(log_gamma_interval(c - ro, c - ri, ro - ri),
                           log_gamma_interval(c + ri, c + ro, ro - ri))
    else:
        log = integrate_axial_log(lambda x, z: np.zeros(x.shape), c, ri, ro,
                                  region.dim, spec)[0]
    return LogNumber(log)
