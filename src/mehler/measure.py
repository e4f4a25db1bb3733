"""Gaussian measure of intervals, balls and annuli, in log domain.

gamma(S) = integral_S pi^{-n/2} exp(-|x|^2) dx.  One-dimensional sets go
through the error-function closed form, scaled (erfcx) past the origin,
which keeps full relative precision for magnitudes like exp(-900).

``log_gamma_ball`` is the one ball-measure primitive.  It is
array-valued over the center distance and the radius and, in every
n >= 2, reduces a ball to a one-dimensional integral along its axis
(incomplete-gamma transverse slices); the sweep samples e^{tL} 1_B
through it at the Chebyshev points of its interpolants, and
``gamma_log`` measures every region of inner radius 0 through it: the
balls and C_0(B) = 2B.  The other annuli in n >= 2 are the axial rule of
``quadrature.integrate_axial_log`` with a zero integrand: a sum of
positive terms, where gamma(outer ball) - gamma(inner ball) would cancel
when both are near 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfcx, gammainc, gammaln, hyp1f1

from .geometry import Annulus, Ball, FullSpace, _as_index, _check_shape
from .lognum import LogNumber, log_sum_weighted
from .quadrature import (
    _LOG_SQRT_PI,
    QuadratureSpec,
    _blocks,
    _legendre_rule,
    _legendre_rules,
    _refine_each,
    integrate_axial_log,
)

__all__ = ["log_gamma_interval", "log_gamma_ball", "gamma_log"]

_TINY = np.finfo(float).tiny
# Spans narrower than this take erfc(hi) / erfc(lo) from a Gauss rule on
# their exact width: the two ends' ratio loses precision as 1/w (-inf
# below w = 1e-16 or so), the rule keeps the log to 2e-16 relative below
# this width (against mpmath, lo in [0, 1e9]).
_NARROW = 2.0 ** -6
# A radius past this squares near float overflow: the ball measure in
# n >= 2 and the kernel-form route refuse it
_MAX_RADIUS = 2.0 ** 511


def log_gamma_interval(a, b, width=None):
    """log gamma([a, b]) in one dimension; endpoints may be infinite.

    Equivalent to log((erf(b) - erf(a)) / 2).  Right of the origin (a span
    left of it is reflected) it is the log of e^{-a^2} (erfcx(a) - erfcx(b)
    e^{-w (a + b)}) / 2, w = b - a, erfcx(x) = e^{x^2} erfc(x) (W. J. Cody,
    Math. Comp. 23 (1969) 631), which keeps relative precision deep in
    either tail.  Callers that know a center and a radius pass ``width``
    = 2 radius exactly: far out, the two ends round to one float.  Below
    a width of 2^-6, erfc(b) / erfc(a) comes from a Gauss rule on that
    width, not from the two ends, whose ratio cancels.  Where every span
    straddles the origin only the erf form runs.  The arguments
    broadcast; scalar endpoints give a float.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (a <= b).all():  # one scan: a NaN endpoint fails it too
        raise ValueError("interval endpoints must not be NaN"
                         if np.isnan(a).any() or np.isnan(b).any()
                         else "interval needs a <= b")
    # a span across the origin: the two halves add, no cancellation
    straddle = (a < 0.0) & (0.0 < b)
    if straddle.all() and (width is None or np.shape(width) == straddle.shape):
        out = np.log(0.5 * (erf(b) + erf(-a)))  # every span: nothing more
        return float(out) if out.ndim == 0 else out
    # reflect intervals in the left half-line into the right one
    flip = b <= 0.0
    lo = np.where(flip, -b, a)
    hi = np.where(flip, -a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        width = b - a if width is None else np.asarray(width, dtype=float)
        # hi^2 = lo^2 + w (lo + hi), and -lo^2, the large term, comes last;
        # the share of erfc(lo) past hi is 1 for an empty span and NaN (0/0)
        # at lo = inf: fmin takes both to 1
        erfcx_lo = erfcx(lo)
        past = erfcx(hi) / erfcx_lo * np.exp(-width * (lo + hi))
        kept = np.log1p(-np.fmin(past, 1.0))
        if (narrow := width < _NARROW).any():
            # where the two ends cancel: erfc(hi) / erfc(lo) is the exp of
            # -int 2 / (sqrt(pi) erfcx) over [lo, lo + w], a smooth
            # integrand, by a 3-point Gauss-Legendre rule on the exact width
            nodes, logw = _legendre_rule(3)
            lead = (3,) + (1,) * kept.ndim  # kept has the broadcast shape
            half = 0.5 * width
            x = lo + half * (1.0 + nodes.reshape(lead))
            slopes = 2.0 * np.exp(logw - _LOG_SQRT_PI).reshape(lead) / erfcx(x)
            log_past = -half * slopes.sum(axis=0)
            kept = np.where(narrow, np.log(-np.expm1(log_past)), kept)
        out = np.log(0.5 * erfcx_lo) + kept - lo * lo
        if straddle.any():
            out = np.where(straddle, np.log(0.5 * (erf(hi) + erf(-lo))), out)
    return float(out) if out.ndim == 0 else out


def _inner_tol(spec: QuadratureSpec) -> float:
    # the tolerance of an inner step nested in an outer rule at spec.tol
    return max(spec.tol * 1e-2, 1e-12)


def log_gamma_ball(center_norms, radius, n: int,
                   spec: QuadratureSpec | None = None):
    """log gamma_n(B(m, radius)) for every |m| in ``center_norms``.

    gamma is rotation invariant, so only the distance a = |m| of the
    center matters.  ``radius`` is a number or an array that broadcasts
    against ``center_norms``; a NaN distance, a radius outside (0, inf)
    or an n that is not an integer >= 1 raises ``ValueError`` before any
    pass runs.  In n = 1 this is the interval (a - radius, a + radius) of
    width 2 radius, exact however far out a is.  In n >= 2, with the axis
    along m and x = a + radius cos(theta),

        gamma_n(B) = int_0^pi pi^{-1/2} exp(-(a + radius cos theta)^2)
                     F_{n-1}(radius^2 sin^2 theta) radius sin theta dtheta,

    where F_{n-1}(u) = P((n - 1)/2, u), the regularized incomplete gamma
    function, measures the (n-1)-ball of squared radius u in the
    transverse slice, taken from its Kummer series where it is not a
    normal float.  Every term is positive, so Gauss-Legendre nodes in
    theta are summed by log-sum-exp over an (order, *broadcast shape)
    array, theta on the leading axis; an entry gets the same bits alone
    as in any batch, and the inputs are never written.  The order doubles
    from ``spec.order`` until every entry changes by less than
    max(spec.tol / 100, 1e-12) relative.  A pass over more than
    ``quadrature.MAX_NODES`` (center, node) pairs, or above order 1024,
    raises instead.  This is gamma(B) = P(chi'^2_n(2 a^2) <= 2 radius^2),
    the noncentral chi-square CDF, kept in log domain far below exp(-700).
    In n >= 2 a radius above 2^511, whose square nears float overflow,
    raises ``ValueError`` too.
    """
    norms = np.asarray(center_norms, dtype=float)
    radius = np.asarray(radius, dtype=float)
    _check_shape(norms, 0.0, radius)
    n = _as_index(n, 1, "dimension")
    if n == 1:
        with np.errstate(over="ignore"):  # ends past float range: infinite
            return log_gamma_interval(norms - radius, norms + radius,
                                      2 * radius)
    if (radius > _MAX_RADIUS).any():
        raise ValueError(f"radius {radius.max()} is above 2^511 in n = {n}: "
                         "its square nears float overflow")
    spec = spec if spec is not None else QuadratureSpec()
    shape = np.broadcast_shapes(norms.shape, radius.shape)
    return _refine_each(
        lambda orders: _log_ball_slices(norms, radius, n, orders),
        lambda order: math.prod(shape) * order, spec,
        _inner_tol(spec), f"ball measure in n = {n}",
        lambda i: (f"radius {np.broadcast_to(radius, shape).flat[i]}, "
                   f"center distance {np.broadcast_to(norms, shape).flat[i]}"))


def _log_ball_slices(norms, radius, n: int, orders):
    # Gauss-Legendre in theta on [0, pi], the nodes of every order one
    # block after another on a leading axis, so that each order's sum runs
    # over contiguous slabs of entries: -x^2 at every entry, weighed by the
    # slices, built at the radius's shape alone; one value per order
    lead = (-1,) + (1,) * max(norms.ndim, radius.ndim)
    if norms.size == radius.size == 1:
        # numpy sums a lone column pairwise but side-by-side columns slab
        # by slab: a lone entry runs as two, so its bits match any batch
        return [value[:1].reshape(lead[1:]) for value in _log_ball_slices(
            np.repeat(norms.ravel(), 2), radius.ravel(), n, orders)]
    nodes, logw = _legendre_rules(*orders)
    theta = (0.5 * math.pi * (nodes + 1.0)).reshape(lead)
    sin_t = np.sin(theta)
    x = norms + radius * np.cos(theta)
    p = gammainc(s := 0.5 * (n - 1), u := (radius * sin_t) ** 2)
    log_slice = np.log(np.fmax(p, _TINY))
    # below the normal floats, P = u^s e^-u M(1, s + 1, u) / Gamma(s + 1)
    if (low := p < _TINY).any():  # (DLMF 8.5.1), the same in any batch
        log_u, u = 2.0 * (np.log(radius) + np.log(sin_t))[low], u[low]
        log_slice[low] = (s * log_u - u + np.log(hyp1f1(1.0, s + 1.0, u))
                          - gammaln(s + 1.0))
    log_weights = (logw.reshape(lead) + np.log(0.5 * math.pi * radius)
                   - _LOG_SQRT_PI + np.log(sin_t) + log_slice)
    with np.errstate(over="ignore"):  # x^2 past float range: weight 0
        x *= x  # this pass's own array, squared and negated in place
    np.negative(x, out=x)
    return [log_sum_weighted(x[at], log_weights[at], axis=0)
            for at in _blocks(orders)]


def gamma_log(region, spec: QuadratureSpec | None = None) -> LogNumber:
    """Log Gaussian measure of a ball, annulus or the full space.

    The full space has measure 1 (gamma is a probability measure).  A
    region with inner radius 0 (a ball, or C_0(B) = 2B) goes through
    ``log_gamma_ball``; other annuli through the erf closed form in n = 1
    and the axial rule in n >= 2.
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
