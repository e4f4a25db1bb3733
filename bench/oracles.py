"""Reference values computed without the library's quadrature engine.

Conventions follow the library: the Gaussian measure has density
pi^{-n/2} exp(-|x|^2), and e^{tL} 1_B(y) is, by the translation route,
the measure of the ball B((c - e^{-t} y)/s, r/s) with s = sqrt(1 - e^{-2t}).

* one dimension: interval measures through scipy's normal log-CDF,
  so deep-tail values near exp(-900) keep relative precision;
* two and three dimensions: the measure of a ball is the noncentral chi^2
  CDF (Ding 1992, AS 275) through ``scipy.stats.ncx2``, exact at moderate
  magnitudes; below about exp(-600), where its series underflows, the
  density is integrated over the ball instead;
* annulus L^q masses: QUADPACK over the annulus in polar coordinates
  about the ball center, using the axial symmetry about the line through
  0 and c, with the inner value from the two closed forms above.

Nothing here imports mehler, so a defect in its engine cannot hide in
its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import log_ndtr, ndtr
from scipy.stats import ncx2

SQRT2 = math.sqrt(2.0)


def log_gamma_interval(a: float, b: float) -> float:
    """log gamma([a, b]) in one dimension (density pi^{-1/2} e^{-x^2})."""
    if a >= 0.0:
        hi, lo = float(log_ndtr(-SQRT2 * a)), float(log_ndtr(-SQRT2 * b))
        return hi + math.log1p(-math.exp(lo - hi))
    if b <= 0.0:
        return log_gamma_interval(-b, -a)
    return math.log(float(ndtr(SQRT2 * b)) - float(ndtr(SQRT2 * a)))


def log_gamma_ball(center_norm: float, radius: float, n: int) -> float:
    """log gamma(B(c, r)) for |c| = center_norm in R^n.

    In n >= 2 this is the noncentral chi^2 CDF; where scipy's series has
    lost relative precision (below about exp(-600)) the measure is
    integrated directly instead.
    """
    if n == 1:
        return log_gamma_interval(center_norm - radius, center_norm + radius)
    value = float(ncx2.logcdf(2.0 * radius * radius, n,
                              2.0 * center_norm * center_norm))
    if value > -600.0:
        return value
    return _shell_log_integral(center_norm, 0.0, radius, n, lambda ya, yp: 0.0)


def _time_factors(t: float) -> tuple[float, float]:
    return math.exp(-t), math.sqrt(-math.expm1(-2.0 * t))


def inner_log(t: float, center, radius: float, y) -> float:
    """log e^{tL} 1_{B(center, radius)}(y) by the translation closed form."""
    em, s = _time_factors(t)
    center = np.asarray(center, dtype=float)
    y = np.asarray(y, dtype=float)
    m = (center - em * y) / s
    if center.size == 1:
        return log_gamma_interval(float(m[0]) - radius / s,
                                  float(m[0]) + radius / s)
    return log_gamma_ball(float(np.linalg.norm(m)), radius / s, center.size)


def _shell_log_integral(c: float, r_in: float, r_out: float, n: int,
                        g) -> float:
    """log of the integral of exp(g) dgamma over r_in <= |y - c| <= r_out.

    ``g(ya, yp)`` may depend on y only through its coordinate ya along
    the axis through 0 and c and its distance yp from that axis.  In
    n = 2, 3 the shell is swept in polar coordinates (rho, theta) about
    c with the axial symmetry made exact; in n = 1 it is one or two
    intervals.  The integrand is shifted by its sampled maximum before
    exponentiating, so log values near -1000 stay representable.
    """
    if n == 1:
        pieces = ([(c - r_out, c + r_out)] if r_in == 0.0
                  else [(c - r_out, c - r_in), (c + r_in, c + r_out)])

        def h1(y):
            return g(y, 0.0) - y * y

        shift = max(h1(y) for a, b in pieces for y in np.linspace(a, b, 33))
        total = sum(
            integrate.quad(lambda y: math.exp(h1(y) - shift), a, b,
                           epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for a, b in pieces)
        return shift + math.log(total) - 0.5 * math.log(math.pi)

    def h(rho, theta):
        ya = c + rho * math.cos(theta)
        yp = rho * math.sin(theta)
        return g(ya, yp) - ya * ya - yp * yp

    shift = max(h(rho, th) for rho in np.linspace(r_in, r_out, 9)
                for th in np.linspace(0.0, math.pi, 17))
    if n == 2:
        def jac(rho, theta):
            return rho
        angular = math.log(2.0)  # theta in [0, pi] covers half the circle
    else:
        def jac(rho, theta):
            return rho * rho * math.sin(theta)
        angular = math.log(2.0 * math.pi)  # the azimuth, exactly
    total, _ = integrate.dblquad(
        lambda theta, rho: jac(rho, theta) * math.exp(h(rho, theta) - shift),
        r_in, r_out, 0.0, math.pi, epsabs=0.0, epsrel=1e-11)
    return shift + math.log(total) + angular - 0.5 * n * math.log(math.pi)


def annulus_lq_log(t: float, q: float, center_norm: float, radius: float,
                   k: int, n: int) -> float:
    """log (integral_{C_k(B)} (e^{tL} 1_B)^q dgamma)^{1/q}, B = B(c, r).

    C_k(B) is the shell 2^k r <= |y - c| <= 2^{k+1} r, k >= 1.
    """
    em, s = _time_factors(t)
    c = float(center_norm)
    rho = radius / s

    def g(ya, yp):
        ma = (c - em * ya) / s
        if n == 1:
            return q * log_gamma_interval(ma - rho, ma + rho)
        return q * log_gamma_ball(math.hypot(ma, em * yp / s), rho, n)

    log_mass = _shell_log_integral(c, 2.0 ** k * radius,
                                   2.0 ** (k + 1) * radius, n, g)
    return log_mass / q


def implied_constant_log(p: float, theta: float, c_decay: float, t: float,
                         k: int, radius: float, lhs_log: float,
                         log_gamma_b: float) -> float:
    """The template's implied constant from its left side and gamma(B)."""
    d = (2.0 ** k - 1.0) * radius
    rhs = -theta * math.log(t) - c_decay * d * d / t + log_gamma_b / p
    return lhs_log - rhs


def blowup_slope(p: float, q: float, t: float) -> float:
    """Closed-form growth rate of the log implied constant in |c_B|^2."""
    return 2.0 / (math.exp(t) + 1.0) - 1.0 + (1.0 / p - 1.0 / q)


def hyper_ratio(t: float, p: float, lam: float) -> float:
    """||e^{tL} e^{lam x}||_2 / ||e^{lam x}||_p in closed form."""
    return math.exp(lam * lam * (1.0 + math.exp(-2.0 * t) - p) / 4.0)


def rel_close_log(a: float, b: float, rtol: float) -> bool:
    """Whether two log magnitudes differ by at most rtol relatively."""
    return math.isfinite(a) and math.isfinite(b) and abs(math.expm1(a - b)) <= rtol
