"""Closed-form thresholds, exponents and bounds for semigroup estimates.

Everything here is elementary arithmetic: the L^2-L^2 off-diagonal decay
bound, the hypercontractivity threshold and the exponent obtained by
interpolating between them, plus the failure threshold and blow-up slope
that govern the restricted off-diagonal estimates on maximal admissible
balls.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .geometry import _as_index
from .kernel import check_time
from .lognum import LogNumber

__all__ = [
    "OffDiagHypothesis",
    "davies_gaffney_bound",
    "nelson_min_p",
    "delta_exponent",
    "interpolated_bound_log",
    "failure_threshold",
    "blowup_slope",
    "lemma_lower_bound_log",
]


def _check_pq(p: float, q: float) -> None:
    if not (1.0 <= p < q < math.inf):
        raise ValueError("need 1 <= p < q < inf")


@dataclass(frozen=True)
class OffDiagHypothesis:
    """Parameters (p, q, theta, c) of the off-diagonal estimate template

        ||1_F e^{tL} 1_E f||_q <= K t^{-theta} exp(-c dist(E,F)^2 / t) ||1_E f||_p.

    Defaults theta = 0 and c = 1/2 match the L^2-L^2 decay exponent; both
    are free sweep parameters since the blow-up happens for every
    theta >= 0 and c > 0.
    """

    p: float
    q: float
    theta: float = 0.0
    c: float = 0.5

    def __post_init__(self):
        _check_pq(self.p, self.q)
        if not 0.0 <= self.theta < math.inf:
            raise ValueError("theta must lie in [0, inf)")
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must lie in (0, inf)")


def davies_gaffney_bound(t: float, d: float) -> float:
    """The L^2-L^2 off-diagonal bound  (t/d) exp(-d^2 / 2t)  at distance d.

    The constant in front is not pinned down by theory; it is taken as 1,
    and all downstream checks are constant-free (ratios, monotonicity,
    slopes).  Vacuous at d = 0, which callers handle separately (k = 0
    annuli).
    """
    t = check_time(t)
    d = float(d)
    if not d > 0.0:
        raise ValueError("distance must be positive (the bound is vacuous at 0)")
    return (t / d) * math.exp(-d * d / (2.0 * t))


def nelson_min_p(t: float) -> float:
    """Infimum of exponents p for which e^{tL} contracts L^p into L^2.

    Equals 1 + e^{-2t}; contraction holds for p in (1 + e^{-2t}, 2].
    """
    t = check_time(t)
    return 1.0 + math.exp(-2.0 * t)


def delta_exponent(p: float, t: float) -> float:
    """Interpolation exponent  (1/2 - 1/p) / (1/2 - 1/(1 + e^{-2t})).

    Defined for p in (1 + e^{-2t}, 2]; takes values in [0, 1), hitting 0
    at p = 2 and approaching 1 as p decreases to the threshold.
    """
    t = check_time(t)
    p = float(p)
    p_min = nelson_min_p(t)
    if not (p_min < p <= 2.0):
        raise ValueError(f"p must lie in ({p_min}, 2] for t={t}, got {p}")
    return (0.5 - 1.0 / p) / (0.5 - 1.0 / p_min)


def interpolated_bound_log(p: float, t: float, d: float) -> LogNumber:
    """Log of the interpolated L^p-L^2 off-diagonal bound.

    The L^2-L^2 bound raised to the power 1 - delta(p, t): interpolation
    between the distance-decaying estimate and the L^p-L^2 contraction.
    Where the linear bound is not a normal float (d^2 / 2t beyond about
    700) its log is taken term by term instead.
    """
    delta = delta_exponent(p, t)
    bound = davies_gaffney_bound(t, d)
    if bound >= sys.float_info.min:
        base_log = math.log(bound)
    else:
        base_log = math.log(t) - math.log(d) - d * d / (2.0 * t)
    return LogNumber((1.0 - delta) * base_log)


def failure_threshold(p: float, q: float) -> float:
    """Largest time below which restricted off-diagonal estimates break.

    Equals log((1 + D)/(1 - D)) with D = 1/p - 1/q; positive for every
    1 <= p < q < inf, so some failure range of t always exists.
    """
    p, q = float(p), float(q)
    _check_pq(p, q)
    D = 1.0 / p - 1.0 / q
    return math.log1p(D) - math.log1p(-D)


def _gain(t: float) -> float:
    """2 / (e^t + 1).  Beyond t = 39 the callers' -1 absorbs it, so
    capping e^t at e^709 changes no result and avoids the overflow."""
    return 2.0 / (math.exp(min(t, 709.0)) + 1.0)


def blowup_slope(p: float, q: float, t: float) -> float:
    """Growth rate of the log implied constant against |c_B|^2.

    Equals 2/(e^t + 1) - 1 + (1/p - 1/q); positive exactly when
    t < failure_threshold(p, q), zero on the boundary.
    """
    t = check_time(t)
    p, q = float(p), float(q)
    _check_pq(p, q)
    return _gain(t) - 1.0 + (1.0 / p - 1.0 / q)


def lemma_lower_bound_log(t: float, q: float, n: int,
                          cB_norm: float) -> LogNumber:
    """Closed-form lower bound (log) for the annulus L^q mass of e^{tL} 1_B.

    For a maximal admissible ball with |c_B| = cB_norm the quantity
    (integral_{C_k(B)} (e^{tL} 1_B)^q dgamma)^{1/q} dominates

        |c_B|^{-n(1 + 1/q)} exp(|c_B|^2 (2/(e^t + 1) - 1 - 1/q))

    up to a (k, n, t)-dependent factor, which is deliberately NOT
    included here: callers compare differences of this bound, never its
    absolute level.
    """
    t = check_time(t)
    q = float(q)
    if not (q > 1.0 and math.isfinite(q)):
        raise ValueError("need 1 < q < inf")
    n = _as_index(n, 1, "dimension")
    c = float(cB_norm)
    if not c >= 2.0:
        raise ValueError("the testing family needs |c_B| >= 2^k with k >= 1")
    value = (-n * (1.0 + 1.0 / q) * math.log(c)
             + c * c * (_gain(t) - 1.0 - 1.0 / q))
    return LogNumber(value)
