"""Composite experiments: off-diagonal mass, implied constants, blow-up
sweeps, hypercontractivity ratios and the (p, q, t) regime map.

The central object is the implied constant of the off-diagonal template

    ||1_{C_k(B)} e^{tL} 1_B||_q  /  [ t^{-theta} e^{-c dist^2/t} gamma(B)^{1/p} ]

along the family of maximal admissible balls B = B(c, |c|^{-1}).  If the
template held with any finite constant, this quotient would stay bounded
over the family; below the failure threshold its log grows linearly in
|c_B|^2 with a slope predicted in closed form.

The left side is one quadrature over the annulus C_k(B).  Its integrand
e^{tL} 1_B(y) comes from the translation route: it equals the Gaussian
measure of the ball B((c - e^{-t} y)/s, r/s), s = sqrt(1 - e^{-2t}): the
erf closed form in n = 1.  In n >= 2 one ball B fixes the radius r/s
and a closed-form range of distances d, so ``measure.log_gamma_ball``
samples the analytic log gamma(B(d, r/s)) + (d - r/s)^2 at m Chebyshev
points per ball, all balls in one call, before the outer rule runs: m
doubles from 16 until every ball's Chebyshev coefficients from m/2 on
sum to at most the inner tolerance, each ball drops the coefficients
after its last one above a thousandth of it (Aurentz and Trefethen,
ACM TOMS 43 (2017) 33), and every pass of the outer rule gets the
interpolant at its nodes by Clenshaw's recurrence.
The ball measure and the density see y = c + rho omega only through rho and
<omega, c/|c|>, so the outer rule is the axial rule of
``quadrature.integrate_axial_log``, which depends on |c| alone.  One
array path takes center distances and radii to the log left side, log
gamma(B) and log implied constant, in one refinement and one batched ball
measure: a sweep passes its whole |c_B| grid (point by point where the
work cap refuses it), ``implied_constant_log`` one ball.  The kernel-form
route ``kernel.apply_indicator_log`` stays independent, unused here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import NamedTuple

import numpy as np

from .estimates import OffDiagHypothesis, blowup_slope, failure_threshold, nelson_min_p
from .geometry import (
    Annulus,
    Ball,
    FullSpace,
    _ADMISSIBLE_SLACK,
    _as_index,
    admissible_radius,
    as_point,
    check_time,
    make_maximal_admissible_ball,
    set_distance,
)
from .kernel import _time_factors
from .lognum import LogNumber
from .measure import _inner_tol, gamma_log, log_gamma_ball
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    _refine_each,
    integrate_axial_log,
    integrate_gamma_log,
)

__all__ = [
    "FAILS_RESTRICTED",
    "HOLDS_UNRESTRICTED",
    "CONJECTURED_EXTENSION",
    "UNKNOWN",
    "SweepRow",
    "SweepResult",
    "SweepAborted",
    "RegimeCell",
    "RegimeMap",
    "HypercontractivityResult",
    "DaviesGaffneyResult",
    "fit_affine",
    "offdiag_lhs_log",
    "implied_constant_log",
    "sweep_blowup",
    "hypercontractivity_check",
    "davies_gaffney_check",
    "regime_map",
]

FAILS_RESTRICTED = "fails_restricted"
HOLDS_UNRESTRICTED = "holds_unrestricted"
CONJECTURED_EXTENSION = "conjectured_extension"
UNKNOWN = "unknown"


class SweepRow(NamedTuple):
    cB_norm: float
    log_lhs: float
    log_gammaB: float
    log_implied_const: float


@dataclass(frozen=True)
class SweepResult:
    """Rows of a |c_B| sweep plus the fitted and predicted growth slopes.

    ``fitted_slope`` is the least-squares slope of log implied constant
    against |c_B|^2; ``slope_rel_error`` is NaN when the prediction is 0.
    """

    rows: tuple[SweepRow, ...]
    fitted_slope: float
    predicted_slope: float
    slope_rel_error: float


class SweepAborted(RuntimeError):
    """A sweep point failed or is not finite; carries the completed rows."""

    def __init__(self, message: str, partial_rows: tuple, failed_at: float):
        super().__init__(message)
        self.partial_rows = partial_rows
        self.failed_at = failed_at


@dataclass(frozen=True)
class RegimeCell:
    """One (p, q, t) cell with its thresholds and classification.

    ``regime`` (the ``class`` column in CSV output) is one of
    fails_restricted, holds_unrestricted, conjectured_extension or
    unknown.
    """

    p: float
    q: float
    t: float
    t_star: float
    p_nelson: float
    regime: str


@dataclass(frozen=True)
class RegimeMap:
    cells: tuple[RegimeCell, ...]
    skipped: tuple[tuple[float, float, float, str], ...]


@dataclass(frozen=True)
class HypercontractivityResult:
    ratio_closed_form: float
    ratio_numeric: float


@dataclass(frozen=True)
class DaviesGaffneyResult:
    lhs_log: float
    rhs_log_with_C1: float


def fit_affine(x, y) -> tuple[float, float]:
    """Least-squares (slope, intercept) of y against x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0]), float(coef[1])


def _ball_interpolant(lo, hi, radius, n: int, spec: QuadratureSpec):
    # log gamma_n(B(d, radius)) for d in [lo, hi], row by row, through
    # h(d) = log gamma_n(B(d, radius)) + (d - radius)^2 at m first-kind
    # Chebyshev points, fitted once: m doubles from 16 until every row's
    # coefficients from m/2 on sum to at most the inner tolerance, its own
    # error estimate, and each row keeps them up to its last one above a
    # thousandth of that; the samples' theta rule starts at the default
    # order whatever spec.order is, their tolerance being the inner one
    mid, half = (0.5 * (hi + lo))[:, None], (0.5 * (hi - lo))[:, None]
    radius = radius[:, None]
    tol = _inner_tol(spec)
    samples = replace(spec, order=QuadratureSpec().order)
    c = None  # (rows, m) Chebyshev coefficients of h

    def fit(orders):  # every sample of every row in one call
        nonlocal c
        (m,) = orders
        theta = math.pi * (np.arange(m) + 0.5) / m
        cos = np.cos(np.outer(theta, np.arange(m)))  # cos(k theta_j)
        d = mid + half * cos[:, 1]
        h = log_gamma_ball(d, radius, n, samples) + (d - radius) ** 2
        c = (2.0 / m) * h @ cos
        c[:, 0] *= 0.5
        with np.errstate(divide="ignore"):  # a tail of exact zeros
            return [np.log(np.abs(c[:, m // 2:]).sum(axis=1))]

    _refine_each(fit, lambda m: lo.size * m, QuadratureSpec(order=16), tol,
                 f"Chebyshev tail of the ball-measure interpolant in n = {n}",
                 lambda i: f"radius {radius[i, 0]}, center distances "
                           f"{lo[i]} to {hi[i]}",
                 settled=lambda log_tail, _, tol: bool(
                     (log_tail <= math.log(tol)).all()))
    # a row's chop depends on that row alone, and zeros past it leave the
    # recurrence's bits as they are, so a row gets the same bits in a batch
    keep = np.abs(c) > 1e-3 * tol
    keep[:, 0] = True
    length = c.shape[1] - np.argmax(keep[:, ::-1], axis=1)
    c = np.where(np.arange(c.shape[1]) < length[:, None], c, 0.0)
    c = c[:, :length.max(initial=1)]

    def log_ball(dist):
        # rounding past the range clamps; a range of zero width maps to 0
        x = np.clip((dist - mid) / np.where(half > 0.0, half, 1.0), -1.0, 1.0)
        two_x, b1, b2 = 2.0 * x, np.zeros_like(x), np.zeros_like(x)
        for ck in c[:, :0:-1].T:  # b_k = c_k + 2x b_{k+1} - b_{k+2}
            b2 = np.subtract(two_x * b1, b2, out=b2)
            b2 += ck[:, None]
            b1, b2 = b2, b1
        return c[:, :1] + x * b1 - b2 - (dist - radius) ** 2

    return log_ball


def _annulus_lq_log(t: float, q: float, norms, radii, k: int, n: int,
                    spec: QuadratureSpec | None):
    # ( integral_{C_k(B)} (e^{tL} 1_B)^q dgamma )^{1/q} for every ball
    # B = B(c, r) with |c| in norms and r in radii, in one refinement, no
    # admissibility constraints; e^{tL} 1_B(y) = gamma(B((c - e^{-t} y)/s,
    # r/s)) with s = sqrt(1 - e^{-2t}), the translation route
    q = float(q)
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError("q must lie in [1, inf)")
    spec = spec if spec is not None else QuadratureSpec()
    norms = np.atleast_1d(np.asarray(norms, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)
    r_in, r_out = 2.0 ** k * radii, 2.0 ** (k + 1) * radii
    if n == 1:
        log_ball = partial(log_gamma_ball, radius=(radii / s)[:, None], n=1)
    else:
        # |c - e^{-t} y| over the annulus, with A = (1 - e^{-t}) |c|, runs
        # from the least |A - e^{-t} rho| to A + e^{-t} r_out
        a = -math.expm1(-t) * norms
        lo = np.maximum(0.0, np.maximum(a - em * r_out, em * r_in - a))
        log_ball = _ball_interpolant(lo / s, (a + em * r_out) / s, radii / s,
                                     n, spec)

    def g_log(x, z):
        # c - e^{-t} y has a - e^{-t} x along c and e^{-t} z across it
        return q * log_ball(np.hypot(norms[:, None] - em * x, em * z) / s)

    return integrate_axial_log(g_log, norms, r_in, r_out, n, spec) / q


def offdiag_lhs_log(t: float, q: float, ball: Ball, k: int,
                    spec: QuadratureSpec | None = None) -> LogNumber:
    """Log of  ( integral_{C_k(B)} (e^{tL} 1_B)^q dgamma )^{1/q}.

    B must be a maximal admissible ball with |c_B| >= 2^k (the testing
    family of the negative result).  The integrand e^{tL} 1_B(y) is the
    gamma measure of a translated ball (the translation route), at the
    nodes of the axial rule (``quadrature.integrate_axial_log``), which
    ``sweep_blowup`` runs over a whole grid of balls at once; in n >= 2
    it is interpolated in the translated center's distance.
    """
    t = check_time(t)
    k = _require_testing_family(ball, k, ball.center_norm)
    return LogNumber(_annulus_lq_log(
        t, q, ball.center_norm, ball.radius, k, ball.dim, spec)[0])


def _require_testing_family(ball: Ball, k, least: float) -> int:
    # k as an int (C_k(B) is built first, so 2.0 ** k is a float below);
    # ``least`` is the smallest |c_B| the caller evaluates
    k = Annulus(ball, _as_index(k, 1, "annulus index k")).k
    r_max = admissible_radius(ball.center)
    if abs(ball.radius - r_max) > _ADMISSIBLE_SLACK * r_max:
        raise ValueError(
            "ball must be maximal admissible: radius == min(1, |c|^-1)")
    if least < 2.0 ** k:
        raise ValueError(f"the testing family needs |c_B| >= 2^k, k = {k}")
    return k


def implied_constant_log(hyp: OffDiagHypothesis, t: float, ball: Ball, k: int,
                         spec: QuadratureSpec | None = None) -> LogNumber:
    """Log of the off-diagonal template's implied constant at one ball.

    The left side over C_k(B) divided by the full right side with f = 1_B
    (whose L^p norm is gamma(B)^{1/p}).  If the template held with
    constant K this value would be <= log K uniformly over the family.
    """
    t = check_time(t)
    k = _require_testing_family(ball, k, ball.center_norm)
    return LogNumber(_implied_log(hyp, t, ball.center_norm, ball.radius, k,
                                  ball.dim, spec)[2][0])


def _implied_log(hyp, t, norms, radii, k, n, spec):
    # (log lhs, log gamma(B), log implied constant) of every ball B(c, r), |c|
    # in norms, r in radii, batched; dist(B, C_k(B)) = (2^k - 1) r
    lhs = _annulus_lq_log(t, hyp.q, norms, radii, k, n, spec)
    lgB = log_gamma_ball(norms, radii, n, spec)
    d = 2.0 ** k * radii - radii
    rhs = -hyp.theta * math.log(t) - hyp.c * d * d / t + lgB / hyp.p
    with np.errstate(invalid="ignore"):  # -inf - (-inf): refused later
        return lhs, lgB, lhs - rhs


def sweep_blowup(hyp: OffDiagHypothesis, t: float, k: int, n: int, cB_grid,
                 spec: QuadratureSpec | None = None) -> SweepResult:
    """Sweep the implied constant over |c_B| and fit its growth slope.

    For each grid value c >= 2^k the ball is B(c e_1, 1/c) in R^n; rows
    come out sorted by c.  The fitted slope regresses log implied
    constant on |c_B|^2 (the growth exponent is quadratic; polynomial
    prefactors land in the intercept and residuals) and is compared
    against the closed-form prediction 2/(e^t + 1) - 1 + (1/p - 1/q).

    All grid points run through one refinement of the axial rule; where
    the work cap refuses it, each point runs alone, left to right.  Raises
    SweepAborted, carrying the rows before it, if quadrature fails at a
    single point or a row's log implied constant is not finite.
    """
    t = check_time(t)
    n = _as_index(n, 1, "dimension")
    grid = sorted(float(c) for c in cB_grid)
    norms = as_point(grid)  # refuses NaN and inf
    if len(set(grid)) < 4:
        raise ValueError("sweep grid needs at least 4 distinct |c_B| values")
    k = _require_testing_family(
        make_maximal_admissible_ball([max(grid, key=abs)]), k, grid[0])

    rows: list[SweepRow] = []
    _sweep_rows(hyp, t, k, n, norms, spec, rows)
    xs = np.array([r.cB_norm for r in rows]) ** 2
    ys = np.array([r.log_implied_const for r in rows])
    fitted, _ = fit_affine(xs, ys)
    predicted = blowup_slope(hyp.p, hyp.q, t)
    rel = abs(fitted - predicted) / abs(predicted) if predicted != 0.0 else math.nan
    return SweepResult(tuple(rows), fitted, predicted, rel)


def _sweep_rows(hyp, t, k, n, norms, spec, rows) -> None:
    # the whole grid in one refinement or, where the work cap refuses it,
    # point by point: a failing point aborts with the rows before it
    try:
        lhs, lgB, implied = (column.tolist() for column in _implied_log(
            hyp, t, norms, 1.0 / norms, k, n, spec))
    except QuadratureConvergenceError as exc:
        if len(norms) == 1:  # a grid has at least 4 points
            raise SweepAborted(f"sweep aborted at |c_B| = {norms[0]}: {exc}",
                               tuple(rows), float(norms[0])) from exc
        for point in np.split(norms, len(norms)):
            _sweep_rows(hyp, t, k, n, point, spec, rows)
        return
    for row in map(SweepRow, norms.tolist(), lhs, lgB, implied):
        if not math.isfinite(row.log_implied_const):
            raise SweepAborted(f"sweep aborted at |c_B| = {row.cB_norm}: log "
                               f"implied constant {row.log_implied_const}",
                               tuple(rows), row.cB_norm)
        rows.append(row)


def hypercontractivity_check(t: float, p: float, lam: float,
                             spec: QuadratureSpec | None = None) -> HypercontractivityResult:
    """Contraction ratio ||e^{tL} f||_2 / ||f||_p for f(x) = e^{lam x} (n = 1).

    The closed form is exp(lam^2 (1 + e^{-2t} - p) / 4): equal to 1 at
    the threshold p = 1 + e^{-2t}, below 1 above it, above 1 below it.
    The numeric ratio recomputes both norms by Gauss-Hermite quadrature
    and uses no closed form.  e^{tL} is self-adjoint and a semigroup, so
    ||e^{tL} f||_2^2 = <f, e^{2tL} f> is, by the translation route, one
    2-D integral of f(x) f(e^{-2t} x + s2 u) dgamma(u, x) with
    s2 = sqrt(1 - e^{-4t}).
    A closed form beyond float64's range is inf.
    """
    t = check_time(t)
    p = float(p)
    lam = float(lam)
    if not (1.0 < p <= 2.0):
        raise ValueError("p must lie in (1, 2]")
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    try:
        closed = math.exp(lam * lam * (nelson_min_p(t) - p) / 4.0)
    except OverflowError:
        closed = math.inf

    _, one_minus, one_plus = _time_factors(2.0 * t)  # the route at 2t
    s2 = math.sqrt(one_minus)
    norm2_log = integrate_gamma_log(
        lambda pts: lam * (one_plus * pts[:, 0] + s2 * pts[:, 1]),
        FullSpace(2), spec).log_magnitude / 2.0
    normp_log = integrate_gamma_log(lambda pts: p * lam * pts[:, 0],
                                    FullSpace(1), spec).log_magnitude / p
    return HypercontractivityResult(closed, math.exp(norm2_log - normp_log))


def davies_gaffney_check(t: float, ball: Ball, k: int,
                         spec: QuadratureSpec | None = None) -> DaviesGaffneyResult:
    """L^2-L^2 off-diagonal consistency data for u = 1_B.

    ``lhs_log`` is the log of ||1_{C_k(B)} e^{tL} 1_B||_2 / gamma(B)^{1/2}
    (the ratio is invariant under rescaling u, both sides being
    1-homogeneous); ``rhs_log_with_C1`` is log((t/d) e^{-d^2/2t}) with the
    unknowable constant set to 1.  No pass/fail: the testable consequence
    is boundedness of lhs - rhs over sweeps.  The L^2-L^2 estimate holds
    for arbitrary Borel sets, so unlike the blow-up machinery this check
    imposes no admissibility or |c_B| >= 2^k constraint.
    """
    t = check_time(t)
    annulus = Annulus(ball, _as_index(k, 1, "annulus index k"))
    lhs = float(_annulus_lq_log(t, 2.0, ball.center_norm, ball.radius,
                                annulus.k, ball.dim, spec)[0])
    lhs -= 0.5 * gamma_log(ball, spec).log_magnitude
    d = set_distance(ball, annulus)
    rhs = math.log(t / d) - d * d / (2.0 * t)
    return DaviesGaffneyResult(lhs, rhs)


def _classify(p: float, q: float, t: float) -> RegimeCell:
    t_star = failure_threshold(p, q)
    p_nel = nelson_min_p(t)
    if t < t_star:
        regime = FAILS_RESTRICTED
    elif q == 2.0 and p_nel < p <= 2.0:
        regime = HOLDS_UNRESTRICTED
    elif q != 2.0 and p > nelson_min_p(t, q):
        # the L^p -> L^q contraction threshold; reported as a conjectured
        # extension of the interpolation argument, never as proven
        regime = CONJECTURED_EXTENSION
    else:
        regime = UNKNOWN
    return RegimeCell(p, q, t, t_star, p_nel, regime)


def regime_map(p_grid, q_grid, t_grid) -> RegimeMap:
    """Classify every (p, q, t) cell of the given grids.

    Cells violating 1 <= p < q < inf or t > 0 are skipped with a reason;
    a NaN or infinite p or t raises ``ValueError``.  fails_restricted
    applies exactly when t < failure_threshold(p, q); holds_unrestricted
    only for q = 2 with p in (1 + e^{-2t}, 2].
    """
    cells: list[RegimeCell] = []
    skipped: list[tuple[float, float, float, str]] = []
    for p_raw in p_grid:
        for q_raw in q_grid:
            for t_raw in t_grid:
                p, q, t = float(p_raw), float(q_raw), float(t_raw)
                as_point([p, t])  # refuses NaN and inf
                if not t > 0.0:
                    skipped.append((p, q, t, "t <= 0"))
                elif not p >= 1.0:
                    skipped.append((p, q, t, "p < 1"))
                elif not q > p:
                    skipped.append((p, q, t, "q <= p"))
                elif not math.isfinite(q):
                    skipped.append((p, q, t, "q = inf"))
                else:
                    cells.append(_classify(p, q, t))
    return RegimeMap(tuple(cells), tuple(skipped))
