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
measure of the ball B((c - e^{-t} y)/s, r/s), s = sqrt(1 - e^{-2t}),
which ``measure.log_gamma_ball`` evaluates for many nodes in one call.
That measure and the density see y = c + rho omega only through rho and
<omega, c/|c|>, so the outer rule is the axial rule of
``quadrature.integrate_axial_log``, which depends on |c| alone: a sweep
runs its whole |c_B| grid through one refinement (and one batched call
for the log gamma(B) column), splitting the grid in halves only when a
group fails.  The kernel-form quadrature ``kernel.apply_indicator_log``
stays an independent route and is not used here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimates import OffDiagHypothesis, blowup_slope, failure_threshold, nelson_min_p
from .geometry import (
    Annulus,
    Ball,
    FullSpace,
    _as_index,
    admissible_radius,
    make_maximal_admissible_ball,
    set_distance,
)
from .kernel import _time_factors, check_time
from .lognum import LogNumber
from .measure import gamma_log, log_gamma_ball
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    _check_dim,
    _check_q,
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

# outer nodes per call of the sweeps' inner ball-measure step: bounds the
# (nodes x inner order) arrays it builds
INNER_CHUNK = 8192

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
    """A sweep point failed to converge; carries the completed rows."""

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


def _in_chunks(inner, nodes, *per_row):
    # an inner step over (rows, m) outer nodes, at most INNER_CHUNK nodes
    # per call: whole rows, or pieces of a row longer than that; each
    # per_row array gives inner one value per row, as a column
    rows, m = nodes.shape
    step = max(1, INNER_CHUNK // m)
    out = np.empty(nodes.shape)
    for i in range(0, rows, step):
        for j in range(0, m, INNER_CHUNK):
            out[i:i + step, j:j + INNER_CHUNK] = inner(
                nodes[i:i + step, j:j + INNER_CHUNK],
                *(a[i:i + step, None] for a in per_row))
    return out


def _annulus_lq_log(t: float, q: float, norms, radii, k: int, n: int,
                    spec: QuadratureSpec | None):
    # ( integral_{C_k(B)} (e^{tL} 1_B)^q dgamma )^{1/q} for every ball
    # B = B(c, r) with |c| in norms and r in radii, in one refinement, no
    # admissibility constraints; e^{tL} 1_B(y) = gamma(B((c - e^{-t} y)/s,
    # r/s)) with s = sqrt(1 - e^{-2t}), the translation route
    q = _check_q(q)
    norms = np.atleast_1d(np.asarray(norms, dtype=float))
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    em, one_minus, _ = _time_factors(t)
    s = math.sqrt(one_minus)

    def g_log(x, z):
        # c - e^{-t} y has a - e^{-t} x along c and e^{-t} z across it
        dist = np.hypot(norms[:, None] - em * x, em * z) / s
        return q * _in_chunks(lambda d, r: log_gamma_ball(d, r, n, spec),
                              dist, radii / s)

    return integrate_axial_log(g_log, norms, 2.0 ** k * radii,
                               2.0 ** (k + 1) * radii, n, spec) / q


def offdiag_lhs_log(t: float, q: float, ball: Ball, k: int,
                    spec: QuadratureSpec | None = None) -> LogNumber:
    """Log of  ( integral_{C_k(B)} (e^{tL} 1_B)^q dgamma )^{1/q}.

    B must be a maximal admissible ball with |c_B| >= 2^k (the testing
    family of the negative result).  The integrand e^{tL} 1_B(y) is the
    gamma measure of a translated ball (the translation route), evaluated
    by ``log_gamma_ball`` in batches at the nodes of the axial rule
    (``quadrature.integrate_axial_log``), which ``sweep_blowup`` runs over
    a whole grid of balls at once.
    """
    t = check_time(t)
    k = _require_testing_family(ball, k)
    return LogNumber(_annulus_lq_log(
        t, q, ball.center_norm, ball.radius, k, ball.dim, spec)[0])


def _require_testing_family(ball: Ball, k) -> int:
    # k as an int; C_k(B) is built first, so 2.0 ** k is a float below
    k = Annulus(ball, _as_index(k, 1, "annulus index k")).k
    r_max = admissible_radius(ball.center)
    if abs(ball.radius - r_max) > 1e-9 * r_max:
        raise ValueError(
            "ball must be maximal admissible: radius == min(1, |c|^-1)")
    if ball.center_norm < 2.0 ** k:
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
    lhs = offdiag_lhs_log(t, hyp.q, ball, k, spec)
    lgB = gamma_log(ball, spec).log_magnitude
    return LogNumber(
        _implied_from_parts(hyp, t, ball, k, lhs.log_magnitude, lgB))


def _implied_from_parts(hyp, t, ball, k, lhs_log, log_gammaB) -> float:
    d = set_distance(ball, Annulus(ball, k))
    rhs_log = (-hyp.theta * math.log(t)
               - hyp.c * d * d / t
               + log_gammaB / hyp.p)
    return lhs_log - rhs_log


def sweep_blowup(hyp: OffDiagHypothesis, t: float, k: int, n: int, cB_grid,
                 spec: QuadratureSpec | None = None) -> SweepResult:
    """Sweep the implied constant over |c_B| and fit its growth slope.

    For each grid value c the ball is B(c e_1, 1/c) in R^n; rows come out
    sorted by c.  The fitted slope regresses log implied constant on
    |c_B|^2 (the growth exponent is quadratic; polynomial prefactors land
    in the intercept and residuals) and is compared against the
    closed-form prediction 2/(e^t + 1) - 1 + (1/p - 1/q).

    All grid points run through one refinement of the axial rule; a group
    that fails is split in halves, left first.  Raises SweepAborted,
    carrying the rows before it, if quadrature fails at a single point.
    """
    t = check_time(t)
    n = _check_dim(n)
    grid = sorted(float(c) for c in cB_grid)
    if len(set(grid)) < 4:
        raise ValueError("sweep grid needs at least 4 distinct |c_B| values")
    k = _require_testing_family(
        make_maximal_admissible_ball(np.r_[grid[0], np.zeros(n - 1)]), k)

    rows: list[SweepRow] = []
    _sweep_rows(hyp, t, k, n, grid, spec, rows)

    xs = np.array([r.cB_norm for r in rows]) ** 2
    ys = np.array([r.log_implied_const for r in rows])
    fitted, _ = fit_affine(xs, ys)
    predicted = blowup_slope(hyp.p, hyp.q, t)
    rel = abs(fitted - predicted) / abs(predicted) if predicted != 0.0 else math.nan
    return SweepResult(tuple(rows), fitted, predicted, rel)


def _sweep_rows(hyp, t, k, n, grid, spec, rows) -> None:
    # every grid point in one refinement; a failing group is split in
    # halves, left first, so a failing point aborts with the rows before it
    balls = [make_maximal_admissible_ball(np.r_[c, np.zeros(n - 1)])
             for c in grid]
    norms = np.array(grid)
    radii = np.array([ball.radius for ball in balls])
    try:
        lhs = _annulus_lq_log(t, hyp.q, norms, radii, k, n, spec)
        lgB = log_gamma_ball(norms, radii, n, spec)
    except QuadratureConvergenceError as exc:
        if len(grid) == 1:
            raise SweepAborted(f"sweep aborted at |c_B| = {grid[0]}: {exc}",
                               tuple(rows), grid[0]) from exc
        half = len(grid) // 2
        _sweep_rows(hyp, t, k, n, grid[:half], spec, rows)
        _sweep_rows(hyp, t, k, n, grid[half:], spec, rows)
        return
    for c, ball, a, g in zip(grid, balls, lhs.tolist(), lgB.tolist()):
        rows.append(SweepRow(c, a, g,
                             _implied_from_parts(hyp, t, ball, k, a, g)))


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
        closed = math.exp(lam * lam * (1.0 + math.exp(-2.0 * t) - p) / 4.0)
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
    elif q != 2.0 and p > 1.0 and p > 1.0 + (q - 1.0) * math.exp(-2.0 * t):
        # the L^p -> L^q contraction threshold; reported as a conjectured
        # extension of the interpolation argument, never as proven
        regime = CONJECTURED_EXTENSION
    else:
        regime = UNKNOWN
    return RegimeCell(p, q, t, t_star, p_nel, regime)


def regime_map(p_grid, q_grid, t_grid) -> RegimeMap:
    """Classify every (p, q, t) cell of the given grids.

    Cells violating 1 <= p < q < inf or t > 0 are skipped with a reason.
    fails_restricted applies exactly when t < failure_threshold(p, q);
    holds_unrestricted only for q = 2 with p in (1 + e^{-2t}, 2].
    """
    cells: list[RegimeCell] = []
    skipped: list[tuple[float, float, float, str]] = []
    for p_raw in p_grid:
        for q_raw in q_grid:
            for t_raw in t_grid:
                p, q, t = float(p_raw), float(q_raw), float(t_raw)
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
