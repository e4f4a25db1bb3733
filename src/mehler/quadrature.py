"""Log-domain quadrature against the Gaussian measure.

Every integral here has the shape  integral_S exp(f_log(x)) dgamma(x)
with dgamma = pi^{-n/2} exp(-|x|^2) dx.  Node families:

* full space: tensor Gauss-Hermite, whose weight function is exactly the
  gamma density up to the pi^{-n/2} factor;
* balls and annuli, in every n: the polar rule about the center,
  Gauss-Legendre in rho = |x - c| times a unit-sphere rule (S^0 =
  {-1, +1}), so integrands stay smooth.  A region is seen only through
  its center and its inner and outer radii (0 for a ball).  This grid
  serves direct ``integrate_gamma_log`` calls, among them the
  kernel-form route of ``kernel.apply_indicator_log``;
* the axial rule of ``integrate_axial_log``: annuli about many centers c
  at once, for integrands that see y only through its coordinate along
  c and its distance from that axis.  Gauss-Legendre in rho = |y - c|
  times a rule in u = <(y - c)/rho, c/|c|>, the azimuth integrated
  exactly: order^2 nodes per center in n = 2, 3 where the polar grid
  needs 2 order^n.  The sweeps and the annulus measures in n = 2, 3
  use it.

Accumulation is log-sum-exp throughout.  ``_refine_each`` is the one
log-domain refinement loop: it doubles the order until the relative
change of every value drops below the tolerance, and a pass that would
build more than ``MAX_NODES`` nodes raises instead.  It drives
``integrate_gamma_log`` and ``integrate_axial_log`` here, the ball
measure in ``measure`` and the batched translation step in ``kernel``.
The default relative tolerance is 1e-8; only ``QuadratureSpec(tol=)``
(the CLI's ``--tol``) changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite, roots_legendre

from .geometry import Annulus, Ball, FullSpace
from .lognum import LogNumber, log_sum_weighted

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "integrate_gamma_log",
    "integrate_axial_log",
    "lq_norm_log",
]

MAX_DIM = 3

# Largest node set one refinement pass may build.  A doubling multiplies
# the node count by 2^n, so in n = 3 the refinement cap alone would let a
# non-converging integrand allocate gigabytes; polar grids stay below
# this cap up to order 80 in n = 3 and order 724 in n = 2.
MAX_NODES = 2 ** 20

_LOG_SQRT_PI = 0.5 * math.log(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Base order, relative tolerance and refinement cap.

    The domain selects the node family: Gauss-Hermite on the full space,
    the polar rule on balls and annuli.
    """

    order: int = 16
    tol: float = 1e-8
    max_refinements: int = 12

    def __post_init__(self):
        if int(self.order) != self.order or self.order < 2:
            raise ValueError("order must be an integer >= 2")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if int(self.max_refinements) != self.max_refinements or self.max_refinements < 1:
            raise ValueError("max_refinements must be a positive integer")


def _inner_tol(spec: QuadratureSpec) -> float:
    # the tolerance of an inner step nested in an outer rule at spec.tol
    return max(spec.tol * 1e-2, 1e-12)


def _check_q(q) -> float:
    q = float(q)
    if not (q >= 1.0 and math.isfinite(q)):
        raise ValueError("q must lie in [1, inf)")
    return q


class QuadratureConvergenceError(RuntimeError):
    """Refinement exhausted before the relative change met the tolerance."""

    def __init__(self, message: str, last_two: tuple[float, float]):
        super().__init__(message)
        self.last_two = last_two


# -- node caches ------------------------------------------------------

@lru_cache(maxsize=64)
def _hermite_rule(order: int):
    nodes, weights = roots_hermite(order)
    with np.errstate(divide="ignore"):  # extreme weights may underflow to 0
        logw = np.log(weights)
    nodes.setflags(write=False)
    logw.setflags(write=False)
    return nodes, logw


@lru_cache(maxsize=64)
def _legendre_rule(order: int):
    nodes, weights = roots_legendre(order)
    logw = np.log(weights)
    nodes.setflags(write=False)
    logw.setflags(write=False)
    return nodes, logw


# -- node builders: points (m, n) and log-weights (m,) ----------------

def _fullspace_nodes(n: int, order: int):
    nodes, logw = _hermite_rule(order)
    if n == 1:
        return nodes[:, None], logw - _LOG_SQRT_PI
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([logw] * n), indexing="ij")
    lw = sum(w.ravel() for w in wgrids) - n * _LOG_SQRT_PI
    return pts, lw


def _sphere_rule(n: int, order: int):
    # the unit sphere S^{n-1}: directions (m, n), their log-weights (m,)
    # and the azimuth's log-weight log(2 pi / (2 order)), added last.
    # S^0 = {-1, +1}; in n = 2, 3 equispaced azimuths (the trapezoid rule
    # is spectrally accurate for periodic integrands), in n = 3 times
    # Gauss-Legendre in the polar cosine.
    if n == 1:
        direction, dlw, lphi = np.array([[-1.0], [1.0]]), np.zeros(2), 0.0
    else:
        m = 2 * order
        phi = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        lphi = math.log(2.0 * math.pi / m)
        direction, dlw = np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.zeros(m)
    if n == 3:
        u, ulogw = _legendre_rule(order)
        ring = np.sqrt(1.0 - u * u)[:, None, None] * direction  # (order, m, 2)
        axis = np.broadcast_to(u[:, None, None], ring.shape[:2] + (1,))
        direction = np.concatenate([ring, axis], axis=-1).reshape(-1, 3)
        dlw = np.repeat(ulogw, m)
    return direction, dlw, lphi


@lru_cache(maxsize=4)
def _polar_frame(n: int, order: int, r_inner: float, r_outer: float):
    # the polar grid about the origin: offsets (m, n) and log-weights (m,)
    # without the density, which depends on the center.  Read-only and
    # shared.  Four entries hold the orders one refinement of a ball
    # visits; each holds at most MAX_NODES * (n + 1) floats (33 MB).
    rnodes, rlogw = _legendre_rule(order)
    half = 0.5 * (r_outer - r_inner)
    rho = half * rnodes + 0.5 * (r_outer + r_inner)
    rlw = rlogw + math.log(half) + (n - 1) * np.log(rho)
    direction, dlw, lphi = _sphere_rule(n, order)
    offsets = (rho[:, None, None] * direction).reshape(-1, n)
    lw = ((rlw[:, None] + dlw) + lphi).reshape(-1)
    offsets.setflags(write=False)
    lw.setflags(write=False)
    return offsets, lw


def _polar_nodes(center, r_inner: float, r_outer: float, n: int, order: int):
    offsets, lw = _polar_frame(n, order, r_inner, r_outer)
    pts = center + offsets
    lw = lw - np.sum(pts * pts, axis=-1) - n * _LOG_SQRT_PI
    return pts, lw


def _axial_factor(n: int, order: int):
    # directions omega about the center's axis: u = <omega, c/|c|>,
    # v = sqrt(1 - u^2) and the log-weights of the unit sphere's measure
    # with the azimuth integrated exactly (the integrands depend on y
    # only through u)
    if n == 1:
        return np.array([-1.0, 1.0]), np.zeros(2), np.zeros(2)
    if n == 2:
        theta = (np.arange(order) + 0.5) * (math.pi / order)
        return (np.cos(theta), np.sin(theta),
                np.full(order, math.log(2.0 * math.pi / order)))
    u, lw = _legendre_rule(order)
    return u, np.sqrt(1.0 - u * u), lw + math.log(2.0 * math.pi)


def _axial_nodes(norms, r_inner, r_outer, n: int, order: int):
    # y = c + rho omega on the annuli, one row per center distance a = |c|:
    # the axial coordinate x = a + rho u, the transverse distance
    # z = rho v and log-weights with the density, |y|^2 = x^2 + z^2
    rnodes, rlogw = _legendre_rule(order)
    half = (0.5 * (r_outer - r_inner))[:, None]
    rho = half * rnodes + (0.5 * (r_outer + r_inner))[:, None]
    rlw = rlogw + np.log(half) + (n - 1) * np.log(rho)
    u, v, ulw = _axial_factor(n, order)
    x = norms[:, None, None] + rho[..., None] * u
    z = rho[..., None] * v
    with np.errstate(over="ignore"):  # |y|^2 past float range: weight 0
        lw = (rlw[..., None] + ulw) - (x * x + z * z) - n * _LOG_SQRT_PI
    rows = norms.size
    return x.reshape(rows, -1), z.reshape(rows, -1), lw.reshape(rows, -1)


def _nodes_for(region, order: int):
    if isinstance(region, FullSpace):
        return _fullspace_nodes(region.dim, order)
    return _polar_nodes(region.center, region.inner_radius,
                        region.outer_radius, region.dim, order)


def _node_count(region, order: int) -> int:
    # the size of _nodes_for(region, order), known before building it
    n = region.dim
    return order ** n if isinstance(region, FullSpace) else 2 * order ** n


def _check_node_budget(what: str, n: int, order: int, count: int,
                       last=None) -> None:
    """Raise before a refinement pass would build more than MAX_NODES nodes.

    The error names ``what``, the integral being refined.  ``last`` holds the
    value(s) of the previous pass, if any; the error carries their range,
    computed only when it raises.
    """
    if count > MAX_NODES:
        span = ((None, None) if last is None
                else (float(np.min(last)), float(np.max(last))))
        raise QuadratureConvergenceError(
            f"{what}: refinement in n = {n} would build {count} nodes at "
            f"order {order}, above the cap of {MAX_NODES}; last values span "
            f"{span}", span)


def _check_region(region):
    if not isinstance(region, (Ball, Annulus, FullSpace)):
        raise TypeError(f"cannot integrate over {type(region).__name__}")
    if region.dim > MAX_DIM:
        raise ValueError(f"supported dimensions are 1..{MAX_DIM}, got {region.dim}")


def _log_rel_converged(cur, prev, tol: float) -> bool:
    """True when every entry of cur moved from prev by <= tol relative."""
    cur = np.asarray(cur, dtype=float)
    prev = np.asarray(prev, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        # equality covers the exactly-zero (-inf) case; inf - inf is NaN
        ok = (cur == prev) | (np.abs(np.expm1(cur - prev)) <= tol)
    return bool(np.all(ok))


def _refine_each(one_pass, count, n: int, spec: QuadratureSpec,
                 tol: float, what: str, label):
    """Double the order of a log-domain rule until every value settles.

    ``one_pass(order)`` returns a log value, or an array of them, from a
    pass at ``order``, and ``count(order)`` is the number of nodes (over
    all entries) that pass builds.  The order doubles from ``spec.order``
    until every entry changes by at most ``tol`` relative; a pass over
    more than ``MAX_NODES`` nodes raises before it runs.  On failure the
    error names ``what``, the last order and ``label(i)`` for the entry i
    that moved most in the last doubling.
    """
    order = spec.order
    _check_node_budget(what, n, order, count(order))
    cur = one_pass(order)
    for _ in range(spec.max_refinements):
        order *= 2
        _check_node_budget(what, n, order, count(order), cur)
        prev, cur = cur, one_pass(order)
        if _log_rel_converged(cur, prev, tol):
            return cur
    prev, cur = np.ravel(prev), np.ravel(cur)
    with np.errstate(invalid="ignore"):
        worst = int(np.argmax(np.abs(cur - prev)))
    raise QuadratureConvergenceError(
        f"{what} did not converge to relative tolerance {tol} after "
        f"{spec.max_refinements} order doublings (order {order}, "
        f"{label(worst)}); last two log values ({prev[worst]}, {cur[worst]})",
        (float(prev[worst]), float(cur[worst])))


# -- engine ------------------------------------------------------------

def integrate_gamma_log(f_log, region, spec: QuadratureSpec | None = None,
                        history: list | None = None) -> LogNumber:
    """Log of  integral_region exp(f_log(x)) dgamma(x).

    Parameters
    ----------
    f_log : callable
        Maps an (m, n) array of points to an (m,) array of log-integrand
        values; ``-inf`` marks points where the integrand vanishes.
    region : Ball | Annulus | FullSpace
        Integration domain, dimension <= 3.
    spec : QuadratureSpec, optional
        Order/tolerance/refinement cap; defaults are shared across the
        package.
    history : list, optional
        When given, one (order, log_value) tuple is appended per
        refinement step; a convergence-inspection hook.

    Raises
    ------
    QuadratureConvergenceError
        When ``max_refinements`` order doublings do not bring the
        relative change below ``tol``, or when the next pass would build
        more than ``MAX_NODES`` nodes.  The message names the last order
        (and, without convergence, the region); ``last_two`` holds the
        last two iterates, or twice the last one when the node cap stops
        the refinement.
    """
    spec = spec if spec is not None else QuadratureSpec()
    _check_region(region)

    def one_pass(order):
        pts, lw = _nodes_for(region, order)
        vals = np.asarray(f_log(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("f_log must return one log value per point")
        value = log_sum_weighted(vals, lw)
        if history is not None:
            history.append((order, value))
        return value

    return LogNumber(_refine_each(
        one_pass, lambda order: _node_count(region, order), region.dim,
        spec, spec.tol, "integral", lambda _: f"over {region!r}"))


def integrate_axial_log(f_log, center_norms, r_inner, r_outer, n: int,
                        spec: QuadratureSpec | None = None):
    """Log of  integral_{r_inner <= |y - c| <= r_outer} exp(f_log) dgamma(y)
    for every center distance |c| in ``center_norms``, in one refinement.

    ``f_log(x, z)`` sees y through its coordinate x = <y, c/|c|> along
    the axis and its distance z >= 0 from it, as (centers, nodes)
    arrays, and returns one such array.  So does the density, so the
    azimuth is exact: with y = c + rho omega and u = <omega, c/|c|>,
    Gauss-Legendre in rho with weight rho^{n-1} times u = +-1 (n = 1),
    midpoints in arccos u on [0, pi] with weight 2 pi / order (n = 2) or
    Gauss-Legendre in u with weight 2 pi (n = 3).  The radii broadcast
    against ``center_norms``; the result is 1-D.  Every term is positive,
    so nothing cancels.  The order doubles until every entry changes by
    at most ``spec.tol`` relative; a pass over more than ``MAX_NODES``
    (center, node) pairs raises ``QuadratureConvergenceError`` unbuilt.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"supported dimensions are 1..{MAX_DIM}, got {n}")
    spec = spec if spec is not None else QuadratureSpec()
    norms, r_inner, r_outer = (np.ravel(a).astype(float) for a in
                               np.broadcast_arrays(center_norms, r_inner,
                                                   r_outer))

    def one_pass(order):
        x, z, lw = _axial_nodes(norms, r_inner, r_outer, n, order)
        return log_sum_weighted(f_log(x, z), lw, axis=-1)

    return _refine_each(
        one_pass, lambda order: norms.size * order * (2 if n == 1 else order),
        n, spec, spec.tol, f"annulus integral in n = {n}",
        lambda i: f"center distance {norms[i]}")


def lq_norm_log(g_log, region, q: float, spec: QuadratureSpec | None = None,
                history: list | None = None) -> LogNumber:
    """Log of  ( integral_region exp(g_log)^q dgamma )^(1/q),  1 <= q < inf.

    ``g_log`` follows the same vectorized calling convention as the
    integrand of :func:`integrate_gamma_log`.
    """
    q = _check_q(q)
    total = integrate_gamma_log(
        lambda pts: q * np.asarray(g_log(pts), dtype=float),
        region, spec, history)
    return LogNumber(total.log_magnitude / q)
