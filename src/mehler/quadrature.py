"""Log-domain quadrature against the Gaussian measure.

Every integral here has the shape  integral_S exp(f_log(x)) dgamma(x)
with dgamma = pi^{-n/2} exp(-|x|^2) dx.  Node families:

* full space: tensor Gauss-Hermite, whose weight function is exactly the
  gamma density up to the pi^{-n/2} factor, one read-only grid cached
  per (n, orders) of a pass and shared by every call;
* balls and annuli about a center c, seen only through c and the inner
  and outer radii (0 for a ball): one radial rule, Gauss-Legendre in
  rho = |y - c| with the weight rho^{n-1}, and one unit-sphere rule,
  cached per (n, order): the axial factor (a Gauss-Jacobi rule in the
  cosine u to an axis, the azimuth exact) with the azimuth spread out by
  the sphere rule one dimension down.  The polar grid, rho times the
  sphere rule, serves direct ``integrate_gamma_log`` calls, among them
  the kernel-form route of ``kernel.apply_indicator_log``.  The axial
  rule of ``integrate_axial_log``, rho times the axial factor about
  c/|c|, serves annuli about many centers at once, for integrands that
  see y only through its coordinate along c and its distance from that
  axis: order^2 nodes per center in every n >= 2 where the polar grid
  needs 2 order^n.  The sweeps and the annulus measures in n >= 2 use it.

Accumulation is log-sum-exp throughout.  ``_refine_each`` is the one
log-domain refinement loop: it doubles the order until every value
changes by less than the tolerance, relative, or by at most two ulps,
or, for a pass that carries its own error estimate, until that meets it.
Under the two-value test a small first pass batches orders o and 2o:
each order's nodes fill their own block of one array, then one integrand
call and one sum per order, so each value has the bits of a pass of its
own.  One order is a batch of one: in n = 1 a polar pass of any orders
is one broadcast of the shared sphere rule {-1, +1} over their joined
radial nodes, and in n >= 2 each order's polar block, as each order's
axial block in every n, is written in place into one array.  A pass
whose work, the larger of its node count over the batch and its top
order squared, exceeds ``MAX_NODES`` is refused unbuilt, in any n (no
rule tops order 1024), and a NaN pass stops the loop: one error that
carries the last two values of the entry that moved most.  It drives
``integrate_gamma_log`` and ``integrate_axial_log`` here, the ball
measure in ``measure`` and the number of interpolation points in
``experiments``.  The default relative tolerance is 1e-8; only
``QuadratureSpec(tol=)`` (the CLI's ``--tol``) changes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import roots_hermite, roots_jacobi

from .geometry import Annulus, Ball, FullSpace, _as_index, _check_shape
from .lognum import LogNumber, log_sum_weighted

__all__ = [
    "QuadratureSpec",
    "QuadratureConvergenceError",
    "integrate_gamma_log",
    "integrate_axial_log",
]

# Most work one refinement pass may do: the larger of its node count and
# order^2, the cost of building a Gauss rule of that order (or an order x
# order interpolation matrix).  It bounds memory and time alike in any n:
# orders stay at or below 1024, polar grids (2 order^n nodes) and
# full-space grids (order^n) at order 2 up to n = 19 and n = 20.
MAX_NODES = 2 ** 20
# Most work a first pass may batch over its two orders: the batch saves a
# pass's fixed cost, tens of microseconds, but holds both orders' arrays
# at once (batched, the README n = 2 sweep's 6,400-node first pass raised
# the benchmark's peak RSS by about 0.2 MB on a 2-CPU Xeon).
_BATCH_WORK = 2 ** 12
# A log that moved by at most this many of its ulps has settled, whatever
# the tolerance: summing a batch can leave that much noise in a large log.
_SETTLED_ULPS = 2

_LOG_SQRT_PI = 0.5 * math.log(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Base order and relative tolerance.

    The domain selects the node family: Gauss-Hermite on the full space,
    the polar rule on balls and annuli.
    """

    order: int = 16
    tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "order", _as_index(self.order, 2, "order"))
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")


class QuadratureConvergenceError(RuntimeError):
    """Refinement exhausted before the relative change met the tolerance."""

    def __init__(self, message: str, last_two: tuple[float, float]):
        super().__init__(message)
        self.last_two = last_two


# -- node caches ------------------------------------------------------

@lru_cache(maxsize=128)
def _log_rule(roots, order: int, **params):
    # a Gauss rule's nodes and log-weights, read-only and shared
    nodes, weights = roots(order, **params)
    with np.errstate(divide="ignore"):  # extreme weights may underflow to 0
        logw = np.log(weights)
    nodes.setflags(write=False)
    logw.setflags(write=False)
    return nodes, logw


_hermite_rule = partial(_log_rule, roots_hermite)
_legendre_rule = partial(_log_rule, roots_jacobi, alpha=0.0, beta=0.0)


def _log_sphere_mass(n: int) -> float:  # log |S^{n-2}|, n >= 2
    return math.log(2.0) + (n - 1) * _LOG_SQRT_PI - math.lgamma(0.5 * (n - 1))


# -- node builders: points (m, n) and log-weights (m,) ----------------

# One hypercheck visits 2 keys and ``selftest`` 7, a first pass's two
# orders one key.  MAX_NODES caps an entry, its orders' grids together,
# at 2^20 (n + 1) floats, and full-space grids exist only up to n = 20:
# 168 MB an entry, so at most 16 x 168 MB (16 x 32 MB in n <= 3).
@lru_cache(maxsize=16)
def _fullspace_nodes(n: int, *orders: int):
    # the tensor Gauss-Hermite grid of each order, one block after another,
    # read-only and shared
    blocks = []
    for order in orders:
        nodes, logw = _hermite_rule(order)
        grids = np.meshgrid(*([nodes] * n), indexing="ij")
        wgrids = np.meshgrid(*([logw] * n), indexing="ij")
        blocks.append((np.stack([g.ravel() for g in grids], axis=-1),
                       sum(w.ravel() for w in wgrids) - n * _LOG_SQRT_PI))
    pts, lw = map(np.concatenate, zip(*blocks))
    pts.setflags(write=False)
    lw.setflags(write=False)
    return pts, lw


def _axial_factor(n: int, order: int):
    # directions omega about the last coordinate axis: u = <omega, e_n>,
    # v = sqrt(1 - u^2) and the log-weights of the unit sphere's measure
    # |S^{n-2}| (1 - u^2)^{(n-3)/2} du, the azimuth integrated exactly
    if n == 1:
        return np.array([-1.0, 1.0]), np.zeros(2), np.zeros(2)
    alpha = 0.5 * (n - 3)
    u, lw = _log_rule(roots_jacobi, order, alpha=alpha, beta=alpha)
    return u, np.sqrt(1.0 - u * u), lw + _log_sphere_mass(n)


@lru_cache(maxsize=64)
def _sphere_rule(n: int, order: int):
    # the unit sphere S^{n-1}: directions (m, n) and log-weights (m,),
    # read-only and shared.  The axial factor about e_n, each ring spread
    # over S^{n-2} by this rule one dimension down, divided by its mass:
    # S^0 = {-1, +1}, in n = 2 a ring of 2 order equispaced directions
    # (the trapezoid rule, spectrally accurate for periodic integrands).
    u, v, ulw = _axial_factor(n, order)
    if n == 1:
        direction, lw = u[:, None], ulw
    else:
        ring, rlw = _sphere_rule(n - 1, order)
        across = v[:, None, None] * ring  # (u nodes, ring, n - 1)
        along = np.broadcast_to(u[:, None, None], across.shape[:2] + (1,))
        direction = np.concatenate([across, along], axis=-1).reshape(-1, n)
        lw = (ulw[:, None] + (rlw - _log_sphere_mass(n))).reshape(-1)
    direction.setflags(write=False)
    lw.setflags(write=False)
    return direction, lw


@lru_cache(maxsize=32)
def _legendre_rules(*orders: int):
    # the Gauss-Legendre rules of the given orders, one after another
    nodes, logw = map(np.concatenate, zip(*map(_legendre_rule, orders)))
    nodes.setflags(write=False)
    logw.setflags(write=False)
    return nodes, logw


def _radial_rule(n: int, orders, r_inner, r_outer):
    # Gauss-Legendre in rho = |y - c| on [r_inner, r_outer] with weight
    # rho^{n-1}: nodes and log-weights, a row per pair of column radii,
    # the rule of each order after the last along the row
    rnodes, rlogw = _legendre_rules(*orders)
    half = 0.5 * (r_outer - r_inner)
    rho = half * rnodes + 0.5 * (r_outer + r_inner)
    lw = rlogw + np.log(half)
    return rho, lw if n == 1 else lw + (n - 1) * np.log(rho)


def _blocks(sizes):  # consecutive slices of the given lengths
    stop = 0
    for size in sizes:
        stop += size
        yield slice(stop - size, stop)


def _polar_nodes(center, r_inner: float, r_outer: float, n: int, *orders):
    # the polar grid of each order, one block after another in one array:
    # in n = 1 every order's sphere rule is S^0 = {-1, +1}, so one
    # broadcast over the joined radial nodes; in n >= 2 each order's block
    # written in place
    rho, rlw = _radial_rule(n, orders, r_inner, r_outer)
    if n == 1:
        direction, dlw = _sphere_rule(n, orders[0])
        pts = (rho[:, None, None] * direction).reshape(-1, n)
        lw = (rlw[:, None] + dlw).reshape(-1)
    else:
        rules = [_sphere_rule(n, order) for order in orders]
        sizes = [order * dlw.size for order, (_, dlw) in zip(orders, rules)]
        pts, lw = np.empty((sum(sizes), n)), np.empty(sum(sizes))
        for order, at, block, (direction, dlw) in zip(
                orders, _blocks(orders), _blocks(sizes), rules):
            np.multiply(rho[at, None, None], direction,
                        out=pts[block].reshape(order, -1, n))
            np.add(rlw[at, None], dlw, out=lw[block].reshape(order, -1))
    pts += center
    with np.errstate(over="ignore"):  # |y|^2 past float range: weight 0
        lw -= (pts * pts).sum(axis=-1)
    lw -= n * _LOG_SQRT_PI
    return pts, lw


def _axial_nodes(norms, r_inner, r_outer, n: int, *orders):
    # y = c + rho omega on the annuli, one row per center distance a = |c|,
    # the nodes of each order after the last along the row: the axial
    # coordinate x = a + rho u, the transverse distance z = rho v and
    # log-weights with the density, |y|^2 = x^2 + z^2
    rho, rlw = _radial_rule(n, orders, r_inner[:, None], r_outer[:, None])
    factors = [_axial_factor(n, order) for order in orders]
    sizes = [order * u.size for order, (u, _, _) in zip(orders, factors)]
    x, z, lw = np.empty((3, norms.size, sum(sizes)))
    for at, block, (u, v, ulw) in zip(_blocks(orders), _blocks(sizes),
                                      factors):
        # a view: the block's row segments split into (rho, u) evenly
        shape = (norms.size, at.stop - at.start, u.size)
        np.multiply(rho[:, at, None], u, out=x[:, block].reshape(shape))
        np.multiply(rho[:, at, None], v, out=z[:, block].reshape(shape))
        np.add(rlw[:, at, None], ulw, out=lw[:, block].reshape(shape))
    x += norms[:, None]
    with np.errstate(over="ignore"):  # |y|^2 past float range: weight 0
        lw -= x * x + z * z
    lw -= n * _LOG_SQRT_PI
    return x, z, lw


def _node_count(n: int, per_point: int, order: int):
    # one order's node count, per_point order^n, known before building it;
    # past 2^64, far over the cap, inf: the exact power of a large n
    # would cost time and memory and outgrow what str() prints
    if n * math.log2(order) > 64:
        return math.inf
    return per_point * order ** n


def _log_rel_converged(cur, prev, tol: float) -> bool:
    """True when every entry of cur moved from prev by <= tol relative,
    or by at most ``_SETTLED_ULPS`` ulps of cur: a large log can carry
    that much rounding noise, more than a tight tol allows.

    Equality covers the exactly-zero (-inf) case; NaN never passes, nor
    does any other step to or from an infinity.  Two floats are compared
    in Python, where a log step of 1 or more (e - 1 > tol) fails before
    ``math.expm1`` could overflow; arrays in numpy.
    """
    if isinstance(cur, float) and isinstance(prev, float):
        step = cur - prev  # math.ulp(inf) is inf, hence the last "<"
        return (cur == prev or (step < 1.0 and abs(math.expm1(step)) <= tol)
                or abs(step) <= _SETTLED_ULPS * math.ulp(cur) < math.inf)
    cur = np.asarray(cur, dtype=float)
    prev = np.asarray(prev, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN
        step = cur - prev
        ok = (cur == prev) | (np.abs(np.expm1(step)) <= tol)
        if not ok.all():
            # np.spacing(inf) is NaN: no step to or from an infinity passes
            ok |= np.abs(step) <= _SETTLED_ULPS * np.spacing(np.abs(cur))
    return bool(ok.all())


def _refine_each(one_pass, count, spec: QuadratureSpec, tol: float,
                 what: str, label, settled=_log_rel_converged):
    """Double the order of a log-domain rule until every value settles.

    ``one_pass(orders)`` returns a log value, or an array of them, for
    each order in the tuple ``orders``, from one pass over all their
    nodes, and ``count(order)`` is the number of nodes (over all entries)
    of one order.  The order doubles from ``spec.order`` until
    ``settled(cur, prev, tol)`` holds for the last two orders: by
    default, until every entry changes by at most ``tol`` relative or two
    ulps.  A first order alone never settles that way, so the first pass
    runs orders o and 2o together while their joint work is at most
    ``_BATCH_WORK``; a pass that carries its own error estimate may
    settle on it alone, and runs one order at a time.
    Two stops: a pass whose work, the larger of its node count and its
    top order squared, exceeds ``MAX_NODES`` raises before it runs, and
    a pass with a NaN value, which never settles, raises after it.  The
    error names ``what``, the refused order, its work and the cap (or the
    NaN order), ``label(i)`` for the entry i that moved most in the last
    doubling (a NaN first), and carries that entry's last two values, NaN
    for a pass that never ran.
    """
    def batch(orders):  # the work of a pass over these orders
        return max(sum(map(count, orders)), orders[-1] ** 2)

    prev = cur = math.nan  # the value of a pass that never ran
    orders = (spec.order, 2 * spec.order)
    work = batch(orders) if settled is _log_rel_converged else math.inf
    if work > min(_BATCH_WORK, MAX_NODES):  # the first order alone
        orders = orders[:1]
        work = batch(orders)
    while work <= MAX_NODES:
        prev, cur = (cur, *one_pass(orders))[-2:]
        if settled(cur, prev, tol):
            return cur
        if np.isnan(cur).any():  # never settles: stop now, not at the cap
            reason = f"the pass at order {orders[-1]} is NaN"
            break
        orders = (2 * orders[-1],)
        work = batch(orders)
    else:
        (order,) = orders
        reason = (f"refinement would build {count(order)} nodes at order "
                  f"{order} (order^2 = {order * order}), above the cap of "
                  f"{MAX_NODES}")
    prev, cur = (np.ravel(a) for a in np.broadcast_arrays(prev, cur))
    nan = np.isnan(cur)  # a NaN entry counts as the one that moved most
    with np.errstate(invalid="ignore"):  # inf - inf is NaN
        worst = int(np.argmax(nan if nan.any() else np.abs(cur - prev)))
    last_two = (float(prev[worst]), float(cur[worst]))
    raise QuadratureConvergenceError(
        f"{what}: {reason}, {label(worst)}; last two log values {last_two}",
        last_two)


# -- engine ------------------------------------------------------------

def integrate_gamma_log(f_log, region, spec: QuadratureSpec | None = None,
                        history: list | None = None) -> LogNumber:
    """Log of  integral_region exp(f_log(x)) dgamma(x).

    Parameters
    ----------
    f_log : callable
        Maps an (m, n) array of points, every order's nodes of one pass,
        to an (m,) array of log-integrand values, summed per order;
        ``-inf`` marks points where the integrand vanishes.  It must not
        write into the points: full-space grids are read-only and shared
        between calls.
    region : Ball | Annulus | FullSpace
        Integration domain, in any dimension n >= 1.
    spec : QuadratureSpec, optional
        Order and tolerance; defaults are shared across the package.
    history : list, optional
        When given, one (order, log_value) tuple is appended per
        refinement step; a convergence-inspection hook.

    Raises
    ------
    QuadratureConvergenceError
        When the next pass would do more than ``MAX_NODES`` work, the
        larger of its node count and order^2, before the relative change
        falls below ``tol``, or a pass is NaN.  The message names n, the
        refused order and the cap (or the NaN order) and the region;
        ``last_two`` holds the last two iterates, NaN for a pass that
        never ran.
    """
    spec = spec if spec is not None else QuadratureSpec()
    if isinstance(region, FullSpace):  # a grid of order^n points
        nodes = partial(_fullspace_nodes, region.dim)
        count = partial(_node_count, region.dim, 1)
    elif isinstance(region, (Ball, Annulus)):  # order radii x 2 order^(n-1)
        nodes = partial(_polar_nodes, region.center, region.inner_radius,
                        region.outer_radius, region.dim)
        count = partial(_node_count, region.dim, 2)
    else:
        raise TypeError(f"cannot integrate over {type(region).__name__}")

    def one_pass(orders):  # one call of f_log, one sum per order
        pts, lw = nodes(*orders)
        vals = np.asarray(f_log(pts), dtype=float)
        if vals.shape != (pts.shape[0],):
            raise ValueError("f_log must return one log value per point")
        values = [log_sum_weighted(vals[at], lw[at])
                  for at in _blocks(map(count, orders))]
        if history is not None:
            history.extend(zip(orders, values))
        return values

    return LogNumber(_refine_each(
        one_pass, count, spec, spec.tol,
        f"integral in n = {region.dim}", lambda _: f"over {region!r}"))


def integrate_axial_log(f_log, center_norms, r_inner, r_outer, n: int,
                        spec: QuadratureSpec | None = None):
    """Log of  integral_{r_inner <= |y - c| <= r_outer} exp(f_log) dgamma(y)
    for every center distance |c| in ``center_norms``, in one refinement.

    ``f_log(x, z)`` sees y through its coordinate x = <y, c/|c|> along
    the axis and its distance z >= 0 from it, as (centers, nodes)
    arrays, and returns one such array.  So does the density, so the
    azimuth is exact: with y = c + rho omega and u = <omega, c/|c|>,
    Gauss-Legendre in rho with weight rho^{n-1} times u = +-1 (n = 1) or
    Gauss-Jacobi in u for |S^{n-2}| (1 - u^2)^{(n-3)/2} du (n >= 2).  The
    radii broadcast against ``center_norms``; a NaN distance, or radii
    without 0 <= r_inner < r_outer < inf, raise ``ValueError`` before
    any pass runs.  The result is 1-D.  Every term is positive, so
    nothing cancels.  The order doubles until every entry changes by at
    most ``spec.tol`` relative; a pass over more than ``MAX_NODES``
    (center, node) pairs or order 1024 raises ``QuadratureConvergenceError``.
    """
    n = _as_index(n, 1, "dimension")
    spec = spec if spec is not None else QuadratureSpec()
    norms, r_inner, r_outer = (np.ravel(a).astype(float) for a in
                               np.broadcast_arrays(center_norms, r_inner,
                                                   r_outer))
    _check_shape(norms, r_inner, r_outer)

    def per_row(order):
        return order * (2 if n == 1 else order)

    def one_pass(orders):  # one call of f_log, one sum per order
        x, z, lw = _axial_nodes(norms, r_inner, r_outer, n, *orders)
        vals = f_log(x, z)
        return [log_sum_weighted(vals[:, at], lw[:, at], axis=-1)
                for at in _blocks(map(per_row, orders))]

    return _refine_each(
        one_pass, lambda order: norms.size * per_row(order), spec, spec.tol,
        f"annulus integral in n = {n}",
        lambda i: f"center distance {norms[i]}")
