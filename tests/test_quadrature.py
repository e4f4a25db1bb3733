"""Log-domain quadrature engine: exactness, stability, refinement."""

import math
import re
import time

import numpy as np
import pytest
from scipy.special import roots_hermite

from mehler import measure, quadrature, selftest
from mehler.geometry import Annulus, Ball, FullSpace
from mehler.kernel import apply_indicator_log, mehler_log_values
from mehler.lognum import log_sum_weighted
from mehler.measure import log_gamma_ball, log_gamma_interval
from mehler.quadrature import (
    MAX_NODES,
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_axial_log,
    integrate_gamma_log,
)


def test_spec_validation():
    QuadratureSpec(order=8, tol=1e-6)
    with pytest.raises(ValueError):
        QuadratureSpec(order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=1.0)


def test_constant_one_over_full_space():
    got = integrate_gamma_log(lambda p: np.zeros(len(p)), FullSpace(1))
    assert got.log_magnitude == pytest.approx(0.0, abs=1e-14)


def test_second_moment_of_gamma():
    # integral x^2 dgamma = 1/2 (variance of gamma per coordinate)
    def f_log(pts):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(np.abs(pts[:, 0]))

    got = integrate_gamma_log(f_log, FullSpace(1))
    assert got.log_magnitude == pytest.approx(math.log(0.5), rel=1e-12)


def test_interval_measure_matches_erf():
    got = integrate_gamma_log(lambda p: np.zeros(len(p)),
                              Ball([0.5], 0.5))  # the interval [0, 1]
    assert got.log_magnitude == pytest.approx(
        log_gamma_interval(0.0, 1.0), rel=1e-10)


def test_gauss_hermite_moment_exactness():
    # with m = 5 nodes, monomials up to degree 9 are exact
    selftest.check_gauss_hermite_exactness(np.random.default_rng(0))


def test_logsumexp_accumulation_overflow_free():
    rng = np.random.default_rng(0)
    mags = rng.uniform(1600.0, 1700.0, size=4096)
    lw = np.full(4096, -math.log(4096))
    total = log_sum_weighted(mags, lw)
    assert math.isfinite(total)
    assert 1600.0 <= total <= 1700.0 + 1.0


def test_reassociation_stability():
    # shuffling evaluation order moves the reduction by < 1e-13
    rng = np.random.default_rng(3)
    mags = rng.uniform(-900.0, 900.0, size=512)
    base = log_sum_weighted(mags)
    for _ in range(5):
        perm = rng.permutation(512)
        assert abs(log_sum_weighted(mags[perm]) - base) < 1e-13


def test_refinement_history_monotone_on_smooth_kernel_integrand():
    selftest.check_refinement_monotone(np.random.default_rng(0))


def test_convergence_error_carries_last_iterates(monkeypatch):
    # order 2 with a single refinement cannot resolve a sharp kernel; a
    # work cap of 16 admits the orders 2 and 4 only
    monkeypatch.setattr(quadrature, "MAX_NODES", 16)
    spec = QuadratureSpec(order=2, tol=1e-14)
    y = np.array([[0.3]])
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_gamma_log(lambda pts: mehler_log_values(1e-3, pts, y),
                            FullSpace(1), spec)
    last_two = err.value.last_two
    assert len(last_two) == 2 and all(math.isfinite(v) for v in last_two)


def test_refinement_work_is_capped_before_allocation():
    # seeded noise never converges; in n = 3 the cap must stop the
    # doubling before a pass larger than MAX_NODES is built
    rng = np.random.default_rng(11)
    sizes = []

    def noise(pts):
        sizes.append(len(pts))
        return rng.normal(size=len(pts))

    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_gamma_log(noise, Ball([0.5, 0.0, 0.0], 1.0))
    assert max(sizes) <= MAX_NODES
    # orders 16 and 32 together are past the batch limit: three passes
    assert 2 * 16 ** 3 + 2 * 32 ** 3 > quadrature._BATCH_WORK
    assert sizes == [2 * order ** 3 for order in (16, 32, 64)]
    message = str(err.value)
    assert "n = 3" in message and "order 128" in message
    assert str(2 * 128 ** 3) in message
    # the cap reports the last two iterates and the region, like a
    # refinement that runs out of doublings
    prev, cur = err.value.last_two
    assert math.isfinite(prev) and math.isfinite(cur) and prev != cur
    assert "Ball(center=[0.5, 0.0, 0.0], radius=1.0)" in message
    assert f"last two log values ({prev!r}, {cur!r})" in message


def test_refinement_stops_at_the_first_nan_pass():
    # NaN never settles, so the loop stops after the pass that gives it,
    # not at the work cap, and names the NaN entry, whatever moved before
    sizes = []

    def nan_far_out(pts):
        sizes.append(len(pts))
        return np.where(pts[:, 0] > 0.5, np.nan, 0.0)

    with pytest.raises(QuadratureConvergenceError, match=re.escape(
            "integral in n = 2: the pass at order 32 is NaN, over Ball(")
            ) as err:
        integrate_gamma_log(nan_far_out, Ball([0.6, 0.0], 0.5))
    assert sizes == [2 * 16 ** 2 + 2 * 32 ** 2]  # one batched pass
    assert all(math.isnan(v) for v in err.value.last_two)
    # along an array the error names the entry that went NaN, here the
    # second of three; a lone first pass compares with NaN everywhere
    for base in (4, 512):
        with pytest.raises(QuadratureConvergenceError,
                           match="at order .* is NaN, entry 1;") as err:
            quadrature._refine_each(
                lambda orders: [np.array([-1.0 / o, np.nan, 2.0])
                                for o in orders],
                lambda order: 3 * order, QuadratureSpec(order=base), 1e-8,
                "test rule", lambda i: f"entry {i}")


def test_engine_refuses_other_regions_and_misshapen_integrands():
    with pytest.raises(TypeError, match="cannot integrate over tuple"):
        integrate_gamma_log(lambda p: np.zeros(len(p)), (0.0, 1.0))
    with pytest.raises(ValueError,
                       match="f_log must return one log value per point"):
        integrate_gamma_log(lambda p: np.zeros((len(p), 2)), FullSpace(2))


def test_polar_weight_past_float_range_is_zero():
    # |y|^2 overflows for nodes near |y| = 1e300; numpy warnings are errors
    # under pytest's filter, and such a node must weigh nothing
    pts, lw = quadrature._polar_nodes(np.array([8.0]), 0.0, 1e300, 1, 16)
    far = np.abs(pts[:, 0]) > 1e155
    assert far.any() and (lw[far] == -math.inf).all()


def _refuse_grid(*args):
    raise AssertionError("a grid was built")


def test_polar_engine_dimension_cap(monkeypatch):
    # no dimension cap: the work cap refuses the first pass of a grid of
    # 16^6 full-space or 2 x 16^5 polar nodes before building it, so
    # there are no iterates to report; a dimension below 1 is refused
    monkeypatch.setattr(quadrature, "_fullspace_nodes", _refuse_grid)
    monkeypatch.setattr(quadrature, "_polar_nodes", _refuse_grid)
    for region, nodes in ((FullSpace(6), 16 ** 6),
                          (Ball([1.0, 0.0, 0.0, 0.0, 0.0], 0.5),
                           2 * 16 ** 5)):
        with pytest.raises(QuadratureConvergenceError,
                           match=f"build {nodes} nodes at order 16") as err:
            integrate_gamma_log(lambda p: np.zeros(len(p)), region)
        assert all(math.isnan(v) for v in err.value.last_two)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        FullSpace(0)


def test_grid_past_2_to_the_64_nodes_is_refused_without_its_power(
        monkeypatch):
    # 16^16 = 2^64 nodes are counted exactly; past that the count reads
    # inf, so a huge n costs neither the exact power (16^(10^9) is a
    # 4-Gbit integer) nor a message str() cannot print
    monkeypatch.setattr(quadrature, "_fullspace_nodes", _refuse_grid)
    monkeypatch.setattr(quadrature, "_polar_nodes", _refuse_grid)
    for region, nodes in ((FullSpace(16), 2 ** 64), (FullSpace(17), "inf"),
                          (FullSpace(10 ** 9), "inf"),
                          (Ball(np.r_[8.0, np.zeros(2999)], 0.5), "inf")):
        start = time.perf_counter()
        with pytest.raises(QuadratureConvergenceError,
                           match=f"build {nodes} nodes at order 16") as err:
            integrate_gamma_log(lambda p: np.zeros(len(p)), region)
        assert time.perf_counter() - start < 0.5
        assert all(math.isnan(v) for v in err.value.last_two)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polar_nodes_do_not_depend_on_call_history(n):
    # the unit-sphere rule is cached per (n, order): a center's nodes must
    # come out bit for bit as from a cold cache, after other centers and
    # after a caller wrote into its own copy
    rng = np.random.default_rng(11)
    center, other = rng.normal(size=(2, n)) * 4.0
    quadrature._sphere_rule.cache_clear()
    want = [a.copy() for a in quadrature._polar_nodes(center, 0.3, 0.9, n, 6)]
    quadrature._polar_nodes(other, 0.3, 0.9, n, 6)
    pts, lw = quadrature._polar_nodes(center, 0.3, 0.9, n, 6)
    pts[:] = 0.0
    lw[:] = 0.0
    got = quadrature._polar_nodes(center, 0.3, 0.9, n, 6)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _polar_nodes_order_by_order(center, r_inner, r_outer, n, *orders):
    # the polar grid built one order at a time, the radial weight rho^{n-1}
    # in every n: each order's block written by its own products
    # rho x direction and sums of logs
    rnodes, rlogw = quadrature._legendre_rules(*orders)
    half = 0.5 * (r_outer - r_inner)
    rho = half * rnodes + 0.5 * (r_outer + r_inner)
    rlw = rlogw + np.log(half) + (n - 1) * np.log(rho)
    sizes = [2 * order ** n for order in orders]
    pts, lw = np.empty((sum(sizes), n)), np.empty(sum(sizes))
    for order, at, block in zip(orders, quadrature._blocks(orders),
                                quadrature._blocks(sizes)):
        direction, dlw = quadrature._sphere_rule(n, order)
        np.multiply(rho[at, None, None], direction,
                    out=pts[block].reshape(order, -1, n))
        np.add(rlw[at, None], dlw, out=lw[block].reshape(order, -1))
    pts += center
    lw -= (pts * pts).sum(axis=-1)
    lw -= n * quadrature._LOG_SQRT_PI
    return pts, lw


@pytest.mark.parametrize("n, orders", [
    (n, orders) for n in (1, 2, 3, 4)
    for orders in ((5,), (16,), (2, 4), (4, 8), (8, 16), (16, 32))
    if 2 * orders[-1] ** n <= 2 ** 17])
@pytest.mark.parametrize("r_inner", [0.0, 0.3])
def test_polar_nodes_keep_the_bits_of_one_order_at_a_time(n, orders,
                                                          r_inner):
    # a batch repeats its radial rule against a cached layout and a lone
    # order broadcasts its sphere rule: the same floats meet in every
    # product and sum, so every node and weight keeps its bits
    center = np.random.default_rng(n).normal(size=n) * 3.0
    want = _polar_nodes_order_by_order(center, r_inner, 0.9, n, *orders)
    got = quadrature._polar_nodes(center, r_inner, 0.9, n, *orders)
    assert all(_bits(g) == _bits(w) for g, w in zip(got, want))


def test_an_n2_kernel_form_batches_only_its_first_pass(monkeypatch):
    # only the first pass, at most _BATCH_WORK nodes, runs two orders; the
    # later passes of an n = 2 kernel form that refines to order 128
    # (32,768 nodes) run one order each
    passes, sizes, nodes = [], [], quadrature._polar_nodes

    def recording_nodes(center, r_inner, r_outer, n, *orders):
        passes.append(orders)
        pts, lw = nodes(center, r_inner, r_outer, n, *orders)
        sizes.append(lw.size)
        return pts, lw

    monkeypatch.setattr(quadrature, "_polar_nodes", recording_nodes)
    apply_indicator_log(0.002, Ball(np.array([1.5, 0.0]), 0.75),
                        np.array([1.5, 0.7]))
    assert passes == [(16, 32), (64,), (128,)]
    assert sizes[0] == 2 * 16 ** 2 + 2 * 32 ** 2 <= quadrature._BATCH_WORK


@pytest.mark.parametrize("order", [5, 16, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fullspace_nodes_are_one_shared_read_only_grid(n, order):
    # the tensor Gauss-Hermite grid is cached per (n, order): every call
    # returns the same read-only arrays, bit for bit the meshgrid product
    pts, lw = quadrature._fullspace_nodes(n, order)
    again = quadrature._fullspace_nodes(n, order)
    assert again[0] is pts and again[1] is lw
    for a in (pts, lw):
        with pytest.raises(ValueError):
            a[0] = 0.0
    nodes, weights = roots_hermite(order)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    want_pts = np.stack([g.ravel() for g in grids], axis=-1)
    wgrids = np.meshgrid(*([np.log(weights)] * n), indexing="ij")
    want_lw = sum(w.ravel() for w in wgrids) - n * (0.5 * math.log(math.pi))
    assert pts.shape == (order ** n, n)
    assert np.array_equal(pts, want_pts) and np.array_equal(lw, want_lw)


@pytest.mark.parametrize("order", [6, 7])
@pytest.mark.parametrize("n, mass", [(1, 2.0), (2, 2.0 * math.pi),
                                     (3, 4.0 * math.pi)])
def test_sphere_rule_moments(n, mass, order):
    # |S^{n-1}| in total, |S^{n-1}| / n for each omega_i^2, and every
    # monomial of odd degree up to 3 integrates to 0
    direction, lw = quadrature._sphere_rule(n, order)
    w = np.exp(lw)
    assert w.sum() == pytest.approx(mass, rel=1e-14)
    assert w @ direction ** 2 == pytest.approx(np.full(n, mass / n), rel=1e-14)
    for i in range(n):
        odd = [direction[:, i]] + [direction[:, i] * direction[:, j]
                                   * direction[:, k]
                                   for j in range(n) for k in range(n)]
        assert max(abs(w @ m) for m in odd) <= 1e-14 * mass
    assert not (direction.flags.writeable or lw.flags.writeable)


# _log_rel_converged sees floats (scalar integrals) and arrays (batched
# ones, a single entry included); both paths must give one verdict
def _as_array(v):
    return np.array([v])


@pytest.mark.parametrize("wrap", [float, _as_array])
@pytest.mark.parametrize("cur, prev, want", [
    (-math.inf, -math.inf, True),    # zero stays zero
    (-3.0, -math.inf, False),        # zero became nonzero
    (-math.inf, -3.0, False),
    (math.nan, -3.0, False),
    (-3.0, math.nan, False),
    (math.nan, math.nan, False),
    (math.inf, math.inf, True),
    (800.0, 0.0, False),             # expm1(800) would overflow
    (0.0, 800.0, False),
    (-2.0, -2.0, True),
    (-3.0, math.inf, False),         # no step to or from an infinity
    (-math.inf, math.inf, False),
    (math.inf, -3.0, False),
])
def test_log_rel_converged_special_values(wrap, cur, prev, want):
    assert quadrature._log_rel_converged(wrap(cur), wrap(prev), 1e-8) is want


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("prev", [0.0, -37.5])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_log_rel_converged_paths_agree_at_the_tolerance(tol, prev, side):
    # steps within 40 ulps of log(1 +- tol), where the verdict flips
    edge = prev + math.log1p(side * tol)
    steps = [edge]
    for direction in (math.inf, -math.inf):
        cur = edge
        for _ in range(40):
            cur = math.nextafter(cur, direction)
            steps.append(cur)
    verdicts = [quadrature._log_rel_converged(cur, prev, tol)
                for cur in steps]
    assert verdicts == [quadrature._log_rel_converged(
        _as_array(cur), _as_array(prev), tol) for cur in steps]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("wrap", [float, _as_array])
@pytest.mark.parametrize("log", [-28044.0, 2.6e5, -3.1e6])
def test_log_rel_converged_accepts_two_ulps_of_rounding(wrap, log):
    # below 1e-12 relative, but beyond the reach of a float this large
    tol = 1e-12
    assert 2 * math.ulp(log) > tol
    for ulps, want in [(1, True), (2, True), (3, False)]:
        for sign in (1.0, -1.0):
            cur = log + sign * ulps * math.ulp(log)
            assert quadrature._log_rel_converged(
                wrap(cur), wrap(log), tol) is want


def test_tight_batched_ball_measure_settles_at_rounding():
    # the batch's summation noise of a few ulps once kept this grid
    # doubling to the node cap; it now settles, bit for bit as one entry
    # at a time
    spec = QuadratureSpec(tol=1e-12)
    norms = np.linspace(150.0, 170.0, 64)
    got = log_gamma_ball(norms, 3.0, 2, spec)
    want = [log_gamma_ball(c, 3.0, 2, spec) for c in norms]
    assert got.tolist() == want


def _first_pass(monkeypatch, run, base):
    # {order: value} of the first pass of ``run(QuadratureSpec(order=base))``
    passes = []
    refine = quadrature._refine_each

    def recording(one_pass, *args, **kwargs):
        def recorded(orders):
            values = one_pass(orders)
            passes.append(dict(zip(orders, values)))
            return values
        return refine(recorded, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_refine_each", recording)
        patch.setattr(measure, "_refine_each", recording)
        run(QuadratureSpec(order=base))
    return passes[0]


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


def _kernel_at(y):
    return lambda pts: mehler_log_values(0.5, pts, np.asarray(y)[None, :])


def _full_space_integrand(pts):
    return 0.7 * pts[:, 0] - 0.2 * pts[:, -1] * pts[:, -1]


BATCH_RUNS = [
    *[(f"{kind} n={n}", lambda spec, region=region, y=y: integrate_gamma_log(
        _kernel_at(y), region, spec))
      for n in (1, 2, 3)
      for kind, region, y in (
          ("ball", Ball(np.r_[1.5, np.zeros(n - 1)], 0.75), np.full(n, 0.4)),
          ("annulus", Annulus(Ball(np.r_[3.0, np.zeros(n - 1)], 1 / 3), 1),
           np.r_[3.8, np.zeros(n - 1)]))],
    *[(f"full space n={n}", lambda spec, n=n: integrate_gamma_log(
        _full_space_integrand, FullSpace(n), spec)) for n in (1, 2)],
    *[(f"axial n={n}", lambda spec, n=n: integrate_axial_log(
        lambda x, z: -0.3 * x * x + 0.1 * z * z, [0.5, 4.0, 9.0],
        [0.0, 0.5, 0.25], [1.0, 1.0, 0.5], n, spec)) for n in (1, 2, 3)],
    *[(f"ball measure n={n} {kind}",
       lambda spec, n=n, norms=norms, radii=radii:
       log_gamma_ball(norms, radii, n, spec))
      for n in (2, 3)
      for kind, norms, radii in (
          ("lone", 6.0, 0.3),
          ("batch", [[0.0, 2.5, 6.0], [1.0, 8.0, 20.0]], [[1.5], [0.05]]))],
]


@pytest.mark.parametrize("run", [run for _, run in BATCH_RUNS],
                         ids=[name for name, _ in BATCH_RUNS])
def test_an_order_value_does_not_depend_on_its_batch(monkeypatch, run):
    # the first pass runs orders o and 2o as one batch: order 2o must give
    # the same bits second in the batch at base o as first at base 2o
    for base in (2, 4):
        batch = _first_pass(monkeypatch, run, base)
        assert list(batch) == [base, 2 * base]  # two orders, one pass
        first = _first_pass(monkeypatch, run, 2 * base)[2 * base]
        assert _bits(batch[2 * base]) == _bits(first)


def test_refinement_stops_on_the_pass_own_estimate_when_asked():
    # the default two-iterate test never settles a first order alone, so
    # the first pass asks for two; a stop test on the pass's own error
    # estimate may settle on one order, so each pass asks for one, and
    # the cap still refuses a pass that test never accepts
    passes = []

    def one_pass(orders):
        passes.append(orders)
        return [-1.0 / order for order in orders]  # each order's estimate

    def refine(base=4, **settled):
        passes.clear()
        return quadrature._refine_each(
            one_pass, lambda order: order, QuadratureSpec(order=base), 1e-3,
            "test rule", lambda _: "entry", **settled)

    doublings = [4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert refine() == -1.0 / 1024
    assert passes == [(4, 8)] + [(order,) for order in doublings[2:]]
    assert refine(settled=lambda cur, _, tol: -cur <= 10.0 * tol) == -1 / 128
    assert passes == [(order,) for order in doublings[:6]]
    assert refine(settled=lambda cur, prev, tol: cur == -0.25) == -0.25
    assert passes == [(4,)]
    with pytest.raises(QuadratureConvergenceError, match=r"test rule: "
                       r"refinement would build 2048 nodes at order 2048"):
        refine(settled=lambda cur, prev, tol: False)
    # a first pair past the batch limit (256^2 > _BATCH_WORK) runs one
    # order at a time, and one past the cap (2048^2) as far as the cap
    assert refine(base=128) == -1.0 / 1024
    assert passes == [(order,) for order in doublings[5:]]
    with pytest.raises(QuadratureConvergenceError, match=r"test rule: "
                       r"refinement would build 2048 nodes at order 2048"):
        refine(base=1024)
    assert passes == [(1024,)]
