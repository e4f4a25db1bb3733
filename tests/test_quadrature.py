"""Log-domain quadrature engine: exactness, stability, refinement."""

import math

import numpy as np
import pytest

from mehler import quadrature, selftest
from mehler.geometry import Annulus, Ball, FullSpace
from mehler.kernel import mehler_log_values
from mehler.lognum import log_sum_weighted
from mehler.measure import log_gamma_interval
from mehler.quadrature import (
    MAX_NODES,
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_gamma_log,
    lq_norm_log,
)


def test_spec_validation():
    QuadratureSpec(order=8, tol=1e-6, max_refinements=3)
    with pytest.raises(ValueError):
        QuadratureSpec(order=1)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_refinements=0)


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


def test_convergence_error_carries_last_iterates():
    # order 2 with a single refinement cannot resolve a sharp kernel
    spec = QuadratureSpec(order=2, tol=1e-14, max_refinements=1)
    y = np.array([[0.3]])
    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_gamma_log(lambda pts: mehler_log_values(1e-3, pts, y),
                            FullSpace(1), spec)
    last_two = err.value.last_two
    assert len(last_two) == 2 and all(math.isfinite(v) for v in last_two)


def test_refinement_work_is_capped_before_allocation():
    # seeded noise never converges; in n = 3 the cap, not max_refinements,
    # must stop the doubling before a pass larger than MAX_NODES is built
    rng = np.random.default_rng(11)
    sizes = []

    def noise(pts):
        sizes.append(len(pts))
        return rng.normal(size=len(pts))

    with pytest.raises(QuadratureConvergenceError) as err:
        integrate_gamma_log(noise, Ball([0.5, 0.0, 0.0], 1.0))
    assert max(sizes) <= MAX_NODES
    assert len(sizes) < QuadratureSpec().max_refinements + 1
    message = str(err.value)
    assert "n = 3" in message and "order 128" in message
    assert str(2 * 128 ** 3) in message


def test_lq_norm_of_constant():
    # ||c||_{L^q(F)} = c * gamma(F)^{1/q}
    ball = Ball([1.0], 0.5)
    ann = Annulus(ball, 1)
    log_c = -3.7
    for q in (1.0, 2.0, 3.5):
        got = lq_norm_log(lambda p: np.full(len(p), log_c), ann, q)
        want = log_c + integrate_gamma_log(
            lambda p: np.zeros(len(p)), ann).log_magnitude / q
        assert got.log_magnitude == pytest.approx(want, rel=1e-12)


def test_lq_norm_monotone_in_region():
    def g_log(pts):
        return -np.sum(pts * pts, axis=-1) / 3.0

    small = Ball([0.5], 0.4)
    large = Ball([0.5], 1.6)
    for q in (1.0, 2.0):
        a = lq_norm_log(g_log, small, q).log_magnitude
        b = lq_norm_log(g_log, large, q).log_magnitude
        assert a <= b


def test_lq_norm_rejects_bad_q():
    ball = Ball([0.0], 1.0)
    with pytest.raises(ValueError):
        lq_norm_log(lambda p: np.zeros(len(p)), ball, 0.5)
    with pytest.raises(ValueError):
        lq_norm_log(lambda p: np.zeros(len(p)), ball, math.inf)


def test_polar_engine_dimension_cap():
    with pytest.raises(ValueError):
        integrate_gamma_log(lambda p: np.zeros(len(p)), FullSpace(4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polar_nodes_do_not_depend_on_call_history(n):
    # the center-free part of the grid is cached per (n, order, radii):
    # a center's nodes must come out bit for bit as from a cold cache,
    # after other centers and after a caller wrote into its own copy
    rng = np.random.default_rng(11)
    center, other = rng.normal(size=(2, n)) * 4.0
    quadrature._polar_frame.cache_clear()
    want = [a.copy() for a in quadrature._polar_nodes(center, 0.3, 0.9, n, 6)]
    quadrature._polar_nodes(other, 0.3, 0.9, n, 6)
    pts, lw = quadrature._polar_nodes(center, 0.3, 0.9, n, 6)
    pts[:] = 0.0
    lw[:] = 0.0
    got = quadrature._polar_nodes(center, 0.3, 0.9, n, 6)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
