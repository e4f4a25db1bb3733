"""Mehler kernel values and the three semigroup application routes.

The kernel-form quadrature, the translation-route quadrature (QUADPACK)
and the erf closed form are mutually independent; their agreement is the
backbone oracle of the package.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_hermite

from mehler.geometry import Ball
from mehler.kernel import (
    _translation_log_values,
    apply_indicator_closed_log,
    apply_indicator_log,
    apply_via_translation,
    mehler_log,
    mehler_log_values,
)
from mehler.quadrature import MAX_NODES, QuadratureConvergenceError, QuadratureSpec


def test_value_at_origin_pair():
    # both exponential factors vanish at x = y = 0
    for n in (1, 2):
        for t in (0.05, 0.5, 2.0):
            got = mehler_log(t, np.zeros(n), np.zeros(n))
            want = -0.5 * n * math.log(-math.expm1(-2.0 * t))
            assert got.log_magnitude == pytest.approx(want, rel=1e-15)
            assert got.sign == 1


def test_bitwise_symmetry():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(50):
            x = rng.uniform(-4, 4, size=n)
            y = rng.uniform(-4, 4, size=n)
            t = rng.uniform(0.01, 5.0)
            assert float(mehler_log_values(t, x, y)) == \
                float(mehler_log_values(t, y, x))


def test_large_time_limit():
    # all terms are O(e^{-t}); the kernel tends to 1
    got = mehler_log(50.0, [1.0], [-2.0])
    assert abs(got.log_magnitude) < 1e-19


def test_small_time_stability():
    # frozen 50-digit references; the 1 - e^{-2t} factor must go through
    # expm1 to survive t this small
    got = mehler_log(1e-7, [1.2], [1.2]).log_magnitude
    assert got == pytest.approx(9.152474213199186, rel=1e-13)
    got = mehler_log(1e-12, [1.2], [1.2]).log_magnitude
    assert got == pytest.approx(14.90893696768408, rel=1e-13)
    got = mehler_log(1e-7, [1.2], [1.2001]).log_magnitude
    assert got == pytest.approx(9.102594218193186, rel=1e-13)


def test_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        mehler_log(0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        mehler_log(-1.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        mehler_log(math.inf, [0.0], [0.0])


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        mehler_log(1.0, [0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        apply_indicator_log(1.0, Ball([0.0, 0.0], 1.0), [0.5])


def test_indicator_of_huge_ball_conserves():
    # e^{tL} 1 = 1; a radius-40 interval carries all the mass
    got = apply_indicator_log(0.7, Ball([0.0], 40.0), [1.1])
    assert abs(got.log_magnitude) < 1e-8


def test_apply_far_ball_frozen_value():
    # closed form frozen at (t, B, y) = (0.5, B(8, 1/8), 8.5)
    want = -14.336051837522657
    closed = apply_indicator_closed_log(0.5, 7.875, 8.125, 8.5)
    assert closed == pytest.approx(want, rel=1e-12)
    kern = apply_indicator_log(0.5, Ball([8.0], 0.125), [8.5])
    assert abs(math.expm1(kern.log_magnitude - closed)) < 1e-8
    # dominates the closed-form pointwise decay rate at this sample:
    # -ln|c| + |c|^2 (2/(e^t+1) - 1) = -17.754235935517222 with room
    assert kern.log_magnitude >= -17.754235935517222


def _criterion_3_draws(count):
    # criterion 3's sampler: an interval, a time and a point near it
    rng = np.random.default_rng(42)
    for _ in range(count):
        t = rng.uniform(0.2, 2.0)
        a = rng.uniform(-2.5, 1.5)
        b = a + rng.uniform(0.4, 1.5)
        yield t, a, b, rng.uniform(a - 1.0, b + 1.0)


def _counted_indicator(a, b):
    calls = []

    def f(pts):
        calls.append(len(pts))
        z = pts[:, 0]
        return ((z >= a) & (z < b)).astype(float)

    return f, calls


def test_three_routes_agree_on_random_indicators():
    tight = QuadratureSpec(tol=1e-10)
    for t, a, b, y in _criterion_3_draws(20):
        closed = apply_indicator_closed_log(t, a, b, y)
        assert math.exp(closed) > 1e-6  # sampler keeps values well-scaled
        kern = apply_indicator_log(
            t, Ball([0.5 * (a + b)], 0.5 * (b - a)), [y], tight).log_magnitude
        assert abs(math.expm1(kern - closed)) < 1e-8

        f, _ = _counted_indicator(a, b)
        trans = apply_via_translation(t, f, [y], tight, breakpoints=(a, b))
        assert abs(trans / math.exp(closed) - 1.0) < 1e-8


def test_named_breakpoints_are_the_only_panels():
    # with both jumps named, three smooth panels suffice: a few dozen
    # integrand calls where the unit grid of [-12, 12] took over 500
    tight = QuadratureSpec(tol=1e-10)
    for t, a, b, y in _criterion_3_draws(20):
        f, calls = _counted_indicator(a, b)
        trans = apply_via_translation(t, f, [y], tight, breakpoints=(a, b))
        assert len(calls) <= 100
        closed = apply_indicator_closed_log(t, a, b, y)
        assert abs(trans / math.exp(closed) - 1.0) <= 1e-10


@pytest.mark.parametrize("a, b", [(-15.0, 15.0), (20.0, 25.0)])
def test_breakpoints_outside_the_window(a, b):
    # at t = 1, y = 0 both jumps map past |u| = 12, so the window is one
    # panel on which the indicator is 1, or 0 with a true value (1.6e-203)
    # far below the window's e^{-144} truncation
    f, _ = _counted_indicator(a, b)
    got = apply_via_translation(1.0, f, [0.0], QuadratureSpec(tol=1e-10),
                                breakpoints=(a, b))
    want = math.exp(apply_indicator_closed_log(1.0, a, b, 0.0))
    assert abs(got - want) <= 1e-15


def test_unnamed_breakpoints_fall_back_to_the_unit_grid():
    # without breakpoints QUADPACK only sees the jumps through its error
    # estimate, which they fool by up to 1.5e-7 on this draw whatever
    # the tolerance; with no unit panels one draw comes back as 0
    for t, a, b, y in _criterion_3_draws(20):
        f, _ = _counted_indicator(a, b)
        trans = apply_via_translation(t, f, [y], QuadratureSpec(tol=1e-10))
        closed = apply_indicator_closed_log(t, a, b, y)
        assert abs(trans / math.exp(closed) - 1.0) <= 1e-6


def test_translation_of_constant_is_identity():
    got = apply_via_translation(0.8, lambda pts: np.ones(len(pts)), [1.5])
    assert got == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.0])
@pytest.mark.parametrize("k", range(6))
def test_hermite_eigenfunctions(t, k):
    # L H_k = -k H_k for the Hermite family orthogonal under gamma, so
    # the semigroup scales H_k by e^{-kt}
    for x in (0.3, -0.8, 1.5, 2.2, -2.6):
        got = apply_via_translation(
            t, lambda pts: eval_hermite(k, pts[:, 0]), [x])
        want = math.exp(-k * t) * float(eval_hermite(k, x))
        assert got == pytest.approx(want, rel=1e-6)


def test_hermite_family_satisfies_generator_identity():
    # independent check that these H_k are the right eigenfunctions:
    # (1/2) H_k'' - x H_k' + k H_k = 0, via central finite differences
    h = 1e-5
    for k in range(1, 6):
        for x in (0.4, -1.1, 1.9):
            f = lambda z: float(eval_hermite(k, z))
            d1 = (f(x + h) - f(x - h)) / (2 * h)
            d2 = (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
            residual = 0.5 * d2 - x * d1 + k * f(x)
            assert abs(residual) < 1e-4 * max(1.0, abs(f(x)))


def test_exponential_moment_formula():
    # e^{tL} e^{lam .}(x) = exp(lam e^{-t} x + lam^2 (1 - e^{-2t})/4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        lam = rng.uniform(-2.5, 2.5)
        t = rng.uniform(0.1, 2.0)
        x = rng.uniform(-2.0, 2.0)
        got = apply_via_translation(
            t, lambda pts: np.exp(lam * pts[:, 0]), [x])
        s2 = -math.expm1(-2.0 * t)
        want = math.exp(lam * math.exp(-t) * x + lam * lam * s2 / 4.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_translation_route_raises_when_its_window_cuts_mass():
    # e^{lam z} at t = 1, x = 0: the closed form is e^{lam^2 s^2 / 4}; the
    # integrand peaks at u = lam s / 2, so |u| <= 12 holds all but 6e-13
    # of the mass at lam = 15 and drops 7e-5 of it at lam = 20
    s2 = -math.expm1(-2.0)
    got = apply_via_translation(1.0, lambda pts: np.exp(15.0 * pts[:, 0]),
                                [0.0])
    assert abs(got / math.exp(225.0 * s2 / 4.0) - 1.0) <= 1e-9
    with pytest.raises(QuadratureConvergenceError, match="truncated"):
        apply_via_translation(1.0, lambda pts: np.exp(20.0 * pts[:, 0]),
                              [0.0])


def test_translation_route_2d_second_moment():
    # e^{tL}(x_1^2)(x) = e^{-2t} x_1^2 + (1 - e^{-2t})/2 from the OU flow
    t, x = 0.6, np.array([1.4, -0.3])
    got = apply_via_translation(t, lambda pts: pts[:, 0] ** 2, x)
    want = math.exp(-2 * t) * x[0] ** 2 + (-math.expm1(-2 * t)) / 2.0
    assert got == pytest.approx(want, rel=1e-8)


def test_translation_route_dimension_cap():
    with pytest.raises(ValueError):
        apply_via_translation(1.0, lambda pts: np.ones(len(pts)),
                              np.zeros(4))


def test_translation_route_work_is_capped():
    # seeded noise never converges; the tensor grid in n = 3 must stop
    # at the node cap instead of growing by 8x per doubling
    rng = np.random.default_rng(5)
    sizes = []

    def noise(pts):
        sizes.append(len(pts))
        return rng.normal(size=len(pts))

    with pytest.raises(QuadratureConvergenceError, match="order 128"):
        apply_via_translation(0.5, noise, np.zeros(3))
    assert max(sizes) <= MAX_NODES


@pytest.mark.parametrize("t", [0.2, 2.0])
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_batched_translation_matches_quadpack(t, lam):
    # the batched log-domain Gauss-Hermite step against the scalar
    # QUADPACK route, with f = e^{lam x} given to each in its own form
    tight = QuadratureSpec(tol=1e-12)
    xs = np.array([-2.0, -0.3, 0.0, 1.1, 3.0])
    got = _translation_log_values(t, lambda z: lam * z, xs, tight)
    for x, log_val in zip(xs, got):
        want = apply_via_translation(
            t, lambda pts: np.exp(lam * pts[:, 0]), [x], tight)
        assert abs(math.exp(log_val) / want - 1.0) <= 1e-10


def test_batched_translation_failure_names_order_and_point():
    # f = e^{z^2 / 5}: the order-2 and order-4 values differ most at the
    # outermost point
    spec = QuadratureSpec(order=2, tol=1e-15, max_refinements=1)
    xs = np.array([0.0, 0.5, 3.0])
    with pytest.raises(QuadratureConvergenceError,
                       match=r"order 4, x = 3\.0\)"):
        _translation_log_values(1.0, lambda z: 0.2 * z * z, xs, spec)


def test_batched_translation_work_is_capped():
    # seeded noise never converges; the (points x nodes) array must stop
    # at the node cap
    rng = np.random.default_rng(7)
    sizes = []

    def noise(z):
        sizes.append(z.size)
        return rng.normal(size=z.shape)

    with pytest.raises(QuadratureConvergenceError, match="order 256"):
        _translation_log_values(0.5, noise, np.zeros(8192))
    assert max(sizes) <= MAX_NODES
