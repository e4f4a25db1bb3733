"""Mehler kernel values and the three semigroup application routes.

The kernel-form quadrature, the translation-route quadrature (adaptive
Gauss-Kronrod) and the erf closed form are mutually independent; their
agreement is the backbone oracle of the package.  QUADPACK, called here
and nowhere in the package, is the translation route's reference.
"""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_hermite

from mehler import kernel
from mehler.geometry import Ball
from mehler.kernel import (
    MAX_PANELS,
    apply_indicator_closed_log,
    apply_indicator_log,
    apply_via_translation,
    mehler_log,
    mehler_log_values,
)
from mehler.quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_gamma_log,
)


def test_value_at_origin_pair():
    # both exponential factors vanish at x = y = 0
    for n in (1, 2):
        for t in (0.05, 0.5, 2.0):
            got = mehler_log(t, np.zeros(n), np.zeros(n))
            want = -0.5 * n * math.log(-math.expm1(-2.0 * t))
            assert got.log_magnitude == pytest.approx(want, rel=1e-15)
            assert math.isfinite(got.log_magnitude)


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
    # integrand calls where pinning the integers of [-12, 12] took over 500
    tight = QuadratureSpec(tol=1e-10)
    for t, a, b, y in _criterion_3_draws(20):
        f, calls = _counted_indicator(a, b)
        trans = apply_via_translation(t, f, [y], tight, breakpoints=(a, b))
        assert len(calls) <= 100
        closed = apply_indicator_closed_log(t, a, b, y)
        assert abs(trans / math.exp(closed) - 1.0) <= 1e-10


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_form_keeps_the_bits_of_the_checked_kernel(n):
    # the kernel-form route checks its inputs once and integrates the
    # kernel body unchecked: the same bits as quadrature of the checked
    # mehler_log_values, which runs those checks on every pass
    rng = np.random.default_rng(40 + n)
    for t, radius in ((0.05, 0.75), (0.7, 0.25), (2.0, 1.5)):
        ball = Ball(rng.normal(size=n) * 2.0, radius)
        y = ball.center + rng.normal(size=n) * radius
        want = integrate_gamma_log(
            lambda p: mehler_log_values(t, p, y[None]), ball)
        got = apply_indicator_log(t, ball, y)
        assert _bits(got.log_magnitude) == _bits(want.log_magnitude)


def _gauss_kronrod_written_out(fv, half):
    # QUADPACK's value and estimate, formula by formula, as the reference
    resk = fv @ kernel._GK_WK
    err = np.abs(resk - fv @ kernel._GK_WG) * half
    resasc = np.abs(fv - 0.5 * resk[:, None]) @ kernel._GK_WK * half
    ratio = 200.0 * err / np.where(resasc > 0.0, resasc, 1.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio ** 1.5), err)
    return resk * half, np.maximum(
        kernel._ROUNDOFF * (np.abs(fv) @ kernel._GK_WK) * half, err)


@pytest.mark.parametrize("panels", [1, 3, 40])
@pytest.mark.parametrize("constant", [(), (0,), "all"])
def test_gauss_kronrod_keeps_its_bits(panels, constant):
    # ordinary panels and constant ones (resasc 0, whose estimate stays
    # |K - G|), alone and mixed: every value keeps the bits of the written
    # out formula, and the panel values are never written
    rng = np.random.default_rng(panels)
    fv = rng.normal(scale=3.0, size=(panels, 21)) * np.exp(
        -rng.uniform(0.0, 4.0, size=(panels, 1)))
    rows = range(panels) if constant == "all" else constant
    for row in rows:  # constants that deviate from their mean by exactly 0
        fv[row] = (0.0, 1.0, 0.25, 0.5)[row % 4]
    half = rng.uniform(1e-3, 2.0, size=panels)
    resasc = np.abs(fv - 0.5 * (fv @ kernel._GK_WK)[:, None]) @ kernel._GK_WK
    assert list(np.flatnonzero(resasc == 0.0)) == list(rows)
    kept = fv.copy()
    got = kernel._gauss_kronrod(fv, half)
    assert _bits(*got) == _bits(*_gauss_kronrod_written_out(fv, half))
    assert _bits(fv) == _bits(kept)


def test_translation_route_calls_f_once_per_pass():
    # each pass evaluates every panel in one call, the window's edge points
    # included; with both jumps named the first pass already converges
    tight = QuadratureSpec(tol=1e-10)
    for t, a, b, y in _criterion_3_draws(20):
        f, calls = _counted_indicator(a, b)
        trans = apply_via_translation(t, f, [y], tight, breakpoints=(a, b))
        assert len(calls) <= 2
        closed = apply_indicator_closed_log(t, a, b, y)
        assert abs(trans / math.exp(closed) - 1.0) <= 1e-10


def _quadpack_translation(t, f, x, tol, breakpoints):
    # the same window, panel points, stop rule and cap, by scipy's QUADPACK
    shift, s = math.exp(-t) * x, math.sqrt(-math.expm1(-2.0 * t))
    mapped = ((z - shift) / s for z in breakpoints)
    pins = sorted({u for u in mapped if -12.0 < u < 12.0})
    value, _ = integrate.quad(
        lambda u: float(f(np.array([[shift + s * u]]))[0])
        * math.exp(-u * u) / math.sqrt(math.pi),
        -12.0, 12.0, epsabs=0.0, epsrel=tol, limit=800, points=pins or None)
    return value


def _translation_oracle_cases():
    for t, a, b, y in _criterion_3_draws(20):
        yield t, _counted_indicator(a, b)[0], y, (a, b)
    for t in (0.3, 1.0):
        for k in range(6):
            for x in (0.3, -0.8, 1.5, 2.2, -2.6):
                yield t, lambda pts, k=k: eval_hermite(k, pts[:, 0]), x, ()
    for lam in (-2.5, -1.0, 0.5, 2.5):
        for t in (0.2, 1.0, 2.0):
            for x in (-2.0, 0.0, 1.5):
                yield t, lambda pts, lam=lam: np.exp(lam * pts[:, 0]), x, ()


@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_translation_route_matches_quadpack(tol):
    # the vectorized QK21 rule against QUADPACK's own, on indicators,
    # Hermite H_k (k <= 5) and e^{lam z} (|lam| <= 2.5); the largest gap
    # measured was 8.7e-15, for H_k near a zero of its value
    spec = QuadratureSpec(tol=tol)
    for t, f, x, breakpoints in _translation_oracle_cases():
        got = apply_via_translation(t, f, [x], spec, breakpoints=breakpoints)
        want = _quadpack_translation(t, f, x, tol, breakpoints)
        assert abs(got / want - 1.0) <= 1e-13


def test_translation_route_stops_at_the_panel_cap():
    # 2 + sin(1e5 z) oscillates ~3e5 times across the window; bisection
    # stops at the cap after 13 calls of f, having evaluated at most
    # 2 MAX_PANELS - 1 panels (raised after 5 ms, where QUADPACK took 0.45 s)
    sizes = []

    def f(pts):
        sizes.append(len(pts))
        return 2.0 + np.sin(1e5 * pts[:, 0])

    with pytest.raises(QuadratureConvergenceError,
                       match=f"cap of {MAX_PANELS} subintervals: "
                             f"{MAX_PANELS} subintervals"):
        apply_via_translation(1.0, f, [0.0], breakpoints=())
    assert len(sizes) <= 20
    assert sum(sizes) <= 21 * (2 * MAX_PANELS - 1) + 2


@pytest.mark.parametrize("g, match", [
    (lambda z: np.where(z > 1.0, math.inf, 1.0), "not finite"),
    (lambda z: np.where(z > 1.0, -math.inf, 1.0), "not finite"),
    (lambda z: np.where(z > 1.0, math.nan, 1.0), "not finite"),
    (lambda z: np.exp(1000.0 * z), "not finite"),
    (lambda z: np.full(z.shape, 1e308), "overflows"),
])
def test_translation_route_rejects_non_finite_values(g, match):
    # raised on the first call (after 0.1 ms), before the stop rule reads
    # a value: an overflow in f or in the panel sums raises as well, and
    # no RuntimeWarning escapes (pytest turns those into errors here)
    calls = []

    def f(pts):
        calls.append(len(pts))
        return g(pts[:, 0])

    with pytest.raises(QuadratureConvergenceError, match=match):
        apply_via_translation(1.0, f, [0.0], breakpoints=())
    assert len(calls) == 1


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


def test_translation_of_constant_is_identity():
    got = apply_via_translation(0.8, lambda pts: np.ones(len(pts)), [1.5],
                                breakpoints=())
    assert got == pytest.approx(1.0, rel=1e-12)
    # values as a column, one per point, are the same values
    column = apply_via_translation(0.8, lambda pts: np.ones((len(pts), 1)),
                                   [1.5], breakpoints=())
    assert column == got
    with pytest.raises(ValueError):
        apply_via_translation(0.8, lambda pts: np.ones(2 * len(pts)), [1.5],
                              breakpoints=())


@pytest.mark.parametrize("t", [0.3, 1.0])
@pytest.mark.parametrize("k", range(6))
def test_hermite_eigenfunctions(t, k):
    # L H_k = -k H_k for the Hermite family orthogonal under gamma, so
    # the semigroup scales H_k by e^{-kt}
    for x in (0.3, -0.8, 1.5, 2.2, -2.6):
        got = apply_via_translation(
            t, lambda pts: eval_hermite(k, pts[:, 0]), [x], breakpoints=())
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
            t, lambda pts: np.exp(lam * pts[:, 0]), [x], breakpoints=())
        s2 = -math.expm1(-2.0 * t)
        want = math.exp(lam * math.exp(-t) * x + lam * lam * s2 / 4.0)
        assert got == pytest.approx(want, rel=1e-9)


def test_translation_route_raises_when_its_window_cuts_mass():
    # e^{lam z} at t = 1, x = 0: the closed form is e^{lam^2 s^2 / 4}; the
    # integrand peaks at u = lam s / 2, so |u| <= 12 holds all but 6e-13
    # of the mass at lam = 15 and drops 7e-5 of it at lam = 20
    s2 = -math.expm1(-2.0)
    got = apply_via_translation(1.0, lambda pts: np.exp(15.0 * pts[:, 0]),
                                [0.0], breakpoints=())
    assert abs(got / math.exp(225.0 * s2 / 4.0) - 1.0) <= 1e-9
    with pytest.raises(QuadratureConvergenceError, match="truncated"):
        apply_via_translation(1.0, lambda pts: np.exp(20.0 * pts[:, 0]),
                              [0.0], breakpoints=())


def test_translation_route_dimension_cap():
    for n in (2, 3, 4):
        with pytest.raises(ValueError, match="one-dimensional"):
            apply_via_translation(1.0, lambda pts: np.ones(len(pts)),
                                  np.zeros(n), breakpoints=())


def test_translation_route_requires_breakpoints():
    # the route never guesses where f jumps: the caller names the jumps,
    # or passes () for a smooth f
    with pytest.raises(TypeError, match="breakpoints"):
        apply_via_translation(0.8, lambda pts: np.ones(len(pts)), [1.5])
