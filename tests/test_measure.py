"""Gaussian measure computations against independent closed forms.

Frozen reference values were produced by independent oracles: erf
arithmetic for intervals, and one-dimensional radial reductions (Bessel
and sinh kernels integrated with adaptive Gauss-Kronrod) for off-center
balls in n = 2, 3.  Across the whole envelope in n = 2, 3 the ball
measure is checked against the Poisson mixture of central chi-square
CDFs, summed in log domain, and in n = 3 against a closed form that uses
no incomplete gamma function.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, gammainc, gammaln, log_ndtr, logsumexp, xlogy
from scipy.stats import ncx2

from mehler import quadrature
from mehler.cli import main
from mehler.geometry import (
    Annulus,
    Ball,
    FullSpace,
    make_maximal_admissible_ball,
)
from mehler.kernel import apply_indicator_log
from mehler.measure import (
    _log_ball_slices,
    gamma_log,
    log_gamma_ball,
    log_gamma_interval,
)
from mehler.quadrature import (
    MAX_NODES,
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_axial_log,
    integrate_gamma_log,
)

SQRT_PI = math.sqrt(math.pi)


def test_symmetric_unit_interval_is_erf_one():
    got = gamma_log(Ball([0.0], 1.0))
    assert got.to_float() == pytest.approx(0.8427007929497148, rel=1e-12)
    assert got.log_magnitude == pytest.approx(-0.17114331524104107, rel=1e-12)


def test_half_unit_interval():
    assert log_gamma_interval(0.0, 1.0) == pytest.approx(
        -0.8642904958009864, rel=1e-12)


def test_far_ball_density_envelope():
    # gamma(B) is squeezed between length * min/max density over B
    ball = Ball([8.0], 0.125)
    got = gamma_log(ball).log_magnitude
    upper = math.log(0.25 / SQRT_PI) - 7.875 ** 2
    lower = math.log(0.25 / SQRT_PI) - 8.125 ** 2
    assert lower <= got <= upper


def test_deep_tail_ball_keeps_relative_precision():
    # |c| = 30: the measure is ~exp(-900), far below float64 underflow
    ball = Ball([30.0], 1.0 / 30.0)
    got = gamma_log(ball).log_magnitude
    width = 2.0 / 30.0
    upper = math.log(width / SQRT_PI) - (30.0 - 1.0 / 30.0) ** 2
    lower = math.log(width / SQRT_PI) - (30.0 + 1.0 / 30.0) ** 2
    assert lower <= got <= upper
    assert math.isfinite(got)


def test_far_ball_in_one_dimension_meets_its_asymptote():
    # log gamma(B(c, 1/c)) = -c^2 - log c - log(pi)/2 + log sinh 2 + O(c^-2)
    # (the ball asymptote with Phi_1(1) = sinh 2); the remainder measured
    # is -0.46/c^2.  Past c ~ 1e8 the ends c -+ 1/c round to one float and
    # only the exact width 2/c keeps the ball.  Rounding c - 1/c alone
    # moves c^2 by up to 1.4 ulps: over 20,001 log-spaced c the worst
    # excess over 0.5/c^2 was 1.98 ulps, and 2.12 at random c in [1e3, 1e9]
    cs = np.logspace(2.0, 154.0, 609)
    const = math.log(math.sinh(2.0)) - 0.5 * math.log(math.pi)
    for c, got in zip(cs, log_gamma_ball(cs, 1.0 / cs, 1)):
        square = c * c
        rounding = float(Fraction(c) ** 2 - Fraction(square))  # exact
        gap = math.fsum([got, square, rounding, math.log(c), -const])
        assert abs(gap) <= 0.5 / square + 2.0 * math.ulp(got)


def test_interval_matches_erf_oracle():
    rng = np.random.default_rng(42)
    for _ in range(300):
        a = rng.uniform(-2.5, 2.4)
        b = a + rng.uniform(0.1, 2.0)
        want = 0.5 * (erf(b) - erf(a))
        assert math.exp(log_gamma_interval(a, b)) == pytest.approx(
            want, rel=1e-10)


def test_interval_edge_cases():
    assert log_gamma_interval(-math.inf, math.inf) == 0.0
    assert log_gamma_interval(1.0, 1.0) == -math.inf
    assert log_gamma_interval(math.inf, math.inf) == -math.inf
    assert log_gamma_interval(-math.inf, -math.inf) == -math.inf
    assert log_gamma_interval(0.0, math.inf) == pytest.approx(
        math.log(0.5), rel=1e-14)
    assert log_gamma_interval(-math.inf, 0.0) == pytest.approx(
        math.log(0.5), rel=1e-14)
    with pytest.raises(ValueError):
        log_gamma_interval(1.0, 0.0)
    with pytest.raises(ValueError):
        log_gamma_interval(math.nan, 0.0)


@pytest.mark.parametrize("a, b", [(1e155, 2e155), (-2e200, -1e200)])
def test_interval_past_the_tail_underflow_is_empty(a, b):
    # beyond |x| ~ 1.3e154 the square of the near endpoint overflows to
    # inf; the measure is exp(-1e310) or less, so its log is -inf, not NaN
    assert log_gamma_interval(a, b) == -math.inf
    got = log_gamma_interval(np.array([a, 1.0]), np.array([b, 2.0]))
    assert got[0] == -math.inf
    assert got[1] == log_gamma_interval(1.0, 2.0)


def test_full_space_is_probability():
    for n in (1, 2, 3):
        assert gamma_log(FullSpace(n)).log_magnitude == 0.0


def test_monotone_under_inclusion():
    for n in (1, 2, 3):
        center = np.r_[1.1, np.zeros(n - 1)]
        vals = [gamma_log(Ball(center, r)).log_magnitude
                for r in (0.3, 0.6, 1.2, 2.4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("n", [1, 2])
def test_annulus_additivity(n):
    ball = Ball(np.r_[1.3, np.zeros(n - 1)], 0.35)
    tol = QuadratureSpec().tol
    for k in range(1, 5):
        inner = gamma_log(ball.expand(2.0 ** k)).to_float()
        outer = gamma_log(ball.expand(2.0 ** (k + 1))).to_float()
        ann = gamma_log(Annulus(ball, k)).to_float()
        assert outer == pytest.approx(inner + ann, rel=2 * tol)


def test_k0_annulus_is_doubled_ball():
    # C_0(B) = 2B by definition
    for center in ([1.5], [1.5, -0.4]):
        ball = Ball(center, 0.3)
        got = gamma_log(Annulus(ball, 0)).log_magnitude
        want = gamma_log(ball.expand(2.0)).log_magnitude
        assert got == pytest.approx(want, rel=1e-9)


def test_1d_annulus_is_union_of_branches():
    ball = Ball([5.0], 0.2)
    ann = Annulus(ball, 2)
    left = log_gamma_interval(5.0 - 1.6, 5.0 - 0.8)
    right = log_gamma_interval(5.0 + 0.8, 5.0 + 1.6)
    assert gamma_log(ann).log_magnitude == pytest.approx(
        np.logaddexp(left, right), rel=1e-14)


def test_origin_ball_2d_closed_form():
    # gamma(B(0, r)) = 1 - exp(-r^2) in two dimensions
    for r in (0.5, 1.0):
        got = gamma_log(Ball([0.0, 0.0], r)).to_float()
        assert got == pytest.approx(1.0 - math.exp(-r * r), rel=1e-10)


def _log_ball_3d_closed_form(a, radius):
    # gamma_3(B(a, R)) = gamma_1([a - R, a + R])
    #                    - (e^{-(a-R)^2} - e^{-(a+R)^2}) / (2 a sqrt(pi)),
    # in log domain for a > R, with no incomplete gamma function:
    # gamma_1([lo, hi]) = Q(lo) - Q(hi), Q(x) = Phi(-sqrt(2) x)
    lo, hi = a - radius, a + radius
    upper = log_ndtr(-math.sqrt(2.0) * lo)
    log_g1 = upper + math.log(-math.expm1(log_ndtr(-math.sqrt(2.0) * hi)
                                          - upper))
    log_d = (-lo * lo + math.log(-math.expm1(-4.0 * a * radius))
             - math.log(2.0 * a * SQRT_PI))
    return log_g1 + math.log(-math.expm1(log_d - log_g1))


def test_origin_ball_3d_closed_form():
    # gamma(B(0, r)) = erf(r) - 2 r exp(-r^2)/sqrt(pi) in three dimensions
    r = 0.5
    got = gamma_log(Ball([0.0, 0.0, 0.0], r)).to_float()
    want = erf(r) - 2.0 * r * math.exp(-r * r) / SQRT_PI
    assert got == pytest.approx(want, rel=1e-10)
    # off center, a closed form that shares nothing with the
    # incomplete-gamma slices; the worst relative error measured was
    # 2.1e-15.  Small R / a is left out: there the closed form itself
    # cancels (2.6e-13 at (30, 1/30))
    for a, radius in ((1.0, 0.5), (2.0, 0.5), (4.0, 0.25), (8.0, 1.0),
                      (20.0, 5.0), (70.0, 17.7)):
        want = _log_ball_3d_closed_form(a, radius)
        got = float(log_gamma_ball(a, radius, 3))
        assert got == pytest.approx(want, rel=1e-14)


def test_offcenter_balls_match_radial_oracles():
    # frozen values from 1-d radial reductions (Bessel / sinh kernels)
    cases = [
        (Ball([5.0, 0.0], 0.2), -27.777352275173325),
        (Ball([1.0, 0.0], 0.7), -1.730519388370527),
        (Ball([3.0, 0.0, 0.0], 1.0 / 3.0), -12.271596519155233),
        (Ball([1.0, 0.0, 0.0], 0.7), -2.4598896142932127),
    ]
    for ball, want_log in cases:
        got = gamma_log(ball).log_magnitude
        assert got == pytest.approx(want_log, abs=1e-7)


def test_gamma_log_refuses_other_regions():
    with pytest.raises(TypeError, match="cannot measure tuple"):
        gamma_log((0.0, 1.0))


def test_2d_annulus_as_ball_difference():
    ball = Ball([1.0, 0.5], 0.4)
    outer = gamma_log(ball.expand(4.0)).to_float()
    inner = gamma_log(ball.expand(2.0)).to_float()
    ann = gamma_log(Annulus(ball, 1)).to_float()
    assert ann == pytest.approx(outer - inner, rel=1e-7)


def test_unsupported_dimension():
    # every n >= 1 is supported: a 4-D ball against the Poisson series;
    # a dimension below 1 is refused
    got = gamma_log(Ball([3.0, 0.0, 4.0, 0.0], 0.5)).log_magnitude
    want = _log_ball_series(5.0, 0.5, 4)
    assert abs(got - want) <= 1e-13 * abs(want)
    with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
        log_gamma_ball(5.0, 0.5, 0)


def test_interval_measure_is_array_valued():
    a = np.array([-math.inf, -3.0, -0.5, 0.0, 2.0, 7.5, 1.0])
    b = np.array([math.inf, -2.0, 0.25, 0.0, 2.5, math.inf, 1.0])
    got = log_gamma_interval(a, b)
    assert isinstance(log_gamma_interval(0.0, 1.0), float)
    assert got.shape == a.shape
    for i in range(a.size):
        assert got[i] == log_gamma_interval(a[i], b[i])
    with pytest.raises(ValueError):
        log_gamma_interval(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    assert log_gamma_interval(np.array([]), np.array([])).shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_empty_batches_give_empty_results(n):
    # no centers, in any dimension: an empty result, no pass that fails
    for norms, radius, shape in ((np.array([]), 1.0, (0,)),
                                 (np.empty((2, 0)), 0.5, (2, 0)),
                                 (3.0, np.empty((0, 1)), (0, 1))):
        got = log_gamma_ball(norms, radius, n)
        assert isinstance(got, np.ndarray) and got.shape == shape
    got = integrate_axial_log(lambda x, z: np.zeros(x.shape), np.array([]),
                              0.5, 1.0, n)
    assert got.shape == (0,)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_measure_matches_noncentral_chi2(n):
    # gamma_n(B(m, rho)) = P(chi'^2_n(2 |m|^2) <= 2 rho^2); scipy's log-CDF
    # is trusted only above -600, below that it loses precision to -inf
    norms = np.linspace(0.0, 30.0, 61)
    for rho in (0.03, 0.3, 1.2):
        got = log_gamma_ball(norms, rho, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = ncx2.logcdf(2.0 * rho * rho, n, 2.0 * norms * norms)
        keep = want > -600.0
        assert keep.sum() >= 20
        assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12)
        assert np.all(np.isfinite(got)) and got.min() < -800.0


def _log_ball_series(a, radius, n):
    # gamma_n(B(a, R)) = sum_k e^{-a^2} a^{2k} / k! P(k + n/2, R^2), every
    # term positive.  Once k + 1 >= 2 a R each term is at most a quarter
    # of the one before, so 60 more terms leave a tail below 4^-60 of it.
    # log P comes from gammainc, or from its power series where gammainc
    # is subnormal:  P(s, x) = x^s e^-x / Gamma(s + 1) sum_j x^j / (s+1)_j
    x = radius * radius
    k = np.arange(math.ceil(2.0 * a * radius) + 60)
    s = k + 0.5 * n
    p = gammainc(s, x)
    deep = p < np.finfo(float).tiny
    log_p = np.log(np.where(deep, 1.0, p))
    if deep.any():
        steps = np.cumsum(
            math.log(x) - np.log(s[deep, None] + np.arange(1, 64)), axis=1)
        assert (steps[:, -1] < -40.0).all()  # the series has converged
        log_p[deep] = (s[deep] * math.log(x) - x - gammaln(s[deep] + 1.0)
                       + logsumexp(np.c_[np.zeros(len(steps)), steps], axis=1))
    return logsumexp(-a * a + xlogy(k, a * a) - gammaln(k + 1.0) + log_p)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 16, 64, 256])
def test_ball_measure_matches_poisson_series_in_higher_dimensions(n):
    # centers from 0 to 30 and radii from 1e-150 to 3, logs down to
    # -89,816 at n = 256; the slices that are not normal floats (most of
    # them from n = 64) take the Kummer series.  The worst |error| /
    # max(1, |log|) measured over n = 2..512 was 2.3e-14, at balls about
    # the origin whose log is near 0
    a, radius = (g.ravel() for g in np.meshgrid(
        [0.0, 0.5, 4.0, 12.0, 30.0],
        [1e-150, 1e-100, 1e-50, 1e-20, 1e-8, 1e-3, 0.1, 0.5, 1.0, 3.0]))
    got = log_gamma_ball(a, radius, n)
    want = np.array([_log_ball_series(*ar, n) for ar in zip(a, radius)])
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("radius", [1e-170, 1e-300])
def test_ball_measure_is_finite_at_tiny_radii(n, radius):
    # P((n - 1)/2, u) leaves the normal floats at such radii, once -inf
    # with a warning; the ball is all but flat: gamma(B) = |B_1| radius^n pi^{-n/2} e^{-|c|^2}
    # (1 + O(|c| radius)), |B_1| = pi^{n/2} / Gamma(n/2 + 1)
    want = n * math.log(radius) - math.lgamma(0.5 * n + 1.0) - 0.01
    got = float(log_gamma_ball(0.1, radius, n))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("radius", [1e155, 1e200, 1e300])
def test_ball_past_squared_overflow_is_refused(n, radius):
    # radius^2 overflows, once a warning and -inf for a log measure of
    # about 0: such a radius raises before any pass, alone or in a batch
    for norms, radii in ((8.0, radius), ([8.0, 8.0], [0.125, radius])):
        with pytest.raises(ValueError, match=r"above 2\^511"):
            log_gamma_ball(norms, radii, n)
    # a far center's x^2 overflows too: weight 0, without a warning
    assert log_gamma_ball(1e200, 1.0, n) == -math.inf


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center", ["8,0", "8,0,0", "8,0,0,0"])
@pytest.mark.parametrize("radius", ["1e155", "1e200", "1e300"])
def test_cli_refuses_a_ball_past_squared_overflow(capsys, center, radius):
    assert main(["gamma", "--center", center, "--radius", radius]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "above 2^511" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("size", [2, 3])
def test_narrow_spans_broadcast_against_a_scalar_width(size):
    # the Gauss rule's node axis is laid against the broadcast shape, not
    # the width's: an array of centers with one scalar radius (once one
    # wrong value for all three, or a broadcast error for two)
    norms = np.array([0.5, 3.0, 8.0])[:size]
    batch = log_gamma_ball(norms, 1e-3, 1)
    assert list(batch) == [log_gamma_ball(a, 1e-3, 1) for a in norms]
    spans = log_gamma_interval(norms, norms + 2e-3, 2e-3)
    assert list(spans) == [log_gamma_interval(a, a + 2e-3, 2e-3)
                           for a in norms]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a, radius", [(0.1, 1e-17), (2.0, 1e-15),
                                       (0.1, 1e-300), (30.0, 1e-9),
                                       (1e9, 1e-9), (0.5, 1e-6)])
def test_narrow_interval_keeps_relative_precision(a, radius):
    # the two ends cancel; the measure is the density at the middle times
    # the width, to w^2 (2 a^2 - 1) / 12 relative (the width is exact,
    # the ends rounded); once -inf at the first three, -38.464 against
    # -38.418 at the second
    w = 2.0 * radius
    want = (math.log(w / SQRT_PI) - a * a
            + math.log1p(w * w * (2.0 * a * a - 1.0) / 12.0))
    for got in (log_gamma_ball(a, radius, 1), log_gamma_ball(-a, radius, 1),
                log_gamma_interval(a - radius, a + radius, w)):
        assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("a", [0.0, 0.5, 3.0, 30.0])
def test_interval_is_continuous_across_the_narrow_rule(a):
    # a span of width 2^-6 takes the two ends, one an ulp narrower the
    # Gauss rule; where the ends are exact (2^-7) the two ends agree with
    # the rule; measured at most 7e-16 relative
    w = 2.0 ** -6
    assert log_gamma_interval(a, a + w, w) == pytest.approx(
        log_gamma_interval(a, a + w, np.nextafter(w, 0.0)), rel=2e-15)
    w = 2.0 ** -7
    assert log_gamma_interval(a, a + w, w) == pytest.approx(
        log_gamma_interval(a, a + w), rel=2e-15)


@pytest.mark.filterwarnings("error")
def test_cli_measures_a_ball_of_radius_1e_170(capsys):
    assert main(["gamma", "--center", "0.1,0", "--radius", "1e-170"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "log_measure,measure"
    log, linear = map(float, lines[1].split(","))
    want = 2.0 * math.log(1e-170) - 0.01
    assert abs(log - want) <= 1e-12 * abs(want) and linear == 0.0


def test_apply_in_4d_matches_the_series(capsys):
    # the kernel form on the 4-D polar grid: the cap admits order 16
    # (131,072 nodes), enough from base order 4; e^{tL} 1_B(y) is the
    # measure of the translated ball B((c - e^{-t} y)/s, r/s)
    argv = ["apply", "--t", "0.5", "--center", "8,0,0,0", "--y", "8.3,0,0,0",
            "--order", "4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    got = float(lines[1].split(",")[0])
    s, e = math.sqrt(-math.expm1(-1.0)), math.exp(-0.5)
    want = _log_ball_series((8.0 - e * 8.3) / s, 0.125 / s, 4)
    assert abs(got - want) <= 1e-12 * abs(want)


def _translated_balls(t, norms):
    # e^{tL} 1_B(y) = gamma(B((c - e^{-t} y) / s, r / s)), s^2 = 1 - e^{-2t},
    # for maximal admissible B(c, r) and 15 points y on its annulus C_1(B):
    # distances 2r, 3r, 4r from c, at five cosines to the axis of c
    s, e = math.sqrt(-math.expm1(-2.0 * t)), math.exp(-t)
    rho, u = (g.ravel() for g in np.meshgrid([2.0, 3.0, 4.0],
                                            np.linspace(-1.0, 1.0, 5)))
    c = np.repeat(norms, rho.size)
    r = 1.0 / c
    along = c * (1.0 - e) - e * r * np.tile(rho * u, norms.size)
    across = e * r * np.tile(rho * np.sqrt(1.0 - u * u), norms.size)
    return np.hypot(along, across) / s, r / s


@pytest.mark.parametrize("n", [2, 3])
def test_ball_measure_matches_poisson_series(n):
    # maximal admissible balls over |c| in [2, 30] (logs down to -910) and
    # the balls of the translation identity at small, middle and large t
    # (logs down to -1132); the worst |error| / max(1, |log|) measured
    # was 1.3e-14
    norms = np.linspace(2.0, 30.0, 15)
    cases = [(norms, 1.0 / norms)]
    cases += [_translated_balls(t, norms) for t in (1e-3, 0.5, 2.0)]
    for a, radius in cases:
        got = log_gamma_ball(a, radius, n)
        want = np.array([_log_ball_series(*ar, n) for ar in zip(a, radius)])
        bound = 1e-13 * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("n", [2, 3])
def test_three_routes_agree_on_a_ball_indicator(n):
    # e^{tL} 1_B(y) three ways: the kernel form on the polar grid, the ball
    # measure of the translated ball B((c - e^{-t} y)/s, r/s) (the theta
    # rule) and the Poisson series of that ball; maximal admissible balls,
    # y within 4 r of c.  The worst |error| / max(1, |log|) measured was
    # 1.7e-15
    rng = np.random.default_rng(n)
    spec = QuadratureSpec(tol=1e-10)
    for _ in range(12):
        t = float(rng.uniform(0.2, 2.0))
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        ball = make_maximal_admissible_ball(rng.uniform(0.5, 8.0) * direction)
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        y = ball.center + rng.uniform(0.0, 4.0) * ball.radius * direction
        s, e = math.sqrt(-math.expm1(-2.0 * t)), math.exp(-t)
        a = float(np.linalg.norm(ball.center - e * y)) / s
        want = _log_ball_series(a, ball.radius / s, n)
        bound = 1e-13 * max(1.0, abs(want))
        kernel_form = apply_indicator_log(t, ball, y, spec).log_magnitude
        assert abs(kernel_form - want) <= bound
        assert abs(float(log_gamma_ball(a, ball.radius / s, n, spec))
                   - want) <= bound


def _polar_log(ball):
    # the polar quadrature engine, independent of log_gamma_ball
    return integrate_gamma_log(lambda p: np.zeros(len(p)), ball).log_magnitude


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ball_measure_matches_polar_engine(n):
    for c in (0.0, 1.3, 8.0, 20.0, 30.0):
        for rho in (0.03, 0.3, 1.2):
            polar = _polar_log(Ball(np.r_[c, np.zeros(n - 1)], rho))
            got = float(log_gamma_ball(c, rho, n))
            assert got == pytest.approx(polar, rel=1e-12)


def test_ball_measure_depends_on_center_norm_only():
    norms = np.array([[0.0, 2.5], [9.0, 27.0]])
    for n in (1, 2, 3):
        got = log_gamma_ball(norms, 0.4, n)
        assert got.shape == norms.shape
        for c, value in zip(norms.ravel(), got.ravel()):
            center = np.r_[np.zeros(n - 1), c]
            assert value == pytest.approx(
                _polar_log(Ball(center, 0.4)), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("order", [16, 32])
def test_ball_slices_give_an_entry_the_same_bits_in_any_batch(n, order):
    # one pass at a fixed order: each entry alone (0-d), in a row of
    # centers with one radius, and in rows with a radius per row.  The
    # last row's radius leaves its slices below the normal floats, so a
    # batch holding it takes the Kummer branch, and that branch leaves
    # every normal slice its bits
    rng = np.random.default_rng(11)
    norms = rng.uniform(0.0, 30.0, (4, 7))
    radii = np.r_[rng.uniform(0.05, 5.0, 3), 1e-170][:, None]

    def one_pass(norms, radius):
        (value,) = _log_ball_slices(norms, radius, n, (order,))
        return value

    alone = np.array([[one_pass(np.asarray(a), np.asarray(r[0]))
                       for a in row] for row, r in zip(norms, radii)])
    assert np.isfinite(alone).all()
    assert one_pass(norms[0, 0], radii[0, 0]).shape == ()
    rows = [one_pass(row, np.asarray(r[0])) for row, r in zip(norms, radii)]
    for got in (np.array(rows), one_pass(norms, radii)):
        assert got.shape == norms.shape
        assert (got.view(np.int64) == alone.view(np.int64)).all()


def _refuse_polar_grid(*args):
    raise AssertionError("polar grid built")


def test_ball_measure_builds_no_polar_grid(monkeypatch):
    # every ball goes through the axis integral; only direct engine calls
    # use the grid
    monkeypatch.setattr(quadrature, "_polar_nodes", _refuse_polar_grid)
    for n in (1, 2, 3):
        assert math.isfinite(gamma_log(Ball(np.r_[8.0, np.zeros(n - 1)],
                                            0.125)).log_magnitude)
    with pytest.raises(AssertionError, match="polar grid"):
        _polar_log(Annulus(Ball([8.0, 0.0], 0.125), 1))


def test_annulus_measure_builds_no_polar_grid(monkeypatch):
    monkeypatch.setattr(quadrature, "_polar_nodes", _refuse_polar_grid)
    for n in (1, 2, 3):
        for k in (0, 1, 3):
            ann = Annulus(Ball(np.r_[8.0, np.zeros(n - 1)], 0.125), k)
            assert math.isfinite(gamma_log(ann).log_magnitude)


# (center distance, radius, k): near measure 1, in the bulk and in tails
# down to about exp(-900)
ANNULI = [(0.0, 2.0, 0), (0.2, 1.5, 0), (0.3, 0.25, 1), (1.3, 0.35, 2),
          (4.0, 0.25, 1), (8.0, 0.125, 1), (20.0, 0.05, 1),
          (30.0, 1.0 / 30.0, 1), (29.0, 1.0 / 29.0, 3)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_annulus_measure_matches_polar_engine(n):
    # relative error of the measure, that is |delta log| <= 1e-12,
    # against the polar grid about the center in a seeded direction
    rng = np.random.default_rng(n)
    logs = []
    for c, r, k in ANNULI:
        direction = rng.normal(size=n)
        ann = Annulus(Ball(c * direction / np.linalg.norm(direction), r), k)
        got = gamma_log(ann).log_magnitude
        assert abs(got - _polar_log(ann)) <= 1e-12
        logs.append(got)
    assert logs[0] > -1e-6 and min(logs) < -890.0


def _log_difference(log_outer, log_inner):
    # log(e^outer - e^inner) for outer > inner
    return log_outer + np.log(-np.expm1(log_inner - log_outer))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_annulus_measure_matches_chi2_and_ball_difference(n, k):
    # the axial rule against two references that share neither its radial
    # rule nor its axial factor, |delta log| <= 1e-12 on maximal
    # admissible balls: the noncentral chi-square CDF at 2 r^2 and 2 R^2
    # (scipy's logcdf breaks down at these radii from |c| = 12), and the
    # difference of two ball measures of the theta-slice rule, which
    # cancels when the inner ball's measure is near 1, so only |c| >= 4
    for c in np.linspace(2.0, 30.0, 57):
        ann = Annulus(make_maximal_admissible_ball(np.r_[c, np.zeros(n - 1)]),
                      k)
        r, R = ann.inner_radius, ann.outer_radius
        got = gamma_log(ann).log_magnitude
        if c <= 8.0:
            want = _log_difference(ncx2.logcdf(2.0 * R * R, n, 2.0 * c * c),
                                   ncx2.logcdf(2.0 * r * r, n, 2.0 * c * c))
            assert abs(got - want) <= 1e-12
        if c >= 4.0:
            want = _log_difference(log_gamma_ball(c, R, n),
                                   log_gamma_ball(c, r, n))
            assert abs(got - want) <= 1e-12
    assert got < -870.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_annulus_is_the_doubled_ball(n):
    # C_0(B) = 2B: the same region shape, so the same measure, bit for bit
    for c in (0.0, 1.3, 8.0, 30.0):
        ball = Ball(np.r_[c, np.zeros(n - 1)], 0.3)
        assert (gamma_log(Annulus(ball, 0)).log_magnitude
                == gamma_log(ball.expand(2.0)).log_magnitude)


@settings(max_examples=12, deadline=None)
@given(n=st.sampled_from([2, 3]),
       norm=st.floats(0.0, 30.0),
       rho=st.floats(0.03, 1.2),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
       .filter(lambda v: np.linalg.norm(v[:2]) > 0.1))
def test_gamma_log_of_ball_matches_polar_engine(n, norm, rho, direction):
    # over the README envelope, a center in any direction
    unit = np.asarray(direction[:n]) / np.linalg.norm(direction[:n])
    ball = Ball(norm * unit, rho)
    assert gamma_log(ball).log_magnitude == pytest.approx(
        _polar_log(ball), rel=1e-10)


def test_ball_measure_raises_when_refinement_runs_out(monkeypatch):
    # order 2 with one doubling cannot resolve 1e-12 relative; a work cap
    # of 16 admits the orders 2 and 4 only
    spec = QuadratureSpec(order=2, tol=1e-10)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "MAX_NODES", 16)
        with pytest.raises(QuadratureConvergenceError,
                           match="order 8 .* above the cap of 16"):
            log_gamma_ball(np.array([0.0, 6.0]), 1.2, 3, spec)
    # a pass over more (center, node) pairs than the cap is never built,
    # so the first pass has no iterates to report
    with pytest.raises(QuadratureConvergenceError,
                       match="ball measure.*nodes at order 16") as err:
        log_gamma_ball(np.zeros(MAX_NODES // 8), 0.3, 2)
    assert all(math.isnan(v) for v in err.value.last_two)
    assert "radius 0.3" in str(err.value)
    with pytest.raises(ValueError):
        log_gamma_ball(np.array([1.0]), 0.0, 2)
    with pytest.raises(ValueError):
        log_gamma_ball(np.array([1.0]), 1.0, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nan_center_distance_is_rejected_at_once(n):
    # a NaN never converges: without the check it would run every
    # doubling the work cap admits and fail as non-convergence
    with pytest.raises(ValueError, match="NaN"):
        log_gamma_ball(np.array([1.0, math.nan]), 0.5, n)
    with pytest.raises(ValueError, match="NaN"):
        integrate_axial_log(lambda x, z: np.zeros(x.shape),
                            np.array([2.0, math.nan]), 0.5, 1.0, n)
