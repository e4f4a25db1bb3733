"""Gaussian measure computations against independent closed forms.

Frozen reference values were produced by independent oracles: erf
arithmetic for intervals, and one-dimensional radial reductions (Bessel
and sinh kernels integrated with adaptive Gauss-Kronrod) for off-center
balls in n = 2, 3.
"""

import math

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import ncx2

from mehler import quadrature
from mehler.geometry import Annulus, Ball, FullSpace
from mehler.measure import gamma_log, log_gamma_ball, log_gamma_interval
from mehler.quadrature import (
    MAX_NODES,
    QuadratureConvergenceError,
    QuadratureSpec,
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
    # beyond |x| ~ 1.3e154 log_ndtr underflows to -inf at both endpoints;
    # the measure is exp(-1e310) or less, so its log is -inf, not NaN
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


def test_origin_ball_3d_closed_form():
    # gamma(B(0, r)) = erf(r) - 2 r exp(-r^2)/sqrt(pi) in three dimensions
    r = 0.5
    got = gamma_log(Ball([0.0, 0.0, 0.0], r)).to_float()
    want = erf(r) - 2.0 * r * math.exp(-r * r) / SQRT_PI
    assert got == pytest.approx(want, rel=1e-10)


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


def test_2d_annulus_as_ball_difference():
    ball = Ball([1.0, 0.5], 0.4)
    outer = gamma_log(ball.expand(4.0)).to_float()
    inner = gamma_log(ball.expand(2.0)).to_float()
    ann = gamma_log(Annulus(ball, 1)).to_float()
    assert ann == pytest.approx(outer - inner, rel=1e-7)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        gamma_log(Ball([0.0, 0.0, 0.0, 0.0], 1.0))


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


def test_ball_measure_raises_when_refinement_runs_out():
    # order 2 with one doubling cannot resolve 1e-12 relative
    spec = QuadratureSpec(order=2, tol=1e-10, max_refinements=1)
    with pytest.raises(QuadratureConvergenceError):
        log_gamma_ball(np.array([0.0, 6.0]), 1.2, 3, spec)
    # a pass over more (center, node) pairs than the cap is never built
    with pytest.raises(QuadratureConvergenceError,
                       match="ball measure.*nodes at order 16"):
        log_gamma_ball(np.zeros(MAX_NODES // 8), 0.3, 2)
    with pytest.raises(ValueError):
        log_gamma_ball(np.array([1.0]), 0.0, 2)
    with pytest.raises(ValueError):
        log_gamma_ball(np.array([1.0]), 1.0, 4)
