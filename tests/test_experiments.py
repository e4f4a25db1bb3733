"""Composite experiments: sweeps, ratios, regime classification."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from mehler import selftest
from mehler.estimates import (
    OffDiagHypothesis,
    blowup_slope,
    failure_threshold,
    lemma_lower_bound_log,
    nelson_min_p,
)
from mehler.experiments import (
    CONJECTURED_EXTENSION,
    FAILS_RESTRICTED,
    HOLDS_UNRESTRICTED,
    UNKNOWN,
    SweepAborted,
    davies_gaffney_check,
    fit_affine,
    hypercontractivity_check,
    implied_constant_log,
    offdiag_lhs_log,
    regime_map,
    sweep_blowup,
)
from mehler import experiments, measure, quadrature
from mehler.cli import main
from mehler.experiments import _annulus_lq_log
from mehler.geometry import (
    Annulus,
    Ball,
    is_admissible,
    make_maximal_admissible_ball,
)
from mehler.kernel import apply_indicator_log
from mehler.measure import gamma_log, log_gamma_ball
from mehler.quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    integrate_gamma_log,
)

HYP12 = OffDiagHypothesis(p=1.0, q=2.0)


def test_offdiag_requires_testing_family():
    with pytest.raises(ValueError):
        offdiag_lhs_log(0.5, 2.0, Ball([8.0], 0.2), 1)  # not maximal
    with pytest.raises(ValueError):
        offdiag_lhs_log(0.5, 2.0, make_maximal_admissible_ball([3.0]), 2)
    with pytest.raises(ValueError):
        offdiag_lhs_log(0.5, 2.0, make_maximal_admissible_ball([8.0]), 0)


def test_testing_family_and_is_admissible_share_one_slack():
    # a radius 1e-10 past the admissible scale is not admissible, so not
    # maximal admissible either; the balls the library builds are both
    past = Ball([8.0], 0.125 * (1 + 1e-10))
    assert not is_admissible(past)
    with pytest.raises(ValueError, match="maximal admissible"):
        offdiag_lhs_log(0.5, 2.0, past, 1)
    for center in ([8.0], [3.0, 4.0], [1.0, 2.0, 2.0], [0.1, 2.9]):
        ball = make_maximal_admissible_ball(center)
        assert is_admissible(ball)
        assert math.isfinite(offdiag_lhs_log(0.5, 2.0, ball, 1).log_magnitude)


def _nested_kernel_form_lhs_log(t, q, ball, k, spec):
    # the sweep's former path, kept as the oracle: a full kernel-form
    # quadrature of e^{tL} 1_B at every annulus node
    def g_log(pts):
        return np.array([apply_indicator_log(t, ball, row, spec).log_magnitude
                         for row in pts])

    return integrate_gamma_log(lambda pts: q * g_log(pts), Annulus(ball, k),
                               spec).log_magnitude / q


@pytest.mark.parametrize("n, c, order", [
    (1, 4.0, 16), (1, 30.0, 16), (2, 4.0, 16), (2, 12.0, 16), (3, 4.0, 3)])
def test_offdiag_matches_nested_kernel_form(n, c, order):
    ball = make_maximal_admissible_ball(np.r_[c, np.zeros(n - 1)])
    spec = QuadratureSpec(order=order)
    got = offdiag_lhs_log(0.5, 2.0, ball, 1, spec).log_magnitude
    want = _nested_kernel_form_lhs_log(0.5, 2.0, ball, 1, spec)
    assert got == pytest.approx(want, rel=1e-7)


@pytest.mark.parametrize("q", [0.5, math.inf, math.nan])
def test_offdiag_rejects_bad_q(q):
    ball = make_maximal_admissible_ball([8.0])
    with pytest.raises(ValueError, match=re.escape("q must lie in [1, inf)")):
        offdiag_lhs_log(0.5, q, ball, 1)


def test_offdiag_large_time_limit():
    # e^{tL} 1_B tends to the constant gamma(B), so the norm factorizes
    ball = make_maximal_admissible_ball([4.0])
    got = offdiag_lhs_log(40.0, 2.0, ball, 1).log_magnitude
    want = (gamma_log(ball).log_magnitude
            + gamma_log(Annulus(ball, 1)).log_magnitude / 2.0)
    assert got == pytest.approx(want, abs=1e-6)


def test_offdiag_normalized_means_monotone_in_q():
    # on the probability-renormalized annulus, q-means are nondecreasing
    ball = make_maximal_admissible_ball([4.0])
    log_gamma_f = gamma_log(Annulus(ball, 1)).log_magnitude
    means = [
        offdiag_lhs_log(0.5, q, ball, 1).log_magnitude - log_gamma_f / q
        for q in (1.5, 2.0, 3.0)
    ]
    assert means[0] <= means[1] + 1e-9 <= means[2] + 2e-9


def test_offdiag_dominates_closed_form_bound():
    # the closed-form lower bound holds with a stable suppressed constant
    gaps = []
    for c in (4.0, 6.0, 8.0, 10.0, 12.0):
        ball = make_maximal_admissible_ball([c])
        lhs = offdiag_lhs_log(0.5, 2.0, ball, 1).log_magnitude
        bound = lemma_lower_bound_log(0.5, 2.0, 1, c).log_magnitude
        gaps.append(lhs - bound)
    assert min(gaps) > 0.5  # observed range ~[0.89, 1.38]
    assert max(gaps) - min(gaps) < 2.0


def test_implied_constant_growth_matches_slope():
    # difference of log implied constants across the sweep tracks the
    # closed-form slope times the |c_B|^2 increment, up to log terms
    lo = implied_constant_log(HYP12, 0.5, make_maximal_admissible_ball([4.0]), 1)
    hi = implied_constant_log(HYP12, 0.5, make_maximal_admissible_ball([12.0]), 1)
    got = hi.log_magnitude - lo.log_magnitude
    want = blowup_slope(1.0, 2.0, 0.5) * (144.0 - 16.0)
    assert abs(got - want) < 2.0


def test_implied_constant_growth_in_2d():
    # the slope prediction carries no dimension dependence; only the
    # polynomial prefactors (absorbed into log terms) change with n
    spec = QuadratureSpec(order=8, tol=1e-7)
    lo = implied_constant_log(
        HYP12, 0.5, make_maximal_admissible_ball([4.0, 0.0]), 1, spec)
    hi = implied_constant_log(
        HYP12, 0.5, make_maximal_admissible_ball([8.0, 0.0]), 1, spec)
    got = hi.log_magnitude - lo.log_magnitude
    want = blowup_slope(1.0, 2.0, 0.5) * (64.0 - 16.0)
    assert abs(got - want) < 2.0


def test_sweep_blowup_positive_slope():
    res = sweep_blowup(HYP12, 0.5, 1, 1, [4.0, 6.0, 8.0, 10.0, 12.0])
    assert res.predicted_slope == pytest.approx(0.2550813375962908, rel=1e-13)
    assert res.slope_rel_error < 0.15
    assert res.fitted_slope > 0.0
    assert [r.cB_norm for r in res.rows] == [4.0, 6.0, 8.0, 10.0, 12.0]


def test_sweep_blowup_negative_slope_above_threshold():
    res = sweep_blowup(HYP12, 1.5, 1, 1, [4.0, 6.0, 8.0, 10.0, 12.0])
    assert res.fitted_slope < 0.0


def test_sweep_blowup_flat_at_threshold():
    t_star = failure_threshold(1.0, 2.0)
    res = sweep_blowup(HYP12, t_star, 1, 1, [4.0, 6.0, 8.0, 10.0, 12.0])
    assert abs(res.fitted_slope) <= 0.02


def test_sweep_rows_are_deterministic():
    a = sweep_blowup(HYP12, 0.5, 1, 1, [4.0, 5.0, 6.0, 8.0])
    b = sweep_blowup(HYP12, 0.5, 1, 1, [4.0, 5.0, 6.0, 8.0])
    assert a == b


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_accepts_an_integral_float_order(n):
    # QuadratureSpec keeps order as an int, so every node builder sees one
    grid = [4.0, 6.0, 8.0, 10.0]
    want = sweep_blowup(HYP12, 0.5, 1, n, grid, QuadratureSpec(order=16))
    got = sweep_blowup(HYP12, 0.5, 1, n, grid, QuadratureSpec(order=16.0))
    assert got.rows == want.rows


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep_blowup(HYP12, 0.5, 1, 1, [4.0, 6.0, 8.0])  # too few points
    with pytest.raises(ValueError):
        sweep_blowup(HYP12, 0.5, 1, 1, [4.0] * 5)  # one distinct |c_B|
    with pytest.raises(ValueError):
        sweep_blowup(HYP12, 0.5, 2, 1, [3.0, 6.0, 8.0, 10.0])  # < 2^k
    with pytest.raises(ValueError):
        sweep_blowup(HYP12, 0.5, 0, 1, [4.0, 6.0, 8.0, 10.0])  # k < 1
    with pytest.raises(ValueError):
        sweep_blowup(HYP12, 0.5, 1, 0, [4.0, 6.0, 8.0, 10.0])  # n < 1


def _refuse_pass(*args, **kwargs):
    raise AssertionError("a quadrature pass ran")


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("grid, message", [
    ([-8.0, -4.0, 0.0, 4.0, 8.0, 12.0], "the testing family needs |c_B| >= "
                                        "2^k, k = 1"),
    ([1.5, 4.0, 6.0, 8.0], "the testing family needs |c_B| >= 2^k, k = 1"),
    ([4.0, math.nan, 8.0, 10.0], "point coordinates must be finite"),
    ([4.0, 6.0, 8.0, math.inf], "point coordinates must be finite"),
    ([math.nan, math.inf, math.inf, math.inf, 12.0],  # linspace(-inf, 12)
     "point coordinates must be finite"),
    ([4.0, 6.0, 8.0, 1e200], "|c_B| = 1e+200 is too large: its square "
                             "overflows"),
    ([-1e200, 4.0, 6.0, 8.0], "the testing family needs |c_B| >= 2^k, k = 1"),
])
def test_sweep_refuses_a_grid_outside_the_family_before_a_pass(
        monkeypatch, n, grid, message):
    # every grid value must be a |c_B| >= 2^k; a value below it once ran
    # as a signed center distance and printed rows
    monkeypatch.setattr(experiments, "_annulus_lq_log", _refuse_pass)
    monkeypatch.setattr(experiments, "log_gamma_ball", _refuse_pass)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_blowup(HYP12, 0.5, 1, n, grid)


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_cli_sweep_below_the_family_exits_2(capsys, n):
    argv = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", n, "--cmin", "-8", "--cmax", "12", "--steps", "6"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("mehler: invalid parameters: the testing family needs "
                   "|c_B| >= 2^k, k = 1\n")


def test_sweep_aborts_at_a_row_that_is_not_finite(capsys, monkeypatch):
    # a ball measure that is NaN at one grid point stands in for any row
    # that is not finite; the sweep stops there with the rows before it
    grid = np.linspace(4.0, 1e10, 5)

    def nan_at_second_point(norms, radius, n, spec=None):
        log = log_gamma_ball(norms, radius, n, spec)
        return np.where(norms == grid[1], math.nan, log)

    monkeypatch.setattr(experiments, "log_gamma_ball", nan_at_second_point)
    with pytest.raises(SweepAborted, match=re.escape(
            "sweep aborted at |c_B| = 2500000003.0: log implied constant "
            "nan")) as err:
        sweep_blowup(HYP12, 0.5, 1, 1, grid)
    assert err.value.failed_at == grid[1]
    assert [row.cB_norm for row in err.value.partial_rows] == [4.0]
    assert all(map(math.isfinite, err.value.partial_rows[0]))
    argv = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", "1", "--cmin", "4", "--cmax", "1e10", "--steps", "5"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "numerical non-convergence" in err


@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_sweep_is_finite_far_out_in_every_dimension(capsys, n):
    # maximal admissible balls out to |c_B| = 1e10, where c +- 1/c round to
    # c: the n = 1 measure sees the ball's exact width, as n = 2, 3 do
    argv = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", n, "--cmin", "4", "--cmax", "1e10", "--steps", "5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [list(map(float, line.split(","))) for line in lines[1:6]]
    assert [row[0] for row in rows] == list(np.linspace(4.0, 1e10, 5))
    assert all(map(math.isfinite, np.ravel(rows)))
    for c, _, log_gamma_b, _ in rows[1:]:  # log gamma(B) ~ -|c_B|^2
        assert log_gamma_b == pytest.approx(-c * c, rel=1e-15)
    assert float(lines[6].rpartition("rel_err=")[2]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_builds_no_region_per_grid_point(monkeypatch, n):
    # the grid goes to the quadrature as arrays of norms and radii; the
    # Ball and Annulus built to check the family do not grow with it
    built = []
    for cls in (Ball, Annulus):
        def counting(self, check=cls.__post_init__):
            built.append(self)
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    counts = []
    for steps in (4, 16):
        built.clear()
        sweep_blowup(HYP12, 0.5, 1, n, np.linspace(4.0, 12.0, steps))
        counts.append(len(built))
    assert counts[0] == counts[1] <= 2


def test_dimension_and_annulus_index_checks_share_one_message(monkeypatch):
    # one check per invariant: every site accepts integral floats and
    # refuses the rest with the same ValueError (the CLI's exit code 2),
    # the one FullSpace and the lemma give, before any pass runs
    grid = [4.0, 6.0, 8.0, 10.0]
    want = log_gamma_ball(8.0, 0.125, 2)
    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_refine_each", _refuse_pass)
        patch.setattr(measure, "_refine_each", _refuse_pass)
        patch.setattr(experiments, "_implied_log", _refuse_pass)
        for n in (0, 2.5, math.nan):
            for call in (lambda: log_gamma_ball(8.0, 0.125, n),
                         lambda: sweep_blowup(HYP12, 0.5, 1, n, grid),
                         lambda: quadrature.integrate_axial_log(
                             lambda x, z: np.zeros(x.shape), 8.0, 0.25, 0.5,
                             n)):
                with pytest.raises(ValueError, match=re.escape(
                        f"dimension must be an integer >= 1, got {n}")):
                    call()
    assert log_gamma_ball(8.0, 0.125, 2.0) == want
    ball = make_maximal_admissible_ball([8.0])
    for k in (0, 1.5, math.inf, math.nan):
        for call in (lambda: offdiag_lhs_log(0.5, 2.0, ball, k),
                     lambda: davies_gaffney_check(0.5, ball, k)):
            with pytest.raises(ValueError, match="annulus index k must be "
                               "an integer >= 1, got"):
                call()
    assert davies_gaffney_check(0.5, ball, 2.0) == davies_gaffney_check(
        0.5, ball, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sweep_rows_match_single_points(n):
    # the whole grid runs in one refinement; every row must be what the
    # point gives alone, within the tolerance both converged to
    spec = QuadratureSpec()
    grid = [4.0, 5.0, 8.0, 13.0, 30.0]
    res = sweep_blowup(HYP12, 0.5, 1, n, grid, spec)
    for row in res.rows:
        ball = make_maximal_admissible_ball(
            np.r_[row.cB_norm, np.zeros(n - 1)])
        lhs = offdiag_lhs_log(0.5, 2.0, ball, 1, spec).log_magnitude
        lgB = gamma_log(ball, spec).log_magnitude
        assert abs(row.log_lhs - lhs) <= spec.tol
        assert abs(row.log_gammaB - lgB) <= spec.tol
        assert row.log_implied_const == pytest.approx(
            implied_constant_log(HYP12, 0.5, ball, 1, spec).log_magnitude,
            abs=spec.tol)


# the outer axial rule ends at order 32 on these grids, with 2 x 32 nodes
# a grid point in n = 1 and 32^2 in n = 2, 3; the order-32 rule's own
# work, 32^2, fits the cap, and in n = 2, 3 so do the whole grid's
# ball-measure samples, 5 rows x 16 points x theta order 32 = 2,560 nodes
@pytest.mark.parametrize("n, cap", [(1, 32 ** 2), (2, 4 * 32 ** 2),
                                    (3, 4 * 32 ** 2)])
def test_sweep_splits_a_grid_over_the_node_cap(n, cap, monkeypatch):
    # the cap admits the outer rule's largest pass of half the grid (16
    # points of 32 in n = 1, two of five in n = 2, 3), not of the whole
    # grid: the whole-grid pass raises, and the sweep gets through one
    # point at a time, one run of the whole grid and one of each point
    grid = np.linspace(4.0, 12.0, 32 if n == 1 else 5).tolist()
    want = sweep_blowup(HYP12, 0.5, 1, n, grid)
    monkeypatch.setattr(quadrature, "MAX_NODES", cap)
    with pytest.raises(QuadratureConvergenceError,
                       match=f"annulus integral in n = {n}: .* above the cap"):
        _annulus_lq_log(0.5, 2.0, grid, [1.0 / c for c in grid], 1, n, None)
    runs = []
    implied = experiments._implied_log

    def counting(*args):
        runs.append(args[2].size)
        return implied(*args)

    monkeypatch.setattr(experiments, "_implied_log", counting)
    assert sweep_blowup(HYP12, 0.5, 1, n, grid) == want
    assert runs == [len(grid)] + [1] * len(grid)


@pytest.mark.parametrize("t", [0.5, 1e-3, 1e-4])
@pytest.mark.parametrize("n", [2, 3])
def test_ball_interpolant_matches_the_direct_measure(n, t, monkeypatch):
    # every outer pass's values of the interpolated ball measure against
    # log_gamma_ball at those nodes (256 seeded nodes a row in larger
    # passes); measured worst 3e-15 relative (9e-13 absolute at t = 1e-4)
    passes = []
    build = experiments._ball_interpolant

    def recording(*args):
        log_ball, radius = build(*args), args[2]

        def record(dist):
            passes.append((dist, radius, log_ball(dist)))
            return passes[-1][2]

        return record

    monkeypatch.setattr(experiments, "_ball_interpolant", recording)
    norms = np.array([4.0, 12.0])
    _annulus_lq_log(t, 2.0, norms, 1.0 / norms, 1, n, None)
    # the first call holds orders 16 and 32, 16^2 and 32^2 nodes a row
    (dist, radius, got), *later = passes
    assert dist.shape[1] == 16 ** 2 + 32 ** 2
    first = zip(np.split(dist, [16 ** 2], axis=1), [radius] * 2,
                np.split(got, [16 ** 2], axis=1))
    rng = np.random.default_rng(0)
    for dist, radius, got in [*first, *later]:
        nodes = rng.choice(dist.shape[1], min(dist.shape[1], 256),
                           replace=False)
        want = log_gamma_ball(dist[:, nodes], radius[:, None], n)
        assert np.all(np.abs(got[:, nodes] - want) <= 2e-14 * np.abs(want))


def _interpolant_samples(monkeypatch):
    # the sample count m of every ball-measure call the interpolant makes
    # (its samples are the 2-D calls; gamma(B) is 1-D)
    counts = []

    def counting(d, *args):
        if np.ndim(d) == 2:
            counts.append(np.shape(d)[1])
        return log_gamma_ball(d, *args)

    monkeypatch.setattr(experiments, "log_gamma_ball", counting)
    return counts


@pytest.mark.parametrize("n", [2, 3])
def test_sweep_samples_the_ball_measure_once(n, monkeypatch):
    # m = 16 has a Chebyshev tail below the inner tolerance on the README
    # grid at t = 0.5, so the samples are taken once; fitting m = 8 only to
    # compare it with m = 16 took them twice
    counts = _interpolant_samples(monkeypatch)
    sweep_blowup(HYP12, 0.5, 1, n, [4.0, 6.0, 8.0, 10.0, 12.0])
    assert counts == [16]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t, m", [(2.0, 16), (0.5, 16), (0.1, 32),
                                  (1e-2, 32), (1e-3, 32), (1e-4, 64),
                                  (1e-5, 64)])
@pytest.mark.parametrize("grid", [np.linspace(4.0, 12.0, 5),
                                  np.linspace(4.0, 30.0, 8)])
def test_interpolant_tail_test_keeps_the_two_iterate_m(grid, t, m, n,
                                                       monkeypatch):
    # the m at which the values at the first outer pass's nodes settled
    # between m / 2 and m, measured on these grids before the interpolant
    # settled on its own Chebyshev tail; the outer rule is not run
    counts = _interpolant_samples(monkeypatch)
    monkeypatch.setattr(experiments, "integrate_axial_log",
                        lambda g_log, norms, *args: np.zeros(norms.size))
    _annulus_lq_log(t, 2.0, grid, 1.0 / grid, 1, n, None)
    assert counts[-1] == m and counts == sorted(set(counts))


def test_interpolant_that_never_settles_names_its_tail(monkeypatch):
    # samples of noise keep every Chebyshev tail large: m doubles to 1024
    # and m = 2048 is refused (2048^2 work), with the last two log tails
    # of the row that moved most and that row's radius and distances
    rng = np.random.default_rng(0)
    monkeypatch.setattr(experiments, "log_gamma_ball",
                        lambda d, *args: rng.normal(size=np.shape(d)))
    with pytest.raises(QuadratureConvergenceError, match=re.escape(
            "Chebyshev tail of the ball-measure interpolant in n = 2: "
            "refinement would build 10240 nodes at order 2048 (order^2 = "
            "4194304), above the cap of 1048576, radius ")) as err:
        _annulus_lq_log(0.5, 2.0, [4.0, 6.0, 8.0, 10.0, 12.0],
                        [0.25, 1 / 6, 0.125, 0.1, 1 / 12], 1, 2, None)
    assert "center distances" in str(err.value)
    assert all(math.log(1e-10) < v < math.inf for v in err.value.last_two)


@pytest.mark.parametrize("n, t, cmax, steps", [
    (2, 1e-4, 12.0, 5), (3, 1e-4, 12.0, 5), (2, 1e-4, 30.0, 8),
    (3, 1e-4, 30.0, 8), (3, 1e-5, 12.0, 5)])
def test_small_time_sweeps_finish(n, t, cmax, steps):
    # small t widens the translated balls (radius r / sqrt(2t) or so) and
    # sharpens the integrand: the theta rule and the outer rule both
    # refine further, and the grid must still fit the node cap
    res = sweep_blowup(HYP12, t, 1, n, np.linspace(4.0, cmax, steps))
    assert res.slope_rel_error < 0.15


def test_sweep_builds_no_polar_grid(monkeypatch):
    def refuse(*args):
        raise AssertionError("polar grid built")

    monkeypatch.setattr(quadrature, "_polar_nodes", refuse)
    for n in (2, 3):
        res = sweep_blowup(HYP12, 0.5, 1, n, [4.0, 6.0, 8.0, 10.0])
        assert res.slope_rel_error < 0.15


def _polar_lhs_log(t, q, ball, k):
    # the same integrand, log_gamma_ball of the translated ball, on the
    # polar grid about the center: an outer rule independent of the axis
    em = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))

    def g_log(y):
        norms = np.linalg.norm(ball.center - em * y, axis=-1) / s
        return log_gamma_ball(norms, ball.radius / s, ball.dim)

    def in_chunks(pts):
        # bounds the (nodes x inner order) arrays of the ball measure
        return np.concatenate([g_log(p) for p in np.split(
            pts, range(4096, len(pts), 4096))])

    return integrate_gamma_log(lambda pts: q * in_chunks(pts),
                               Annulus(ball, k)).log_magnitude / q


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([2, 3]),
       norm=st.floats(4.0, 30.0),
       direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
       .filter(lambda v: np.linalg.norm(v[:2]) > 0.1),
       t=st.floats(0.05, 2.0),
       q=st.floats(1.0, 3.0))
def test_axial_rule_matches_polar_engine(n, norm, direction, t, q):
    unit = np.asarray(direction[:n]) / np.linalg.norm(direction[:n])
    ball = make_maximal_admissible_ball(norm * unit)
    got = offdiag_lhs_log(t, q, ball, 1).log_magnitude
    assert got == pytest.approx(_polar_lhs_log(t, q, ball, 1), rel=1e-9)


def test_small_time_sweep_in_3d(capsys):
    # the README grid at t = 1e-3 in n = 3; its |c| = 4 row against an
    # adaptive double integral in (rho, u) of the same integrand
    argv = ["sweep", "--t", "0.001", "--p", "1", "--q", "2", "--k", "1",
            "--n", "3", "--cmin", "4", "--cmax", "12", "--steps", "5"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 4.0
    a, r, t, q = 4.0, 0.25, 1e-3, 2.0
    em = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))

    def log_f(u, rho):
        # y = c + rho omega with u = <omega, c/|c|>: density, sphere
        # weight 2 pi rho^2 du, and e^{tL} 1_B(y)^q
        v = math.sqrt(1.0 - u * u)
        dist = math.hypot(a - em * (a + rho * u), em * rho * v) / s
        return (math.log(2.0 * math.pi * rho * rho) - 1.5 * math.log(math.pi)
                - (a + rho * u) ** 2 - (rho * v) ** 2
                + q * float(log_gamma_ball(dist, r / s, 3)))

    shift = log_f(1.0, 2.0 * r)
    value, _ = integrate.dblquad(
        lambda u, rho: math.exp(log_f(u, rho) - shift),
        2.0 * r, 4.0 * r, -1.0, 1.0, epsabs=0.0, epsrel=1e-10)
    assert abs(first[1] - (shift + math.log(value)) / q) <= 1e-8
    # the fitted slope sits 5.15 % from the closed form (polynomial
    # prefactors of the implied constant land in the fit on [4, 12])
    rel_err = float(lines[-1].rsplit("rel_err=", 1)[1])
    assert rel_err < 0.055


@pytest.mark.parametrize("n", [4, 5, 7])
def test_left_side_in_higher_dimensions(n):
    # the left side of a maximal admissible ball at |c| = 4, t = 0.5,
    # against an adaptive double integral in (rho, u) of the same
    # integrand; both agreed to the last bit when measured
    a, r, t, q = 4.0, 0.25, 0.5, 2.0
    em = math.exp(-t)
    s = math.sqrt(-math.expm1(-2.0 * t))
    ball = make_maximal_admissible_ball(np.r_[a, np.zeros(n - 1)])
    got = offdiag_lhs_log(t, q, ball, 1).log_magnitude
    log_sphere = (math.log(2.0) + 0.5 * (n - 1) * math.log(math.pi)
                  - math.lgamma(0.5 * (n - 1)))  # |S^{n-2}|

    def log_f(phi, rho):
        # y = c + rho omega with phi the angle from omega to c: density,
        # sphere weight |S^{n-2}| rho^{n-1} sin^{n-2} phi, smooth at both
        # ends, and e^{tL} 1_B(y)^q
        u, v = math.cos(phi), math.sin(phi)
        dist = math.hypot(a - em * (a + rho * u), em * rho * v) / s
        return (log_sphere + (n - 1) * math.log(rho) + (n - 2) * math.log(v)
                - 0.5 * n * math.log(math.pi) - (a + rho * u) ** 2
                - (rho * v) ** 2
                + q * float(log_gamma_ball(dist, r / s, n)))

    shift = log_f(0.5 * math.pi, 2.0 * r)
    value, _ = integrate.dblquad(
        lambda phi, rho: math.exp(log_f(phi, rho) - shift),
        2.0 * r, 4.0 * r, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)
    assert abs(got - (shift + math.log(value)) / q) <= 1e-10


@pytest.mark.parametrize("n, rel_err", [(4, 0.0133), (6, 0.0206),
                                        (8, 0.0279), (16, 0.0575)])
def test_sweep_slope_in_higher_dimensions(n, rel_err):
    # [4, 30] x 8 at t = 0.5 within the 15 % gate of the acceptance
    # criterion; the error grows with n through the n (1 + 1/q - 1/p)
    # log |c| prefactor the affine fit in |c|^2 absorbs, not the numerics
    res = sweep_blowup(HYP12, 0.5, 1, n, np.linspace(4.0, 30.0, 8))
    assert res.slope_rel_error == pytest.approx(rel_err, abs=1e-4)
    assert res.slope_rel_error < 0.15


def test_sweep_abort_carries_partial_rows(monkeypatch):
    # a work cap of 16 admits the orders 2 and 4 of one grid point only
    monkeypatch.setattr(quadrature, "MAX_NODES", 16)
    starved = QuadratureSpec(order=2, tol=1e-15)
    with pytest.raises(SweepAborted) as err:
        sweep_blowup(HYP12, 0.5, 1, 1, [4.0, 6.0, 8.0, 10.0], starved)
    assert err.value.failed_at == 4.0
    assert err.value.partial_rows == ()


def test_fit_affine_recovers_synthetic_model():
    x = np.array([16.0, 36.0, 64.0, 100.0, 144.0])
    slope, intercept = fit_affine(x, 0.25508 * x - 3.25)
    assert slope == pytest.approx(0.25508, abs=1e-10)
    assert intercept == pytest.approx(-3.25, abs=1e-8)


class TestHypercontractivity:
    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_refuses_a_lambda_that_is_not_finite(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            hypercontractivity_check(0.5, 1.5, lam)

    def test_ratio_one_at_threshold(self):
        t = 0.5
        res = hypercontractivity_check(t, nelson_min_p(t), 2.0)
        assert res.ratio_closed_form == 1.0
        assert res.ratio_numeric == pytest.approx(1.0, abs=1e-9)

    def test_contracts_above_threshold(self):
        res = hypercontractivity_check(1.0, 1.5, 2.0)
        assert res.ratio_closed_form < 1.0
        assert res.ratio_numeric < 1.0

    def test_expands_below_threshold_growing_in_lambda(self):
        t = 0.2  # threshold 1 + e^{-0.4} ~ 1.67
        r2 = hypercontractivity_check(t, 1.2, 2.0)
        r3 = hypercontractivity_check(t, 1.2, 3.0)
        assert 1.0 < r2.ratio_numeric < r3.ratio_numeric

    def test_numeric_matches_closed_form(self):
        selftest.check_hypercontractivity_agreement(np.random.default_rng(0))

    @pytest.mark.parametrize("t, p, lam", [(1.0, 1.9, 20.0), (0.5, 1.5, 10.0)])
    def test_large_lambda_matches_closed_form(self, t, p, lam):
        # the ratio is as small as 6e-34, so no absolute slack
        res = hypercontractivity_check(t, p, lam)
        assert abs(res.ratio_numeric / res.ratio_closed_form - 1.0) <= 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            hypercontractivity_check(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hypercontractivity_check(1.0, 2.5, 1.0)


class TestDaviesGaffney:
    def test_well_posed(self):
        res = davies_gaffney_check(1.0, make_maximal_admissible_ball([4.0]), 2)
        assert math.isfinite(res.lhs_log)
        assert math.isfinite(res.rhs_log_with_C1)

    def test_no_admissibility_constraint(self):
        # holds for arbitrary balls: k = 3 at |c| = 4 is fine here
        res = davies_gaffney_check(0.5, make_maximal_admissible_ball([4.0]), 3)
        assert math.isfinite(res.lhs_log)

    def test_ratio_bounded_over_sweep(self):
        ratios = []
        for c in (4.0, 6.0, 8.0, 10.0, 12.0):
            res = davies_gaffney_check(0.5, make_maximal_admissible_ball([c]), 1)
            ratios.append(res.lhs_log - res.rhs_log_with_C1)
        # decaying, hence bounded: consistent with an absolute constant
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert max(ratios) < 0.0

    def test_rejects_k0(self):
        with pytest.raises(ValueError):
            davies_gaffney_check(1.0, Ball([4.0], 0.25), 0)


class TestRegimeMap:
    def test_small_t_fails(self):
        cells = regime_map([1.5], [2.0], [0.2]).cells
        assert cells[0].regime == FAILS_RESTRICTED
        assert cells[0].t_star == pytest.approx(math.log(1.4), rel=1e-12)

    def test_large_t_holds(self):
        cells = regime_map([1.5], [2.0], [1.5]).cells
        assert cells[0].regime == HOLDS_UNRESTRICTED
        assert cells[0].p_nelson == pytest.approx(1.0 + math.exp(-3.0), rel=1e-12)

    def test_middle_range_unknown(self):
        cells = regime_map([1.05], [2.0], [1.2]).cells
        assert cells[0].regime == UNKNOWN

    def test_conjectured_extension_labeled_distinctly(self):
        # q != 2, t beyond both thresholds: reported as conjectured only
        cells = regime_map([1.8], [4.0], [3.0]).cells
        assert cells[0].regime == CONJECTURED_EXTENSION
        # same cell with q = 2 would be a proven regime, never conflated
        assert CONJECTURED_EXTENSION not in {
            c.regime for c in regime_map([1.8], [2.0], [3.0]).cells}

    def test_every_valid_cell_classified_once(self):
        result = regime_map(np.linspace(1.05, 1.95, 10), [2.0],
                            np.linspace(0.1, 2.0, 20))
        assert len(result.cells) == 200
        valid = {FAILS_RESTRICTED, HOLDS_UNRESTRICTED,
                 CONJECTURED_EXTENSION, UNKNOWN}
        for cell in result.cells:
            assert cell.regime in valid
            assert (cell.regime == FAILS_RESTRICTED) == (cell.t < cell.t_star)

    def test_fail_and_hold_conditions_disjoint(self):
        result = regime_map(np.linspace(1.01, 1.99, 25), [2.0],
                            np.linspace(0.05, 3.0, 40))
        for cell in result.cells:
            fails = cell.t < cell.t_star
            holds = cell.p_nelson < cell.p <= 2.0
            assert not (fails and holds)

    def test_invalid_cells_skipped_with_reason(self):
        result = regime_map([0.9, 1.5], [1.2, 2.0], [-1.0, 1.0])
        reasons = {r for *_, r in result.skipped}
        assert reasons == {"t <= 0", "p < 1", "q <= p"}
        assert len(result.cells) + len(result.skipped) == 8

    def test_nan_q_refused_and_infinite_q_skipped(self):
        # NaN fails every skip test, so it was once skipped as "q <= p"
        with pytest.raises(ValueError, match="q must not be NaN"):
            regime_map([1.5], [math.nan], [1.0])
        result = regime_map([1.5], [math.inf], [1.0])
        assert result.cells == ()
        assert result.skipped == ((1.5, math.inf, 1.0, "q = inf"),)

    @pytest.mark.parametrize("p, t", [(math.nan, 1.0), (math.inf, 1.0),
                                      (1.5, math.nan), (1.5, math.inf)])
    def test_non_finite_p_or_t_is_refused(self, p, t):
        # a NaN p is refused, not skipped as "p < 1"; q = inf is a skip
        with pytest.raises(ValueError, match="must be finite"):
            regime_map([1.5, p], [2.0], [1.0, t])
        assert regime_map([1.5], [math.inf], [1.0]).skipped == (
            (1.5, math.inf, 1.0, "q = inf"),)
