"""Ball/annulus geometry, admissibility, set distances and the input checks."""

import math
import re

import numpy as np
import pytest

from mehler import measure, quadrature
from mehler.estimates import OffDiagHypothesis, lemma_lower_bound_log
from mehler.experiments import (
    davies_gaffney_check,
    offdiag_lhs_log,
    sweep_blowup,
)
from mehler.geometry import (
    Annulus,
    Ball,
    FullSpace,
    admissible_radius,
    as_point,
    is_admissible,
    make_maximal_admissible_ball,
    set_distance,
)


def test_maximal_ball_far_center():
    ball = make_maximal_admissible_ball([8.0])
    assert ball.radius == 0.125
    assert ball.center_norm == 8.0


def test_maximal_ball_at_origin():
    ball = make_maximal_admissible_ball([0.0, 0.0])
    assert ball.radius == 1.0


def test_maximal_ball_pythagorean_center():
    # |c| = 5 for c = (3, 4), so the admissible radius is 1/5
    ball = make_maximal_admissible_ball([3.0, 4.0])
    assert ball.radius == pytest.approx(0.2, rel=1e-15)


def test_admissible_radius_inside_unit_ball():
    assert admissible_radius([0.5]) == 1.0
    assert admissible_radius([1.0]) == 1.0
    assert admissible_radius([2.0]) == 0.5


def test_is_admissible():
    assert is_admissible(Ball([4.0], 0.25))
    assert is_admissible(Ball([4.0], 0.1))
    assert not is_admissible(Ball([4.0], 0.3))
    assert not is_admissible(Ball([0.0], 1.5))


def test_set_distance_k0_is_zero():
    ball = Ball([2.0], 0.5)
    assert set_distance(ball, Annulus(ball, 0)) == 0.0


def test_set_distance_k1():
    ball = Ball([8.0], 0.125)
    assert set_distance(ball, Annulus(ball, 1)) == pytest.approx(0.125, rel=1e-15)


def test_set_distance_k3():
    ball = Ball([0.0], 0.1)
    assert set_distance(ball, Annulus(ball, 3)) == pytest.approx(0.7, rel=1e-15)


def test_set_distance_strictly_increasing_in_k():
    ball = make_maximal_admissible_ball([10.0])
    dists = [set_distance(ball, Annulus(ball, k)) for k in range(1, 8)]
    assert all(a < b for a, b in zip(dists, dists[1:]))


def test_set_distance_requires_same_base():
    ball = Ball([1.0], 0.5)
    other = Ball([1.5], 0.5)
    with pytest.raises(ValueError):
        set_distance(other, Annulus(ball, 1))


def test_annulus_radii():
    ball = Ball([0.0], 0.25)
    c0 = Annulus(ball, 0)
    assert (c0.inner_radius, c0.outer_radius) == (0.0, 0.5)
    c2 = Annulus(ball, 2)
    assert (c2.inner_radius, c2.outer_radius) == (1.0, 2.0)


def test_balls_and_annuli_share_one_shape():
    # quadrature and measure see a region only as its center and radii
    ball = Ball([3.0, -4.0], 0.25)
    for region, radii in ((ball, (0.0, 0.25)), (Annulus(ball, 0), (0.0, 0.5)),
                          (Annulus(ball, 2), (1.0, 2.0))):
        assert np.array_equal(region.center, ball.center)
        assert region.center_norm == 5.0
        assert (region.inner_radius, region.outer_radius) == radii


def test_annulus_rejects_negative_k():
    with pytest.raises(ValueError):
        Annulus(Ball([0.0], 1.0), -1)


def test_ball_validation():
    with pytest.raises(ValueError):
        Ball([0.0], 0.0)
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)
    with pytest.raises(ValueError):
        Ball([np.nan], 1.0)
    with pytest.raises(ValueError):
        Ball([np.inf, 0.0], 1.0)


def test_ball_expand():
    ball = Ball([1.0, 2.0], 0.5)
    big = ball.expand(4.0)
    assert big.radius == 2.0
    assert np.array_equal(big.center, ball.center)


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([])
    assert as_point(3.0).shape == (1,)


def test_annulus_base_and_repr():
    with pytest.raises(TypeError, match="annulus base must be a Ball"):
        Annulus(FullSpace(1), 1)
    assert repr(Annulus(Ball([8.0, 0.0], 0.125), 2)) == (
        "Annulus(base=Ball(center=[8.0, 0.0], radius=0.125), k=2)")


def test_fullspace_validation():
    assert FullSpace(2).dim == 2
    with pytest.raises(ValueError):
        FullSpace(0)


# Each input invariant has one check in geometry; the tests below call it
# through every site, so a site that keeps its own copy shows here.
_INDEX_SITES = {
    "Annulus": (lambda v: Annulus(Ball([8.0], 0.125), v),
                "annulus index k", 0),
    "FullSpace": (FullSpace, "dimension", 1),
    "QuadratureSpec": (lambda v: quadrature.QuadratureSpec(order=v),
                       "order", 2),
    "lemma_lower_bound_log": (
        lambda v: lemma_lower_bound_log(0.5, 2.0, v, 4.0), "dimension", 1),
    "log_gamma_ball": (lambda v: measure.log_gamma_ball(8.0, 0.125, v),
                       "dimension", 1),
    "integrate_axial_log": (lambda v: quadrature.integrate_axial_log(
        lambda x, z: np.zeros(x.shape), 8.0, 0.25, 0.5, v), "dimension", 1),
    "sweep_blowup": (lambda v: sweep_blowup(
        OffDiagHypothesis(1.0, 2.0), 0.5, 1, v, [4.0, 6.0, 8.0, 10.0]),
        "dimension", 1),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.inf, math.nan, 2.5])
@pytest.mark.parametrize("site", sorted(_INDEX_SITES))
def test_every_index_site_refuses_non_integers_alike(site, value):
    # a ValueError (the CLI's exit 2), never an OverflowError from int(inf)
    call, what, lo = _INDEX_SITES[site]
    with pytest.raises(ValueError, match=re.escape(
            f"{what} must be an integer >= {lo}, got {value}")):
        call(value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda: davies_gaffney_check(0.5, Ball([8.0], 0.125), 1023),
    lambda: offdiag_lhs_log(0.5, 2.0, make_maximal_admissible_ball([8.0]),
                            1023),
    lambda: sweep_blowup(OffDiagHypothesis(1.0, 2.0), 0.5, 1023, 1,
                         [4.0, 6.0, 8.0, 10.0]),
], ids=["davies_gaffney_check", "offdiag_lhs_log", "sweep_blowup"])
def test_annulus_index_past_float_range_is_refused_by_the_annulus(call):
    # the one 2^k guard: C_k(B) is built before any 2.0 ** k
    with pytest.raises(ValueError, match=re.escape(
            "annulus index k = 1023 is too large")):
        call()


def _refuse_pass(*args, **kwargs):
    raise AssertionError("a quadrature pass ran")


_BAD_RADII = [(0.0, math.nan), (0.0, math.inf), (0.0, -0.5), (0.0, 0.0)]
_BAD_SHELLS = [(math.nan, 1.0), (-0.5, 1.0), (1.0, 0.5), (0.5, 0.5),
               (0.5, math.inf), (0.5, math.nan)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("site, radii", [
    pytest.param(site, radii, id=f"{site}-{radii[0]}-{radii[1]}")
    for site, cases in (("Ball", _BAD_RADII), ("log_gamma_ball", _BAD_RADII),
                        ("integrate_axial_log", _BAD_RADII + _BAD_SHELLS))
    for radii in cases
])
def test_every_region_site_refuses_bad_radii_before_a_pass(
        monkeypatch, site, radii, n):
    # NaN, infinite, inverted or equal radii: a ValueError before any node
    # set is built, not a run of doublings ending in exit 3
    for module, name in ((quadrature, "_radial_rule"),
                         (measure, "_log_ball_slices"),
                         (measure, "log_gamma_interval")):
        monkeypatch.setattr(module, name, _refuse_pass)
    r_inner, r_outer = radii
    call = {
        "Ball": lambda: Ball(np.r_[8.0, np.zeros(n - 1)], r_outer),
        "log_gamma_ball": lambda: measure.log_gamma_ball(8.0, r_outer, n),
        "integrate_axial_log": lambda: quadrature.integrate_axial_log(
            lambda x, z: np.zeros(x.shape), 8.0, r_inner, r_outer, n),
    }[site]
    with pytest.raises(ValueError,
                       match=re.escape("radii must satisfy 0 <= inner < "
                                       "outer < inf")):
        call()
