"""Ball/annulus geometry, admissibility and set distances."""

import numpy as np
import pytest

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


def test_fullspace_validation():
    assert FullSpace(2).dim == 2
    with pytest.raises(ValueError):
        FullSpace(0)
