"""Balls, annuli and admissible-scale geometry in R^n.

The Gaussian measure is doubling only at the admissible scale
r <= min(1, |c|^{-1}); the testing sets of the negative experiments are
maximal admissible balls together with their dyadic annuli.  Balls and
annuli share one shape: ``center``, ``center_norm``, ``inner_radius``
and ``outer_radius``, the inner radius of a ball being 0.  Each input
invariant is checked once, here: ``_as_index`` (an integer index: k, a
dimension, an order), ``_check_shape`` (center distances and radii) and,
in ``Annulus``, that 2^(k+1) is a finite float.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Point",
    "Ball",
    "Annulus",
    "FullSpace",
    "as_point",
    "admissible_radius",
    "make_maximal_admissible_ball",
    "is_admissible",
    "set_distance",
]

Point = np.ndarray  # 1-d float64 array of shape (n,), n >= 1


def as_point(coords) -> Point:
    """Coerce to a finite 1-d float64 array with at least one coordinate."""
    x = np.asarray(coords, dtype=float)
    x = x.reshape(1) if x.ndim == 0 else x
    if x.ndim != 1 or x.size < 1:
        raise ValueError("a point is a 1-d array with at least one coordinate")
    if not np.isfinite(x).all():
        raise ValueError("point coordinates must be finite")
    return x


def _as_index(value, lo: int, what: str) -> int:
    """value as an int when it is an integer >= lo (integral floats too)."""
    if not (lo <= value < math.inf and value % 1 == 0):  # NaN fails too
        raise ValueError(f"{what} must be an integer >= {lo}, got {value}")
    return int(value)


def _check_shape(center_norms, r_inner, r_outer) -> None:
    """Refuse a NaN center distance, or radii without 0 <= r_inner <
    r_outer < inf, elementwise; floats stay out of numpy, which costs more."""
    nan = center_norms != center_norms
    ok = (0.0 <= r_inner) & (r_inner < r_outer) & (r_outer < math.inf)
    if not (isinstance(nan, bool) and isinstance(ok, bool)):
        nan, ok = np.any(nan), np.all(ok)
    if nan:  # a NaN never converges: every doubling would run
        raise ValueError("center distances must not be NaN")
    if not ok:
        raise ValueError("radii must satisfy 0 <= inner < outer < inf")


class _Region:
    """A ball or annulus, seen as its ``center`` and the bounds
    ``inner_radius`` and ``outer_radius`` on |x - center|."""

    @property
    def dim(self) -> int:
        return self.center.size

    @property
    def center_norm(self) -> float:
        return float(np.linalg.norm(self.center))


@dataclass(frozen=True, eq=False)
class Ball(_Region):
    """Euclidean ball B(center, radius) = {x : |x - center| < radius}."""

    center: Point
    radius: float
    inner_radius = 0.0  # not a field: a ball is the region with no hole

    def __post_init__(self):
        object.__setattr__(self, "center", as_point(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        _check_shape(0.0, 0.0, self.radius)  # as_point checked the center

    @property
    def outer_radius(self) -> float:
        return self.radius

    def expand(self, factor: float) -> "Ball":
        """The dilation factor*B (same center, scaled radius)."""
        return Ball(self.center, factor * self.radius)

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


@dataclass(frozen=True, eq=False)
class Annulus(_Region):
    """C_k(B): the ball 2B for k = 0; the shell 2^(k+1)B minus 2^k B for k >= 1."""

    base: Ball
    k: int

    def __post_init__(self):
        if not isinstance(self.base, Ball):
            raise TypeError("annulus base must be a Ball")
        object.__setattr__(self, "k", _as_index(self.k, 0, "annulus index k"))
        if self.k + 1 >= sys.float_info.max_exp:
            raise ValueError(f"annulus index k = {self.k} is too large: the "
                             f"outer radius 2^(k+1) r_B overflows a float")

    @property
    def center(self) -> Point:
        return self.base.center

    @property
    def inner_radius(self) -> float:
        return 0.0 if self.k == 0 else 2.0 ** self.k * self.base.radius

    @property
    def outer_radius(self) -> float:
        return 2.0 ** (self.k + 1) * self.base.radius

    def __repr__(self):
        return f"Annulus(base={self.base!r}, k={self.k})"


@dataclass(frozen=True)
class FullSpace:
    """All of R^n, as an integration domain."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_index(self.dim, 1, "dimension"))


def admissible_radius(center) -> float:
    """The admissible scale min(1, |c|^{-1}) at a point (1 at the origin)."""
    c = as_point(center)
    norm = float(np.linalg.norm(c))
    return 1.0 if norm <= 1.0 else 1.0 / norm


def make_maximal_admissible_ball(center) -> Ball:
    """The ball at ``center`` whose radius saturates the admissible scale."""
    return Ball(center, admissible_radius(center))


def is_admissible(ball: Ball) -> bool:
    """Whether r_B <= min(1, |c_B|^{-1}) up to a relative slack of 1e-12."""
    return ball.radius <= admissible_radius(ball.center) * (1.0 + 1e-12)


def set_distance(ball: Ball, annulus: Annulus) -> float:
    """Euclidean gap between B and C_k(B) on the same base ball.

    The infimum is 0 for k = 0 (C_0 = 2B contains B) and exactly
    (2^k - 1) r_B for k >= 1: the nearest annulus point sits at radius
    2^k r_B from the center while B reaches out to r_B.
    """
    base = annulus.base
    if not (base.radius == ball.radius
            and np.array_equal(base.center, ball.center)):
        raise ValueError("annulus must be built on the given ball")
    return max(annulus.inner_radius - ball.radius, 0.0)
