"""Log-domain scalars and stable log-space reductions.

The off-diagonal experiments produce values scaling like exp(+-|c|^2)
with |c| up to ~30, i.e. natural-log magnitudes near 1000, far outside
float64's linear range.  Every measure, kernel value and norm the
library computes is a nonnegative magnitude, so it is carried as its
natural log and accumulated with log-sum-exp; ``LogNumber`` wraps one
such log magnitude for the public API and the CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogNumber", "log_sum_weighted"]


@dataclass(frozen=True)
class LogNumber:
    """A real number stored as a sign and the natural log of its magnitude.

    ``sign`` is +1, 0 or -1, and ``log_magnitude`` is ``-inf`` exactly
    when ``sign`` is 0.  The library builds only nonnegative values
    (``from_log``, ``zero``, ``one``); sums stay in the log domain
    through ``log_sum_weighted``.
    """

    sign: int
    log_magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "sign", int(self.sign))
        object.__setattr__(self, "log_magnitude", float(self.log_magnitude))
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if math.isnan(self.log_magnitude):
            raise ValueError("log_magnitude must not be NaN")
        if self.sign == 0 and self.log_magnitude != -math.inf:
            raise ValueError("a zero LogNumber requires log_magnitude == -inf")
        if self.sign != 0 and self.log_magnitude == -math.inf:
            raise ValueError("log_magnitude == -inf requires sign == 0")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_log(cls, log_magnitude: float) -> "LogNumber":
        """Build a nonnegative value from its log; ``-inf`` is zero."""
        lm = float(log_magnitude)
        if lm == -math.inf:
            return cls(0, -math.inf)
        return cls(1, lm)

    @classmethod
    def zero(cls) -> "LogNumber":
        return cls(0, -math.inf)

    @classmethod
    def one(cls) -> "LogNumber":
        return cls(1, 0.0)

    # -- conversions ---------------------------------------------------

    def to_float(self) -> float:
        """Linear value; saturates to +-inf above log magnitude ~709.8."""
        if self.sign == 0:
            return 0.0
        with np.errstate(over="ignore"):
            return float(self.sign * np.exp(self.log_magnitude))

    def is_finite_float(self) -> bool:
        """True when the linear value is representable in float64."""
        return self.sign == 0 or self.log_magnitude < 709.782712893384


def log_sum_weighted(log_values, log_weights=None, axis=None):
    """log(sum_i exp(log_values_i + log_weights_i)) for nonnegative terms.

    Safe for log magnitudes up to ~1700 and far beyond: the reduction
    shifts by the maximum before exponentiating.  With ``axis=None`` the
    sum runs over every entry and the result is a float; otherwise it
    runs along ``axis`` and the result is an array.
    """
    a = np.asarray(log_values, dtype=float)
    if log_weights is not None:
        a = a + np.asarray(log_weights, dtype=float)
    if a.size == 0:
        return -math.inf
    top = np.max(a, axis=axis, keepdims=True)
    # a maximum of -inf (all terms zero), +inf or NaN is the result as is
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        out = shift + np.log(np.sum(np.exp(a - shift), axis=axis,
                                    keepdims=True))
    return float(out.reshape(())) if axis is None else np.squeeze(out, axis)
