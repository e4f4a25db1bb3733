"""Signed log-domain scalars and stable log-space reductions.

The off-diagonal experiments produce values scaling like exp(+-|c|^2)
with |c| up to ~30, i.e. natural-log magnitudes near 1000, far outside
float64's linear range.  Measures, kernels and norms are therefore
carried as (sign, log|value|) pairs and accumulated with log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogNumber", "log_diff_exp", "log_sum_weighted"]


@dataclass(frozen=True)
class LogNumber:
    """A real number stored as a sign and the natural log of its magnitude.

    ``sign`` is +1, 0 or -1, and ``log_magnitude`` is ``-inf`` exactly
    when ``sign`` is 0.  Arithmetic never leaves the log domain, so
    products, powers and same-sign additions are exact in scale even for
    log magnitudes around 1700 and beyond.
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
    def from_log(cls, log_magnitude: float, sign: int = 1) -> "LogNumber":
        """Build from a log magnitude; ``-inf`` collapses to zero."""
        lm = float(log_magnitude)
        if lm == -math.inf:
            return cls(0, -math.inf)
        return cls(sign, lm)

    @classmethod
    def from_float(cls, value: float) -> "LogNumber":
        v = float(value)
        if v == 0.0:
            return cls(0, -math.inf)
        return cls(1 if v > 0 else -1, math.log(abs(v)))

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

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other: "LogNumber") -> "LogNumber":
        sign = self.sign * other.sign
        if sign == 0:
            return LogNumber.zero()
        return LogNumber(sign, self.log_magnitude + other.log_magnitude)

    def __truediv__(self, other: "LogNumber") -> "LogNumber":
        if other.sign == 0:
            raise ZeroDivisionError("division by a zero LogNumber")
        if self.sign == 0:
            return LogNumber.zero()
        return LogNumber(self.sign * other.sign,
                         self.log_magnitude - other.log_magnitude)

    def __pow__(self, exponent: float) -> "LogNumber":
        e = float(exponent)
        if self.sign < 0:
            raise ValueError("powers are defined for nonnegative LogNumbers only")
        if self.sign == 0:
            if e > 0:
                return LogNumber.zero()
            if e == 0:
                return LogNumber.one()
            raise ZeroDivisionError("0 to a negative power")
        return LogNumber(1, self.log_magnitude * e)

    def __neg__(self) -> "LogNumber":
        return LogNumber(-self.sign, self.log_magnitude)

    def __abs__(self) -> "LogNumber":
        return LogNumber(abs(self.sign), self.log_magnitude)

    def __add__(self, other: "LogNumber") -> "LogNumber":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return LogNumber(self.sign,
                             float(np.logaddexp(self.log_magnitude,
                                                other.log_magnitude)))
        if self.log_magnitude == other.log_magnitude:
            return LogNumber.zero()
        big, small = ((self, other)
                      if self.log_magnitude > other.log_magnitude
                      else (other, self))
        mag = log_diff_exp(big.log_magnitude, small.log_magnitude)
        return LogNumber(big.sign, mag)

    def __sub__(self, other: "LogNumber") -> "LogNumber":
        return self + (-other)

    # -- comparisons (by represented value) -----------------------------

    def _cmp(self, other: "LogNumber") -> int:
        if self.sign != other.sign:
            return -1 if self.sign < other.sign else 1
        if self.sign == 0 or self.log_magnitude == other.log_magnitude:
            return 0
        lt = self.log_magnitude < other.log_magnitude
        if self.sign > 0:
            return -1 if lt else 1
        return 1 if lt else -1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def rel_diff(self, other: "LogNumber") -> float:
        """|self/other - 1|; ``other`` must be nonzero."""
        if other.sign == 0:
            raise ZeroDivisionError("relative difference against zero")
        if self.sign == 0:
            return 1.0
        d = self.log_magnitude - other.log_magnitude
        if self.sign == other.sign:
            with np.errstate(over="ignore"):
                return float(abs(np.expm1(d)))
        with np.errstate(over="ignore"):
            return float(1.0 + np.exp(d))


def log_diff_exp(a: float, b: float) -> float:
    """log(e^a - e^b) for a >= b, stable when the two nearly cancel."""
    if b > a:
        raise ValueError("log_diff_exp requires a >= b")
    if a == b:
        return -math.inf
    if b == -math.inf:
        return a
    return a + math.log(-math.expm1(b - a))


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
