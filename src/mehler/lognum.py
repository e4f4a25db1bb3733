"""Log-domain scalars and stable log-space reductions.

The off-diagonal experiments produce values scaling like exp(+-|c|^2)
with |c| up to ~30, i.e. natural-log magnitudes near 1000, far outside
float64's linear range.  Every measure, kernel value and norm the
library computes is a nonnegative magnitude, so it is carried as its
natural log and accumulated with log-sum-exp; ``LogNumber`` wraps one
such log magnitude for the public API and the CLI, with ``-inf`` for
zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["LogNumber", "log_sum_weighted"]


@dataclass(frozen=True)
class LogNumber:
    """A nonnegative number stored as its natural log; ``-inf`` is zero.

    Build one as ``LogNumber(log)``; ``LogNumber(0.0)`` is one.  Sums
    stay in the log domain through ``log_sum_weighted``.
    """

    log_magnitude: float

    def __post_init__(self):
        object.__setattr__(self, "log_magnitude", float(self.log_magnitude))
        if math.isnan(self.log_magnitude):
            raise ValueError("log_magnitude must not be NaN")

    def to_float(self) -> float:
        """Linear value; saturates to inf above log magnitude ~709.8."""
        with np.errstate(over="ignore"):
            return float(np.exp(self.log_magnitude))

    def is_finite_float(self) -> bool:
        """True when the linear value is representable in float64."""
        return self.log_magnitude < 709.782712893384


def log_sum_weighted(log_values, log_weights=None, axis=None):
    """log(sum_i exp(log_values_i + log_weights_i)) for nonnegative terms.

    Safe for log magnitudes up to ~1700 and far beyond: the reduction
    shifts by the maximum before exponentiating.  With ``axis=None`` the
    sum runs over every entry and the result is a float; otherwise it
    runs along ``axis`` and the result is an array.  With ``axis=None``
    the maximum is checked in Python; along an axis only rows whose
    maximum is not finite take the guarded path.  A finite maximum makes
    the largest term exp(0) = 1, so no sum is 0; a maximum of -inf (all
    terms zero, or no terms at all), +inf or NaN is the result as is.
    The inputs are never written: along an axis with weights, the shift
    and exp run in place in the array ``log_values + log_weights`` that
    this call allocates.
    """
    a = np.asarray(log_values, dtype=float)
    if log_weights is not None:
        a = a + log_weights
    if axis is None:
        top = a.max(initial=-math.inf)
        return float(top + np.log(np.exp(a - top).sum())
                     if math.isfinite(top) else top)
    top = a.max(axis=axis, keepdims=True, initial=-math.inf)
    finite = np.isfinite(top)
    shift = top if finite.all() else np.where(finite, top, 0.0)
    terms = (np.exp(a - shift) if log_weights is None
             else np.exp(np.subtract(a, shift, out=a), out=a))
    if shift is top:
        out = top + np.log(terms.sum(axis, keepdims=True))
    else:
        with np.errstate(divide="ignore"):  # a row of zero terms: log 0
            out = shift + np.log(terms.sum(axis, keepdims=True))
    return out.squeeze(axis)
