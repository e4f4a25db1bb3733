"""LogNumber construction and log-space reduction tests."""

import math

import numpy as np
import pytest

from mehler.lognum import LogNumber, log_sum_weighted


def test_zero_representation():
    z = LogNumber.zero()
    assert z.sign == 0
    assert z.log_magnitude == -math.inf
    assert z.to_float() == 0.0
    assert LogNumber.from_log(-math.inf) == z


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        LogNumber(2, 0.0)
    with pytest.raises(ValueError):
        LogNumber(0, 0.0)  # zero must carry -inf
    with pytest.raises(ValueError):
        LogNumber(1, -math.inf)  # -inf must carry sign 0
    with pytest.raises(ValueError):
        LogNumber(1, math.nan)


def test_huge_magnitudes_never_overflow():
    a = LogNumber.from_log(1700.0)
    assert not a.is_finite_float()
    assert a.to_float() == math.inf  # saturates, no exception


def test_log_sum_weighted_extreme_inputs():
    rng = np.random.default_rng(17)
    mags = rng.uniform(1500.0, 1700.0, size=1000)
    total = log_sum_weighted(mags)
    assert math.isfinite(total)
    shifted = mags - mags.max()
    expected = mags.max() + math.log(np.sum(np.exp(shifted)))
    assert total == pytest.approx(expected, rel=1e-13)
    assert log_sum_weighted([]) == -math.inf
