"""LogNumber construction and log-space reduction tests."""

import math
import warnings

import numpy as np
import pytest

from mehler.lognum import LogNumber, log_sum_weighted


def test_zero_representation():
    z = LogNumber(-math.inf)
    assert z.log_magnitude == -math.inf
    assert z.to_float() == 0.0
    assert z.is_finite_float()


def test_invalid_construction_rejected():
    with pytest.raises(ValueError):
        LogNumber(math.nan)


def test_huge_magnitudes_never_overflow():
    a = LogNumber(1700.0)
    assert not a.is_finite_float()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert a.to_float() == math.inf  # saturates, no exception or warning


def test_equal_logs_are_equal_values():
    assert LogNumber(2.5) == LogNumber(np.float64(2.5))
    assert LogNumber(-math.inf) == LogNumber(-math.inf)
    assert LogNumber(0.0).to_float() == 1.0


def test_log_sum_weighted_extreme_inputs():
    rng = np.random.default_rng(17)
    mags = rng.uniform(1500.0, 1700.0, size=1000)
    total = log_sum_weighted(mags)
    assert math.isfinite(total)
    shifted = mags - mags.max()
    expected = mags.max() + math.log(np.sum(np.exp(shifted)))
    assert total == pytest.approx(expected, rel=1e-13)
    assert log_sum_weighted([]) == -math.inf
