"""LogNumber construction and log-space reduction tests."""

import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

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


def _reference_log_sum(log_values, log_weights=None, axis=None):
    # the formula the scalar path replaced, kept as the bitwise reference:
    # every row shifted by its maximum, a maximum that is not finite by 0
    # (over="ignore" only silences exp of a finite term next to +inf)
    a = np.asarray(log_values, dtype=float)
    if log_weights is not None:
        a = a + np.asarray(log_weights, dtype=float)
    top = np.max(a, axis=axis, keepdims=True, initial=-math.inf)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = shift + np.log(np.sum(np.exp(a - shift), axis=axis,
                                    keepdims=True))
    return float(out.reshape(())) if axis is None else np.squeeze(out, axis)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert (got[~nan].view(np.int64) == want[~nan].view(np.int64)).all()


_INF, _NAN = math.inf, math.nan
# each case is a matrix of rows: an edge case mixed with finite rows
_EDGE_ROWS = {
    "all -inf row": [[-_INF, -_INF, -_INF], [0.5, -_INF, 1.0]],
    "+inf row": [[_INF, 1.0, 2.0], [1.0, 2.0, 3.0]],
    "NaN row": [[_NAN, 1.0, 2.0], [1.0, 2.0, 3.0]],
    "one-term rows": [[3.0], [-_INF], [-2.5], [0.0]],
    "near +900": np.random.default_rng(1).uniform(895.0, 905.0, (5, 32)),
    "near -900": np.random.default_rng(2).uniform(-905.0, -895.0, (5, 32)),
    "mixed signs and zeros": [[-900.0, 900.0, -_INF], [0.0, -0.0, -1e-300]],
}


@pytest.mark.parametrize("name", sorted(_EDGE_ROWS))
@pytest.mark.parametrize("weighted", [False, True])
def test_log_sum_weighted_edge_cases_match_the_reference_bits(name, weighted):
    rows = np.asarray(_EDGE_ROWS[name], dtype=float)
    weights = (np.linspace(-1.0, 1.0, rows.shape[-1]) if weighted else None)
    # every row alone and the whole matrix take the scalar path ...
    for row in [*rows, rows]:
        got = log_sum_weighted(row, weights)
        assert type(got) is float
        _assert_same_bits(got, _reference_log_sum(row, weights))
    # ... and the rows at once the axis=-1 path, the columns of the
    # transpose (slabs whose maximum is -inf, +inf or NaN) the axis=0 one
    got = log_sum_weighted(rows, weights, axis=-1)
    assert got.shape == rows.shape[:-1]
    _assert_same_bits(got, _reference_log_sum(rows, weights, axis=-1))
    cols = rows.T.copy()
    col_weights = None if weights is None else weights[:, None]
    got = log_sum_weighted(cols, col_weights, axis=0)
    assert got.shape == cols.shape[1:]
    _assert_same_bits(got, _reference_log_sum(cols, col_weights, axis=0))


@pytest.mark.parametrize("axis", [None, -1, 0])
@pytest.mark.parametrize("weighted", [False, True])
def test_log_sum_weighted_never_writes_its_inputs(axis, weighted):
    rng = np.random.default_rng(5)
    values = rng.normal(scale=50.0, size=(6, 4, 5))
    values[0, 0] = -_INF  # a slab of zeros along axis 0 and -1
    values[:, 1, 2] = -_INF
    weights = rng.normal(size=(6, 1, 1) if axis == 0 else 5)
    want = _reference_log_sum(values, weights if weighted else None,
                              axis=axis)
    kept = values.copy(), weights.copy()
    for a in (values, weights):
        a.flags.writeable = False  # a write raises ValueError
    got = log_sum_weighted(values, weights if weighted else None, axis=axis)
    _assert_same_bits(got, want)
    _assert_same_bits(values, kept[0])
    _assert_same_bits(weights, kept[1])


@pytest.mark.parametrize("value", [3.0, np.float64(1.0), -0.0, -_INF, _INF,
                                   _NAN, np.array(2.5)])
@pytest.mark.parametrize("weight", [None, 0.5, np.array(-1.0)])
def test_log_sum_weighted_of_one_scalar_term(value, weight):
    # 0-d input sums one term: a float, with the bits of the formula
    got = log_sum_weighted(value, weight)
    assert type(got) is float
    _assert_same_bits(got, _reference_log_sum(value, weight))


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 4)])
@pytest.mark.parametrize("axis", [None, -1, 0])
def test_log_sum_weighted_of_nothing_is_zero(shape, axis):
    # an empty batch reduces like any other: to -inf (a sum of no terms)
    # at every entry of the reduced shape, which may itself be empty
    values = np.empty(shape)
    want = np.full(np.sum(values, axis=axis).shape, -math.inf)
    for weights in (None, np.zeros(shape[-1:])):
        got = log_sum_weighted(values, weights, axis=axis)
        assert type(got) is (float if axis is None else np.ndarray)
        _assert_same_bits(got, want)
        _assert_same_bits(_reference_log_sum(values, weights, axis=axis),
                          want)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_log_sum_weighted_matches_scipy_logsumexp(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=9))
    values = data.draw(hnp.arrays(
        float, shape, elements=st.floats(-1000.0, 1000.0)))
    zero = data.draw(hnp.arrays(bool, shape))
    a = np.where(zero, -math.inf, values)
    # rounding in top + log(sum) is relative to the largest magnitude
    atol = 1e-13 * max(1.0, float(np.abs(values).max()))
    weights = data.draw(hnp.arrays(
        float, shape[:1] + (1,) * (len(shape) - 1),
        elements=st.floats(-10.0, 10.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # all-zero rows: log(0) in scipy
        want = (logsumexp(a), logsumexp(a, axis=-1), logsumexp(a, axis=0),
                logsumexp(a + weights, axis=0))
    got = (log_sum_weighted(a), log_sum_weighted(a, axis=-1),
           log_sum_weighted(a, axis=0),
           log_sum_weighted(a, weights, axis=0))
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_allclose(g, w, rtol=1e-13, atol=atol)
    np.testing.assert_allclose(got[3], want[3], rtol=1e-13,
                               atol=atol + 1e-13 * 10.0)  # |weights| <= 10
    _assert_same_bits(got[0], _reference_log_sum(a))
    _assert_same_bits(got[1], _reference_log_sum(a, axis=-1))
    _assert_same_bits(got[2], _reference_log_sum(a, axis=0))
    _assert_same_bits(got[3], _reference_log_sum(a, weights, axis=0))
