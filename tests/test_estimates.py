"""Closed-form estimate quantities: frozen values and algebraic identities."""

import ast
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mehler import selftest
from mehler.estimates import (
    OffDiagHypothesis,
    blowup_slope,
    davies_gaffney_bound,
    delta_exponent,
    failure_threshold,
    interpolated_bound_log,
    lemma_lower_bound_log,
    nelson_min_p,
)


def test_estimates_imports_only_geometry_and_lognum():
    # closed forms rest on the input checks and LogNumber, no quadrature
    source = Path(__file__).resolve().parent.parent / "src" / "mehler"
    tree = ast.parse((source / "estimates.py").read_text())
    local = {node.module for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert local == {"geometry", "lognum"}


def test_hypothesis_validation():
    OffDiagHypothesis(p=1.0, q=2.0)
    OffDiagHypothesis(p=1.5, q=3.0, theta=1.0, c=0.25)
    with pytest.raises(ValueError):
        OffDiagHypothesis(p=2.0, q=2.0)
    with pytest.raises(ValueError):
        OffDiagHypothesis(p=0.9, q=2.0)
    with pytest.raises(ValueError):
        OffDiagHypothesis(p=1.0, q=math.inf)
    with pytest.raises(ValueError):
        OffDiagHypothesis(p=1.0, q=2.0, theta=-0.1)
    with pytest.raises(ValueError):
        OffDiagHypothesis(p=1.0, q=2.0, c=0.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, inf\)"):
            OffDiagHypothesis(p=1.0, q=2.0, theta=bad)
        with pytest.raises(ValueError, match=r"c must lie in \(0, inf\)"):
            OffDiagHypothesis(p=1.0, q=2.0, c=bad)


class TestDaviesGaffneyBound:
    def test_frozen_value(self):
        assert davies_gaffney_bound(1.0, 2.0) == pytest.approx(
            0.06766764161830635, rel=1e-14)

    def test_decreasing_tail(self):
        vals = [davies_gaffney_bound(1.0, d) for d in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-20

    def test_scaling_identity(self):
        # bound(lam^2 t, lam d) = lam * bound(t, d)
        rng = np.random.default_rng(21)
        for _ in range(100):
            t = rng.uniform(0.1, 3.0)
            d = rng.uniform(0.1, 4.0)
            lam = rng.uniform(0.5, 3.0)
            lhs = davies_gaffney_bound(lam * lam * t, lam * d)
            rhs = lam * davies_gaffney_bound(t, d)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            davies_gaffney_bound(1.0, 0.0)


class TestNelsonThreshold:
    def test_limit_and_frozen_value(self):
        assert nelson_min_p(50.0) == pytest.approx(1.0, abs=1e-15)
        assert nelson_min_p(0.5) == pytest.approx(1.3678794411714423, rel=1e-15)

    def test_inverse_relation(self):
        # p > 1 + e^{-2t}  iff  t > (1/2) log(1/(p-1))
        rng = np.random.default_rng(23)
        for _ in range(200):
            p = rng.uniform(1.001, 1.999)
            t = 0.5 * math.log(1.0 / (p - 1.0))
            assert nelson_min_p(t) == pytest.approx(p, rel=1e-12)


    def test_target_exponent(self):
        # L^p -> L^q contraction holds from p = 1 + (q - 1) e^{-2t} on; q = 2
        # is the default, bit for bit
        for t in (0.05, 0.5, 2.0, 400.0):
            assert nelson_min_p(t, 2.0) == nelson_min_p(t)
            for q in (1.5, 3.0, 7.25):
                assert nelson_min_p(t, q) == 1.0 + (q - 1.0) * math.exp(-2 * t)
        for q in (1.0, 0.5, math.inf, math.nan):
            with pytest.raises(ValueError, match="1 < q < inf"):
                nelson_min_p(1.0, q)


class TestDeltaExponent:
    def test_vanishes_at_p2(self):
        for t in (0.1, 1.0, 3.0):
            assert delta_exponent(2.0, t) == 0.0

    def test_approaches_one_at_threshold(self):
        t = 1.0
        p = nelson_min_p(t) + 1e-9
        assert delta_exponent(p, t) > 0.999999

    def test_frozen_value(self):
        assert delta_exponent(1.5, 1.0) == pytest.approx(
            0.4376784284997772, rel=1e-12)

    def test_domain_errors(self):
        t = 1.0
        with pytest.raises(ValueError):
            delta_exponent(nelson_min_p(t), t)  # boundary excluded
        with pytest.raises(ValueError):
            delta_exponent(2.0 + 1e-12, t)
        with pytest.raises(ValueError):
            delta_exponent(1.05, 0.1)

    def test_range_property(self):
        selftest.check_delta_range(np.random.default_rng(27))


class TestInterpolatedBound:
    def test_reduces_to_l2_bound_at_p2(self):
        for t, d in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.3)):
            got = interpolated_bound_log(2.0, t, d).log_magnitude
            assert got == math.log(davies_gaffney_bound(t, d))

    def test_monotone_in_p_when_bound_below_one(self):
        t, d = 1.0, 2.0
        assert davies_gaffney_bound(t, d) < 1.0
        vals = [interpolated_bound_log(p, t, d).log_magnitude
                for p in (1.3, 1.5, 1.8, 2.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_composition_of_frozen_values(self):
        got = interpolated_bound_log(1.5, 1.0, 2.0).log_magnitude
        want = (1.0 - 0.4376784284997772) * math.log(0.06766764161830635)
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_domain_where_linear_bound_underflows(self):
        # (t/d) e^{-d^2/2t} is below the smallest normal float here, but
        # its log is representable
        for p, t, d in ((2.0, 0.5, 38.0), (1.99, 0.01, 4.0)):
            assert davies_gaffney_bound(t, d) < sys.float_info.min
            got = interpolated_bound_log(p, t, d).log_magnitude
            want = ((1.0 - delta_exponent(p, t))
                    * (math.log(t / d) - d * d / (2.0 * t)))
            assert got == pytest.approx(want, rel=1e-14)
        assert interpolated_bound_log(2.0, 0.5, 38.0).log_magnitude == \
            pytest.approx(-1448.3307333402863, rel=1e-14)


class TestFailureThreshold:
    def test_log3_for_p1_q2(self):
        assert failure_threshold(1.0, 2.0) == pytest.approx(
            math.log(3.0), abs=1e-12)

    def test_vanishes_as_p_approaches_q(self):
        assert 0.0 < failure_threshold(2.0, 2.0 + 1e-9) < 1e-8

    def test_always_positive(self):
        rng = np.random.default_rng(29)
        for _ in range(1000):
            p = rng.uniform(1.0, 5.0)
            q = p + rng.uniform(1e-9, 5.0)
            assert failure_threshold(p, q) > 0.0

    def test_equivalent_formulation(self):
        # t < threshold  iff  2/(e^t + 1) > 1 - (1/p - 1/q)
        rng = np.random.default_rng(31)
        for _ in range(2000):
            p = rng.uniform(1.0, 4.0)
            q = p + rng.uniform(1e-6, 4.0)
            t = rng.uniform(1e-6, 3.0)
            lhs = t < failure_threshold(p, q)
            rhs = 2.0 / (math.exp(t) + 1.0) > 1.0 - (1.0 / p - 1.0 / q)
            assert lhs == rhs

    def test_strictly_increasing_in_gap(self):
        samples = []
        rng = np.random.default_rng(33)
        for _ in range(500):
            p = rng.uniform(1.0, 4.0)
            q = p + rng.uniform(1e-6, 4.0)
            samples.append((1.0 / p - 1.0 / q, failure_threshold(p, q)))
        samples.sort()
        for (d1, t1), (d2, t2) in zip(samples, samples[1:]):
            if d2 > d1:
                assert t2 > t1

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            failure_threshold(2.0, 2.0)
        with pytest.raises(ValueError):
            failure_threshold(1.0, math.inf)


class TestBlowupSlope:
    def test_frozen_value(self):
        assert blowup_slope(1.0, 2.0, 0.5) == pytest.approx(
            0.2550813375962908, rel=1e-13)

    def test_zero_at_threshold(self):
        for p, q in ((1.0, 2.0), (1.5, 3.0), (2.0, 7.0)):
            t_star = failure_threshold(p, q)
            assert abs(blowup_slope(p, q, t_star)) < 1e-12

    def test_sign_matches_threshold(self):
        selftest.check_threshold_slope_signs(np.random.default_rng(35))

    def test_large_t_limit(self):
        # e^t overflows past t = 709.78; the slope is -1 + (1/p - 1/q)
        for t in (40.0, 709.0, 709.9, 800.0, 1e300):
            assert blowup_slope(1.0, 2.0, t) == -0.5


class TestLowerBound:
    def test_frozen_value(self):
        got = lemma_lower_bound_log(0.5, 2.0, 1, 8.0).log_magnitude
        assert got == pytest.approx(-50.79395670635714, rel=1e-13)

    def test_monotone_in_q(self):
        # both the |c|-power and the exponent coefficient increase with q
        vals = [lemma_lower_bound_log(0.5, q, 1, 8.0).log_magnitude
                for q in (1.5, 2.0, 4.0, 16.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_difference_algebra(self):
        # value(a) - value(b) = coef (a^2 - b^2) - n(1 + 1/q) log(a/b)
        t, q, n = 0.5, 2.0, 1
        a, b = 10.0, 4.0
        coef = 2.0 / (math.exp(t) + 1.0) - 1.0 - 1.0 / q
        got = (lemma_lower_bound_log(t, q, n, a).log_magnitude
               - lemma_lower_bound_log(t, q, n, b).log_magnitude)
        want = coef * (a * a - b * b) - n * (1.0 + 1.0 / q) * math.log(a / b)
        assert got == pytest.approx(want, rel=1e-12)

    def test_large_t_limit(self):
        # past t = 39 the exponent coefficient is -1 - 1/q exactly
        for t in (40.0, 720.0, 800.0):
            got = lemma_lower_bound_log(t, 2.0, 2, 8.0).log_magnitude
            assert got == -2 * 1.5 * math.log(8.0) + 64.0 * (-1.0 - 0.5)

    def test_rejects_small_center(self):
        with pytest.raises(ValueError):
            lemma_lower_bound_log(0.5, 2.0, 1, 1.5)
        with pytest.raises(ValueError):
            lemma_lower_bound_log(0.5, 1.0, 1, 8.0)
