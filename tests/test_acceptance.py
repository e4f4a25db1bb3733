"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] name: PASS/FAIL` line.  The targets
are inequalities and closed-form-predicted quantities, never absolute
constants: slope fits, sign patterns, conservation laws and multi-route
agreement.  Criteria 1-4, 9 and 10 run the matching `mehler.selftest`
check, the one definition of each invariant, and add their own limits.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mehler import selftest
from mehler.estimates import (
    OffDiagHypothesis,
    failure_threshold,
    lemma_lower_bound_log,
    nelson_min_p,
)
from mehler.experiments import (
    FAILS_RESTRICTED,
    HOLDS_UNRESTRICTED,
    UNKNOWN,
    davies_gaffney_check,
    fit_affine,
    hypercontractivity_check,
    offdiag_lhs_log,
    regime_map,
    sweep_blowup,
)
from mehler.geometry import make_maximal_admissible_ball


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] {name}: FAIL")
        raise
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_kernel_conservation():
    with criterion(1, "kernel conservation"):
        start = time.perf_counter()
        selftest.check_kernel_conservation(np.random.default_rng(0))
        assert time.perf_counter() - start < 5.0


def test_criterion_2_semigroup_property():
    with criterion(2, "semigroup composition"):
        start = time.perf_counter()
        selftest.check_kernel_semigroup(np.random.default_rng(0))
        assert time.perf_counter() - start < 10.0


def test_criterion_3_oracle_agreement():
    with criterion(3, "kernel/translation/erf route agreement"):
        selftest.check_kernel_oracle_agreement(np.random.default_rng(42))


def test_criterion_4_hermite_eigenfunctions():
    with criterion(4, "Hermite eigenfunction decay"):
        selftest.check_kernel_eigenfunctions(np.random.default_rng(0))


def test_criterion_5_nelson_sharpness():
    with criterion(5, "hypercontractivity sharpness"):
        t_grid = (0.2, 0.4, 0.7, 1.2, 2.0)
        p_grid = (1.05, 1.2, 1.4, 1.7, 2.0)
        lam_grid = (0.5, 1.0, 2.0)
        for t in t_grid:
            threshold = nelson_min_p(t)
            for p in p_grid:
                for lam in lam_grid:
                    res = hypercontractivity_check(t, p, lam)
                    want = math.exp(lam * lam * (1.0 + math.exp(-2 * t) - p) / 4.0)
                    assert abs(res.ratio_numeric / want - 1.0) <= 1e-6
                    if p >= threshold:
                        assert res.ratio_numeric <= 1.0 + 1e-9
                    else:
                        assert res.ratio_numeric > 1.0


def test_criterion_6_blowup_reproduction():
    with criterion(6, "implied-constant blow-up slope"):
        start = time.perf_counter()
        hyp = OffDiagHypothesis(p=1.0, q=2.0)
        grid = [4.0, 6.0, 8.0, 10.0, 12.0]
        below = sweep_blowup(hyp, 0.5, 1, 1, grid)
        assert below.predicted_slope == pytest.approx(0.25508, abs=5e-6)
        assert below.slope_rel_error <= 0.15
        above = sweep_blowup(hyp, 1.5, 1, 1, grid)
        assert above.fitted_slope < 0.0
        assert time.perf_counter() - start < 60.0


def test_criterion_7_lower_bound_stability():
    with criterion(7, "closed-form lower bound with stable constant"):
        grid = [4.0, 6.0, 8.0, 10.0, 12.0]
        gaps = []
        for c in grid:
            ball = make_maximal_admissible_ball([c])
            lhs = offdiag_lhs_log(0.5, 2.0, ball, 1).log_magnitude
            bound = lemma_lower_bound_log(0.5, 2.0, 1, c).log_magnitude
            gaps.append(lhs - bound)
        assert min(gaps) >= gaps[-1] - 2.0


def test_criterion_8_davies_gaffney_consistency():
    with criterion(8, "L2 off-diagonal ratio sweep-stable"):
        grid = [4.0, 6.0, 8.0, 10.0, 12.0]
        for t in (0.5, 1.0):
            for k in (1, 2, 3):
                ratios = []
                for c in grid:
                    res = davies_gaffney_check(
                        t, make_maximal_admissible_ball([c]), k)
                    ratios.append(res.lhs_log - res.rhs_log_with_C1)
                assert all(math.isfinite(r) for r in ratios)
                slope, _ = fit_affine(np.asarray(grid) ** 2, ratios)
                assert slope <= 0.01, (t, k, slope)


def test_criterion_9_threshold_algebra():
    with criterion(9, "threshold and slope algebra"):
        rng = np.random.default_rng(42)
        selftest.check_threshold_slope_signs(rng)
        selftest.check_delta_range(rng)
        assert abs(failure_threshold(1.0, 2.0) - math.log(3.0)) <= 1e-12


def test_criterion_10_regime_map_consistency():
    with criterion(10, "regime map partition"):
        selftest.check_regime_partition(np.random.default_rng(0))
        result = regime_map(np.linspace(1.05, 1.95, 10), [2.0],
                            np.linspace(0.1, 2.0, 20))
        for cell in result.cells:
            assert cell.regime in (FAILS_RESTRICTED, HOLDS_UNRESTRICTED,
                                   UNKNOWN)
        target = [c for c in result.cells
                  if abs(c.p - 1.05) < 1e-9 and abs(c.t - 1.2) < 1e-9]
        assert len(target) == 1
        assert target[0].regime == UNKNOWN
