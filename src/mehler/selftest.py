"""Built-in invariant suite, runnable without pytest.

Each check mirrors one of the library's documented invariants: measure
monotonicity and additivity, kernel symmetry/conservation/semigroup
composition, quadrature exactness and overflow safety, threshold
algebra, sweep determinism and regime-map consistency.  The CLI
``selftest`` subcommand runs them all and reports one line per check;
the test suite calls the same functions, so each invariant is written
once.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy.special import erf, eval_hermite

from .estimates import OffDiagHypothesis, blowup_slope, davies_gaffney_bound, \
    delta_exponent, failure_threshold, interpolated_bound_log, nelson_min_p
from .experiments import FAILS_RESTRICTED, fit_affine, \
    hypercontractivity_check, regime_map, sweep_blowup
from .geometry import Annulus, Ball, FullSpace, make_maximal_admissible_ball, set_distance
from .kernel import apply_indicator_closed_log, apply_indicator_log, \
    apply_via_translation, mehler_log_values
from .lognum import log_sum_weighted
from .measure import gamma_log, log_gamma_interval
from .quadrature import QuadratureSpec, _fullspace_nodes, integrate_gamma_log

__all__ = ["run_selftest", "CHECKS"]


def _assert(cond, msg):
    if not cond:
        raise AssertionError(msg)


# -- geometry / measure -------------------------------------------------

def check_measure_monotone(rng):
    """gamma is monotone under ball inclusion (nested balls, n = 1..6)."""
    for n in range(1, 7):
        center = rng.uniform(-2, 2, size=n)
        radii = np.sort(rng.uniform(0.2, 2.5, size=4))
        vals = [gamma_log(Ball(center, r)).log_magnitude for r in radii]
        _assert(all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])),
                f"monotonicity violated in n={n}: {vals}")


def check_measure_additive(rng):
    """gamma(2^{k+1} B) = gamma(2^k B) + gamma(C_k(B)), k = 1..4, n = 1..4."""
    for n in range(1, 5):
        ball = Ball(np.r_[1.3, np.zeros(n - 1)], 0.35)
        for k in range(1, 5):
            inner = gamma_log(ball.expand(2.0 ** k)).to_float()
            outer = gamma_log(ball.expand(2.0 ** (k + 1))).to_float()
            ann = gamma_log(Annulus(ball, k)).to_float()
            tol = 2.0 * QuadratureSpec().tol * outer
            _assert(abs(outer - (inner + ann)) <= tol + 1e-15,
                    f"additivity violated at n={n}, k={k}")


def check_measure_erf_oracle(rng):
    """Interval measures match (erf(b) - erf(a))/2 to 1e-10 relative."""
    for _ in range(200):
        a = rng.uniform(-2.5, 2.4)
        b = a + rng.uniform(0.1, 2.0)
        got = log_gamma_interval(a, b)
        want = 0.5 * (erf(b) - erf(a))
        _assert(abs(math.exp(got) / want - 1.0) <= 1e-10,
                f"erf oracle mismatch on [{a}, {b}]")


def check_distance_increasing(rng):
    """set_distance(B, C_k(B)) strictly increases in k >= 1."""
    ball = make_maximal_admissible_ball([8.0])
    dists = [set_distance(ball, Annulus(ball, k)) for k in range(1, 7)]
    _assert(all(a < b for a, b in zip(dists, dists[1:])),
            f"distances not increasing: {dists}")


# -- kernel -------------------------------------------------------------

def check_kernel_symmetry(rng):
    """mehler_log(t, x, y) == mehler_log(t, y, x) bit for bit."""
    for n in (1, 2, 3):
        x = rng.uniform(-3, 3, size=n)
        y = rng.uniform(-3, 3, size=n)
        t = rng.uniform(0.05, 4.0)
        _assert(float(mehler_log_values(t, x, y)) == float(mehler_log_values(t, y, x)),
                f"kernel not bitwise symmetric at n={n}")


def check_kernel_conservation(rng):
    """integral M_t(x, .) dgamma = 1 within 1e-8 relative."""
    for n in (1, 2):
        for t in (0.1, 1.0, 5.0):
            for xnorm in (0.0, 1.5, 3.0):
                x = np.r_[xnorm, np.zeros(n - 1)]
                val = integrate_gamma_log(
                    lambda pts: mehler_log_values(t, pts, x[None, :]),
                    FullSpace(n)).log_magnitude
                _assert(abs(math.expm1(val)) <= 1e-8,
                        f"conservation off at n={n}, t={t}, |x|={xnorm}: {val}")


def check_kernel_semigroup(rng):
    """integral M_t(x,z) M_s(z,y) dgamma(z) = M_{t+s}(x,y) within 1e-6."""
    for t in (0.3, 1.0):
        for s in (0.3, 1.0):
            for x in (-2.0, 0.5, 2.0):
                for y in (-1.5, 0.0, 2.0):
                    xv = np.array([x])
                    yv = np.array([y])
                    comp = integrate_gamma_log(
                        lambda pts: (mehler_log_values(t, pts, xv[None, :])
                                     + mehler_log_values(s, pts, yv[None, :])),
                        FullSpace(1)).log_magnitude
                    direct = float(mehler_log_values(t + s, xv, yv))
                    _assert(abs(math.expm1(comp - direct)) <= 1e-6,
                            f"semigroup residual at t={t}, s={s}, x={x}, y={y}")


def check_kernel_oracle_agreement(rng):
    """Kernel-form, translation-form and erf closed form agree to 1e-8."""
    tight = QuadratureSpec(tol=1e-10)
    for _ in range(20):
        t = rng.uniform(0.2, 2.0)
        a = rng.uniform(-2.5, 1.5)
        b = a + rng.uniform(0.4, 1.5)
        y = rng.uniform(a - 1.0, b + 1.0)
        ball = Ball([0.5 * (a + b)], 0.5 * (b - a))
        kern = apply_indicator_log(t, ball, [y], tight).log_magnitude
        closed = apply_indicator_closed_log(t, a, b, y)

        def f(pts):
            z = pts[:, 0]
            return ((z >= a) & (z < b)).astype(float)

        trans = apply_via_translation(t, f, [y], tight, breakpoints=(a, b))
        _assert(abs(math.expm1(kern - closed)) <= 1e-8,
                f"kernel vs closed form: {kern} vs {closed}")
        _assert(abs(trans / math.exp(closed) - 1.0) <= 1e-8,
                f"translation vs closed form: {trans} vs {math.exp(closed)}")
        _assert(abs(trans / math.exp(kern) - 1.0) <= 1e-8,
                f"kernel vs translation: {kern} vs {math.log(trans)}")


def check_kernel_eigenfunctions(rng):
    """e^{tL} H_k = e^{-kt} H_k within 1e-6 relative, k <= 5."""
    pts = (0.3, -0.8, 1.5, 2.2, -2.6)
    for t in (0.3, 1.0):
        for k in range(6):
            for x in pts:
                val = apply_via_translation(
                    t, lambda z, k=k: eval_hermite(k, z[:, 0]), [x],
                    breakpoints=())
                want = math.exp(-k * t) * float(eval_hermite(k, x))
                _assert(abs(val / want - 1.0) <= 1e-6,
                        f"eigenfunction off at k={k}, t={t}, x={x}")


# -- quadrature ----------------------------------------------------------

def check_gauss_hermite_exactness(rng):
    """Degree <= 2m-1 monomial moments are exact with m = 5 nodes."""
    pts, lw = _fullspace_nodes(1, 5)
    x, w = pts[:, 0], np.exp(lw)
    for d in range(10):
        got = float(np.sum(w * x ** d))
        if d % 2 == 1:
            _assert(abs(got) < 1e-12, f"odd moment {d} not zero: {got}")
        else:
            m = d // 2
            want = math.prod(range(1, d, 2)) / 2.0 ** m  # (d-1)!! / 2^(d/2)
            _assert(abs(got / want - 1.0) <= 1e-12,
                    f"moment {d}: {got} vs {want}")


def check_logsumexp_overflow_free(rng):
    """Accumulation stays finite for log magnitudes up to 1700."""
    mags = rng.uniform(1500.0, 1700.0, size=1000)
    total = log_sum_weighted(mags)
    _assert(math.isfinite(total) and total >= mags.max(),
            f"log-sum-exp not overflow-free: {total}")
    pair = log_sum_weighted([1700.0, 1700.0])
    want = 1700.0 + math.log(2.0)
    _assert(abs(pair - want) <= 1e-14 * want,
            f"log-sum-exp of two equal terms off: {pair} vs {want}")


def check_refinement_monotone(rng):
    """Refinement error estimates decrease on smooth kernel integrands."""
    ball = make_maximal_admissible_ball([6.0])
    y = np.array([6.4])
    history = []
    integrate_gamma_log(
        lambda pts: mehler_log_values(0.7, pts, y[None, :]),
        ball, QuadratureSpec(order=4, tol=1e-10), history=history)
    errs = [abs(math.expm1(b - a))
            for (_, a), (_, b) in zip(history, history[1:])]
    drops = [e2 <= e1 * 1.01 + 1e-15 for e1, e2 in zip(errs, errs[1:])]
    _assert(len(errs) >= 2, f"too few refinement passes to compare: {errs}")
    _assert(all(drops), f"refinement errors not monotone: {errs}")


# -- estimates ------------------------------------------------------------

def check_delta_range(rng):
    """delta(p, t) lies in [0, 1) across admissible samples."""
    for _ in range(10_000):
        t = rng.uniform(0.01, 3.0)
        lo = nelson_min_p(t)
        p = lo + rng.uniform(1e-9, 1.0) * (2.0 - lo)
        d = delta_exponent(p, t)
        _assert(0.0 <= d < 1.0, f"delta out of range: {d} at p={p}, t={t}")


def check_threshold_slope_signs(rng):
    """sign(blowup_slope) == sign(failure_threshold - t) on random triples."""
    for _ in range(10_000):
        p = rng.uniform(1.0, 4.0)
        q = p + rng.uniform(1e-6, 4.0)
        t = rng.uniform(1e-6, 3.0)
        s = blowup_slope(p, q, t)
        diff = failure_threshold(p, q) - t
        _assert(s * diff > 0.0 or (s == 0.0 and diff == 0.0),
                f"sign mismatch at p={p}, q={q}, t={t}")


def check_threshold_monotone(rng):
    """failure_threshold strictly increases in 1/p - 1/q."""
    samples = []
    for _ in range(500):
        p = rng.uniform(1.0, 4.0)
        q = p + rng.uniform(1e-6, 4.0)
        samples.append((1.0 / p - 1.0 / q, failure_threshold(p, q)))
    samples.sort()
    for (d1, t1), (d2, t2) in zip(samples, samples[1:]):
        if d2 > d1:
            _assert(t2 > t1, f"threshold not increasing: {d1}->{t1}, {d2}->{t2}")


def check_interpolated_matches_l2(rng):
    """At p = 2 the interpolated bound equals the L^2 bound exactly."""
    for _ in range(100):
        t = rng.uniform(0.05, 3.0)
        d = rng.uniform(0.1, 5.0)
        got = interpolated_bound_log(2.0, t, d).log_magnitude
        want = math.log(davies_gaffney_bound(t, d))
        _assert(got == want, f"p=2 bound mismatch: {got} vs {want}")


# -- experiments -----------------------------------------------------------

def check_sweep_deterministic(rng):
    """Identical sweep inputs reproduce identical rows."""
    hyp = OffDiagHypothesis(p=1.0, q=2.0)
    spec = QuadratureSpec(tol=1e-6)
    r1 = sweep_blowup(hyp, 0.5, 1, 1, [4.0, 5.0, 6.0, 8.0], spec)
    r2 = sweep_blowup(hyp, 0.5, 1, 1, [4.0, 5.0, 6.0, 8.0], spec)
    _assert(r1 == r2, "sweep not deterministic")


def check_slope_fit_recovery(rng):
    """The affine fit recovers an exact synthetic slope to 1e-10."""
    x = np.array([16.0, 36.0, 64.0, 100.0, 144.0])
    slope, intercept = 0.2550813375962908, -3.25
    fitted, c0 = fit_affine(x, slope * x + intercept)
    _assert(abs(fitted - slope) <= 1e-10, f"fit slope off: {fitted}")
    _assert(abs(c0 - intercept) <= 1e-8, f"fit intercept off: {c0}")


def check_regime_partition(rng):
    """Each valid cell gets one class; fail/hold conditions never overlap."""
    p_grid = np.linspace(1.05, 1.95, 10)
    t_grid = np.linspace(0.1, 2.0, 20)
    result = regime_map(p_grid, [2.0], t_grid)
    _assert(len(result.cells) == 200, "unexpected cell count")
    for cell in result.cells:
        fails = cell.t < cell.t_star
        holds = cell.q == 2.0 and cell.p_nelson < cell.p <= 2.0
        _assert(not (fails and holds),
                f"overlapping regimes at p={cell.p}, t={cell.t}")
        _assert((cell.regime == FAILS_RESTRICTED) == fails,
                "fails_restricted must apply exactly when t < t*")


def check_hypercontractivity_agreement(rng):
    """Numeric and closed-form contraction ratios agree to 1e-6."""
    for lam in (0.5, 1.0, 2.0):
        for t in (0.3, 1.0):
            for p in (1.2, 1.5, 2.0):
                res = hypercontractivity_check(t, p, lam)
                rel = abs(res.ratio_numeric / res.ratio_closed_form - 1.0)
                _assert(rel <= 1e-6,
                        f"ratio mismatch at t={t}, p={p}, lam={lam}: {rel}")


CHECKS = [
    ("measure.monotone_under_inclusion", check_measure_monotone),
    ("measure.annulus_additivity", check_measure_additive),
    ("measure.erf_oracle_1d", check_measure_erf_oracle),
    ("geometry.annulus_distance_increasing", check_distance_increasing),
    ("kernel.bitwise_symmetry", check_kernel_symmetry),
    ("kernel.conservation", check_kernel_conservation),
    ("kernel.semigroup_composition", check_kernel_semigroup),
    ("kernel.three_route_agreement", check_kernel_oracle_agreement),
    ("kernel.hermite_eigenfunctions", check_kernel_eigenfunctions),
    ("quadrature.gauss_hermite_exactness", check_gauss_hermite_exactness),
    ("quadrature.logsumexp_overflow_free", check_logsumexp_overflow_free),
    ("quadrature.refinement_monotone", check_refinement_monotone),
    ("estimates.delta_in_unit_interval", check_delta_range),
    ("estimates.threshold_slope_signs", check_threshold_slope_signs),
    ("estimates.threshold_monotone", check_threshold_monotone),
    ("estimates.interpolated_matches_l2_at_p2", check_interpolated_matches_l2),
    ("experiments.sweep_deterministic", check_sweep_deterministic),
    ("experiments.slope_fit_recovery", check_slope_fit_recovery),
    ("experiments.regime_partition", check_regime_partition),
    ("experiments.hypercontractivity_agreement", check_hypercontractivity_agreement),
]


def run_selftest(seed: int = 42, stream=None) -> bool:
    """Run every invariant check; print one PASS/FAIL line per check.

    Returns True when all checks pass.  Randomized checks draw from a
    generator seeded per check (seed + index) for reproducibility.
    """
    out = stream if stream is not None else io.StringIO()
    ok = True
    for i, (name, fn) in enumerate(CHECKS):
        rng = np.random.default_rng(seed + i)
        try:
            fn(rng)
        except AssertionError as exc:
            ok = False
            print(f"FAIL {name}: {exc}", file=out)
        else:
            print(f"PASS {name}", file=out)
    return ok
