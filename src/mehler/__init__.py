"""Ornstein-Uhlenbeck semigroup numerics.

A log-domain toolkit around the Mehler kernel: Gaussian measures of
balls and annuli at the admissible scale, kernel and translation routes
for applying e^{tL}, the closed-form thresholds governing off-diagonal
estimates, and the sweep experiments that exhibit the blow-up of the
implied constant on maximal admissible balls.
"""

from .estimates import (
    OffDiagHypothesis,
    blowup_slope,
    davies_gaffney_bound,
    delta_exponent,
    failure_threshold,
    interpolated_bound_log,
    lemma_lower_bound_log,
    nelson_min_p,
)
from .experiments import (
    CONJECTURED_EXTENSION,
    FAILS_RESTRICTED,
    HOLDS_UNRESTRICTED,
    UNKNOWN,
    DaviesGaffneyResult,
    HypercontractivityResult,
    RegimeCell,
    RegimeMap,
    SweepAborted,
    SweepResult,
    SweepRow,
    davies_gaffney_check,
    fit_affine,
    hypercontractivity_check,
    implied_constant_log,
    offdiag_lhs_log,
    regime_map,
    sweep_blowup,
)
from .geometry import (
    Annulus,
    Ball,
    FullSpace,
    Point,
    admissible_radius,
    as_point,
    is_admissible,
    make_maximal_admissible_ball,
    set_distance,
)
from .kernel import (
    apply_indicator_closed_log,
    apply_indicator_log,
    apply_via_translation,
    mehler_log,
    mehler_log_values,
)
from .lognum import LogNumber, log_sum_weighted
from .measure import gamma_log, log_gamma_ball, log_gamma_interval
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureSpec,
    gauss_hermite_gamma_nodes,
    integrate_gamma_log,
    lq_norm_log,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "Annulus",
    "Ball",
    "CONJECTURED_EXTENSION",
    "DaviesGaffneyResult",
    "FAILS_RESTRICTED",
    "FullSpace",
    "HOLDS_UNRESTRICTED",
    "HypercontractivityResult",
    "LogNumber",
    "OffDiagHypothesis",
    "Point",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "RegimeCell",
    "RegimeMap",
    "SweepAborted",
    "SweepResult",
    "SweepRow",
    "UNKNOWN",
    "admissible_radius",
    "apply_indicator_closed_log",
    "apply_indicator_log",
    "apply_via_translation",
    "as_point",
    "blowup_slope",
    "davies_gaffney_bound",
    "davies_gaffney_check",
    "delta_exponent",
    "failure_threshold",
    "fit_affine",
    "gamma_log",
    "gauss_hermite_gamma_nodes",
    "hypercontractivity_check",
    "implied_constant_log",
    "integrate_gamma_log",
    "interpolated_bound_log",
    "is_admissible",
    "lemma_lower_bound_log",
    "log_gamma_ball",
    "log_gamma_interval",
    "log_sum_weighted",
    "lq_norm_log",
    "make_maximal_admissible_ball",
    "mehler_log",
    "mehler_log_values",
    "nelson_min_p",
    "offdiag_lhs_log",
    "regime_map",
    "run_selftest",
    "set_distance",
    "sweep_blowup",
]
