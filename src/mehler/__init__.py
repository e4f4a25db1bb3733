"""Ornstein-Uhlenbeck semigroup numerics.

A log-domain toolkit around the Mehler kernel: Gaussian measures of
balls and annuli at the admissible scale, kernel and translation routes
for applying e^{tL}, the closed-form thresholds governing off-diagonal
estimates, and the sweep experiments that exhibit the blow-up of the
implied constant on maximal admissible balls.

``import mehler`` loads no submodule: each public name below is imported
from its module on first use (PEP 562) and then bound here.
"""

import importlib

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "estimates": (
        "OffDiagHypothesis", "blowup_slope", "davies_gaffney_bound",
        "delta_exponent", "failure_threshold", "interpolated_bound_log",
        "lemma_lower_bound_log", "nelson_min_p",
    ),
    "experiments": (
        "CONJECTURED_EXTENSION", "FAILS_RESTRICTED", "HOLDS_UNRESTRICTED",
        "UNKNOWN", "DaviesGaffneyResult", "HypercontractivityResult",
        "RegimeCell", "RegimeMap", "SweepAborted", "SweepResult", "SweepRow",
        "davies_gaffney_check", "fit_affine", "hypercontractivity_check",
        "implied_constant_log", "offdiag_lhs_log", "regime_map",
        "sweep_blowup",
    ),
    "geometry": (
        "Annulus", "Ball", "FullSpace", "Point", "admissible_radius",
        "as_point", "is_admissible", "make_maximal_admissible_ball",
        "set_distance",
    ),
    "kernel": (
        "apply_indicator_closed_log", "apply_indicator_log",
        "apply_via_translation", "mehler_log", "mehler_log_values",
    ),
    "lognum": ("LogNumber", "log_sum_weighted"),
    "measure": ("gamma_log", "log_gamma_ball", "log_gamma_interval"),
    "quadrature": (
        "QuadratureConvergenceError", "QuadratureSpec", "integrate_gamma_log",
    ),
    "selftest": ("run_selftest",),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
