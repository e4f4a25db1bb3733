"""Public API: every exported name exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import mehler

MODULES = ["mehler"] + [f"mehler.{m.name}"
                        for m in pkgutil.iter_modules(mehler.__path__)]

PACKAGE_NAMES = [
    "Annulus", "Ball", "CONJECTURED_EXTENSION", "DaviesGaffneyResult",
    "FAILS_RESTRICTED", "FullSpace", "HOLDS_UNRESTRICTED",
    "HypercontractivityResult", "LogNumber", "OffDiagHypothesis", "Point",
    "QuadratureConvergenceError", "QuadratureSpec", "RegimeCell", "RegimeMap",
    "SweepAborted", "SweepResult", "SweepRow", "UNKNOWN", "admissible_radius",
    "apply_indicator_closed_log", "apply_indicator_log",
    "apply_via_translation", "as_point", "blowup_slope",
    "davies_gaffney_bound", "davies_gaffney_check", "delta_exponent",
    "failure_threshold", "fit_affine", "gamma_log", "hypercontractivity_check",
    "implied_constant_log", "integrate_gamma_log", "interpolated_bound_log",
    "is_admissible", "lemma_lower_bound_log", "log_gamma_ball",
    "log_gamma_interval", "log_sum_weighted", "make_maximal_admissible_ball",
    "mehler_log", "mehler_log_values", "nelson_min_p", "offdiag_lhs_log",
    "regime_map", "run_selftest", "set_distance", "sweep_blowup",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing


def test_package_exports_its_list():
    assert mehler.__all__ == PACKAGE_NAMES
    assert set(PACKAGE_NAMES) <= set(dir(mehler))


@pytest.mark.parametrize("name", PACKAGE_NAMES)
def test_package_name_is_its_module_object(name):
    # each name is the owning module's object, and listed there too
    module = importlib.import_module(f"mehler.{mehler._OWNER[name]}")
    assert name in module.__all__
    assert getattr(mehler, name) is getattr(module, name)
    assert vars(mehler)[name] is getattr(module, name)  # bound on first use


@pytest.mark.parametrize("name", ["lq_norm_log", "check_time", "CHECKS",
                                  "integrate_axial_log", "no_such_name"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(mehler, name)
    assert not hasattr(mehler, name)


def test_submodules_import_through_the_package():
    from mehler import cli, quadrature
    assert quadrature is sys.modules["mehler.quadrature"]
    assert cli is sys.modules["mehler.cli"]


def test_import_loads_no_submodule_and_no_scipy():
    # a name or a submodule of the package loads its module on first use
    src = str(Path(mehler.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mehler\n"
         "def loaded():\n"
         "    print(sorted(m for m in sys.modules\n"
         "                 if m.startswith(('mehler.', 'scipy'))))\n"
         "loaded()\n"
         "mehler.lognum.LogNumber\n"
         "loaded()\n"
         "mehler.failure_threshold\n"
         "loaded()"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True)
    assert proc.stdout.splitlines() == [
        "[]", "['mehler.lognum']",
        "['mehler.estimates', 'mehler.geometry', 'mehler.lognum']"]
