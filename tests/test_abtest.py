"""Smoke test of tools/abtest.py: both sides this repository's ``src``,
tiny workload sizes; it checks the plumbing and the report, not timing."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import mehler

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "abtest.py"


def _abtest():
    spec = importlib.util.spec_from_file_location("abtest", TOOL)
    abtest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(abtest)
    return abtest


@pytest.mark.parametrize("workload", ["routes", "sweeps"])
def test_abtest_compares_outputs_then_reports_ratios(capsys, workload):
    before = {name: module for name, module in sys.modules.items()
              if name.split(".")[0] == "mehler"}
    src = str(ROOT / "src")
    assert _abtest().main([src, src, "--workload", workload, "--smoke",
                           "--rounds", "2"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["outputs_equal"] is True and report["outputs_compared"] > 0
    assert report["seeds_compared"] == [3, 77]
    assert (report["workload"], report["rounds"]) == (workload, 2)
    assert report["parent_median_ms"] > 0 and report["change_median_ms"] > 0
    low, high = report["iqr"]
    assert low <= high and report["change_over_parent_median"] > 0
    assert 0 <= report["change_faster_rounds"] <= 2
    # the importer's own package is back in place, the sides are gone
    assert {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "mehler"} == before
    assert sys.modules["mehler"] is mehler
    assert not any(name.startswith(("mehler_", "abtest_"))
                   for name in sys.modules)


def test_abtest_refuses_a_tree_without_the_package(tmp_path):
    with pytest.raises(ValueError, match="no mehler package"):
        _abtest().compare(tmp_path, ROOT / "src", smoke=True, rounds=2)
    assert sys.modules["mehler"] is mehler
    assert not any(name.startswith(("mehler_", "abtest_"))
                   for name in sys.modules)
