"""Command-line interface: formats, round-trips, exit codes."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mehler
from mehler import cli, experiments, kernel, quadrature, selftest
from mehler.cli import main
from mehler.estimates import OffDiagHypothesis
from mehler.experiments import sweep_blowup
from mehler.kernel import mehler_log
from mehler.quadrature import QuadratureSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kernel_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--t", "1", "--x", "0.5",
                           "--y", "-0.25")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "log_mehler,mehler"
    log_v, v = (float(tok) for tok in row.split(","))
    want = mehler_log(1.0, [0.5], [-0.25]).log_magnitude
    assert log_v == want  # 17 significant digits round-trip exactly
    assert v == pytest.approx(math.exp(want), rel=1e-15)


def test_kernel_blank_linear_field_when_unrepresentable(capsys):
    # log value ~ +855: the linear column must be left empty, not inf
    code, out, _ = run_cli(capsys, "kernel", "--t", "0.1", "--x", "30",
                           "--y", "30")
    assert code == 0
    row = out.strip().splitlines()[1]
    log_tok, lin_tok = row.split(",")
    assert float(log_tok) > 709.8
    assert lin_tok == ""


def test_gamma_subcommand_maximal_default(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--center", "0")
    assert code == 0
    row = out.strip().splitlines()[1]
    log_v, v = (float(tok) for tok in row.split(","))
    assert v == pytest.approx(0.8427007929497148, rel=1e-10)


def test_gamma_annulus(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--center", "5", "--k", "1")
    assert code == 0
    assert out.startswith("log_measure,measure")


def test_far_annulus_measure_is_zero_not_nan(capsys):
    # past |x| ~ 1.3e154 the tail log-CDF underflows (n = 1) and |y|^2
    # leaves float range (n = 2, 3, k = 600), as does the kernel's
    # exponent at t = 1e-320: each value prints as -inf, with no numpy
    # overflow warning (pytest turns RuntimeWarning into an error)
    gamma_out = "log_measure,measure\n-inf,0\n"
    for argv, want in (
            ("gamma --center 8 --k 520", gamma_out),
            ("gamma --center 8,0 --k 600", gamma_out),
            ("gamma --center 8,0,0 --k 600", gamma_out),
            ("apply --t 1e-320 --center 8 --y 8.5",
             "log_value,value,log_erf_closed_form\n-inf,0,-inf\n")):
        assert run_cli(capsys, *argv.split()) == (0, want, ""), argv


def test_apply_includes_erf_column_in_1d(capsys):
    code, out, _ = run_cli(capsys, "apply", "--t", "0.5", "--center", "8",
                           "--y", "8.5")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "log_value,value,log_erf_closed_form"
    log_v, _, log_erf = (float(tok) for tok in row.split(","))
    assert log_erf == pytest.approx(-14.336051837522657, rel=1e-12)
    assert log_v == pytest.approx(log_erf, abs=1e-7)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center, radius, y", [
    ("0.1", "1e-300", "0.1"), ("2", "1e-15", "2.1"), ("2", "1e-5", "2.1"),
    ("-3", "1e-9", "-2.9")])
def test_apply_closed_form_of_a_narrow_interval(capsys, center, radius, y):
    # c -+ r round to one float, or lose the width's digits: the closed
    # form takes the exact width 2r (once -inf at 1e-300, -35.146 against
    # -35.023 at 1e-15)
    code, out, _ = run_cli(capsys, "apply", "--t", "0.5", "--center", center,
                           "--radius", radius, "--y", y)
    log_v, _, log_erf = (float(tok) for tok in out.splitlines()[1].split(","))
    assert code == 0 and math.isfinite(log_erf)
    assert log_erf == pytest.approx(log_v, rel=1e-8)


def test_apply_closed_form_keeps_the_readme_bits(capsys):
    # where c -+ r keep the width, their translates' own difference is the
    # closer width: -14.3360518375226574 to 18 digits (mpmath)
    code, out, _ = run_cli(capsys, "apply", "--t", "0.5", "--center", "8",
                           "--y", "8.5")
    assert out.splitlines()[1].split(",")[2] == "-14.336051837522657"


def test_sweep_csv_round_trip(capsys):
    args = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", "1", "--cmin", "4", "--cmax", "12", "--steps", "5"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "cB_norm,log_lhs,log_gammaB,log_implied_const"
    data_lines = [l for l in lines[1:] if not l.startswith("#")]
    footer = [l for l in lines if l.startswith("#")]
    assert len(data_lines) == 5 and len(footer) == 1

    # parsing the emitted text reproduces the in-memory rows exactly
    result = sweep_blowup(OffDiagHypothesis(p=1.0, q=2.0), 0.5, 1, 1,
                          np.linspace(4.0, 12.0, 5))
    for line, row in zip(data_lines, result.rows):
        parsed = tuple(float(tok) for tok in line.split(","))
        assert parsed == tuple(row)

    assert "fitted_slope=" in footer[0]
    fitted = float(footer[0].split("fitted_slope=")[1].split()[0])
    assert fitted == result.fitted_slope
    assert fitted == pytest.approx(0.2550813375962908, rel=0.15)


def test_sweep_json_mirrors_csv(capsys):
    args = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", "1", "--cmin", "4", "--cmax", "8", "--steps", "4",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    result = sweep_blowup(OffDiagHypothesis(p=1.0, q=2.0), 0.5, 1, 1,
                          np.linspace(4.0, 8.0, 4))
    assert payload["fitted_slope"] == result.fitted_slope
    assert payload["rows"][0]["log_lhs"] == result.rows[0].log_lhs


def test_sweep_output_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    args = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", "1", "--cmin", "4", "--cmax", "8", "--steps", "4",
            "--output", str(target)]
    assert main(args) == 0
    raw = target.read_bytes()
    assert b"\r" not in raw  # LF endings
    assert raw.decode("utf-8").startswith("cB_norm,")


def _refuse_refinement(*args, **kwargs):
    raise AssertionError("the sweep ran")


@pytest.mark.parametrize("argv, where", [
    (["gamma", "--center", "8"], "missing/g.csv"),
    (["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1", "--n", "1",
      "--cmin", "4", "--cmax", "12", "--steps", "5"], ""),
], ids=["gamma-to-a-missing-folder", "sweep-to-a-folder"])
def test_unwritable_output_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, argv, where):
    # a path in a missing folder, or a folder, is refused as the other
    # invalid parameters are, before any refinement runs
    monkeypatch.setattr(experiments, "_annulus_lq_log", _refuse_refinement)
    target = tmp_path / where
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, out) == (2, "")
    assert err == (f"mehler: invalid parameters: cannot write the output "
                   f"to {str(target)!r}\n")


def test_regime_grid(capsys):
    args = ["regime", "--qfixed", "2", "--pmin", "1.05", "--pmax", "1.95",
            "--psteps", "10", "--tmin", "0.1", "--tmax", "2",
            "--tsteps", "20"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,q,t,t_star,p_nelson,class"
    rows = [l.split(",") for l in lines[1:] if not l.startswith("#")]
    assert len(rows) == 200
    # the open middle range shows up as "unknown"
    target = [r for r in rows
              if abs(float(r[0]) - 1.05) < 1e-9 and abs(float(r[2]) - 1.2) < 1e-9]
    assert len(target) == 1 and target[0][5] == "unknown"


def test_regime_json_reports_skipped_cells(capsys):
    args = ["regime", "--qfixed", "2", "--pmin", "0.9", "--pmax", "1.5",
            "--psteps", "2", "--tmin", "1", "--tmax", "1", "--tsteps", "1",
            "--format", "json"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["class"] == "holds_unrestricted"
    assert payload["skipped"] == [
        {"p": 0.9, "q": 2.0, "t": 1.0, "reason": "p < 1"}]


def test_apply_2d_has_no_erf_column(capsys):
    code, out, _ = run_cli(capsys, "apply", "--t", "0.5", "--center", "3,4",
                           "--y", "3.1,4.1")
    assert code == 0
    assert out.splitlines()[0] == "log_value,value"


def test_hypercheck_boundary(capsys):
    code, out, _ = run_cli(capsys, "hypercheck", "--t", "0.5", "--p",
                           "1.3678794411714423", "--lambda", "2")
    assert code == 0
    lines = out.strip().splitlines()
    closed, numeric, _ = (float(tok) for tok in lines[1].split(","))
    assert closed == 1.0
    assert numeric == pytest.approx(1.0, abs=1e-9)
    assert lines[2].startswith("# verdict: contraction")


def test_hypercheck_json_verdict(capsys):
    code, out, _ = run_cli(capsys, "hypercheck", "--t", "0.2", "--p", "1.2",
                           "--lambda", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"].startswith("no contraction")
    assert payload["ratio_numeric"] > 1.0


def test_invalid_parameters_exit_2(capsys):
    code, _, err = run_cli(capsys, "kernel", "--t", "-1", "--x", "0",
                           "--y", "0")
    assert code == 2
    assert "invalid parameters" in err


def test_far_out_kernel_exits_2_with_a_clean_stderr(capsys):
    # |x|^2 overflows to inf, and inf - inf makes the log kernel NaN; numpy
    # must not warn on the way to the typed error
    code, out, err = run_cli(capsys, "kernel", "--t", "1e300", "--x",
                             "1e200", "--y", "1e200")
    assert (code, out, err) == (
        2, "", "mehler: invalid parameters: log_magnitude must not be NaN\n")


@pytest.mark.parametrize("argv", [
    ["gamma", "--center", "1e160"],
    ["gamma", "--center", "1e160,0"],
    ["gamma", "--center", "0,1e160,0"],
    ["apply", "--t", "0.5", "--center", "1e160", "--y", "0"],
    ["apply", "--t", "0.5", "--center", "1e160,0", "--y", "0,0"],
    ["apply", "--t", "0.5", "--center", "0,0,1e160", "--y", "0,0,0"],
])
def test_far_out_center_exits_2_without_a_warning(capsys, argv):
    # |c|^2 overflows, so |c| reads inf and the admissible radius 0; numpy
    # must not warn on the way (pytest turns a RuntimeWarning into an error)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == ("mehler: invalid parameters: radii must satisfy "
                   "0 <= inner < outer < inf\n")


@pytest.mark.parametrize("argv", [
    ["gamma", "--center", "8", "--k", "1023"],
    ["gamma", "--center", "8,0", "--k", "1023"],
    ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1024",
     "--n", "1", "--cmin", "4", "--cmax", "12", "--steps", "5"],
])
def test_huge_annulus_index_exits_2(capsys, argv):
    # 2^k overflows a float here; the error is typed and names k
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    k = argv[argv.index("--k") + 1]
    assert "invalid parameters" in err and f"k = {k}" in err


_SWEEP = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--cmin", "4",
          "--cmax", "12", "--steps", "5"]


@pytest.mark.parametrize("argv", [
    [*_SWEEP, "--c", "inf"],
    [*_SWEEP, "--theta", "inf"],
    ["apply", "--t", "0.5", "--center", "8", "--y", "8.5,0"],
    ["apply", "--t", "0.5", "--center", "8,0", "--y", "8.5"],
])
def test_invalid_value_exits_2_with_no_output(capsys, argv):
    # non-finite template parameters once printed inf rows and exit 0; a
    # point of another dimension is refused by the library, not the CLI
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("mehler: invalid parameters: ")


@pytest.mark.parametrize("end", ["--cmax=inf", "--cmin=-inf", "--cmin=nan"])
def test_sweep_with_a_non_finite_end_exits_2_without_a_warning(capsys, end):
    # np.linspace once warned of an invalid multiply (an error under
    # pytest's filter), and the distinct-values check spoke first
    code, out, err = run_cli(capsys, *_SWEEP, end)
    assert (code, out) == (2, "")
    assert err == ("mehler: invalid parameters: "
                   "point coordinates must be finite\n")


_REGIME = ["regime", "--qfixed", "2", "--pmin", "1.05", "--pmax", "1.95",
           "--psteps", "3", "--tmin", "0.1", "--tmax", "2", "--tsteps", "2"]


@pytest.mark.parametrize("end", ["--pmax=inf", "--tmax=inf", "--pmin=nan"])
def test_regime_with_a_non_finite_end_exits_2_without_a_warning(capsys, end):
    # np.linspace must not warn of an invalid multiply (an error under
    # pytest's filter), and a NaN p is refused, not skipped as "p < 1"
    code, out, err = run_cli(capsys, *_REGIME, end)
    assert (code, out) == (2, "")
    assert err == ("mehler: invalid parameters: "
                   "point coordinates must be finite\n")


@pytest.mark.parametrize("argv", [
    ["gamma", "--center", "8"],
    ["apply", "--t", "0.5", "--center", "8", "--y", "8.5"],
    ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--cmin", "4",
     "--cmax", "12", "--steps", "5"],
    ["hypercheck", "--t", "0.5", "--p", "1.5", "--lambda", "2"],
])
def test_quadrature_flags_default_to_the_spec(argv):
    args = cli.build_parser().parse_args(argv)
    assert cli._spec_from(args) == QuadratureSpec()


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--t", "0.5"])  # missing required arguments
    assert exc.value.code == 2


def test_nonconvergence_exits_3(capsys, monkeypatch):
    # a work cap of 16 admits the orders 2 and 4 of one grid point only
    monkeypatch.setattr(quadrature, "MAX_NODES", 16)
    args = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
            "--n", "1", "--cmin", "4", "--cmax", "8", "--steps", "4",
            "--order", "2", "--tol", "1e-15"]
    code, _, err = run_cli(capsys, *args)
    assert code == 3
    assert "non-convergence" in err


def test_hypercheck_bytes_do_not_depend_on_the_grid_cache(capsys):
    # full-space grids are cached per (n, order); a run on a cold cache
    # and one on a warm cache must print the same bytes
    calls = [["hypercheck", "--t", "0.5", "--p", "1.3678794411714423",
              "--lambda", "2"],
             ["hypercheck", "--t", "0.2", "--p", "1.2", "--lambda", "3",
              "--format", "json"],
             ["hypercheck", "--t", "1", "--p", "1.9", "--lambda", "5",
              "--order", "8"]]

    def run_all(cold):
        outs = []
        for argv in calls:
            if cold:
                quadrature._fullspace_nodes.cache_clear()
            assert main(list(argv)) == 0
            outs.append(capsys.readouterr().out.encode())
        return outs

    assert run_all(cold=True) == run_all(cold=False)


def test_hypercheck_out_of_range_exits_3(capsys):
    # e^{60 x} has L^1(gamma) mass e^{900}, past what Gauss-Hermite
    # weights can represent; the run must end in a typed failure, fast
    code, out, err = run_cli(capsys, "hypercheck", "--t", "1", "--p", "1.5",
                             "--lambda", "40")
    assert code == 3
    assert out == ""
    assert "numerical non-convergence" in err
    # the failing integral is the outer L^p norm over the real line; the
    # work cap refuses the order-2048 rule (order^2 above 2^20)
    assert "at order 2048 (order^2 = 4194304)" in err
    assert "above the cap of 1048576" in err and "FullSpace(dim=1)" in err


@pytest.mark.parametrize("argv, refused_by", [
    (["hypercheck", "--t", "1", "--p", "1.5", "--lambda", "40"], "order"),
    (["gamma", "--center", "8,0", "--order", "30000"], "order"),
    (["apply", "--t", "1e-7", "--center", "8", "--y", "8.5"], "order"),
    (["sweep", "--t", "1e-6", "--p", "1", "--q", "2", "--k", "1", "--n",
      "1", "--cmin", "4", "--cmax", "12", "--steps", "5"], "order"),
    (["apply", "--t", "0.5", "--center", "8,0,0,0", "--y", "8.3,0,0,0"],
     "nodes"),
])
def test_unsettled_refinement_exits_3_within_bounded_work(capsys, argv,
                                                          refused_by):
    # the work cap, the larger of a pass's nodes and order^2, refuses
    # every rule above order 1024, however large --order is, and in
    # n = 4 the polar grid of order 32, 2 x 32^4 = 2^21 nodes, by its
    # node count alone.  A profile hook sees every Gauss rule scipy
    # builds, and numpy warnings are errors under pytest's filter.
    # Measured 0.001-0.25 s each on 2 CPUs; the bound leaves a wide margin
    orders = []

    def hook(frame, event, _):
        if event == "call" and frame.f_code.co_name.startswith("roots_"):
            orders.append(frame.f_locals["n"])

    quadrature._log_rule.cache_clear()
    start = time.perf_counter()
    sys.setprofile(hook)
    try:
        code, out, err = run_cli(capsys, *argv)
    finally:
        sys.setprofile(None)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert max(orders, default=0) <= 1024
    refusal = re.search(r"build (\d+) nodes at order (\d+) \(order\^2 = "
                        r"(\d+)\), above the cap of 1048576, (.+); last two "
                        r"log values", err)
    assert refusal is not None, err
    nodes, order, square = map(int, refusal.groups()[:3])
    assert square == order ** 2
    if refused_by == "order":
        assert order > 1024
    else:
        assert nodes > 1048576 and order <= 1024


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center, y", [("8", "8.5"), ("8,0", "8.5,0")])
def test_apply_refuses_a_ball_past_squared_overflow(capsys, monkeypatch,
                                                    center, y):
    # the kernel is inf - inf at the polar nodes of such a ball: the run
    # went to the work cap and exited 3 with last two values (nan, nan);
    # now the radius is refused before any pass, as the ball measure does
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature pass ran")

    monkeypatch.setattr(kernel, "integrate_gamma_log", refuse)
    code, out, err = run_cli(capsys, "apply", "--t", "0.5", "--center",
                             center, "--radius", "1e300", "--y", y)
    assert (code, out) == (2, "")
    assert "invalid parameters: radius 1e+300 is above 2^511" in err


def test_polar_grid_of_thousands_of_dimensions_exits_3(capsys):
    # 2 x 16^3000 nodes: refused at once, the count read as inf rather
    # than built as an integer of 3,600 digits
    center = ",".join(["8"] + ["0"] * 2999)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "apply", "--t", "0.5", "--center",
                             center, "--y", "8.3" + center[1:])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (3, "")
    assert ("integral in n = 3000: refinement would build inf nodes at "
            "order 16 (order^2 = 256), above the cap of 1048576") in err


@pytest.mark.parametrize("n, t", [("1", "800"), ("2", "720")])
def test_sweep_past_exp_overflow_exits_0(capsys, n, t):
    # e^t overflows a float; the predicted slope is its t -> inf limit
    code, out, err = run_cli(capsys, "sweep", "--t", t, "--p", "1", "--q",
                             "2", "--k", "1", "--n", n, "--cmin", "4",
                             "--cmax", "12", "--steps", "5")
    assert code == 0 and err == ""
    footer = dict(tok.split("=") for tok in
                  out.strip().splitlines()[-1][2:].split())
    assert float(footer["predicted_slope"]) == -0.5
    assert float(footer["rel_err"]) < 0.15


def test_small_time_n3_sweep_at_a_low_base_order_exits_0(capsys):
    # from base order 3 the theta rule of the ball measure doubles to
    # order 192 at t = 0.001; over each row's Chebyshev samples alone it
    # stays under the node cap
    code, out, err = run_cli(capsys, "sweep", "--t", "0.001", "--p", "1",
                             "--q", "2", "--k", "1", "--n", "3", "--cmin",
                             "4", "--cmax", "12", "--steps", "5", "--order",
                             "3")
    assert code == 0 and err == ""
    rel_err = float(out.strip().splitlines()[-1].rsplit("rel_err=", 1)[1])
    assert rel_err < 0.15


def test_hypercheck_closed_form_overflow_exits_3(capsys):
    # the closed-form ratio e^{lam^2 (1 + e^{-2t} - p) / 4} is past
    # float64 (it saturates to inf); the numeric side stops at the node
    # cap of the 2-D Gauss-Hermite integral <f, e^{2tL} f>
    code, out, err = run_cli(capsys, "hypercheck", "--t", "0.1", "--p",
                             "1.05", "--lambda", "70")
    assert code == 3
    assert out == ""
    assert "numerical non-convergence" in err
    assert "n = 2" in err
    # the last two iterates of the integral, not one of them twice
    prev, cur = err.split("last two log values (")[1].rstrip(")\n").split(", ")
    assert float(prev) != float(cur)


def test_selftest_subcommand(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--seed", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert all(line.startswith("PASS") for line in lines)
    assert out == GOLDEN["selftest --seed 42"]


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    # a check that fails prints FAIL with its message, the suite returns
    # False and the subcommand exits 1; the other checks still run
    def failing(rng):
        selftest._assert(False, "made to fail")

    monkeypatch.setattr(selftest, "CHECKS", [
        ("demo.fails", failing), selftest.CHECKS[3]])
    stream = io.StringIO()
    assert selftest.run_selftest(stream=stream) is False
    assert stream.getvalue().splitlines() == [
        "FAIL demo.fails: made to fail",
        "PASS geometry.annulus_distance_increasing"]
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1 and out.startswith("FAIL demo.fails: made to fail\n")


def test_point_that_does_not_parse_exits_2(capsys):
    # argparse refuses it through the point type, before any command runs
    with pytest.raises(SystemExit) as exit_:
        main(["kernel", "--t", "1", "--x", "abc", "--y", "0"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "not a comma-separated point: 'abc'" in err


def _readme_cli_commands():
    # the fenced block under "## CLI" in README.md, continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.strip()]


# the stdout of every README command, recorded before the refinement ran
# its first two orders as one pass; "byte-identical" claims rest on it
GOLDEN = json.loads((Path(__file__).resolve().parent
                     / "cli_golden.json").read_text())


def test_golden_bytes_cover_the_readme_commands():
    assert list(GOLDEN) == [" ".join(c[1:]) for c in _readme_cli_commands()]


@pytest.mark.parametrize(
    "command", [c for c in _readme_cli_commands() if c[1] != "selftest"],
    ids=" ".join)
def test_readme_cli_example_exits_0(command, capsys):
    # selftest is run by test_selftest_subcommand
    assert command[0] == "mehler"
    code, out, err = run_cli(capsys, *command[1:])
    assert code == 0, err
    assert out == GOLDEN[" ".join(command[1:])]


def test_one_parser_serves_calls_in_sequence(tmp_path, capsys, monkeypatch):
    # main() keeps one parser per process; no default or --output of one
    # call may leak into the next, so each call must give the bytes the
    # same call gives on a freshly built parser
    sweep = ["sweep", "--t", "0.5", "--p", "1", "--q", "2", "--k", "1",
             "--n", "1", "--cmin", "4", "--cmax", "8", "--steps", "4"]
    target = tmp_path / "sweep.csv"
    calls = [sweep + ["--format", "json"],
             sweep + ["--output", str(target)],
             ["hypercheck", "--t", "0.5", "--p", "1.2", "--lambda", "1"],
             ["sweep", "--t", "0.5"],  # usage error
             sweep]

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            written = target.read_bytes() if target.exists() else None
            target.unlink(missing_ok=True)
            results.append((code, out, err, written))
        return results

    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    cached = run_all()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == run_all()
    assert [code for code, *_ in cached] == [0, 0, 0, 2, 0]
    assert cached[1][1] == "" and cached[1][3].startswith(b"cB_norm,")
    assert cached[2][3] is None and cached[4][3] is None
    assert cached[4][1].startswith("cB_norm,")


HYPERCHECK = ["hypercheck", "--t", "0.5", "--p", "1.2", "--lambda", "1"]


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in cli.build_parser().subcommands),
    ["-h"],
    ["sweep", "--t", "0.5"],  # missing arguments
    ["hypercheck", "--t", "abc", "--p", "1.2", "--lambda", "1"],  # bad type
    HYPERCHECK + ["extra"],  # trailing unrecognized arguments
    HYPERCHECK + ["--bogus", "1"],
    ["kernel", "--t", "1", "--x", "0.5", "--y", "0", "--t"],
    ["frobnicate", "--t", "1"],  # unknown command
    [],
], ids=" ".join)
def test_dispatch_matches_a_fresh_top_level_parser(argv, capsys):
    # main hands an argv that names a subcommand to that subcommand's
    # parser; help, usage errors and exit codes must stay those of the
    # top-level parser, which names the program as a whole where the
    # arguments are left unrecognized
    def outcome(parse):
        with pytest.raises(SystemExit) as exit_:
            parse(list(argv))
        return (exit_.value.code, *capsys.readouterr())

    got = outcome(main)
    assert got == outcome(cli.build_parser().parse_args)
    assert got[0] == (0 if "-h" in argv else 2)
    if argv[:len(HYPERCHECK)] == HYPERCHECK:
        assert got[2].startswith("usage: mehler [-h] {kernel,")


def test_import_leaves_quadpack_unloaded():
    # scipy.integrate pulls in scipy.optimize, scipy.sparse.linalg and
    # scipy.fft; nothing in the package needs it, the translation route
    # included
    src = str(Path(mehler.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy, mehler\n"
         "mehler.apply_via_translation(\n"
         "    1.0, lambda pts: numpy.ones(len(pts)), [0.5], breakpoints=())\n"
         "print('scipy.integrate' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
