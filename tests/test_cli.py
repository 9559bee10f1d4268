import argparse
import gc
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hyperfit
from hyperfit import cli, montecarlo
from hyperfit.cli import main
from hyperfit.fixtures import episode, fixture_path
from hyperfit.models import MODEL_PARAMS, eval_double_exp, eval_singularity
from hyperfit.report import AnalysisReport, params_from_report
from hyperfit.series import build_price_index, load_series

from conftest import src_env


PERU_CSV = str(fixture_path("peru"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(path):
    return AnalysisReport.from_json(path.read_text(encoding="utf-8"))


def write_exact_line_index(tmp_path):
    # p = 0.5 + 0.2 (t - t0) as an index file.
    f = tmp_path / "line.csv"
    rows = ["date,value"]
    for k in range(12):
        rows.append(f"{1970 + k},{math.exp(0.5 + 0.2 * k)!r}")
    f.write_text("\n".join(rows) + "\n")
    return f


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

class TestCmdFit:
    def test_peru_fixture_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, _ = run(capsys, "fit", PERU_CSV, "--kind", "rate",
                           "--model", "singularity", "--out", str(out_file))
        assert code == 0
        report = read_report(out_file)
        assert report.data["fit.tc"] == pytest.approx(1991.29, abs=1e-3)
        assert report.data["derived.gamma"] == pytest.approx(1.7752, abs=1e-3)
        assert report.data["fit.converged"] is True
        # stdout mirrors the report
        assert "fit.tc" in out and "derived.gamma" in out

    def test_linear_model_on_exact_line(self, capsys, tmp_path):
        f = write_exact_line_index(tmp_path)
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "fit", str(f), "--kind", "index",
                         "--model", "linear", "--out", str(out_file))
        assert code == 0
        report = read_report(out_file)
        assert report.data["fit.chi"] == pytest.approx(0.0, abs=1e-12)
        assert report.data["fit.c0"] == pytest.approx(0.2, abs=1e-12)

    def test_window_restricts_and_is_recorded(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        germany = str(fixture_path("germany"))
        code, _, _ = run(capsys, "fit", germany, "--kind", "rate",
                         "--window", "1922-01:1923-11", "--out", str(out_file))
        assert code == 0
        report = read_report(out_file)
        assert report.data["input.window"] == "1922-01:1923-11"
        assert report.data["series.t0_label"] == "1922-01"
        assert report.data["series.n_points"] == 23

    @pytest.mark.filterwarnings("ignore:log price index is not strictly increasing")
    @pytest.mark.parametrize("pin", [(), ("--pin-p0",)], ids=["free", "pinned"])
    @pytest.mark.parametrize("rate", [math.expm1(-0.1), 0.0], ids=["deflating", "flat"])
    def test_no_positive_c0_exits_3(self, capsys, tmp_path, rate, pin):
        f = tmp_path / "rates.csv"
        f.write_text("date,value\n" + "".join(
            f"{1970 + k},{0.0 if k == 0 else rate!r}\n" for k in range(12)))
        code, _, err = run(capsys, "fit", str(f), "--model", "singularity", *pin)
        assert code == 3
        assert "no grid node gives C0 > 0" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "fit", "/nonexistent/file.csv")
        assert code == 2
        assert "error" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("1969,0.0\nbogus-line\n")
        code, _, err = run(capsys, "fit", str(f))
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("date,value\n1969,0.0\n1970,nan\n", "line 3: non-finite value 'nan'"),
        ("date,value\n1969,0.0\n1970,inf\n", "line 3: non-finite value 'inf'"),
        ("date,value\n# no rows yet\n\n", "no data rows"),
    ], ids=["nan", "inf", "header-only"])
    def test_unusable_csv_exits_2(self, capsys, tmp_path, text, message):
        f = tmp_path / "rates.csv"
        f.write_text(text)
        code, out, err = run(capsys, "fit", str(f))
        assert (code, out) == (2, "") and message in err

    def test_window_without_colon_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "fit", PERU_CSV, "--window", "1970",
                             "--out", str(out_file))
        assert (code, out) == (2, "") and "bad window '1970', expected FROM:TO" in err
        assert not out_file.exists()

    def test_report_json_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        report = read_report(out_file)
        again = AnalysisReport.from_json(report.to_json())
        assert again.data == report.data

    def test_report_gives_both_residues(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        data = read_report(out_file).data
        n, k = data["series.n_points"], 4
        assert data["fit.chi"] == math.sqrt(data["fit.objective"] / n)
        assert data["fit.chi_n_minus_k"] == math.sqrt(data["fit.objective"] / (n - k))
        assert "fit.chi_divisor" not in data and "fit.chi_n" not in data

    @pytest.mark.parametrize("model", ["linear", "doubleexp"])
    def test_pin_p0_with_a_model_that_fits_p0_exits_2_before_any_work(
            self, capsys, tmp_path, monkeypatch, model):
        def no_loading(*args, **kwargs):
            raise AssertionError("input loaded despite --pin-p0 with a p0-free model")

        monkeypatch.setattr(cli, "load_series", no_loading)
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "fit", PERU_CSV, "--model", model, "--pin-p0",
                             "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: ") and "--pin-p0" in err and model in err
        assert out == ""
        assert not out_file.exists()

    def test_chi_divisor_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", PERU_CSV, "--chi-divisor", "n"])
        assert exc.value.code == 2
        assert "--chi-divisor" in capsys.readouterr().err

    def test_tc_presented_as_calendar_date(self, capsys, tmp_path):
        # Monthly reports carry day precision: the Germany fixture's fitted
        # tc is day 965 after 1921-05-15, i.e. 1924-01-05.
        out_file = tmp_path / "report.json"
        run(capsys, "fit", str(fixture_path("germany")), "--out", str(out_file))
        report = read_report(out_file)
        assert report.data["derived.tc_label"] == "1924:01:05"
        assert report.data["fit.c0_per_month"] == pytest.approx(0.103, rel=1e-6)
        # Yearly reports present tc as a fractional year.
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        assert read_report(out_file).data["derived.tc_label"] == "1991.29"

    def test_derived_values_recomputable_from_stored_params(self, capsys, tmp_path):
        from hyperfit.models import ab_coefficients, alpha_to_gamma

        out_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        report = read_report(out_file)
        params = params_from_report(report)
        a_coeff, b_coeff = ab_coefficients(params)
        assert report.data["derived.A"] == a_coeff
        assert report.data["derived.B"] == b_coeff
        assert report.data["derived.gamma"] == alpha_to_gamma(params.alpha)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

class TestCmdMc:
    def test_zero_error_accepted(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        code, _, _ = run(capsys, "mc", PERU_CSV, "--di", "0", "--m", "10",
                         "--seed", "1", "--out", str(out_file))
        assert code == 0
        report = read_report(out_file)
        assert report.data["mc.accepted"] is True
        assert report.data["mc.std.tc"] == 0.0

    def test_fixed_seed_byte_identical_across_runs_and_workers(self, capsys):
        outputs = []
        for workers in ("1", "1", "4"):
            code, out, _ = run(capsys, "mc", PERU_CSV, "--di", "0.25", "--m", "200",
                               "--seed", "42", "--workers", workers)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERFIT_SEED", "77")
        code, out, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "20")
        assert code == 0
        assert "mc.seed                 : 77" in out or "mc.seed" in out
        report_line = [l for l in out.splitlines() if l.startswith("mc.seed")][0]
        assert report_line.endswith("77")

    def test_sweep_writes_monotone_csv(self, capsys, tmp_path):
        sweep_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "100",
                         "--seed", "3", "--sweep", "5:15:5", "--sweep-m", "100",
                         "--sweep-out", str(sweep_file))
        assert code == 0
        lines = sweep_file.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "di_pct"
        rows = [list(map(float, l.split(","))) for l in lines[1:]]
        assert [r[0] for r in rows] == [5.0, 10.0, 15.0]
        tc_col = [r[5] for r in rows]
        assert tc_col == sorted(tc_col)

    def test_sweep_without_out_exits_2(self, capsys):
        code, _, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "10",
                         "--sweep", "5:10:5")
        assert code == 2

    def test_sweep_without_out_fails_before_any_work(self, capsys, tmp_path, monkeypatch):
        def no_loading(*args, **kwargs):
            raise AssertionError("input loaded despite a bad --sweep")

        monkeypatch.setattr(cli, "load_series", no_loading)
        out_file = tmp_path / "report.json"
        code, out, err = run(capsys, "mc", PERU_CSV, "--m", "10", "--sweep", "5:10:5",
                             "--out", str(out_file))
        assert code == 2
        assert "--sweep-out" in err
        assert out == ""
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, env_seed, flag", [
        (("--m", "0"), None, "generation count"),
        (("--workers", "0"), None, "workers"),
        (("--di", "-1"), None, "relative error"),
        (("--seed", "-3"), None, "seed"),
        ((), "abc", "HYPERFIT_SEED"),
        (("--sweep", "5:10:5", "--sweep-m", "0"), None, "generation count"),
        (("--di", "nan"), None, "relative error"),
        (("--di", "inf"), None, "relative error"),
        (("--threshold", "inf"), None, "acceptance threshold"),
        (("--sweep", "nan:5:1"), None, "sweep"),
        (("--sweep", "0:inf:1"), None, "sweep"),
        (("--sweep", "0:5:inf"), None, "sweep"),
        (("--sweep", "a:b:c"), None, "bad sweep 'a:b:c'"),
        ((), None, "only with --sweep"),
        (("--sweep-m", "5"), None, "only with --sweep"),
        (("--kind", "index"), None, "--kind rate"),
    ], ids=["m", "workers", "di", "seed", "env-seed", "sweep-m", "di-nan", "di-inf",
            "threshold-inf", "sweep-nan", "sweep-inf", "sweep-step-inf", "sweep-text",
            "sweep-out-alone", "sweep-m-alone", "kind-index"])
    def test_bad_mc_argument_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                      argv, env_seed, flag):
        def no_loading(*args, **kwargs):
            raise AssertionError("input loaded despite a bad argument")

        monkeypatch.setattr(cli, "load_series", no_loading)
        if env_seed is not None:
            monkeypatch.setenv("HYPERFIT_SEED", env_seed)
        code, out, err = run(capsys, "mc", PERU_CSV, *argv,
                             "--sweep-out", str(tmp_path / "sweep.csv"))
        assert code == 2
        assert err.startswith("error: ") and flag in err
        assert out == ""

    def test_one_direct_fit_per_mc_run(self, capsys, monkeypatch):
        calls = []
        fit = montecarlo.fit_singularity
        for module in (cli, montecarlo):
            monkeypatch.setattr(module, "fit_singularity",
                                lambda *a, **k: calls.append(1) or fit(*a, **k))
        code, out, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "20", "--seed", "5")
        assert code == 0
        assert len(calls) == 1
        assert "fit.tc" in out and "mc.outcome.converged_interior" in out

    def test_one_direct_fit_per_mc_sweep(self, capsys, tmp_path, monkeypatch):
        calls = []
        fit = montecarlo.fit_singularity
        for module in (cli, montecarlo):
            monkeypatch.setattr(module, "fit_singularity",
                                lambda *a, **k: calls.append(1) or fit(*a, **k))
        sweep_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "20", "--seed", "5",
                         "--sweep", "5:15:5", "--sweep-out", str(sweep_file))
        assert code == 0
        assert len(calls) == 1
        assert len(sweep_file.read_text().splitlines()) == 4

    @pytest.mark.parametrize("sweep_m, resampled", [((), [0.05, 0.15]),
                                                    (("--sweep-m", "30"), [0.05, 0.1, 0.15])])
    def test_a_sweep_step_at_di_reuses_the_main_run(self, capsys, tmp_path, monkeypatch,
                                                     sweep_m, resampled):
        # At --di with the main run's m the sweep's row comes from the main
        # report, with the bytes a run of its own writes.
        runs = []
        resample = montecarlo._resample

        def spy(rates, mc, *args):
            runs.append((rates, mc.di))
            return resample(rates, mc, *args)

        monkeypatch.setattr(montecarlo, "_resample", spy)
        sweep_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "mc", PERU_CSV, "--di", "0.1", "--m", "20", "--seed", "5",
                         "--sweep", "5:15:5", *sweep_m, "--sweep-out", str(sweep_file))
        assert code == 0
        assert [di for _, di in runs] == [0.1, *resampled]
        monkeypatch.setattr(montecarlo, "_resample", resample)
        own = montecarlo.sweep_error(runs[0][0], di_values=[0.05, 0.1, 0.15],
                                     m=20 if not sweep_m else 30, seed=5)
        rows = [",".join(map(repr, [r.config.di * 100.0,
                                    *(r.params[k].std for k in ("tc", "alpha", "c0", "p0")),
                                    r.sd_tc_rel_pct, r.sd_gamma_rel_pct])) for r in own]
        assert sweep_file.read_text().splitlines()[1:] == rows

    def test_model_flag_is_fit_only(self, capsys, monkeypatch):
        # mc always fits the singular model; a --model it would ignore is a
        # usage error.
        def no_loading(*args, **kwargs):
            raise AssertionError("input loaded despite a bad argument")

        monkeypatch.setattr(cli, "load_series", no_loading)
        with pytest.raises(SystemExit) as exc:
            main(["mc", PERU_CSV, "--model", "linear", "--m", "20", "--seed", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--model" in captured.err and captured.out == ""

    def test_mc_requires_rates(self, capsys, tmp_path):
        f = write_exact_line_index(tmp_path)
        code, _, err = run(capsys, "mc", str(f), "--kind", "index", "--m", "10")
        assert code == 2
        assert "rate" in err


# ---------------------------------------------------------------------------
# the process: imports and exit
# ---------------------------------------------------------------------------

def hyperfit_process(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=src_env(), capture_output=True, text=True)


def test_cli_import_loads_no_scipy(fresh_process):
    assert fresh_process["scipy after import"] == []


def test_fit_loads_no_monte_carlo(fresh_process):
    assert (fresh_process["fit exit code"], fresh_process["montecarlo after fit"]) == (0, [])


def test_model_names_come_from_one_table():
    # --model offers the names reports read, and each names its own fitter.
    assert sorted(cli._FITTERS) == sorted(MODEL_PARAMS)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("fit", "curve"):
        flag = next(a for a in sub.choices[command]._actions if a.dest == "model")
        assert flag.choices == sorted(MODEL_PARAMS)
    index = build_price_index(load_series(PERU_CSV))
    for name, fitter in cli._FITTERS.items():
        assert fitter(index).model == name


def test_package_names_resolve_on_first_use():
    for name in hyperfit.__all__:
        assert getattr(hyperfit, name) is not None, name
    assert hyperfit.run_mc is montecarlo.run_mc
    assert hyperfit.MCReport is montecarlo.MCReport
    assert hyperfit.montecarlo is montecarlo
    with pytest.raises(AttributeError, match="no attribute 'run_mcmc'"):
        hyperfit.run_mcmc


def test_module_run_writes_what_main_writes(capsys, tmp_path):
    argv = ["fit", PERU_CSV, "--model", "singularity", "--pin-p0"]
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "main.json"))
    proc = hyperfit_process("-m", "hyperfit.cli", *argv, "--out", str(tmp_path / "module.json"))
    assert (code, proc.returncode) == (0, 0)
    assert proc.stdout == out
    assert (tmp_path / "module.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_module_run_keeps_the_exit_codes(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("date,value\n" + "".join(f"{1970 + k},0.0\n" for k in range(12)))
    missing = hyperfit_process("-m", "hyperfit.cli", "fit", str(tmp_path / "missing.csv"))
    no_fit = hyperfit_process("-m", "hyperfit.cli", "fit", str(flat))
    assert (missing.returncode, no_fit.returncode) == (2, 3)
    assert missing.stderr.startswith("error: ") and "C0 > 0" in no_fit.stderr


def test_main_leaves_the_collector_alone(capsys, tmp_path):
    code, _, _ = run(capsys, "fit", PERU_CSV, "--out", str(tmp_path / "r.json"))
    assert code == 0
    assert gc.isenabled() and gc.get_freeze_count() == 0


def test_script_exits_with_main_code_and_a_frozen_collector(monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts["hyperfit"] == "hyperfit.cli:script"

    monkeypatch.setattr(cli, "main", lambda: 3)
    try:
        with pytest.raises(SystemExit) as exc:
            cli.script()
        assert exc.value.code == 3
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

class TestCmdCurve:
    @pytest.fixture
    def peru_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        capsys.readouterr()
        return out_file

    def read_curve(self, path):
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,value"
        return np.array([[float(v) for v in l.split(",")] for l in lines[1:]])

    def test_flat_curve_for_zero_slope_linear(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--model", "linear",
                         "--param", "p0=1.5", "--param", "c0=0", "--param", "t0=1970",
                         "--quantity", "logprice",
                         "--from", "1970", "--to", "1990", "--points", "11",
                         "--out", str(out))
        assert code == 0
        data = self.read_curve(out)
        assert np.all(data[:, 1] == 1.5)

    def test_rate_curve_consistent_with_logprice_differences(self, capsys, tmp_path, peru_report):
        step = 0.01
        f_price = tmp_path / "p.csv"
        f_rate = tmp_path / "r.csv"
        code, _, _ = run(capsys, "curve", "--report", str(peru_report),
                         "--quantity", "logprice", "--from", "1980", "--to", "1988",
                         "--points", "801", "--out", str(f_price))
        assert code == 0
        code, _, _ = run(capsys, "curve", "--report", str(peru_report),
                         "--quantity", "rate", "--from", "1980", "--to", "1988",
                         "--points", "801", "--out", str(f_rate))
        assert code == 0
        p = self.read_curve(f_price)
        r = self.read_curve(f_rate)
        # r(t) with dt = 1 versus the centered derivative of p(t): the
        # mismatch is the O(step^2) quadrature error plus the dt-width
        # averaging; centered differences isolate the former.
        dp = (p[2:, 1] - p[:-2, 1]) / (2 * step)
        r_mid = r[1:-1, 1]
        assert np.max(np.abs(dp - r_mid) / r_mid) < 1e-4

    def test_clipping_at_singularity_warns_but_succeeds(self, capsys, tmp_path, peru_report):
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "curve", "--report", str(peru_report),
                           "--quantity", "logprice", "--from", "1990", "--to", "1995",
                           "--points", "50", "--out", str(out))
        assert code == 0
        assert "clipped" in err
        data = self.read_curve(out)
        assert np.all(data[:, 0] < 1991.3)

    def test_tau2_curve(self, capsys, tmp_path, peru_report):
        out = tmp_path / "tau.csv"
        code, _, _ = run(capsys, "curve", "--report", str(peru_report),
                         "--quantity", "tau2", "--from", "1985", "--to", "1991",
                         "--points", "20", "--out", str(out))
        assert code == 0
        data = self.read_curve(out)
        assert np.all(np.diff(data[:, 1]) < 0)

    def test_price_curve_is_exp_of_logprice(self, capsys, tmp_path, peru_report):
        curves = {}
        for quantity in ("logprice", "price"):
            out = tmp_path / f"{quantity}.csv"
            code, _, _ = run(capsys, "curve", "--report", str(peru_report),
                             "--quantity", quantity, "--from", "1970", "--to", "1990",
                             "--points", "41", "--out", str(out))
            assert code == 0
            curves[quantity] = self.read_curve(out)
        assert curves["price"][:, 0].tobytes() == curves["logprice"][:, 0].tobytes()
        assert curves["price"][:, 1].tobytes() == np.exp(curves["logprice"][:, 1]).tobytes()

    @pytest.mark.parametrize("quantity", ["rate", "tau2"])
    @pytest.mark.parametrize("model", ["linear", "doubleexp"])
    def test_singular_quantities_of_other_models_exit_3(self, capsys, tmp_path, model,
                                                         quantity):
        report_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--model", model, "--out", str(report_file))
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "curve", "--report", str(report_file),
                           "--quantity", quantity, "--from", "1970", "--to", "1980",
                           "--out", str(out))
        assert code == 3 and "need a singularity model" in err
        assert not out.exists()

    @pytest.mark.parametrize("params, message", [
        ((), "curve needs --report FILE or --model with --param NAME=VALUE"),
        (("--param", "p0=1", "--param", "c0"), "bad --param 'c0', expected NAME=VALUE"),
    ], ids=["no-input", "param-without-equals"])
    def test_missing_or_bad_param_exits_2(self, capsys, tmp_path, params, message):
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "curve", "--model", "linear", *params,
                           "--from", "1970", "--to", "1990", "--out", str(out))
        assert code == 2 and message in err
        assert not out.exists()

    def test_entirely_beyond_tc_exits_3(self, capsys, tmp_path, peru_report):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "curve", "--report", str(peru_report),
                         "--quantity", "logprice", "--from", "1995", "--to", "1999",
                         "--points", "5", "--out", str(out))
        assert code == 3

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_exit_2_before_the_report_is_read(self, capsys, tmp_path, points):
        # The report does not exist: the --points message shows that the
        # check came first.
        out = tmp_path / "curve.csv"
        code, _, err = run(capsys, "curve", "--report", str(tmp_path / "missing.json"),
                           "--from", "1980", "--to", "1988", "--points", points,
                           "--out", str(out))
        assert code == 2 and "--points must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--from", "nan"), ("--from", "-inf"),
                                             ("--to", "inf"), ("--to", "nan")])
    def test_non_finite_range_exits_2_before_the_report_is_read(self, capsys, tmp_path, flag,
                                                                value):
        # --from nan wrote NaN rows and exited 0; --to inf warned, then
        # exited 3 with a wrong "beyond the singularity" message.
        out = tmp_path / "curve.csv"
        bounds = {"--from": "1980", "--to": "1988", flag: value}
        code, _, err = run(capsys, "curve", "--report", str(tmp_path / "missing.json"),
                           *(f"{name}={text}" for name, text in bounds.items()),
                           "--out", str(out))
        assert code == 2 and f"{flag} must be finite" in err
        assert not out.exists()

    def test_overflowing_price_exits_3(self, capsys, tmp_path):
        # The double-exponential price of Peru overflows from 2009 on: this
        # wrote 2009.0,inf and 2010.0,inf, with numpy's overflow warning,
        # and exited 0.
        report = tmp_path / "dexp.json"
        run(capsys, "fit", PERU_CSV, "--model", "doubleexp", "--out", str(report))
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "curve", "--report", str(report), "--quantity", "price",
                               "--from", "2000", "--to", "2010", "--points", "11",
                               "--out", str(out))
        assert code == 3 and "the price at t = 2009.0 (inf) is not a finite number" in err
        assert caught == [] and not out.exists()

    def test_overflowing_logprice_exits_3(self, capsys, tmp_path):
        # expm1(b2 x) overflows once b2 x passes about 709.8: x = 8 here.
        out = tmp_path / "curve.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "curve", "--model", "doubleexp", "--param", "p0=0",
                               "--param", "c0=1", "--param", "b2=100", "--param", "t0=2000",
                               "--quantity", "logprice", "--from", "2000", "--to", "2010",
                               "--points", "11", "--out", str(out))
        assert code == 3 and "the logprice at t = 2008.0 (inf)" in err
        assert caught == [] and not out.exists()


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

class TestCmdPredict:
    @pytest.fixture
    def peru_report(self, capsys, tmp_path):
        out_file = tmp_path / "report.json"
        run(capsys, "fit", PERU_CSV, "--out", str(out_file))
        capsys.readouterr()
        return out_file

    def parse(self, out):
        return {k.strip(): float(v) for k, v in
                (line.split(":", 1) for line in out.strip().splitlines())}

    def test_mid_series_matches_generator(self, capsys, peru_report):
        code, out, _ = run(capsys, "predict", "--report", str(peru_report),
                           "--date", "1985")
        assert code == 0
        values = self.parse(out)
        # The rate fixture normalizes P(1969) to 1, so the prediction is the
        # generator curve divided by its own t0 value.
        preset = episode("peru").params
        expected = math.exp(eval_singularity(preset, 1985.0) - eval_singularity(preset, 1969.0))
        assert values["price_index"] == pytest.approx(expected, rel=1e-6)

    def test_t0_gives_exp_p0(self, capsys, peru_report):
        code, out, _ = run(capsys, "predict", "--report", str(peru_report),
                           "--date", "1969")
        assert code == 0
        values = self.parse(out)
        report = read_report(peru_report)
        assert values["price_index"] == pytest.approx(
            math.exp(report.data["fit.p0"]), rel=1e-12)

    def test_beyond_singularity_exits_3(self, capsys, peru_report):
        code, _, err = run(capsys, "predict", "--report", str(peru_report),
                           "--date", "1995")
        assert code == 3
        assert "singular" in err

    @pytest.mark.parametrize("date", ["abc", "1990-13-01", "1990-02-30", "1990-06"])
    def test_bad_yearly_date_exits_2(self, capsys, peru_report, date):
        code, out, err = run(capsys, "predict", "--report", str(peru_report), "--date", date)
        assert code == 2 and out == ""
        assert "bad yearly date" in err

    def test_reload_is_bit_exact(self, capsys, peru_report):
        # Reloading the report and recomputing in-process gives the same
        # bits as the CLI path.
        code, out, _ = run(capsys, "predict", "--report", str(peru_report),
                           "--date", "1988")
        assert code == 0
        values = self.parse(out)
        report = read_report(peru_report)
        params = params_from_report(report)
        assert values["price_index"] == float(np.exp(eval_singularity(params, 1988.0)))

    @pytest.fixture
    def dexp_report(self, capsys, tmp_path):
        out_file = tmp_path / "dexp.json"
        run(capsys, "fit", PERU_CSV, "--model", "doubleexp", "--out", str(out_file))
        capsys.readouterr()
        return out_file

    def test_double_exp_report_predict(self, capsys, dexp_report):
        code, out, _ = run(capsys, "predict", "--report", str(dexp_report), "--date", "1985")
        assert code == 0
        params = params_from_report(read_report(dexp_report))
        price = float(np.exp(eval_double_exp(params, 1985.0)))
        prior = float(np.exp(eval_double_exp(params, 1984.0)))
        assert self.parse(out) == {"t": 1985.0, "price_index": price,
                                   "yoy_inflation_pct": 100.0 * (price / prior - 1.0)}

    @pytest.mark.parametrize("date", ["2009", "2010"])
    def test_overflowing_price_exits_3(self, capsys, dexp_report, date):
        # The double-exponential price of Peru overflows in 2010 (2009 is
        # finite a year before it): this printed inf and nan, with numpy's
        # overflow warnings, and exited 0.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "predict", "--report", str(dexp_report),
                                 "--date", date)
        assert (code, out) == (3, "") and f"price index at {date} " in err
        assert "not a finite positive number" in err
        assert caught == []

    def test_monthly_report_needs_a_month(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        run(capsys, "fit", str(fixture_path("germany")), "--out", str(out_file))
        capsys.readouterr()
        code, out, err = run(capsys, "predict", "--report", str(out_file), "--date", "1923")
        assert (code, out) == (2, "")
        assert "monthly report needs YYYY-MM or YYYY-MM-DD, got '1923'" in err

    def test_monthly_report_predict(self, capsys, tmp_path):
        out_file = tmp_path / "g.json"
        run(capsys, "fit", str(fixture_path("germany")), "--out", str(out_file))
        capsys.readouterr()
        code, out, _ = run(capsys, "predict", "--report", str(out_file),
                           "--date", "1923-06")
        assert code == 0
        values = self.parse(out)
        assert values["price_index"] > 1.0
        assert values["yoy_inflation_pct"] > 100.0


# ---------------------------------------------------------------------------
# Malformed reports
# ---------------------------------------------------------------------------

#: A fitted report (fixture, model) with keys replaced (None deletes the key).
#: Before these were checked, a string tc and a monthly report without its
#: ordinal ended in a traceback, as did a list for the year convention (on a
#: YYYY-MM-DD date), and NaN b2, true p0 and an unknown resolution exited 0.
MALFORMED_REPORTS = {
    "tc-string": ("peru", "singularity", {"fit.tc": "x"}),
    "monthly-without-ordinal": ("germany", "singularity", {"series.t0_ordinal": None}),
    "ordinal-fraction": ("germany", "singularity", {"series.t0_ordinal": 702000.5}),
    "b2-nan": ("peru", "doubleexp", {"fit.b2": math.nan}),
    "c0-infinite": ("peru", "linear", {"fit.c0": -math.inf}),
    "c0-beyond-float": ("peru", "linear", {"fit.c0": 10**400}),
    "p0-true": ("peru", "singularity", {"fit.p0": True}),
    "resolution-unknown": ("peru", "singularity", {"series.resolution": "weekly"}),
    "year-convention-unknown": ("peru", "singularity", {"input.year_convention": "weird"}),
    "year-convention-list": ("peru", "singularity", {"input.year_convention": ["start"]}),
    "model-unknown": ("peru", "singularity", {"model": "quadratic"}),
}


@pytest.mark.parametrize("command", ["predict", "curve"])
@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_report_exits_2(capsys, tmp_path, command, case):
    name, model, edits = MALFORMED_REPORTS[case]
    report_file = tmp_path / "report.json"
    run(capsys, "fit", str(fixture_path(name)), "--model", model, "--out", str(report_file))
    data = read_report(report_file).data | edits
    data = {key: value for key, value in data.items() if value is not None}
    report_file.write_text(json.dumps(data), encoding="utf-8")
    monthly = data.get("series.resolution") == "monthly"
    if command == "predict":
        argv = ["--date", "1922-06" if monthly else "1980"]
    else:
        argv = ["--from", "0" if monthly else "1980", "--to", "100" if monthly else "1985",
                "--points", "5", "--out", str(tmp_path / "curve.csv")]
    code, out, err = run(capsys, command, "--report", str(report_file), *argv)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_param_exits_2(capsys, tmp_path, value):
    out = tmp_path / "curve.csv"
    code, _, err = run(capsys, "curve", "--model", "linear", "--param", f"p0={value}",
                       "--param", "c0=0", "--param", "t0=1970",
                       "--from", "1970", "--to", "1990", "--out", str(out))
    assert code == 2 and f"finite number at fit.p0, got {float(value)!r}" in err
    assert not out.exists()


def test_domain_error_in_a_report_still_exits_3(capsys, tmp_path):
    report_file = tmp_path / "report.json"
    run(capsys, "fit", PERU_CSV, "--out", str(report_file))
    data = read_report(report_file).data
    data["fit.c0"] = -0.1
    report_file.write_text(json.dumps(data), encoding="utf-8")
    code, _, _ = run(capsys, "predict", "--report", str(report_file), "--date", "1980")
    assert code == 3
