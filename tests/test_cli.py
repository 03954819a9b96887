import csv
import io
import re
import subprocess
import sys

import numpy as np
import pytest

from mortcast import (
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    build_l_diff,
    central_rate_to_q,
    fit_sl,
    parse_hmd,
    surface_q_to_survival,
)
from mortcast import timeseries
from mortcast.cli import main

from conftest import read_export_csv

# data files cover 1989-2009 so the default reference year 1989 is present
SYNTH_WINDOW = ["--x-min", "60", "--x-max", "74", "--t-min", "1989", "--t-max", "2009"]
FIT_WINDOW = ["--x-min", "60", "--x-max", "74", "--t-min", "1990", "--t-max", "2009"]


def synth_file(tmp_path, manifold="sl", name="rates.txt", extra=()):
    path = tmp_path / name
    code = main(
        ["synth", "--manifold", manifold, *SYNTH_WINDOW, *extra, "--out", str(path)]
    )
    assert code == 0
    return path


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def header_dict(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("# ") or " = " not in line:
            continue
        key, _, value = line[2:].partition(" = ")
        meta[key] = value
    return meta


class TestSynth:
    def test_writes_parseable_file(self, tmp_path):
        path = synth_file(tmp_path, manifold="gompertz")
        out = parse_hmd(path, "total", AgeRange(60, 74), YearRange(1989, 2009))
        assert out.values.shape == (15, 21)
        assert path.read_text().startswith("synthetic gompertz")

    def test_window_validation(self, tmp_path):
        code = main(
            ["synth", "--x-min", "70", "--x-max", "60", "--t-min", "1990",
             "--t-max", "2009", "--out", str(tmp_path / "x.txt")]
        )
        assert code == 1

    @pytest.mark.parametrize("window, message", [
        (["--x-min", "60", "--x-max", "120", "--t-min", "1960", "--t-max", "1970"],
         "HMD tables hold ages 0-110, cannot write age 111"),
        (["--x-min", "60", "--x-max", "94", "--t-min", "1700", "--t-max", "1710"],
         "HMD tables start in 1750, cannot write year 1700"),
    ])
    def test_window_outside_hmd_is_refused(self, tmp_path, capsys, window, message):
        out = tmp_path / "t.txt"
        capsys.readouterr()
        assert main(["synth", *window, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"mortcast: error: {message}\n"
        assert not out.exists()

    def test_widest_hmd_window_round_trips(self, tmp_path):
        out = tmp_path / "t.txt"
        window = ["--x-min", "0", "--x-max", "110", "--t-min", "1750", "--t-max", "1760"]
        assert main(["synth", *window, "--out", str(out)]) == 0
        fit = ["fit", "--model", "lc", "--input", str(out), "--x-min", "0", "--x-max", "110",
               "--t-min", "1750", "--t-max", "1760", "--out", str(tmp_path / "fit")]
        assert main(fit) == 0


class TestFit:
    def test_sl_artifacts_match_library_fit(self, tmp_path):
        data = synth_file(tmp_path)
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--model", "sl", "--input", str(data), *FIT_WINDOW,
             "--out", str(out_dir)]
        )
        assert code == 0
        for name in ("params.csv", "diagnostics.csv", "config.txt"):
            assert (out_dir / name).exists()

        rates = parse_hmd(data, "total", AgeRange(60, 74), YearRange(1989, 2009))
        surv = surface_q_to_survival(
            MortalitySurface(
                ages=rates.ages, years=rates.years, kind=SurfaceKind.DEATH_PROB,
                values=central_rate_to_q(rates.values),
            )
        )
        delta = build_l_diff(surv, t0=1989, fit_years=YearRange(1990, 2009))
        params, diag = fit_sl(delta)
        assert diag.converged

        rows = read_rows(out_dir / "params.csv")
        alpha1 = np.array([float(r["value"]) for r in rows if r["param"] == "alpha1"])
        kappa = np.array([float(r["value"]) for r in rows if r["param"] == "kappa"])
        np.testing.assert_array_equal(alpha1, params.alpha1)
        np.testing.assert_array_equal(kappa, params.kappa)

        meta = header_dict(out_dir / "params.csv")
        assert meta["model"] == "sl"
        assert meta["t0"] == "1989"
        assert len(meta["input_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        data = synth_file(tmp_path)
        args = ["fit", "--model", "lc", "--input", str(data), *FIT_WINDOW,
                "--out", str(tmp_path / "a")]
        assert main(args) == 0
        first = (tmp_path / "a/params.csv").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "a/params.csv").read_bytes() == first

    @pytest.mark.parametrize("flag, char", [("--out", "\n"), ("--input", "\r"), ("--params", "\t")])
    def test_non_printable_flag_value_is_usage_error(self, tmp_path, capsys, flag, char):
        # every flag value is one line of the artifact headers
        bad = str(tmp_path / f"a{char}b")
        if flag == "--params":
            argv = ["forecast", "--params", bad, "--horizon", "5", "--out", str(tmp_path / "fc")]
        else:
            data = ["--input", bad] if flag == "--input" else ["--synth", "gompertz"]
            out = bad if flag == "--out" else str(tmp_path / "fit")
            argv = ["fit", "--model", "lc", *data, *FIT_WINDOW, "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{flag} must be printable" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_window_is_usage_error(self, tmp_path):
        data = synth_file(tmp_path)
        code = main(
            ["fit", "--model", "sl", "--input", str(data), "--x-min", "70",
             "--x-max", "60", "--t-min", "1990", "--t-max", "2009",
             "--out", str(tmp_path / "fit")]
        )
        assert code == 1

    def test_reference_year_inside_fit_window_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--model", "sl", "--synth", "sl", *FIT_WINDOW, "--t0", "1990",
             "--out", str(out_dir)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "mortcast: usage error: t0 1990 must precede the fit window\n"
        )
        assert not out_dir.exists()

    def test_exhausted_sweep_budget_signals_no_convergence(self, tmp_path):
        data = synth_file(tmp_path)
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--model", "sl", "--input", str(data), *FIT_WINDOW,
             "--k-max", "2", "--out", str(out_dir)]
        )
        assert code == 2
        # artifacts are still written for inspection
        assert (out_dir / "params.csv").exists()
        assert (out_dir / "config.txt").exists()
        meta = header_dict(out_dir / "diagnostics.csv")
        assert meta["converged"] == "False"
        assert meta["iterations"] == "2"

    def test_missing_value_is_data_error(self, tmp_path):
        data = synth_file(tmp_path)
        lines = data.read_text().splitlines()
        # first row of 1990, the first year inside the fit window
        fields = lines[18].split()
        assert fields[0] == "1990"
        fields[2:] = [".", ".", "."]
        lines[18] = "  ".join(fields)
        data.write_text("\n".join(lines) + "\n")
        code = main(
            ["fit", "--model", "lc", "--input", str(data), *FIT_WINDOW,
             "--out", str(tmp_path / "fit")]
        )
        assert code == 3

    def test_argparse_failures_exit_one(self, tmp_path):
        assert main([]) == 1
        assert main(["fit", "--model", "apc"]) == 1
        assert main(["fit", "--model", "sl", "--synth", "sl", *FIT_WINDOW]) == 1  # no --out
        assert main(["frobnicate"]) == 1


class TestForecast:
    def fit_lc_dir(self, tmp_path, improvement="-0.01"):
        data = synth_file(
            tmp_path, manifold="gompertz", extra=["--improvement", improvement]
        )
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--model", "lc", "--input", str(data), *FIT_WINDOW,
             "--out", str(out_dir)]
        )
        assert code == 0
        return out_dir / "params.csv", data

    def test_central_continues_constant_surface(self, tmp_path):
        params, data = self.fit_lc_dir(tmp_path, improvement="0.0")
        out_dir = tmp_path / "fc"
        code = main(
            ["forecast", "--params", str(params), "--horizon", "5", "--out", str(out_dir)]
        )
        assert code == 0
        forecast = read_export_csv((out_dir / "forecast.csv").read_text(), SurfaceKind.DEATH_PROB)
        assert forecast.years == YearRange(2010, 2014)
        assert forecast.ages == AgeRange(60, 74)
        # no improvement: the projection extends the flat surface exactly
        rates = parse_hmd(data, "total", AgeRange(60, 74), YearRange(2009, 2009))
        expected = central_rate_to_q(rates.values[:, 0])
        for j in range(5):
            np.testing.assert_allclose(forecast.values[:, j], expected, atol=1e-12)

    def test_sample_quantiles_are_ordered(self, tmp_path):
        params, _ = self.fit_lc_dir(tmp_path)
        out_dir = tmp_path / "fc"
        code = main(
            ["forecast", "--params", str(params), "--horizon", "8", "--mode", "sample",
             "--paths", "200", "--seed", "7", "--out", str(out_dir)]
        )
        assert code == 0
        rows = read_rows(out_dir / "quantiles.csv")
        assert len(rows) == 15 * 8
        for r in rows:
            assert float(r["q05"]) <= float(r["q50"]) <= float(r["q95"])

    def test_sample_is_seed_deterministic(self, tmp_path):
        params, _ = self.fit_lc_dir(tmp_path)
        base = ["forecast", "--params", str(params), "--horizon", "4",
                "--mode", "sample", "--paths", "50"]
        assert main(base + ["--seed", "3", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "3", "--out", str(tmp_path / "b")]) == 0
        assert main(base + ["--seed", "4", "--out", str(tmp_path / "c")]) == 0
        a = (tmp_path / "a/quantiles.csv").read_text()
        b = (tmp_path / "b/quantiles.csv").read_text()
        c = (tmp_path / "c/quantiles.csv").read_text()
        assert [l for l in a.splitlines() if not l.startswith("#")] == [
            l for l in b.splitlines() if not l.startswith("#")
        ]
        assert a != c

    def test_sl_round_trip_through_params_file(self, tmp_path):
        data = synth_file(tmp_path)
        fit_dir = tmp_path / "fit"
        assert main(
            ["fit", "--model", "sl", "--input", str(data), *FIT_WINDOW,
             "--out", str(fit_dir)]
        ) == 0
        out_dir = tmp_path / "fc"
        code = main(
            ["forecast", "--params", str(fit_dir / "params.csv"), "--horizon", "3",
             "--out", str(out_dir)]
        )
        assert code == 0
        forecast = read_export_csv((out_dir / "forecast.csv").read_text(), SurfaceKind.DEATH_PROB)
        assert forecast.years == YearRange(2010, 2012)
        assert np.all(forecast.values > 0.0) and np.all(forecast.values < 1.0)

    def test_cbd_round_trip_through_params_file(self, tmp_path):
        data = synth_file(tmp_path, manifold="cbd")
        fit_dir = tmp_path / "fit"
        assert main(
            ["fit", "--model", "cbd", "--input", str(data), *FIT_WINDOW,
             "--out", str(fit_dir)]
        ) == 0
        code = main(
            ["forecast", "--params", str(fit_dir / "params.csv"), "--horizon", "2",
             "--out", str(tmp_path / "fc")]
        )
        assert code == 0

    def test_usage_checks(self, tmp_path, capsys):
        params, _ = self.fit_lc_dir(tmp_path)
        assert main(
            ["forecast", "--params", str(params), "--horizon", "0", "--out", str(tmp_path / "x")]
        ) == 1
        # a path's index must fit one 32-bit seed word
        for paths in (0, 2**32):
            capsys.readouterr()
            assert main(
                ["forecast", "--params", str(params), "--horizon", "2", "--mode", "sample",
                 "--paths", str(paths), "--out", str(tmp_path / "x")]
            ) == 1
            err = capsys.readouterr().err
            assert err == f"mortcast: usage error: paths must be in [1, 2**32), got {paths}\n"
        assert not (tmp_path / "x").exists()

    def test_missing_params_file_is_data_error(self, tmp_path):
        assert main(
            ["forecast", "--params", str(tmp_path / "nope.csv"), "--horizon", "2",
             "--out", str(tmp_path / "x")]
        ) == 3


class TestParamsReader:
    """A params.csv off its model's row layout is a data error naming the line."""

    def fit(self, tmp_path, model):
        fit_dir = tmp_path / "fit"
        assert main(
            ["fit", "--model", model, "--synth", "gompertz", *FIT_WINDOW, "--out", str(fit_dir)]
        ) == 0
        path = fit_dir / "params.csv"
        return path, path.read_text().splitlines()

    def forecast(self, path, lines, tmp_path, capsys):
        path.write_text("\n".join(lines) + "\n")
        code = main(
            ["forecast", "--params", str(path), "--horizon", "2", "--out", str(tmp_path / "fc")]
        )
        assert not (tmp_path / "fc" / "forecast.csv").exists()
        return code, capsys.readouterr().err

    @staticmethod
    def line_of(lines, prefix):
        return next(k for k, line in enumerate(lines) if line.startswith(prefix))

    @pytest.mark.parametrize("model, row", [("sl", "t0"), ("cbd", "x_bar")])
    def test_missing_scalar_row(self, tmp_path, capsys, model, row):
        path, lines = self.fit(tmp_path, model)
        del lines[self.line_of(lines, f"{row},")]
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"ends at line {len(lines)}, before its {row},, row" in err

    def test_missing_series_row(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "lc")
        k = self.line_of(lines, "kappa_t,1995,")
        del lines[k]
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {k + 1}: expected a kappa_t,1995, row, got '{lines[k]}'" in err

    def test_non_integer_index(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "lc")
        k = self.line_of(lines, "kappa_t,1995,")
        lines[k] = lines[k].replace("1995", "1995.5", 1)
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {k + 1}: expected a kappa_t,1995, row, got '{lines[k]}'" in err

    def test_non_integer_t0(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "sl")
        k = self.line_of(lines, "t0,,")
        lines[k] = "t0,,1988.7"
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {k + 1}: unparseable int in 't0,,1988.7'" in err

    def test_non_integer_header(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "cbd")
        k = self.line_of(lines, "# x_min =")
        lines[k] = "# x_min = sixty"
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {k + 1}: invalid x_min 'sixty'" in err

    @pytest.mark.parametrize(
        "model, row, value",
        [("lc", "kappa_t,1993,", "nan"), ("sl", "base_survival,61,", "inf"), ("cbd", "x_bar,,", "nan")],
    )
    def test_non_finite_value(self, tmp_path, capsys, model, row, value):
        path, lines = self.fit(tmp_path, model)
        k = self.line_of(lines, row)
        lines[k] = row + value
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {k + 1}: non-finite value in '{row}{value}'" in err

    def test_extra_row(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "lc")
        lines.append("kappa_t,2010,0.5")
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert err == f"mortcast: error: line {len(lines)}: more rows than the lc layout\n"

    def test_missing_model_header(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "cbd")
        del lines[self.line_of(lines, "# model =")]
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert err == "mortcast: error: params file carries no '# model =' header\n"

    def test_rows_out_of_order(self, tmp_path, capsys):
        path, lines = self.fit(tmp_path, "lc")
        first, last = self.line_of(lines, "kappa_t,1990,"), self.line_of(lines, "kappa_t,2009,")
        lines[first], lines[last] = lines[last], lines[first]
        code, err = self.forecast(path, lines, tmp_path, capsys)
        assert code == 3
        assert f"line {first + 1}: expected a kappa_t,1990, row, got '{lines[first]}'" in err


class TestInvalidSamplePath:
    """A noisy SL fit whose sampled survival curves turn non-monotone by horizon 50."""

    NAMED = re.compile(
        r"survival increases from age (\d+) to (\d+) in year (\d+) on sample path (\d+)$"
    )

    def test_error_names_path_year_and_ages(self, tmp_path, capsys, monkeypatch):
        fit_dir = tmp_path / "fit"
        assert main(
            ["fit", "--model", "sl", "--synth", "gompertz", "--noise-sd", "0.05",
             "--seed", "0", "--x-min", "60", "--x-max", "94", "--t-min", "1960",
             "--t-max", "2009", "--out", str(fit_dir)]
        ) == 0

        def forecast(paths, out):
            code = main(
                ["forecast", "--params", str(fit_dir / "params.csv"), "--horizon", "50",
                 "--mode", "sample", "--paths", str(paths), "--seed", "0",
                 "--out", str(tmp_path / out)]
            )
            return code, capsys.readouterr().err.strip()

        code, err = forecast(500, "fc")
        assert code == 3
        assert not (tmp_path / "fc").exists()
        match = self.NAMED.search(err)
        assert match, err
        x, x_next, year, path = (int(g) for g in match.groups())
        assert 60 <= x and x_next == x + 1 <= 94
        assert 2010 <= year <= 2059 and 0 <= path < 500

        # the named path is the first bad one: the paths before it are valid
        assert path == 0 or forecast(path, "before")[0] == 0
        # and the name does not depend on how paths are chunked
        monkeypatch.setattr(timeseries, "PATH_CHUNK", 16)
        assert forecast(500, "chunked") == (3, err)


class TestForecastOverflow:
    """A horizon whose states overflow exp, or whose q rounds to 1, is a data error.

    The error names its cell in one stderr line. The noise-free fit
    calibrates a walk without noise, so every sample path is the central
    one and path 0 is the first bad path.
    """

    SAMPLE = ["--mode", "sample", "--paths", "3"]

    @pytest.mark.parametrize("model, mode, message", [
        pytest.param("sl", [], "nonpositive survival at age 60, year 2228", id="sl-central"),
        pytest.param("sl", SAMPLE, "nonpositive survival at sample path 0, age 60, year 2228",
                     id="sl-sample"),
        pytest.param("lc", [], "non-finite central_rate at age 60, year 16291", id="lc-central"),
        pytest.param("lc", SAMPLE, "non-finite central_rate at sample path 0, age 60, year 16291",
                     id="lc-sample"),
    ])
    def test_exit_data_with_one_line(self, tmp_path, capsys, model, mode, message):
        data = synth_file(tmp_path, manifold="gompertz", extra=["--improvement", "0.05"])
        fit = ["fit", "--model", model, "--input", str(data), *FIT_WINDOW,
               "--out", str(tmp_path / "fit")]
        assert main(fit) == 0
        capsys.readouterr()
        code = main(["forecast", "--params", str(tmp_path / "fit" / "params.csv"),
                     "--horizon", "20000", *mode, "--out", str(tmp_path / "fc")])
        assert code == 3
        assert capsys.readouterr().err == f"mortcast: error: {message}\n"
        assert not (tmp_path / "fc").exists()

    @pytest.mark.parametrize("model, horizon, mode, message", [
        pytest.param("lc", "100", [], "age 76, year 2109", id="lc-central"),
        pytest.param("lc", "100", ["--mode", "sample", "--paths", "200", "--seed", "1"],
                     "sample path 0, age 76, year 2109", id="lc-sample"),
        pytest.param("cbd", "20000", [], "age 60, year 2826", id="cbd-central"),
        pytest.param("cbd", "20000", SAMPLE, "sample path 0, age 60, year 2826", id="cbd-sample"),
    ])
    def test_death_probability_of_one(self, tmp_path, capsys, model, horizon, mode, message):
        data = tmp_path / "improving.txt"
        assert main(["synth", "--x-min", "60", "--x-max", "94", "--t-min", "1959",
                     "--t-max", "2009", "--improvement", "0.05", "--out", str(data)]) == 0
        assert main(["fit", "--model", model, "--input", str(data), "--x-min", "60",
                     "--x-max", "94", "--t-min", "1960", "--t-max", "2009",
                     "--out", str(tmp_path / "fit")]) == 0
        capsys.readouterr()
        code = main(["forecast", "--params", str(tmp_path / "fit" / "params.csv"),
                     "--horizon", horizon, *mode, "--out", str(tmp_path / "fc")])
        assert code == 3
        assert capsys.readouterr().err == f"mortcast: error: death probability of 1 at {message}\n"
        assert not (tmp_path / "fc").exists()


def synth_age_above_hmd(tmp_path, out_dir):
    window = ["--x-min", "60", "--x-max", "120", "--t-min", "1960", "--t-max", "1970"]
    return ["synth", *window, "--out", str(out_dir / "t.txt")]


def fit_sl_on_zero_base_rate(tmp_path, out_dir):
    table = tmp_path / "t.txt"
    window = ["--x-min", "60", "--x-max", "74", "--t-min", "1959", "--t-max", "1970"]
    assert main(["synth", *window, "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[3].split()[:2] == ["1959", "60"]
    # base survival 1 at age 60 in the reference year
    lines[3] = "1959   60   0   0   0"
    table.write_text("\n".join(lines) + "\n")
    return ["fit", "--model", "sl", "--input", str(table), "--x-min", "60", "--x-max", "74",
            "--t-min", "1960", "--t-max", "1970", "--out", str(out_dir)]


def forecast_invalid_sample_path(tmp_path, out_dir):
    fit_dir = tmp_path / "fit"
    assert main(
        ["fit", "--model", "sl", "--synth", "gompertz", "--noise-sd", "0.05", "--seed", "0",
         "--x-min", "60", "--x-max", "94", "--t-min", "1960", "--t-max", "2009",
         "--out", str(fit_dir)]
    ) == 0
    return ["forecast", "--params", str(fit_dir / "params.csv"), "--horizon", "50",
            "--mode", "sample", "--paths", "500", "--seed", "0", "--out", str(out_dir)]


@pytest.mark.parametrize(
    "command", [synth_age_above_hmd, fit_sl_on_zero_base_rate, forecast_invalid_sample_path]
)
def test_data_error_leaves_no_output_directory(tmp_path, command):
    out_dir = tmp_path / "newdir"
    argv = command(tmp_path, out_dir)
    assert main(argv) == 3
    assert not out_dir.exists()


class TestNegativeSeed:
    """A negative --seed is a usage error (exit 1) in every subcommand."""

    @staticmethod
    def lc_params(tmp_path):
        data = synth_file(tmp_path, manifold="lc")
        assert main(
            ["fit", "--model", "lc", "--input", str(data), *FIT_WINDOW,
             "--out", str(tmp_path / "fit")]
        ) == 0
        return tmp_path / "fit" / "params.csv"

    @pytest.mark.parametrize("command", ["synth", "fit", "backtest", "forecast"])
    def test_exit_usage_with_one_line(self, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        gompertz = ["--synth", "gompertz", "--noise-sd", "0.01", "--seed", "-1"]
        if command == "forecast":
            argv = ["forecast", "--params", str(self.lc_params(tmp_path)), "--horizon", "3",
                    "--mode", "sample", "--paths", "5", "--seed", "-1", "--out", out]
        else:
            argv = {
                "synth": ["synth", *SYNTH_WINDOW, "--noise-sd", "0.01", "--seed", "-1",
                          "--out", out],
                "fit": ["fit", "--model", "lc", *gompertz, *FIT_WINDOW, "--out", out],
                "backtest": ["backtest", *gompertz, *TestBacktest.ARGS, "--out", out],
            }[command]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "mortcast: usage error: seed must be a nonnegative integer, got -1\n"
        assert not (tmp_path / "out").exists()


class TestNonFiniteConfig:
    """A NaN or infinite generator or fit setting is a usage error (exit 1), caught early."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--noise-sd", "nan", "noise_sd must be nonnegative, got nan"),
            ("--gompertz-a", "nan", "Gompertz level and slope must be positive, got nan and 0.09"),
            ("--gompertz-b", "nan", "Gompertz level and slope must be positive, got 0.005 and nan"),
            ("--improvement", "nan", "improvement must be finite, got nan"),
            ("--improvement", "inf", "improvement must be finite, got inf"),
            ("--gompertz-a", "inf", "gompertz_a must be finite, got inf"),
            ("--gompertz-b", "inf", "gompertz_b must be finite, got inf"),
            ("--noise-sd", "inf", "noise_sd must be finite, got inf"),
        ],
    )
    def test_synth_setting(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out" / "rates.txt"
        assert main(["synth", *SYNTH_WINDOW, f"{flag}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mortcast: usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, value, message",
        [
            pytest.param("fit", "nan", "epsilon must be positive, got nan", id="fit"),
            pytest.param("backtest", "nan", "epsilon must be positive, got nan", id="backtest"),
            # accepted, epsilon = inf stopped every fit after one sweep as "converged"
            pytest.param("fit", "inf", "epsilon must be finite, got inf", id="fit-inf"),
            pytest.param("backtest", "inf", "epsilon must be finite, got inf", id="backtest-inf"),
        ],
    )
    def test_epsilon(self, tmp_path, capsys, command, value, message):
        argv = {
            "fit": ["fit", "--model", "sl", *FIT_WINDOW],
            "backtest": ["backtest", *TestBacktest.ARGS],
        }[command]
        out = tmp_path / "out"
        assert main([*argv, "--synth", "gompertz", "--epsilon", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"mortcast: usage error: {message}\n"
        assert not out.exists()


class TestBacktest:
    ARGS = ["--x-min", "60", "--x-max", "74", "--fit-from", "1980", "--fit-to", "1999",
            "--forecast-to", "2009"]

    def test_report_and_mi_artifacts(self, tmp_path):
        out_dir = tmp_path / "bt"
        code = main(
            ["backtest", "--synth", "sl", *self.ARGS, "--country", "ZZ", "--out", str(out_dir)]
        )
        assert code == 0
        rows = read_rows(out_dir / "report.csv")
        assert [r["model"] for r in rows] == ["SL", "SL", "LC", "LC", "CBD", "CBD"]
        assert [r["period"] for r in rows] == ["fit", "forecast"] * 3
        for r in rows:
            assert r["country"] == "ZZ"
            assert float(r["mse_star"]) == 1e4 * float(r["mse"])
        sl_forecast_mse = float(rows[1]["mse"])
        assert sl_forecast_mse < 1e-10
        assert float(rows[3]["mse"]) > sl_forecast_mse
        assert float(rows[5]["mse"]) > sl_forecast_mse

        mi = read_rows(out_dir / "mi_rates.csv")
        assert len(mi) == 10
        assert list(mi[0]) == ["year", "observed", "SL", "LC", "CBD"]

    def test_model_subset(self, tmp_path):
        out_dir = tmp_path / "bt"
        code = main(
            ["backtest", "--synth", "lc", *self.ARGS, "--models", "lc", "--out", str(out_dir)]
        )
        assert code == 0
        rows = read_rows(out_dir / "report.csv")
        assert [r["model"] for r in rows] == ["LC", "LC"]

    def test_sl_non_convergence_still_writes_report(self, tmp_path):
        out_dir = tmp_path / "bt"
        code = main(
            ["backtest", "--synth", "sl", *self.ARGS, "--k-max", "2", "--out", str(out_dir)]
        )
        assert code == 2
        assert (out_dir / "report.csv").exists()
        assert (out_dir / "mi_rates.csv").exists()

    def test_scoring_conventions_are_not_settable(self, tmp_path):
        """MAPE divides by the estimate; improvement rates use the last fit year."""
        out_dir = tmp_path / "bt"
        flag = ["--mape-denominator", "observed"]
        assert main(["backtest", "--synth", "sl", *self.ARGS, *flag, "--out", str(out_dir)]) == 1
        config = tmp_path / "bt.conf"
        config.write_text("mi_ref_year = 1959\n")
        assert main(
            ["backtest", "--config", str(config), "--synth", "sl", *self.ARGS, "--out", str(out_dir)]
        ) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("country", ["A,B", "A\nB", "A\rB"])
    def test_country_breaking_a_cell_or_line_is_usage_error(self, tmp_path, capsys, country):
        out_dir = tmp_path / "bt"
        code = main(
            ["backtest", "--synth", "sl", *self.ARGS, "--country", country, "--out", str(out_dir)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--country" in err
        assert not out_dir.exists()

    def test_window_contiguity_is_usage_error(self, tmp_path, capsys):
        """The holdout starts the year after --fit-to: there is no flag to leave a gap."""
        out_dir = tmp_path / "bt"
        argv = ["backtest", "--synth", "lc", *self.ARGS, "--out", str(out_dir)]
        assert main([*argv, "--forecast-from", "2001"]) == 1
        assert "unrecognized arguments: --forecast-from 2001" in capsys.readouterr().err
        # and an empty holdout is refused too
        assert main([*argv, "--forecast-to", "1999"]) == 1
        assert not out_dir.exists()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# fit window\nmodel = lc\nsynth = gompertz\nx_min = 60\nx_max = 74\n"
            "t_min = 1990\nt_max = 1999\n"
        )
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["fit", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(
            ["fit", "--config", str(config), "--t-max", "2009", "--out", str(out_b)]
        ) == 0
        assert header_dict(out_a / "params.csv")["t_max"] == "1999"
        assert header_dict(out_b / "params.csv")["t_max"] == "2009"

    def test_config_flag_without_value_is_usage_error(self, tmp_path, capsys):
        out_dir = tmp_path / "fit"
        code = main(
            ["fit", "--model", "lc", "--synth", "gompertz", *FIT_WINDOW, "--out", str(out_dir),
             "--config"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith("mortcast fit: error: argument --config: expected one argument\n")
        assert not out_dir.exists()

    def test_malformed_config_is_usage_error(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("no equals sign here\n")
        assert main(["fit", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
        assert main(
            ["fit", "--config", str(tmp_path / "missing.conf"), "--out", str(tmp_path / "x")]
        ) == 1


class TestNotUtf8:
    """A file that is not UTF-8 is named in a one-line error, never a traceback."""

    BAD = "S\xe9rie".encode("latin-1")

    def test_input_file_is_data_error(self, tmp_path, capsys):
        path = synth_file(tmp_path)
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join([self.BAD, *lines[1:]]))
        code = main(["fit", "--model", "lc", "--input", str(path), *FIT_WINDOW,
                     "--out", str(tmp_path / "fit")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"mortcast: error: {path}: line 1: invalid UTF-8 byte 0xe9\n"
        )

    def test_params_file_is_data_error(self, tmp_path, capsys):
        assert main(["fit", "--model", "cbd", "--synth", "gompertz", *FIT_WINDOW,
                     "--out", str(tmp_path / "fit")]) == 0
        path = tmp_path / "fit" / "params.csv"
        path.write_bytes(path.read_bytes() + b"# " + self.BAD + b"\n")
        n_lines = path.read_bytes().count(b"\n")
        code = main(["forecast", "--params", str(path), "--horizon", "2",
                     "--out", str(tmp_path / "fc")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"mortcast: error: {path}: line {n_lines}: invalid UTF-8 byte 0xe9\n"
        )

    def test_config_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"model = lc\ncountry = " + self.BAD + b"\n")
        code = main(["fit", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"mortcast: config error: {config}: line 2: invalid UTF-8 byte 0xe9\n"
        )


class TestEntryPoint:
    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mortcast.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "backtest" in proc.stdout
