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
    read_surface_csv,
    surface_q_to_survival,
)
from mortcast import timeseries
from mortcast.cli import main

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
        forecast = read_surface_csv(out_dir / "forecast.csv", SurfaceKind.DEATH_PROB)
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
        forecast = read_surface_csv(out_dir / "forecast.csv", SurfaceKind.DEATH_PROB)
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

    def test_usage_checks(self, tmp_path):
        params, _ = self.fit_lc_dir(tmp_path)
        assert main(
            ["forecast", "--params", str(params), "--horizon", "0", "--out", str(tmp_path / "x")]
        ) == 1
        assert main(
            ["forecast", "--params", str(params), "--horizon", "2", "--mode", "sample",
             "--paths", "0", "--out", str(tmp_path / "x")]
        ) == 1

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
        assert not (tmp_path / "fc" / "quantiles.csv").exists()
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


class TestBacktest:
    ARGS = ["--x-min", "60", "--x-max", "74", "--fit-from", "1980", "--fit-to", "1999",
            "--forecast-from", "2000", "--forecast-to", "2009"]

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

    def test_window_contiguity_is_usage_error(self, tmp_path):
        code = main(
            ["backtest", "--synth", "lc", "--x-min", "60", "--x-max", "74",
             "--fit-from", "1980", "--fit-to", "1999", "--forecast-from", "2001",
             "--forecast-to", "2009", "--out", str(tmp_path / "bt")]
        )
        assert code == 1


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
