import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import (
    AgeRange,
    DomainError,
    MortalitySurface,
    ParseError,
    SurfaceKind,
    SynthConfig,
    YearRange,
    export_csv,
    export_mi_csv,
    export_quantiles_csv,
    generate_manifold,
    generate_synthetic,
    parse_hmd,
    run_backtest,
    write_hmd,
)
from mortcast.ingest import write_csv

from conftest import read_export_csv

HMD_SAMPLE = """Sample population, Death rates (period 1x1)

  Year          Age             Female            Male           Total
  1990           60             0.010000        0.020000        0.015000
  1990           61             0.011000        0.021000        0.016000
  1990          110+            0.500000        0.600000        0.550000
  1991           60             0.012000        0.022000        0.017000
  1991           61             0.013000        0.023000        0.018000
"""


def sample_lines():
    return HMD_SAMPLE.splitlines()


def surface(values, kind, x_min=60, t_min=1990):
    values = np.asarray(values, dtype=float)
    return MortalitySurface(
        ages=AgeRange(x_min, x_min + values.shape[0] - 1),
        years=YearRange(t_min, t_min + values.shape[1] - 1),
        kind=kind,
        values=values,
    )


class TestParseHmd:
    def test_reads_requested_column(self):
        out = parse_hmd(
            io.StringIO(HMD_SAMPLE), "male", AgeRange(60, 61), YearRange(1990, 1991)
        )
        assert out.kind is SurfaceKind.CENTRAL_RATE
        np.testing.assert_array_equal(out.values, [[0.02, 0.022], [0.021, 0.023]])
        fem = parse_hmd(
            io.StringIO(HMD_SAMPLE), "female", AgeRange(60, 60), YearRange(1991, 1991)
        )
        assert fem.values[0, 0] == 0.012

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "rates.txt"
        path.write_text(HMD_SAMPLE)
        out = parse_hmd(path, "total", AgeRange(60, 61), YearRange(1990, 1990))
        np.testing.assert_array_equal(out.values, [[0.015], [0.016]])

    def test_unknown_column(self):
        with pytest.raises(DomainError):
            parse_hmd(io.StringIO(HMD_SAMPLE), "both", AgeRange(60, 61), YearRange(1990, 1991))

    def test_missing_value_inside_window(self):
        lines = sample_lines()
        lines[4] = "1990 61 0.011 . 0.016"
        with pytest.raises(ParseError, match="line 5"):
            parse_hmd(
                io.StringIO("\n".join(lines)), "male", AgeRange(60, 61), YearRange(1990, 1991)
            )

    def test_missing_value_outside_window_ignored(self):
        lines = sample_lines()
        lines[4] = "1990 61 0.011 . 0.016"
        out = parse_hmd(
            io.StringIO("\n".join(lines)), "male", AgeRange(60, 60), YearRange(1990, 1991)
        )
        assert out.values.shape == (1, 2)

    def test_open_age_group_skipped_outside_window(self):
        out = parse_hmd(
            io.StringIO(HMD_SAMPLE), "male", AgeRange(60, 61), YearRange(1990, 1990)
        )
        assert out.values.shape == (2, 1)

    def test_open_age_group_rejected_inside_window(self):
        with pytest.raises(ParseError, match="110"):
            parse_hmd(
                io.StringIO(HMD_SAMPLE), "male", AgeRange(60, 110), YearRange(1990, 1990)
            )

    def test_uncovered_window(self):
        with pytest.raises(ParseError, match="age 62"):
            parse_hmd(
                io.StringIO(HMD_SAMPLE), "male", AgeRange(60, 62), YearRange(1990, 1991)
            )

    def test_duplicate_row(self):
        lines = sample_lines()
        lines.append("  1991           61             0.013000        0.023000        0.018000")
        with pytest.raises(ParseError, match="duplicate"):
            parse_hmd(
                io.StringIO("\n".join(lines)), "male", AgeRange(60, 61), YearRange(1990, 1991)
            )

    def test_header_must_match(self):
        lines = sample_lines()
        lines[2] = "Year Age Women Men Total"
        with pytest.raises(ParseError, match="line 3"):
            parse_hmd(
                io.StringIO("\n".join(lines)), "male", AgeRange(60, 61), YearRange(1990, 1991)
            )

    def test_title_separator_must_be_blank(self):
        lines = sample_lines()
        lines[1] = "not blank"
        with pytest.raises(ParseError, match="line 2"):
            parse_hmd(
                io.StringIO("\n".join(lines)), "male", AgeRange(60, 61), YearRange(1990, 1991)
            )

    def test_truncated_file(self):
        with pytest.raises(ParseError, match="header"):
            parse_hmd(io.StringIO("Title\n"), "male", AgeRange(60, 61), YearRange(1990, 1991))

    def test_malformed_rows_named_by_line(self):
        # every row is checked in full, even outside the window or the column read
        for bad, pattern in (
            ("1990 61 0.011 0.021", "expected 5 fields"),
            ("1990 sixty 0.01 0.02 0.015", "unparseable age"),
            ("199O 60 0.01 0.02 0.015", "unparseable year"),
            ("1990 60 0.01 zero 0.015", "unparseable value"),
            ("1700 60 0.01 0.02 0.015", "implausible year"),
            ("1990 111 0.01 0.02 0.015", r"age 111 outside \[0, 110\]"),
            ("1990 -1 0.01 0.02 0.015", r"age -1 outside \[0, 110\]"),
            ("1985 60 0.01 zero 0.015", "unparseable value 'zero'"),
            ("1990 60 zero 0.02 0.015", "unparseable value 'zero'"),
        ):
            lines = sample_lines()
            lines.append(bad)
            with pytest.raises(ParseError, match=f"^line 9: {pattern}"):
                parse_hmd(
                    io.StringIO("\n".join(lines)), "male", AgeRange(60, 61), YearRange(1990, 1991)
                )


class TestUtf8:
    def test_file_not_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(HMD_SAMPLE.replace("Sample", "S\xe9rie").encode("latin-1"))
        message = f"{path}: line 1: invalid UTF-8 byte 0xe9"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_hmd(path, "male", AgeRange(60, 61), YearRange(1990, 1991))


class TestGenerateSynthetic:
    def test_no_improvement_is_time_constant(self):
        config = SynthConfig(improvement=0.0, years=YearRange(2000, 2004))
        out = generate_synthetic(config)
        for j in range(1, 5):
            np.testing.assert_array_equal(out.values[:, j], out.values[:, 0])

    def test_log_improvement_rate(self):
        out = generate_synthetic(SynthConfig())
        steps = np.diff(np.log(out.values), axis=1)
        np.testing.assert_allclose(steps, -0.01, atol=1e-12)

    def test_gompertz_age_slope(self):
        out = generate_synthetic(SynthConfig())
        steps = np.diff(np.log(out.values), axis=0)
        np.testing.assert_allclose(steps, 0.09, atol=1e-12)

    def test_seeded_noise_is_reproducible(self):
        a = generate_synthetic(SynthConfig(noise_sd=0.05, seed=3))
        b = generate_synthetic(SynthConfig(noise_sd=0.05, seed=3))
        c = generate_synthetic(SynthConfig(noise_sd=0.05, seed=4))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            SynthConfig(gompertz_a=0.0)
        with pytest.raises(DomainError):
            SynthConfig(noise_sd=-0.1)
        with pytest.raises(DomainError, match="seed"):
            SynthConfig(seed=-1)

    def test_overflow_rejected(self):
        with pytest.raises(DomainError):
            generate_synthetic(SynthConfig(gompertz_a=1e300, gompertz_b=10.0))


class TestManifoldGenerators:
    AGES = AgeRange(60, 94)
    YEARS = YearRange(1959, 2009)

    def test_dispatch_and_kind(self):
        for name in ("lc", "cbd", "sl"):
            out = generate_manifold(name, self.AGES, self.YEARS)
            assert out.kind is SurfaceKind.CENTRAL_RATE
            assert np.all(out.values > 0.0)
            assert np.all(out.values < 1.0)
        with pytest.raises(DomainError):
            generate_manifold("apc", self.AGES, self.YEARS)

    def test_lc_surface_is_rank_one_in_log(self):
        out = generate_manifold("lc", self.AGES, self.YEARS)
        log_m = np.log(out.values)
        centered = log_m - log_m.mean(axis=1, keepdims=True)
        s = np.linalg.svd(centered, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_cbd_surface_is_logit_affine(self):
        from mortcast import central_rate_to_q, logit

        out = generate_manifold("cbd", self.AGES, self.YEARS)
        y = logit(central_rate_to_q(out.values))
        x = self.AGES.to_array().astype(float)
        design = np.column_stack([np.ones(x.size), x])
        resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        assert np.max(np.abs(resid)) < 1e-12

    def test_sl_surface_has_rank_two_transform(self):
        from mortcast import build_l_diff, central_rate_to_q, surface_q_to_survival

        out = generate_manifold("sl", self.AGES, self.YEARS)
        q = MortalitySurface(
            ages=out.ages, years=out.years, kind=SurfaceKind.DEATH_PROB,
            values=central_rate_to_q(out.values),
        )
        delta = build_l_diff(surface_q_to_survival(q), t0=self.YEARS.t_min)
        s = np.linalg.svd(delta.values, compute_uv=False)
        assert s[2] < 1e-12 * s[0]


# small windows anywhere in ages 0-110 and years from 1750, positive finite rates
windows = st.tuples(
    st.integers(0, 110), st.integers(1, 4), st.integers(1750, 2100), st.integers(1, 4)
).filter(lambda w: w[0] + w[1] <= 111)
rates = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)


@st.composite
def rate_surfaces(draw):
    x_min, n_ages, t_min, n_years = draw(windows)
    values = draw(hnp.arrays(np.float64, (n_ages, n_years), elements=rates))
    return surface(values, SurfaceKind.CENTRAL_RATE, x_min=x_min, t_min=t_min)


class TestWriteHmd:
    @settings(max_examples=60, deadline=None)
    @given(rate_surfaces(), st.sampled_from(["female", "male", "total"]))
    def test_round_trip_property(self, out, column):
        buf = io.StringIO()
        write_hmd(out, buf)
        buf.seek(0)
        back = parse_hmd(buf, column, out.ages, out.years)
        np.testing.assert_array_equal(back.values.view(np.uint64), out.values.view(np.uint64))

    def test_round_trip(self, tmp_path):
        out = generate_synthetic(
            SynthConfig(ages=AgeRange(60, 64), years=YearRange(2000, 2003), noise_sd=0.02, seed=5)
        )
        path = tmp_path / "synthetic.txt"
        write_hmd(out, path, title="round trip fixture")
        back = parse_hmd(path, "female", out.ages, out.years)
        np.testing.assert_array_equal(back.values, out.values)
        male = parse_hmd(path, "male", out.ages, out.years)
        np.testing.assert_array_equal(male.values, out.values)


class TestSurfaceCsv:
    def test_layout(self):
        buf = io.StringIO()
        export_csv(surface([[0.25]], SurfaceKind.DEATH_PROB), buf)
        assert buf.getvalue() == "age,year,value\n60,1990,0.25\n"

    def test_round_trip_with_comments(self, tmp_path):
        out = generate_synthetic(
            SynthConfig(ages=AgeRange(60, 63), years=YearRange(2000, 2005), noise_sd=0.05, seed=9)
        )
        path = tmp_path / "surface.csv"
        export_csv(out, path, comments=("run = demo", "seed = 9"))
        text = path.read_text()
        assert text.startswith("# run = demo\n# seed = 9\n")
        back = read_export_csv(text, SurfaceKind.CENTRAL_RATE)
        assert back.ages == out.ages and back.years == out.years
        np.testing.assert_array_equal(back.values, out.values)

    @settings(max_examples=60, deadline=None)
    @given(rate_surfaces())
    def test_round_trip_property(self, out):
        buf = io.StringIO()
        export_csv(out, buf, comments=("property",))
        back = read_export_csv(buf.getvalue(), SurfaceKind.CENTRAL_RATE)
        assert back.ages == out.ages and back.years == out.years
        np.testing.assert_array_equal(back.values.view(np.uint64), out.values.view(np.uint64))

    def test_unserializable_object(self):
        with pytest.raises(DomainError):
            export_csv({"not": "a surface"}, io.StringIO())


class TestWriteCsv:
    def test_layout(self):
        buf = io.StringIO()
        rows = [("a", 1, 0.1), ("", np.int64(2), np.float64(1 / 3)), ("b", 3, -0.0),
                ("c", 4, 5e-324), ("d", 5, float("inf")), ("e", 6, float("nan")), ("f", 7, 1e22)]
        write_csv(buf, ("name", "index", "value"), rows, comments=("x = 1", "y = 2"))
        body = "".join(f"{name},{i},{v:.17g}\n" for name, i, v in rows)
        assert buf.getvalue() == "# x = 1\n# y = 2\nname,index,value\n" + body
        assert "0.10000000000000001" in body and ",-0\n" in body

    def test_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ("a", "b"), [])
        assert path.read_text() == "a,b\n"


class TestQuantilesCsv:
    def test_layout(self):
        bands = np.arange(12, dtype=float).reshape(3, 2, 2) / 16
        buf = io.StringIO()
        export_quantiles_csv(
            bands, AgeRange(60, 61), YearRange(2010, 2011), buf, comments=("demo",)
        )
        assert buf.getvalue() == (
            "# demo\n"
            "age,year,q05,q50,q95\n"
            "60,2010,0,0.25,0.5\n"
            "60,2011,0.0625,0.3125,0.5625\n"
            "61,2010,0.125,0.375,0.625\n"
            "61,2011,0.1875,0.4375,0.6875\n"
        )

    def test_shape_must_match_grid(self):
        with pytest.raises(DomainError, match="do not match"):
            export_quantiles_csv(
                np.zeros((2, 2, 2)), AgeRange(60, 61), YearRange(2010, 2011), io.StringIO()
            )


class TestReportCsv:
    @staticmethod
    def report():
        from mortcast import BacktestConfig

        config = BacktestConfig(
            ages=AgeRange(60, 79),
            fit_years=YearRange(1980, 1999),
            forecast_years=YearRange(2000, 2009),
            t0=1979,
        )
        data = generate_manifold(
            "lc", config.ages, YearRange(config.t0, config.forecast_years.t_max)
        )
        return run_backtest(data, config, country="XX", sex="f")

    def test_report_rows(self):
        report = self.report()
        buf = io.StringIO()
        export_csv(report, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "country,sex,model,period,mse,mse_star,mape"
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "XX" and fields[1] == "f"
            assert float(fields[5]) == 1e4 * float(fields[4])

    def test_mi_rows(self):
        report = self.report()
        buf = io.StringIO()
        export_mi_csv(report, buf, comments=("demo",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# demo"
        assert lines[1] == "year,observed,SL,LC,CBD"
        assert len(lines) == 2 + 10
        first = lines[2].split(",")
        assert first[0] == "2000"
        # LC reproduces its own manifold, so its column tracks observed
        assert float(first[3]) == pytest.approx(float(first[1]), abs=1e-6)
