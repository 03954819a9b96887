import numpy as np
import pytest

from mortcast import (
    AgeRange,
    BacktestConfig,
    DomainError,
    FitConfig,
    ModelMetrics,
    YearRange,
    generate_manifold,
    mape,
    mape_delta_last_two,
    mi_rate,
    mse,
    run_backtest,
)
from mortcast.lifetable import surface_central_rate_to_q

MI_OVER_ONE_THIRD = 28.768207245178093  # -100 * ln(0.75)


class TestMse:
    def test_values(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([1.0, 3.0], [2.0, 2.0]) == 1.0

    def test_scaling_and_symmetry(self):
        rng = np.random.default_rng(51)
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert mse(3.0 * a, 3.0 * b) == pytest.approx(9.0 * mse(a, b), rel=1e-12)
        assert mse(a, b) == mse(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            mse([1.0, 2.0], [1.0])

    def test_accepts_matrices(self):
        a = np.array([[1.0, 3.0], [0.0, 0.0]])
        b = np.array([[2.0, 2.0], [0.0, 0.0]])
        assert mse(a, b) == 0.5


class TestMape:
    def test_values(self):
        assert mape([5.0], [5.0]) == 0.0
        assert mape([2.0], [1.0]) == 100.0
        assert mape([1.0, 1.0], [2.0, 4.0]) == 62.5

    def test_denominator_conventions(self):
        # |1-2|/2 = 50%: the estimate 2 is the denominator, not the observed 1
        assert mape([1.0], [2.0]) == 50.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            mape([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            mape([1.0, 2.0], [1.0])


class TestMiRate:
    def test_values(self):
        assert mi_rate([0.01], 0.01)[0] == 0.0
        assert mi_rate([0.01 * np.exp(-0.1)], 0.01)[0] == pytest.approx(10.0, abs=1e-12)
        assert mi_rate([0.015], 0.02)[0] == pytest.approx(MI_OVER_ONE_THIRD, abs=1e-12)

    def test_series(self):
        q_ref = 0.02
        q = q_ref * np.exp(-0.01 * np.arange(1, 6))
        out = mi_rate(q, q_ref)
        np.testing.assert_allclose(out, np.arange(1, 6, dtype=float), atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            mi_rate([0.0], 0.01)
        with pytest.raises(DomainError):
            mi_rate([0.01], 0.0)


class TestMapeDeltaLastTwo:
    def test_values(self):
        assert mape_delta_last_two([2.0, 2.0], [2.0, 2.0]) == 0.0
        assert mape_delta_last_two([2.0, 2.0], [1.0, 1.0]) == 100.0
        assert mape_delta_last_two([30.0, 33.0], [25.0, 30.0]) == pytest.approx(15.0, rel=1e-15)

    def test_sign_handling(self):
        # numerators are absolute, denominators keep their sign
        assert mape_delta_last_two([-30.0, -33.0], [-25.0, -30.0]) == pytest.approx(-15.0, rel=1e-15)

    def test_needs_two_entries(self):
        with pytest.raises(DomainError):
            mape_delta_last_two([1.0], [1.0])

    def test_zero_estimate_rejected(self):
        with pytest.raises(DomainError):
            mape_delta_last_two([1.0, 2.0], [0.0, 1.0])


class TestModelMetrics:
    def test_mse_star_scaling(self):
        m = ModelMetrics("SL", fit_mse=2e-6, fit_mape=1.0, forecast_mse=5e-5, forecast_mape=2.0)
        assert m.fit_mse_star == pytest.approx(0.02, rel=1e-15)
        assert m.forecast_mse_star == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            ModelMetrics("SL", fit_mse=-1.0, fit_mape=0.0, forecast_mse=0.0, forecast_mape=0.0)


class TestBacktestConfig:
    def test_defaults(self):
        config = BacktestConfig()
        assert config.ages == AgeRange(60, 94)
        assert config.fit_years == YearRange(1960, 1989)
        assert config.forecast_years == YearRange(1990, 2009)
        assert config.t0 == 1959
        assert config.models == ("SL", "LC", "CBD")

    def test_window_contiguity(self):
        with pytest.raises(DomainError):
            BacktestConfig(forecast_years=YearRange(1991, 2009))

    def test_t0_must_precede_fit(self):
        with pytest.raises(DomainError):
            BacktestConfig(t0=1960)

    def test_model_names(self):
        with pytest.raises(DomainError):
            BacktestConfig(models=("SL", "APC"))
        with pytest.raises(DomainError):
            BacktestConfig(models=())

    def test_mi_age_inside_window(self):
        with pytest.raises(DomainError):
            BacktestConfig(mi_age=50)


def small_config(**kwargs):
    base = dict(
        ages=AgeRange(60, 79),
        fit_years=YearRange(1980, 1999),
        forecast_years=YearRange(2000, 2009),
        t0=1979,
        mi_age=65,
    )
    base.update(kwargs)
    return BacktestConfig(**base)


def small_data(manifold):
    config = small_config()
    return generate_manifold(
        manifold, config.ages, YearRange(config.t0, config.forecast_years.t_max)
    )


class TestRunBacktest:
    def test_each_model_wins_on_its_own_manifold(self):
        for manifold, model in (("sl", "SL"), ("lc", "LC"), ("cbd", "CBD")):
            report = run_backtest(small_data(manifold), small_config())
            own = report.metrics_for(model)
            assert own.forecast_mse < 1e-10
            for other in report.metrics:
                if other.model != model:
                    assert other.forecast_mse > own.forecast_mse

    def test_report_layout(self):
        report = run_backtest(small_data("lc"), small_config(), country="XX", sex="f")
        assert report.country == "XX" and report.sex == "f"
        assert [m.model for m in report.metrics] == ["SL", "LC", "CBD"]
        assert report.sl_converged is True
        assert report.mi_observed.shape == (10,)
        assert set(report.mi_forecast) == {"SL", "LC", "CBD"}
        with pytest.raises(KeyError):
            report.metrics_for("APC")

    def test_model_subset(self):
        report = run_backtest(small_data("lc"), small_config(models=("LC",)))
        assert [m.model for m in report.metrics] == ["LC"]
        assert report.sl_converged is None
        assert set(report.mi_forecast) == {"LC"}

    def test_fit_metrics_ignore_holdout(self):
        data = small_data("cbd")
        short = small_config(forecast_years=YearRange(2000, 2004))
        long = small_config(forecast_years=YearRange(2000, 2009))
        a = run_backtest(data, short).metrics_for("CBD")
        b = run_backtest(data, long).metrics_for("CBD")
        assert a.fit_mse == b.fit_mse
        assert a.fit_mape == b.fit_mape

    def test_mi_reference_is_the_last_fit_year(self):
        data = small_data("lc")
        report = run_backtest(data, small_config())
        q = surface_central_rate_to_q(data.subset(ages=AgeRange(65, 65))).values[0]
        last_fit, holdout = data.years.index(1999), data.years.index(2000)
        want = mi_rate(q[holdout:], q[last_fit])
        np.testing.assert_array_equal(report.mi_observed, want)

    def test_mi_forecast_tracks_observed_on_manifold(self):
        report = run_backtest(small_data("sl"), small_config())
        np.testing.assert_allclose(
            report.mi_forecast["SL"], report.mi_observed, atol=1e-6
        )

    def test_coverage_validation(self):
        data = small_data("lc")
        with pytest.raises(DomainError):
            run_backtest(data, small_config(ages=AgeRange(60, 94)))
        narrow = data.subset(years=YearRange(1980, 2009))
        with pytest.raises(DomainError):
            run_backtest(narrow, small_config())

    def test_kind_validation(self):
        from mortcast import MortalitySurface, SurfaceKind

        data = small_data("lc")
        q = MortalitySurface(
            ages=data.ages, years=data.years, kind=SurfaceKind.DEATH_PROB,
            values=np.full(data.values.shape, 0.1),
        )
        with pytest.raises(DomainError):
            run_backtest(q, small_config())

    def test_fit_config_passthrough(self):
        report = run_backtest(
            small_data("sl"), small_config(fit=FitConfig(k_max=1))
        )
        assert report.sl_converged is False
