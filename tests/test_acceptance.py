"""Acceptance checks, one test per numbered criterion.

Criteria 1-9 are self-contained property and oracle checks with pinned
tolerances and wall-clock budgets. Criteria 10 and 11 reproduce published
numbers qualitatively and need a real HMD Mx 1x1 file; they are skipped
unless MORTCAST_HMD_FR_FEMALE_MX points at one. The conftest prints a
one-line PASS/FAIL per criterion after the run.
"""

import os
import time

import numpy as np
import pytest

from mortcast import (
    AgeRange,
    BacktestConfig,
    FitConfig,
    LDiffSurface,
    MortalitySurface,
    SurfaceKind,
    SynthConfig,
    YearRange,
    build_l_diff,
    calibrate_rwd,
    central_rate_to_q,
    fit_cbd,
    fit_lc,
    fit_sl,
    generate_manifold,
    invert_l_diff,
    l_inverse,
    l_transform,
    logit,
    mape,
    mape_delta_last_two,
    mi_rate,
    mse,
    normalize_gauge,
    parse_hmd,
    q_to_central_rate,
    q_to_survival,
    run_backtest,
    SlParams,
    SurvivalSurface,
    survival_to_q,
    curve_of_deaths,
)

HMD_ENV = "MORTCAST_HMD_FR_FEMALE_MX"


def hmd_backtest_report():
    path = os.environ.get(HMD_ENV)
    if not path:
        pytest.skip(f"set {HMD_ENV} to an HMD Mx 1x1 file for France to run this check")
    config = BacktestConfig(ages=AgeRange(60, 89))
    rates = parse_hmd(path, "female", config.ages, YearRange(1959, 2009))
    return run_backtest(rates, config, country="FRATNP", sex="f")


def random_delta(rng, n_ages, n_years, noise_sd=0.0):
    raw = rng.normal(size=n_ages)
    centered = raw - raw.mean()
    kappa = centered / np.linalg.norm(centered)
    if kappa[-1] < 0.0:
        kappa = -kappa
    alpha1 = rng.normal(scale=0.3, size=n_years)
    alpha2 = rng.uniform(0.3, 1.2, size=n_years)
    values = alpha1[None, :] + alpha2[None, :] * kappa[:, None]
    if noise_sd > 0.0:
        values = values + rng.normal(scale=noise_sd, size=values.shape)
    ages = AgeRange(60, 60 + n_ages - 1)
    years = YearRange(2000, 2000 + n_years - 1)
    delta = LDiffSurface(
        t0=1999,
        base_survival=np.linspace(0.95, 0.5, n_ages),
        ages=ages,
        years=years,
        values=values,
    )
    truth = SlParams(
        alpha1=alpha1, alpha2=alpha2, kappa=kappa, base_survival=delta.base_survival,
        t0=1999, ages=ages, years=years,
    )
    return delta, truth


def test_criterion_01_conversion_round_trips():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 111))
        q = rng.uniform(0.0, 0.99, size=n)
        s = q_to_survival(q)
        np.testing.assert_allclose(survival_to_q(s), q, atol=1e-12)
        m = q_to_central_rate(q)
        np.testing.assert_allclose(central_rate_to_q(m), q, atol=1e-12)
        m2 = rng.uniform(0.0, 5.0, size=n)
        np.testing.assert_allclose(q_to_central_rate(central_rate_to_q(m2)), m2, atol=1e-12)
        r = curve_of_deaths(q)
        assert abs(r.sum() + s[-1] - 1.0) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_02_transform_round_trips():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    for _ in range(1000):
        s = rng.uniform(1e-9, 0.999, size=int(rng.integers(1, 50)))
        np.testing.assert_allclose(l_inverse(l_transform(s)), s, atol=1e-12)

        n = int(rng.integers(2, 30))
        base = np.sort(rng.uniform(0.05, 0.999, size=n))[::-1]
        target = np.sort(rng.uniform(0.05, 0.999, size=n))[::-1]
        surv = SurvivalSurface(
            base_age=60,
            ages=AgeRange(60, 60 + n - 1),
            years=YearRange(1999, 2000),
            values=np.column_stack([base, target]),
        )
        delta = build_l_diff(surv, t0=1999)
        np.testing.assert_allclose(
            invert_l_diff(delta.values[:, 0], base), target, atol=1e-12
        )
    assert time.perf_counter() - start < 1.0


def test_criterion_03_descent():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for i in range(100):
        n_ages = int(rng.integers(5, 36))
        n_years = int(rng.integers(5, 31))
        delta, _ = random_delta(rng, n_ages, n_years, noise_sd=0.1)
        for gamma in (0.25, 0.5, 1.0):
            # descent is a per-sweep property, so a capped budget suffices
            _, diag = fit_sl(delta, FitConfig(gamma=gamma, k_max=150))
            trace = diag.objective_trace
            slack = 1e-12 * max(1.0, trace[0])
            assert np.all(np.diff(trace) <= slack)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_sl_exact_recovery():
    start = time.perf_counter()
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_ages = int(rng.integers(5, 20))
        n_years = int(rng.integers(5, 16))
        delta, truth = random_delta(rng, n_ages, n_years)
        params, diag = fit_sl(delta)
        assert diag.converged
        assert np.max(np.abs(params.fitted_surface() - delta.values)) < 1e-6
        want = normalize_gauge(truth)
        assert np.max(np.abs(params.kappa - want.kappa)) < 1e-4
        assert np.max(np.abs(params.alpha1 - want.alpha1)) < 1e-4
        assert np.max(np.abs(params.alpha2 - want.alpha2)) < 1e-4
    assert time.perf_counter() - start < 30.0


def test_criterion_05_lc_exact_recovery():
    rng = np.random.default_rng(105)
    for _ in range(50):
        n_ages = int(rng.integers(3, 25))
        n_years = int(rng.integers(3, 25))
        alpha = rng.uniform(-6.0, -2.0, size=n_ages)
        beta = rng.uniform(0.2, 1.0, size=n_ages)
        beta = beta / beta.sum()
        kappa = rng.normal(scale=1.5, size=n_years)
        kappa = kappa - kappa.mean()
        m = np.exp(alpha[:, None] + beta[:, None] * kappa[None, :])
        surface = MortalitySurface(
            ages=AgeRange(60, 60 + n_ages - 1),
            years=YearRange(1990, 1990 + n_years - 1),
            kind=SurfaceKind.CENTRAL_RATE,
            values=m,
        )
        params = fit_lc(surface)
        assert np.max(np.abs(params.alpha_x - alpha)) < 1e-10
        assert np.max(np.abs(params.beta_x - beta)) < 1e-10
        assert np.max(np.abs(params.kappa_t - kappa)) < 1e-10

    # constraints hold on every fit, including off-manifold input
    for _ in range(20):
        m = np.exp(rng.uniform(-6.0, -1.0, size=(8, 10)))
        surface = MortalitySurface(
            ages=AgeRange(60, 67), years=YearRange(1990, 1999),
            kind=SurfaceKind.CENTRAL_RATE, values=m,
        )
        params = fit_lc(surface)
        assert abs(params.beta_x.sum() - 1.0) <= 1e-10
        assert abs(params.kappa_t.sum()) <= 1e-10


def test_criterion_06_cbd_matches_normal_equations():
    rng = np.random.default_rng(106)
    x = np.array([60.0, 61.0, 62.0])
    for _ in range(100):
        q = rng.uniform(0.005, 0.5, size=(3, 3))
        surface = MortalitySurface(
            ages=AgeRange(60, 62), years=YearRange(2000, 2002),
            kind=SurfaceKind.DEATH_PROB, values=q,
        )
        params = fit_cbd(surface)
        design = np.column_stack([np.ones(3), x - params.x_bar])
        for j in range(3):
            coef, *_ = np.linalg.lstsq(design, logit(q[:, j]), rcond=None)
            assert abs(params.kappa1_t[j] - coef[0]) < 1e-12
            assert abs(params.kappa2_t[j] - coef[1]) < 1e-12


def test_criterion_07_rwd_calibration():
    rng = np.random.default_rng(107)
    n = 10_000
    drift = np.array([-0.5, 0.1])
    factor = np.array([[0.2, 0.0], [0.0, 0.05]])
    z = rng.standard_normal((n, 2))
    series = np.vstack([np.zeros(2), np.cumsum(drift + z @ factor.T, axis=0)])
    params = calibrate_rwd(series, YearRange(0, n))
    se = np.sqrt(np.diag(factor @ factor.T) / n)
    assert np.all(np.abs(params.drift - drift) <= 3.0 * se)
    est = params.innovation_factor @ params.innovation_factor.T
    true = factor @ factor.T
    assert np.linalg.norm(est - true) / np.linalg.norm(true) <= 0.10

    # exact zero factor on affine series with representable slopes
    for k, (slope1, slope2) in enumerate(((1.0, -2.0), (0.5, 0.25), (3.0, -0.125))):
        t = np.arange(10, dtype=float)
        series = np.column_stack([5.0 + slope1 * t, -1.0 + slope2 * t])
        params = calibrate_rwd(series, YearRange(1990 + k, 1999 + k))
        assert np.array_equal(params.drift, [slope1, slope2])
        assert np.all(params.innovation_factor == 0.0)


def test_criterion_08_metric_oracles():
    assert mse([1.0, 3.0], [2.0, 2.0]) == 1.0
    assert mse([2.0, 5.0], [2.0, 5.0]) == 0.0
    assert mape([1.0, 1.0], [2.0, 4.0]) == 62.5
    assert mape([3.0, 7.0], [3.0, 7.0]) == 0.0
    assert abs(mi_rate([0.015], 0.02)[0] - 28.768207245178093) <= 1e-12
    assert mi_rate([0.01], 0.01)[0] == 0.0
    assert abs(mape_delta_last_two([30.0, 33.0], [25.0, 30.0]) - 15.0) <= 1e-12
    assert mape_delta_last_two([4.0, 9.0], [4.0, 9.0]) == 0.0


def test_criterion_09_manifold_discrimination():
    start = time.perf_counter()
    config = BacktestConfig()
    span = YearRange(config.t0, config.forecast_years.t_max)
    for manifold, model in (("sl", "SL"), ("lc", "LC"), ("cbd", "CBD")):
        data = generate_manifold(manifold, config.ages, span)
        report = run_backtest(data, config)
        own = report.metrics_for(model)
        assert own.forecast_mse < 1e-10
        for other in report.metrics:
            if other.model != model:
                assert other.forecast_mse > own.forecast_mse
    assert time.perf_counter() - start < 60.0


def test_criterion_10_published_forecast_mape_ordering():
    start = time.perf_counter()
    report = hmd_backtest_report()
    printed = {"SL": 5.8, "LC": 7.8, "CBD": 9.9}
    mapes = {m.model: m.forecast_mape for m in report.metrics}
    assert mapes["SL"] < mapes["LC"] < mapes["CBD"]
    for model, value in printed.items():
        assert abs(mapes[model] - value) <= 2.0
    assert time.perf_counter() - start < 60.0


def test_criterion_11_improvement_rate_tracking(record_qualitative):
    report = hmd_backtest_report()
    observed = report.mi_observed
    projected = report.mi_forecast["SL"]
    trend_ok = bool(np.polyfit(np.arange(observed.size), observed, 1)[0] >= 0.0)
    within = bool(np.max(np.abs(projected - observed)) <= 20.0)
    verdict = "PASS" if (trend_ok and within) else "FAIL"
    record_qualitative(
        11, f"qualitative {verdict}: trend nonnegative {trend_ok}, within 20 points {within}"
    )
