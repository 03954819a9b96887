"""Properties of the model table that must hold for every MODELS entry."""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mortcast import (
    AgeRange,
    BacktestConfig,
    CbdParams,
    LcParams,
    RwdParams,
    SlParams,
    SynthConfig,
    YearRange,
    evaluation,
    generate_manifold,
    generate_synthetic,
    run_backtest,
    write_hmd,
)
from mortcast.cli import _read_params, main
from mortcast.evaluation import MODELS
from mortcast.lifetable import AGE, YEAR
from mortcast.timeseries import time_indices

T0 = 1989
FIT_YEARS = YearRange(1990, 2004)
HOLDOUT = YearRange(2005, 2007)
# the in-sample MSE that counts as exact recovery of a model's own manifold
EXACT_MSE = 1e-20


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


@settings(max_examples=45, deadline=None)
@given(
    name=st.sampled_from(sorted(MODELS)),
    noise_sd=st.sampled_from([0.0, 0.001, 0.01, 0.03]),
    seed=st.integers(0, 2**32 - 1),
    x_min=st.integers(30, 80),
    n_ages=st.integers(2, 16),
)
def test_params_csv_round_trip(name, noise_sd, seed, x_min, n_ages):
    """Fit, write params.csv through the CLI, read it back: nothing moves by a bit.

    The declared attributes and the derived time indices come back
    bit-identical, and q_of over the read time indices is bit for bit the
    in-sample estimate that run_backtest scores.
    """
    model = MODELS[name]
    ages = AgeRange(x_min, x_min + n_ages - 1)
    years = YearRange(T0, HOLDOUT.t_max)
    rates = generate_synthetic(SynthConfig(ages=ages, years=years, noise_sd=noise_sd, seed=seed))
    config = BacktestConfig(
        ages=ages, fit_years=FIT_YEARS, forecast_years=HOLDOUT, t0=T0,
        models=(name.upper(),), mi_age=x_min,
    )
    params, diag = model.fit(rates, FIT_YEARS, T0, config.fit)

    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "rates.txt"
        write_hmd(rates, data)
        code = main([
            "fit", "--model", name, "--input", str(data),
            "--x-min", str(ages.x_min), "--x-max", str(ages.x_max),
            "--t-min", str(FIT_YEARS.t_min), "--t-max", str(FIT_YEARS.t_max), "--out", tmp,
        ])
        raw = (Path(tmp) / "params.csv").read_bytes()
    assert code == (2 if diag is not None and not diag.converged else 0)
    read = _read_params(raw, "params.csv")
    assert type(read) is model

    for _, attr, axis in model.ROWS:
        got, want = getattr(read, attr), getattr(params, attr)
        if axis is int:
            assert type(got) is int and got == want
        else:
            np.testing.assert_array_equal(bits(got), bits(want), err_msg=attr)
    indices = time_indices(read)
    np.testing.assert_array_equal(bits(indices), bits(time_indices(params)))

    with mock.patch.object(evaluation, "mse", wraps=evaluation.mse) as scored:
        run_backtest(rates, config)
    _, in_sample = scored.call_args_list[0].args  # the fit-window score comes first
    np.testing.assert_array_equal(bits(read.q_of(indices)), bits(in_sample))


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(MODELS)),
    x_min=st.integers(0, 100),
    n_ages=st.integers(2, 50),
    fit_from=st.integers(1900, 2000),
    n_fit=st.integers(3, 50),
    holdout=st.integers(1, 30),
)
def test_exact_recovery_of_own_manifold(name, x_min, n_ages, fit_from, n_fit, holdout):
    """Each model fits the surface its own exact generator makes to rounding.

    The generated span starts at the reference year t0, which the SL
    manifold uses as its base curve. Three fit years are the fewest the
    walk calibration accepts.
    """
    fit_years = YearRange(fit_from, fit_from + n_fit - 1)
    config = BacktestConfig(
        ages=AgeRange(x_min, x_min + n_ages - 1), fit_years=fit_years,
        forecast_years=YearRange(fit_years.t_max + 1, fit_years.t_max + holdout),
        t0=fit_from - 1, models=(name.upper(),), mi_age=x_min,
    )
    span = YearRange(config.t0, config.forecast_years.t_max)
    report = run_backtest(generate_manifold(name, config.ages, span), config)
    assert report.metrics_for(name.upper()).fit_mse <= EXACT_MSE


def test_params_leave_the_callers_arrays_writeable():
    """Every params class, and the walk, stores read-only copies of the arrays it is given."""
    given_arrays = []

    def fresh(values):
        given_arrays.append(np.array(values, dtype=float))
        return given_arrays[-1]

    ages, years = AgeRange(60, 61), YearRange(2000, 2001)
    built = [
        SlParams(alpha1=fresh([0, 0]), alpha2=fresh([0, 0]), kappa=fresh([-1, 1]),
                 base_survival=fresh([0.9, 0.8]), t0=1999, ages=ages, years=years),
        LcParams(alpha_x=fresh([-4, -3]), beta_x=fresh([0.5, 0.5]), kappa_t=fresh([-1, 1]),
                 ages=ages, years=years),
        CbdParams(kappa1_t=fresh([-4, -3]), kappa2_t=fresh([0.1, 0.1]), x_bar=60.5,
                  ages=ages, years=years),
    ]
    assert {type(p) for p in built} == set(MODELS.values())
    RwdParams(drift=fresh([0.1]), innovation_factor=fresh([[0.2]]), last_state=fresh([1.0]))
    assert all(arr.flags.writeable for arr in given_arrays)
    for params in built:
        assert not any(getattr(params, attr).flags.writeable
                       for _, attr, axis in params.ROWS if axis in (AGE, YEAR))
