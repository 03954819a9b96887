"""Sample-mode forecasts: QUANTILE_PROBS bands over paths mapped in blocks of years."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mortcast import (
    AgeRange,
    CbdParams,
    DomainError,
    FitConfig,
    LcParams,
    SlParams,
    SurfaceKind,
    SynthConfig,
    YearRange,
    calibrate_rwd,
    generate_synthetic,
    simulate_paths,
    sl_forecast,
)
from mortcast import timeseries
from mortcast.evaluation import MODELS as MODEL_CLASSES
from mortcast.lifetable import check_surface_values
from mortcast.timeseries import BLOCK_CELLS, QUANTILE_PROBS, time_indices

AGES = AgeRange(60, 64)
YEARS = YearRange(2000, 2004)
N_AGES = len(AGES)
HORIZON = 6
# the most paths whose whole forecast fits in one block
ONE_BLOCK = BLOCK_CELLS // (N_AGES * HORIZON)

# Each model's time indices wander, so its calibrated walk has a nonzero
# innovation factor and every sample path differs.


def sl_params():
    kappa = np.linspace(-1.0, 1.0, N_AGES)
    kappa /= np.linalg.norm(kappa)
    return SlParams(
        alpha1=np.array([-0.02, -0.05, -0.06, -0.09, -0.1]),
        alpha2=np.array([0.02, 0.022, 0.019, 0.021, 0.02]),
        kappa=kappa,
        base_survival=np.cumprod(np.full(N_AGES, 0.97)),
        t0=YEARS.t_min - 1,
        ages=AGES,
        years=YEARS,
    )


def lc_params():
    return LcParams(
        alpha_x=np.linspace(-4.5, -3.0, N_AGES),
        beta_x=np.full(N_AGES, 1.0 / N_AGES),
        kappa_t=np.array([1.0, 0.4, 0.1, -0.6, -0.9]),
        ages=AGES,
        years=YEARS,
    )


def cbd_params():
    return CbdParams(
        kappa1_t=np.array([-3.0, -3.06, -3.07, -3.13, -3.15]),
        kappa2_t=np.array([0.1, 0.102, 0.099, 0.101, 0.1]),
        x_bar=62.0,
        ages=AGES,
        years=YEARS,
    )


MODELS = {"sl": sl_params, "lc": lc_params, "cbd": cbd_params}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def oracle_bands(params, horizon, n_paths, seed):
    """numpy's quantiles over the whole (n_ages, horizon, n_paths) array of every path's q."""
    paths = simulate_paths(calibrate_rwd(time_indices(params)), horizon, n_paths, seed)
    q = params.q_of(np.moveaxis(paths, 0, -1))
    return np.quantile(q, QUANTILE_PROBS, axis=-1)


@pytest.mark.parametrize("model", sorted(MODELS))
class TestSampleArray:
    """The array a sample forecast returns: its QUANTILE_PROBS bands."""

    def test_shape_and_range(self, model):
        bands = MODELS[model]().forecast(HORIZON, n_paths=7, seed=2)
        assert isinstance(bands, np.ndarray)
        assert bands.shape == (len(QUANTILE_PROBS), N_AGES, HORIZON)
        assert np.all((bands >= 0.0) & (bands < 1.0))
        assert np.all(bands[0] <= bands[1]) and np.all(bands[1] <= bands[2])

    # all paths in one block of the whole horizon, and one path more than that
    @pytest.mark.parametrize("n_paths", [1, ONE_BLOCK, ONE_BLOCK + 1])
    def test_bands_equal_numpy_quantile(self, model, n_paths):
        params = MODELS[model]()
        bands = params.forecast(HORIZON, n_paths=n_paths, seed=5)
        np.testing.assert_array_equal(bits(bands), bits(oracle_bands(params, HORIZON, n_paths, 5)))

    @settings(max_examples=25, deadline=None)
    @given(n_paths=st.integers(1, 40), cells=st.integers(1, N_AGES * HORIZON * 40))
    # a budget below one year's cells: every block is one year
    @example(n_paths=40, cells=1)
    def test_paths_independent_of_chunking(self, model, n_paths, cells):
        # the bands are the same bits however the years are blocked and the paths chunked
        params = MODELS[model]()
        # patched here, not by monkeypatch: hypothesis reruns the body per example
        with mock.patch.object(timeseries, "BLOCK_CELLS", cells):
            bands = params.forecast(HORIZON, n_paths=n_paths, seed=4)
        np.testing.assert_array_equal(bits(bands), bits(oracle_bands(params, HORIZON, n_paths, 4)))


@pytest.mark.parametrize("model", sorted(MODEL_CLASSES))
def test_sample_forecast_memory_stays_below_half_the_paths(model):
    # the numpy buffers traced while 2000 paths x 40 years are reduced to bands,
    # against the 22.4 MB that every path's q over 35 ages would take
    rates = generate_synthetic(SynthConfig(noise_sd=0.01, seed=1))
    fit_years = YearRange(1960, 2009)
    params, _ = MODEL_CLASSES[model].fit(rates, fit_years, 1959, FitConfig())
    n_paths, horizon = 2000, 40
    tracemalloc.start()
    try:
        params.forecast(horizon, n_paths=n_paths, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n_paths * len(params.ages) * horizon * 8


class TestInvalidPaths:
    def test_non_monotone_path_is_named(self):
        kappa = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        # alpha2 falls by 0.2 a year, exactly, so the walk has that drift and
        # no noise; past -0.53 survival at 61 overtakes 60, and q at 61 turns negative
        params = SlParams(
            alpha1=np.zeros(3), alpha2=np.array([0.4, 0.2, 0.0]), kappa=kappa,
            base_survival=np.array([0.9, 0.8]), t0=1998,
            ages=AgeRange(60, 61), years=YearRange(1999, 2001),
        )
        with pytest.raises(DomainError, match="^negative death_prob at age 61, year 2004$"):
            sl_forecast(params, horizon=4)
        with pytest.raises(
            DomainError, match="^negative death_prob at sample path 0, age 61, year 2004$"
        ):
            sl_forecast(params, horizon=4, n_paths=3, seed=0)

    def test_rising_cell_is_first_by_age_then_year(self):
        # ages x and x+1 keep their order while dL0_x + alpha2 * dkappa_x >= 0,
        # with L0 = log(-log(base_survival)). alpha2 falls by 0.1 a year with no
        # noise; pair 61-62 (dL0 0.25) breaks from 2005 on, pair 60-61 (dL0
        # 0.75) from 2012, where q at the older age of the pair turns negative.
        # The named cell is the lower pair's, at age 61, not the earlier year.
        params = SlParams(
            alpha1=np.zeros(3), alpha2=np.array([0.2, 0.1, 0.0]),
            kappa=np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
            base_survival=np.array([0.9, 0.8, 0.75]), t0=1998,
            ages=AgeRange(60, 62), years=YearRange(1999, 2001),
        )
        with pytest.raises(DomainError, match="^negative death_prob at age 61, year 2012$"):
            sl_forecast(params, horizon=12)
        with pytest.raises(
            DomainError, match="^negative death_prob at sample path 0, age 61, year 2012$"
        ):
            sl_forecast(params, horizon=12, n_paths=3, seed=0)

    def test_check_names_path_age_and_year(self):
        block = np.full((3, N_AGES, 2), 0.01)
        block[2, 1, 1] = 1.5
        with pytest.raises(
            DomainError, match="above 1 at sample path 12, age 61, year 2001"
        ):
            check_surface_values(
                block, SurfaceKind.DEATH_PROB, AGES, YearRange(2000, 2001), first_path=10
            )
        block[1, 0, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite death_prob at sample path 11, age 60"):
            check_surface_values(
                block, SurfaceKind.DEATH_PROB, AGES, YearRange(2000, 2001), first_path=10
            )
