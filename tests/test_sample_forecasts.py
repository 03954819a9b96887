"""Sample-mode forecasts: (n_paths, n_ages, horizon) views of path-last arrays filled in chunks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mortcast import (
    AgeRange,
    CbdParams,
    DomainError,
    LcParams,
    SlParams,
    SurfaceKind,
    YearRange,
    cbd_forecast,
    lc_forecast,
    sl_forecast,
)
from mortcast import timeseries
from mortcast.ingest import QUANTILE_PROBS
from mortcast.lifetable import check_surface_values
from mortcast.timeseries import PATH_CHUNK, path_quantiles

AGES = AgeRange(60, 64)
YEARS = YearRange(2000, 2004)
N_AGES = len(AGES)

# Each model's time indices wander, so its calibrated walk has a nonzero
# innovation factor and every sample path differs.


def sl_model():
    kappa = np.linspace(-1.0, 1.0, N_AGES)
    kappa /= np.linalg.norm(kappa)
    params = SlParams(
        alpha1=np.array([-0.02, -0.05, -0.06, -0.09, -0.1]),
        alpha2=np.array([0.02, 0.022, 0.019, 0.021, 0.02]),
        kappa=kappa,
        base_survival=np.cumprod(np.full(N_AGES, 0.97)),
        t0=YEARS.t_min - 1,
        ages=AGES,
        years=YEARS,
    )
    return lambda **kw: sl_forecast(params, **kw)


def lc_model():
    params = LcParams(
        alpha_x=np.linspace(-4.5, -3.0, N_AGES),
        beta_x=np.full(N_AGES, 1.0 / N_AGES),
        kappa_t=np.array([1.0, 0.4, 0.1, -0.6, -0.9]),
        ages=AGES,
        years=YEARS,
    )
    return lambda **kw: lc_forecast(params, **kw)


def cbd_model():
    params = CbdParams(
        kappa1_t=np.array([-3.0, -3.06, -3.07, -3.13, -3.15]),
        kappa2_t=np.array([0.1, 0.102, 0.099, 0.101, 0.1]),
        x_bar=62.0,
        ages=AGES,
        years=YEARS,
    )
    return lambda **kw: cbd_forecast(params, **kw)


MODELS = {"sl": sl_model, "lc": lc_model, "cbd": cbd_model}


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("model", sorted(MODELS))
class TestSampleArray:
    def test_shape_and_range(self, model):
        out = MODELS[model]()(horizon=6, n_paths=7, seed=2)
        assert isinstance(out, np.ndarray)
        assert out.shape == (7, N_AGES, 6)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_paths_are_stored_path_last(self, model):
        # each cell's paths are contiguous, and sorting that storage gives numpy's quantiles
        out = MODELS[model]()(horizon=6, n_paths=PATH_CHUNK + 9, seed=5)
        assert np.moveaxis(out, 0, -1).flags.c_contiguous
        copy = out.copy()
        bands = path_quantiles(out, QUANTILE_PROBS)
        np.testing.assert_array_equal(bits(bands), bits(np.quantile(copy, QUANTILE_PROBS, axis=0)))

    @settings(max_examples=25, deadline=None)
    @given(
        counts=st.tuples(st.integers(1, 40), st.integers(1, 40)),
        chunks=st.tuples(st.integers(1, 48), st.integers(1, 48)),
    )
    # more paths than one default chunk against fewer than one
    @example(counts=(PATH_CHUNK + 5, 3), chunks=(PATH_CHUNK, PATH_CHUNK))
    def test_paths_independent_of_chunking(self, model, counts, chunks):
        # path p is the same bits whatever n_paths and PATH_CHUNK are
        forecast = MODELS[model]()
        outs = []
        for n_paths, chunk in zip(counts, chunks):
            # patched here, not by monkeypatch: hypothesis reruns the body per example
            with mock.patch.object(timeseries, "PATH_CHUNK", chunk):
                outs.append(forecast(horizon=6, n_paths=n_paths, seed=4))
        common = min(counts)
        np.testing.assert_array_equal(bits(outs[0][:common]), bits(outs[1][:common]))
        # no chunk repeats another's draws
        longest = max(outs, key=len)
        assert len(np.unique(longest.reshape(len(longest), -1), axis=0)) == len(longest)


class TestInvalidPaths:
    def test_non_monotone_path_is_named(self):
        kappa = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        # alpha2 falls by 0.2 a year, exactly, so the walk has that drift and
        # no noise; past -0.53 survival at 61 overtakes 60
        params = SlParams(
            alpha1=np.zeros(3), alpha2=np.array([0.4, 0.2, 0.0]), kappa=kappa,
            base_survival=np.array([0.9, 0.8]), t0=1998,
            ages=AgeRange(60, 61), years=YearRange(1999, 2001),
        )
        with pytest.raises(DomainError, match="from age 60 to 61 in year 2004$"):
            sl_forecast(params, horizon=4)
        with pytest.raises(
            DomainError, match="from age 60 to 61 in year 2004 on sample path 0$"
        ):
            sl_forecast(params, horizon=4, n_paths=3, seed=0)

    def test_rising_cell_is_first_by_age_then_year(self):
        # ages x and x+1 keep their order while dL0_x + alpha2 * dkappa_x >= 0,
        # with L0 = log(-log(base_survival)). alpha2 falls by 0.1 a year with no
        # noise; pair 61-62 (dL0 0.25) breaks from 2005 on, pair 60-61 (dL0
        # 0.75) from 2012. The named cell is the lower pair, not the earlier year.
        params = SlParams(
            alpha1=np.zeros(3), alpha2=np.array([0.2, 0.1, 0.0]),
            kappa=np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0),
            base_survival=np.array([0.9, 0.8, 0.75]), t0=1998,
            ages=AgeRange(60, 62), years=YearRange(1999, 2001),
        )
        text = "survival increases from age 60 to 61 in year 2012"
        with pytest.raises(DomainError, match=f"^{text}$"):
            sl_forecast(params, horizon=12)
        with pytest.raises(DomainError, match=f"^{text} on sample path 0$"):
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
