"""Sample-mode forecasts as (n_paths, n_ages, horizon) arrays built in path chunks."""

import numpy as np
import pytest

from mortcast import (
    AgeRange,
    CbdParams,
    DomainError,
    LcParams,
    RwdParams,
    SlParams,
    SurfaceKind,
    YearRange,
    cbd_forecast,
    lc_forecast,
    sl_forecast,
)
from mortcast.lifetable import check_surface_values
from mortcast.timeseries import PATH_CHUNK

AGES = AgeRange(60, 64)
YEARS = YearRange(2000, 2004)
N_AGES = len(AGES)


def walk(drift, factor, last_state):
    return RwdParams(
        drift=np.asarray(drift, dtype=float),
        innovation_factor=np.asarray(factor, dtype=float),
        last_state=np.asarray(last_state, dtype=float),
        last_year=YEARS.t_max,
    )


def sl_model():
    kappa = np.linspace(-1.0, 1.0, N_AGES)
    kappa /= np.linalg.norm(kappa)
    params = SlParams(
        alpha1=np.linspace(0.0, -0.1, len(YEARS)),
        alpha2=np.full(len(YEARS), 0.02),
        kappa=kappa,
        base_survival=np.cumprod(np.full(N_AGES, 0.97)),
        t0=YEARS.t_min - 1,
        ages=AGES,
        years=YEARS,
    )
    rwd = walk([-0.02, 0.001], [[0.01, 0.0], [0.001, 0.002]], [-0.1, 0.02])

    def forecast(**kw):
        return sl_forecast(params, rwd, **kw)

    return forecast


def lc_model():
    params = LcParams(
        alpha_x=np.linspace(-4.5, -3.0, N_AGES),
        beta_x=np.full(N_AGES, 1.0 / N_AGES),
        kappa_t=np.linspace(1.0, -1.0, len(YEARS)),
        ages=AGES,
        years=YEARS,
    )
    rwd = walk([-0.5], [[0.3]], [-1.0])

    def forecast(**kw):
        return lc_forecast(params, rwd, **kw)

    return forecast


def cbd_model():
    params = CbdParams(
        kappa1_t=np.linspace(-3.0, -3.1, len(YEARS)),
        kappa2_t=np.full(len(YEARS), 0.1),
        x_bar=62.0,
        ages=AGES,
        years=YEARS,
    )
    rwd = walk([-0.02, 0.001], [[0.05, 0.0], [0.002, 0.004]], [-3.1, 0.1])

    def forecast(**kw):
        return cbd_forecast(params, rwd, **kw)

    return forecast


MODELS = {"sl": sl_model, "lc": lc_model, "cbd": cbd_model}


@pytest.mark.parametrize("model", sorted(MODELS))
class TestSampleArray:
    def test_shape_and_range(self, model):
        out = MODELS[model]()(horizon=6, n_paths=7, seed=2)
        assert isinstance(out, np.ndarray)
        assert out.shape == (7, N_AGES, 6)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_paths_independent_of_chunking(self, model):
        # more paths than one chunk: the first paths match a 3-path forecast
        forecast = MODELS[model]()
        many = forecast(horizon=6, n_paths=PATH_CHUNK + 5, seed=4)
        few = forecast(horizon=6, n_paths=3, seed=4)
        np.testing.assert_array_equal(many[:3], few)
        assert not np.array_equal(many[PATH_CHUNK - 1], many[PATH_CHUNK])


class TestInvalidPaths:
    def test_non_monotone_path_is_named(self):
        kappa = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        params = SlParams(
            alpha1=np.zeros(2), alpha2=np.zeros(2), kappa=kappa,
            base_survival=np.array([0.9, 0.8]), t0=1999,
            ages=AgeRange(60, 61), years=YearRange(2000, 2001),
        )
        # alpha2 drifts down by 0.2 a year; past -0.53 survival at 61 overtakes 60
        rwd = RwdParams(
            drift=np.array([0.0, -0.2]), innovation_factor=np.zeros((2, 2)),
            last_state=np.zeros(2), last_year=2001,
        )
        with pytest.raises(DomainError, match="from age 60 to 61 in year 2004$"):
            sl_forecast(params, rwd, horizon=4)
        with pytest.raises(
            DomainError, match="from age 60 to 61 in year 2004 on sample path 0$"
        ):
            sl_forecast(params, rwd, horizon=4, n_paths=3, seed=0)

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
