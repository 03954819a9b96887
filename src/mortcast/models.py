"""The model table: one entry per mortality model.

SL, Lee-Carter and CBD share one shape: age constants times time
processes, projected by a random walk with drift. An entry of
:data:`MODELS` holds only what differs between them: how the model is
fitted, its fitted time indices, its death-probability expression over
states and its ``param,index,value`` row layout. The CLI and the backtest
run one path for every entry, so adding a model means adding one entry.

Entries look the fit and forecast functions up by name when they run, so
a wrapper installed on those module attributes sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .benchmark_models import CbdParams, LcParams, cbd_forecast, fit_cbd, fit_lc, lc_forecast
from .lifetable import surface_q_to_survival
from .sl_model import FitDiagnostics, SlParams, fit_sl, sl_forecast
from .transforms import build_l_diff

AGE, YEAR = "age", "year"


@dataclass(frozen=True)
class Fitted:
    """A model's parameters plus what its q expression needs beyond them."""

    params: object
    base_survival: np.ndarray | None = None  # SL: the reference year's survival curve
    diagnostics: FitDiagnostics | None = None  # SL: the descent's trace


@dataclass(frozen=True)
class Model:
    """What one model adds to the shared fit, forecast and scoring path.

    ``fit`` gets central rates and their death probabilities over years
    that cover the fit window and, when ``reference_year`` is set, the
    reference year t0. ``q_of`` maps states of shape (..., n_years, dim),
    the years counted from ``first_year``, to death probabilities of shape
    (..., n_ages, n_years): applied to the fitted time indices it gives the
    in-sample fit, and the model's forecast applies it to projected states.
    ``rows`` is the params.csv layout: (param, AGE | YEAR | None) pairs,
    None marking a scalar.
    """

    name: str  # CLI name; backtest reports use name.upper()
    fit: Callable[..., Fitted]  # (rates, q, fit_years, t0, config)
    time_indices: Callable[[Fitted], np.ndarray]  # (n_years, dim), for calibrate_rwd
    q_of: Callable[[Fitted, np.ndarray, int], np.ndarray]  # (fitted, states, first_year)
    forecast: Callable[..., object]  # (fitted, rwd, horizon, mode, n_paths=None, seed=None)
    rows: tuple[tuple[str, str | None], ...]
    row_values: Callable[[Fitted], tuple]  # values in the order of rows
    from_rows: Callable[..., Fitted]  # (values by param, ages, years)
    reference_year: bool = False


def _fit_sl(rates, q, fit_years, t0, config) -> Fitted:
    delta = build_l_diff(surface_q_to_survival(q), t0=t0, fit_years=fit_years)
    params, diagnostics = fit_sl(delta, config)
    return Fitted(params, delta.base_survival, diagnostics)


SL = Model(
    name="sl",
    fit=_fit_sl,
    time_indices=lambda f: np.column_stack([f.params.alpha1, f.params.alpha2]),
    q_of=lambda f, states, first_year: f.params.q_of(states, f.base_survival, first_year),
    forecast=lambda f, rwd, *args, **kwargs: sl_forecast(
        f.params, rwd, f.base_survival, *args, **kwargs
    ),
    rows=(("alpha1", YEAR), ("alpha2", YEAR), ("kappa", AGE), ("base_survival", AGE), ("t0", None)),
    row_values=lambda f: (
        f.params.alpha1, f.params.alpha2, f.params.kappa, f.base_survival, f.params.t0
    ),
    from_rows=lambda v, ages, years: Fitted(
        SlParams(v["alpha1"], v["alpha2"], v["kappa"], int(v["t0"]), ages, years),
        base_survival=v["base_survival"],
    ),
    reference_year=True,
)

LC = Model(
    name="lc",
    fit=lambda rates, q, fit_years, t0, config: Fitted(fit_lc(rates.subset(years=fit_years))),
    time_indices=lambda f: f.params.kappa_t[:, None],
    q_of=lambda f, states, first_year: f.params.q_of(states),
    forecast=lambda f, rwd, *args, **kwargs: lc_forecast(f.params, rwd, *args, **kwargs),
    rows=(("alpha_x", AGE), ("beta_x", AGE), ("kappa_t", YEAR)),
    row_values=lambda f: (f.params.alpha_x, f.params.beta_x, f.params.kappa_t),
    from_rows=lambda v, ages, years: Fitted(
        LcParams(v["alpha_x"], v["beta_x"], v["kappa_t"], ages, years)
    ),
)

CBD = Model(
    name="cbd",
    fit=lambda rates, q, fit_years, t0, config: Fitted(fit_cbd(q.subset(years=fit_years))),
    time_indices=lambda f: np.column_stack([f.params.kappa1_t, f.params.kappa2_t]),
    q_of=lambda f, states, first_year: f.params.q_of(states),
    forecast=lambda f, rwd, *args, **kwargs: cbd_forecast(f.params, rwd, *args, **kwargs),
    rows=(("kappa1", YEAR), ("kappa2", YEAR), ("x_bar", None)),
    row_values=lambda f: (f.params.kappa1_t, f.params.kappa2_t, f.params.x_bar),
    from_rows=lambda v, ages, years: Fitted(
        CbdParams(v["kappa1"], v["kappa2"], v["x_bar"], ages, years)
    ),
)

MODELS = {m.name: m for m in (SL, LC, CBD)}
