"""The model table: one entry per mortality model.

SL, Lee-Carter and CBD share one shape: age constants times time
processes, projected by a random walk with drift. Each model's params
class is its one declaration: its fields, its death-probability
expression ``q_of`` over states and its ``ROWS``, the params.csv layout
from which the time indices, the writer's rows and the reader's
constructor are all derived. An entry of :data:`MODELS` adds only how the
model is fitted and forecast. The CLI and the backtest run one path for
every entry, so adding a model means a params class with ``q_of`` and
``ROWS``, a fit, a forecast and one entry here.

Entries look the fit and forecast functions up by name when they run, so
a wrapper installed on those module attributes sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .benchmark_models import CbdParams, LcParams, cbd_forecast, fit_cbd, fit_lc, lc_forecast
from .lifetable import YEAR, surface_q_to_survival
from .sl_model import SlParams, fit_sl, sl_forecast
from .transforms import build_l_diff


@dataclass(frozen=True)
class Model:
    """What one model adds to the shared fit, forecast and scoring path.

    ``fit`` gets central rates and their death probabilities over years
    that cover the fit window and, when ``reference_year`` is set, the
    reference year t0; it returns the params and the fit's diagnostics,
    or None for a closed-form fit. ``forecast`` takes (params, rwd,
    horizon, n_paths, seed) and is central when ``n_paths`` is None.
    """

    name: str  # CLI name; backtest reports use name.upper()
    params: type  # SlParams, LcParams or CbdParams
    fit: Callable[..., tuple]  # (rates, q, fit_years, t0, config)
    forecast: Callable[..., object]
    reference_year: bool = False


def time_indices(params) -> np.ndarray:
    """The YEAR rows of ``params.ROWS`` stacked in order: (n_years, dim)."""
    return np.column_stack([getattr(params, attr) for _, attr, axis in params.ROWS if axis == YEAR])


def _fit_sl(rates, q, fit_years, t0, config):
    return fit_sl(build_l_diff(surface_q_to_survival(q), t0=t0, fit_years=fit_years), config)


SL = Model(
    name="sl",
    params=SlParams,
    fit=_fit_sl,
    forecast=lambda *args, **kwargs: sl_forecast(*args, **kwargs),
    reference_year=True,
)

LC = Model(
    name="lc",
    params=LcParams,
    fit=lambda rates, q, fit_years, t0, config: (fit_lc(rates.subset(years=fit_years)), None),
    forecast=lambda *args, **kwargs: lc_forecast(*args, **kwargs),
)

CBD = Model(
    name="cbd",
    params=CbdParams,
    fit=lambda rates, q, fit_years, t0, config: (fit_cbd(q.subset(years=fit_years)), None),
    forecast=lambda *args, **kwargs: cbd_forecast(*args, **kwargs),
)

MODELS = {m.name: m for m in (SL, LC, CBD)}
