"""Fit and forecast accuracy metrics and the backtest protocol.

The backtest splits a rate surface into a fit window and a holdout window,
fits each requested model on the first, forecasts the second in central
mode, and scores both against observed death probabilities with MSE and
MAPE. Cumulative mortality-improvement rates at a reference age are
emitted alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmark_models import CbdParams, LcParams
from .errors import DomainError
from .lifetable import AgeRange, MortalitySurface, SurfaceKind, YearRange, surface_central_rate_to_q
# unused here, but perfbench's tracer self-test checks that this copy is rebound
from .lifetable import survival_to_q  # noqa: F401
from .sl_model import FitConfig, SlParams
from .timeseries import time_indices

# The model table: each params class by its NAME. ``cls.fit(rates, q,
# fit_years, t0, config)`` gets central rates and their death probabilities
# over years that cover the fit window and, if REFERENCE_YEAR, t0; it returns
# the params and the fit's diagnostics, or None for a closed-form fit.
# ``params.forecast(horizon, n_paths=None, seed=None)`` projects the walk of
# the params' own time indices, central when n_paths is None. Both call their
# module's functions by name, so a wrapper installed there sees every call.
MODELS = {cls.NAME: cls for cls in (SlParams, LcParams, CbdParams)}
MODEL_ORDER = tuple(name.upper() for name in MODELS)


def mse(observed, estimated) -> float:
    """Mean squared error (1/n) * sum((X - X_hat)^2)."""
    x = np.asarray(observed, dtype=float).ravel()
    xh = np.asarray(estimated, dtype=float).ravel()
    if x.size == 0 or x.shape != xh.shape:
        raise DomainError(f"need equal nonzero lengths, got {x.size} and {xh.size}")
    d = x - xh
    return float(d @ d / x.size)


def mape(observed, estimated) -> float:
    """Mean absolute percentage error, in percent.

    Divides each absolute error by the ESTIMATE, the convention of the
    report tables this feeds: (100/n) * sum(|X - X_hat| / X_hat).
    """
    x = np.asarray(observed, dtype=float).ravel()
    xh = np.asarray(estimated, dtype=float).ravel()
    if x.size == 0 or x.shape != xh.shape:
        raise DomainError(f"need equal nonzero lengths, got {x.size} and {xh.size}")
    if np.any(xh == 0.0):
        raise DomainError("zero denominator in percentage error")
    return float(np.mean(np.abs(x - xh) / xh) * 100.0)


def mi_rate(q_series, q_ref: float):
    """Cumulative mortality-improvement rate against a reference year, in percent.

    Delta_t = -100 * log(q_t / q_ref); positive when mortality improved.
    """
    q = np.asarray(q_series, dtype=float)
    if not (0.0 < q_ref < 1.0):
        raise DomainError(f"reference probability must lie in (0, 1), got {q_ref}")
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise DomainError("probabilities must lie strictly inside (0, 1)")
    return -np.log(q / q_ref) * 100.0


def mape_delta_last_two(obs_delta, est_delta) -> float:
    """Two-point percentage error on the last two improvement rates.

    (1/2) * (|o1 - e1|/e1 + |o2 - e2|/e2) * 100. Absolute values sit on
    the numerators only, so a negative estimate yields a negative term.
    """
    o = np.asarray(obs_delta, dtype=float)
    e = np.asarray(est_delta, dtype=float)
    if o.shape != (2,) or e.shape != (2,):
        raise DomainError("expected exactly two observed and two estimated rates")
    if np.any(e == 0.0):
        raise DomainError("zero estimated rate in percentage error")
    return float(np.mean(np.abs(o - e) / e) * 100.0)


@dataclass(frozen=True)
class BacktestConfig:
    """Backtest protocol parameters.

    Defaults reproduce the standard setup: ages 60-94, fit 1960-1989,
    holdout 1990-2009, reference year 1959, all three models, central
    forecasts. Every backtest scores MAPE over the estimate (see
    :func:`mape`) and tracks improvement rates at ``mi_age``, an age of the
    window (default 65), against the last fit year.
    """

    ages: AgeRange = AgeRange(60, 94)
    fit_years: YearRange = YearRange(1960, 1989)
    forecast_years: YearRange = YearRange(1990, 2009)
    t0: int = 1959
    models: tuple[str, ...] = MODEL_ORDER
    mi_age: int = 65
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.forecast_years.t_min != self.fit_years.t_max + 1:
            raise DomainError(
                f"forecast window must start at {self.fit_years.t_max + 1}, "
                f"got {self.forecast_years.t_min}"
            )
        if self.t0 >= self.fit_years.t_min:
            raise DomainError(f"reference year {self.t0} must precede the fit window")
        if not self.models:
            raise DomainError("at least one model required")
        unknown = [m for m in self.models if m not in MODEL_ORDER]
        if unknown:
            raise DomainError(f"unknown models {unknown}; choose from {MODEL_ORDER}")
        if self.mi_age not in self.ages:
            raise DomainError(f"improvement-rate age {self.mi_age} outside {self.ages}")


@dataclass(frozen=True)
class ModelMetrics:
    """Accuracy of one model over both windows. MSE* = 10^4 x MSE."""

    model: str
    fit_mse: float
    fit_mape: float
    forecast_mse: float
    forecast_mape: float

    def __post_init__(self):
        for name in ("fit_mse", "fit_mape", "forecast_mse", "forecast_mape"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise DomainError(f"{name} must be finite and nonnegative, got {v}")

    @property
    def fit_mse_star(self) -> float:
        return 1e4 * self.fit_mse

    @property
    def forecast_mse_star(self) -> float:
        return 1e4 * self.forecast_mse


@dataclass(frozen=True)
class BacktestReport:
    country: str
    sex: str
    config: BacktestConfig
    metrics: tuple[ModelMetrics, ...]
    mi_observed: np.ndarray
    mi_forecast: dict[str, np.ndarray]
    sl_converged: bool | None

    def metrics_for(self, model: str) -> ModelMetrics:
        for m in self.metrics:
            if m.model == model:
                return m
        raise KeyError(model)


def run_backtest(
    data: MortalitySurface,
    config: BacktestConfig | None = None,
    country: str = "",
    sex: str = "",
) -> BacktestReport:
    """Fit, forecast, and score every requested model on one rate surface.

    ``data`` must be a central_rate surface covering the age window and the
    years from t0 through the end of the holdout. Observed death
    probabilities are derived under a constant force of mortality within
    each cell.
    """
    if config is None:
        config = BacktestConfig()
    if data.kind is not SurfaceKind.CENTRAL_RATE:
        raise DomainError(f"expected a central_rate surface, got {data.kind.value}")
    span = YearRange(config.t0, config.forecast_years.t_max)
    if not (data.ages.covers(config.ages) and data.years.covers(span)):
        raise DomainError(
            f"data covers ages {data.ages} years {data.years}; "
            f"backtest needs ages {config.ages} years {span}"
        )

    sub = data.subset(ages=config.ages, years=span)
    q_all = surface_central_rate_to_q(sub)
    q_fit_obs = q_all.subset(years=config.fit_years)
    q_out_obs = q_all.subset(years=config.forecast_years)

    # per model: in-sample q from the fitted time indices, central forecast q
    estimates: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    sl_converged = None
    for label in MODEL_ORDER:
        if label not in config.models:
            continue
        model = MODELS[label.lower()]
        params, diagnostics = model.fit(sub, q_all, config.fit_years, config.t0, config.fit)
        q_hat_fit = params.q_of(time_indices(params), params.years)
        forecast = params.forecast(len(config.forecast_years))
        estimates[label] = (q_hat_fit, forecast.values)
        if diagnostics is not None:
            sl_converged = diagnostics.converged

    metrics = [
        ModelMetrics(
            model=label,
            fit_mse=mse(q_fit_obs.values, q_hat_fit),
            fit_mape=mape(q_fit_obs.values, q_hat_fit),
            forecast_mse=mse(q_out_obs.values, q_hat_out),
            forecast_mape=mape(q_out_obs.values, q_hat_out),
        )
        for label, (q_hat_fit, q_hat_out) in estimates.items()
    ]

    i = config.ages.index(config.mi_age)
    # improvement rates are taken against the last fit year
    q_ref = float(q_fit_obs.values[i, -1])
    return BacktestReport(
        country=country,
        sex=sex,
        config=config,
        metrics=tuple(metrics),
        mi_observed=mi_rate(q_out_obs.values[i, :], q_ref),
        mi_forecast={label: mi_rate(out[i, :], q_ref) for label, (_, out) in estimates.items()},
        sl_converged=sl_converged,
    )
