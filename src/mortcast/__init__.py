"""Stochastic mortality modeling and forecasting.

Three models over a shared life-table core: the survival-transform (SL)
model fitted to log(-log) survival differences, Lee-Carter, and
Cairns-Blake-Dowd, all projected by random walks with drift and scored by
a common backtest protocol.
"""

from .benchmark_models import CbdParams, LcParams, cbd_forecast, fit_cbd, fit_lc, lc_forecast
from .errors import DomainError, FitError, MortcastError, ParseError
from .evaluation import (
    BacktestConfig,
    BacktestReport,
    ModelMetrics,
    mape,
    mape_delta_last_two,
    mi_rate,
    mse,
    run_backtest,
)
from .ingest import (
    SynthConfig,
    export_csv,
    export_mi_csv,
    export_quantiles_csv,
    generate_manifold,
    generate_synthetic,
    parse_hmd,
    write_hmd,
)
from .lifetable import (
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    central_rate_to_q,
    curve_of_deaths,
    q_to_central_rate,
    q_to_survival,
    surface_q_to_survival,
    survival_to_q,
)
from .sl_model import (
    FitConfig,
    FitDiagnostics,
    SlParams,
    fit_sl,
    init_sl,
    normalize_gauge,
    sl_forecast,
)
from .timeseries import (
    RwdParams,
    calibrate_rwd,
    forecast_states,
    path_quantiles,
    project_central,
    simulate_paths,
)
from .transforms import LDiffSurface, build_l_diff, invert_l_diff, l_inverse, l_transform, logit

__all__ = [
    "AgeRange",
    "BacktestConfig",
    "BacktestReport",
    "CbdParams",
    "DomainError",
    "FitConfig",
    "FitDiagnostics",
    "FitError",
    "LDiffSurface",
    "LcParams",
    "ModelMetrics",
    "MortalitySurface",
    "MortcastError",
    "ParseError",
    "RwdParams",
    "SlParams",
    "SurfaceKind",
    "SynthConfig",
    "YearRange",
    "build_l_diff",
    "calibrate_rwd",
    "cbd_forecast",
    "central_rate_to_q",
    "curve_of_deaths",
    "export_csv",
    "export_mi_csv",
    "export_quantiles_csv",
    "fit_cbd",
    "fit_lc",
    "fit_sl",
    "forecast_states",
    "generate_manifold",
    "generate_synthetic",
    "init_sl",
    "invert_l_diff",
    "l_inverse",
    "l_transform",
    "lc_forecast",
    "logit",
    "mape",
    "mape_delta_last_two",
    "mi_rate",
    "mse",
    "normalize_gauge",
    "parse_hmd",
    "path_quantiles",
    "project_central",
    "q_to_central_rate",
    "q_to_survival",
    "run_backtest",
    "simulate_paths",
    "sl_forecast",
    "surface_q_to_survival",
    "survival_to_q",
    "write_hmd",
]
