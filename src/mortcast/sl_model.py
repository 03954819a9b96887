"""Survival-transform mortality model.

Fits delta_{x,t} = alpha1_t + alpha2_t * kappa_x to an L-difference surface
by damped coordinate descent, then forecasts death probabilities by
projecting (alpha1, alpha2) as a two-dimensional random walk with drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DomainError, FitError
from .lifetable import AGE, YEAR, AgeRange, YearRange, _freeze_series, survival_to_q
from .timeseries import RwdParams, check_walk, forecast_q
from .transforms import LDiffSurface, check_l_domain, invert_l_diff


@dataclass(frozen=True)
class SlParams:
    """Fitted model parameters and the reference year's survival curve.

    alpha1/alpha2 are indexed by fit year, kappa and base_survival by age.
    base_survival is S_t0, the age constant every fitted and projected
    curve is rebuilt against. The other parameters are only identified up
    to an affine gauge; fit_sl returns them normalized to sum(kappa) = 0,
    sum(kappa^2) = 1, kappa at the oldest age nonnegative.
    """

    # params.csv layout: (row name, attribute, AGE | YEAR | type of a scalar)
    ROWS = (
        ("alpha1", "alpha1", YEAR),
        ("alpha2", "alpha2", YEAR),
        ("kappa", "kappa", AGE),
        ("base_survival", "base_survival", AGE),
        ("t0", "t0", int),
    )

    alpha1: np.ndarray
    alpha2: np.ndarray
    kappa: np.ndarray
    base_survival: np.ndarray
    t0: int
    ages: AgeRange
    years: YearRange

    def __post_init__(self):
        _freeze_series(self)
        check_l_domain(self.base_survival, "base_survival", self.ages)
        if not isinstance(self.t0, (int, np.integer)):
            raise DomainError(f"reference year must be an integer, got {self.t0!r}")
        if self.t0 >= self.years.t_min:
            raise DomainError(f"reference year {self.t0} must precede fit years")

    def q_of(self, states: np.ndarray, first_year: int | None = None) -> np.ndarray:
        """Death probabilities (..., n_ages, n_years) from states (..., n_years, 2).

        The states are (alpha1, alpha2) of the years from ``first_year`` on,
        by default the first fit year. Each year's survival curve is rebuilt
        through the inverse transform against base_survival. A non-monotone
        curve raises DomainError naming the year and the two ages, with
        ``cell`` holding the leading (path) index, if any.
        """
        if first_year is None:
            first_year = self.years.t_min
        # (..., n_years, 1) + (..., n_years, 1) * (ages,): age is the last axis
        delta = states[..., :1] + states[..., 1:] * self.kappa
        try:
            q = survival_to_q(invert_l_diff(delta, self.base_survival))
        except DomainError as exc:
            if exc.cell is None:
                raise
            *path, h, i = exc.cell
            x = self.ages.x_min + i
            raise DomainError(
                f"survival increases from age {x} to {x + 1} in year {first_year + h}",
                cell=tuple(path),
            ) from None
        return np.swapaxes(q, -1, -2)

    def fitted_surface(self) -> np.ndarray:
        """alpha1_t + alpha2_t * kappa_x as an (n_ages, n_years) array."""
        return self.alpha1[None, :] + self.alpha2[None, :] * self.kappa[:, None]


@dataclass(frozen=True)
class FitConfig:
    """Knobs of the coordinate-descent fit.

    gamma damps each per-parameter Newton step; values in (0, 2) preserve
    descent, values below 1 trade speed for stability.
    """

    gamma: float = 0.5
    epsilon: float = 1e-8
    k_max: int = 5000

    def __post_init__(self):
        if not (0.0 < self.gamma < 2.0):
            raise DomainError(f"gamma must lie in (0, 2), got {self.gamma}")
        if self.epsilon <= 0.0:
            raise DomainError("epsilon must be positive")
        if self.k_max < 1:
            raise DomainError("k_max must be a positive integer")


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    converged: bool
    final_objective: float
    objective_trace: np.ndarray
    max_param_delta: float


def sl_objective(delta: LDiffSurface, params: SlParams) -> float:
    """Sum of squared residuals of the fitted surface against delta."""
    if params.ages != delta.ages or params.years != delta.years:
        raise DomainError("parameter and surface index ranges do not match")
    resid = delta.values - params.fitted_surface()
    return float(np.sum(resid * resid))


def init_sl(delta: LDiffSurface) -> SlParams:
    """Starting point: fixed kappa, per-year regression of delta on it.

    kappa is the centered age ramp x - mean(x), and each year's (alpha1,
    alpha2) are the OLS intercept and slope of that year's column regressed
    on kappa. A column exactly affine in kappa is reproduced with zero
    residual.
    """
    if len(delta.ages) < 2:
        raise DomainError("need at least 2 ages to regress on kappa")
    x = delta.ages.to_array()
    kappa = x - x.mean()
    centered = kappa - kappa.mean()
    ss = centered @ centered
    # per-year simple OLS, vectorized over columns
    slope = centered @ delta.values / ss
    intercept = delta.values.mean(axis=0) - slope * kappa.mean()
    return SlParams(
        alpha1=intercept,
        alpha2=slope,
        kappa=kappa,
        base_survival=delta.base_survival,
        t0=delta.t0,
        ages=delta.ages,
        years=delta.years,
    )


def normalize_gauge(params: SlParams) -> SlParams:
    """Canonical parameterization leaving all fitted values unchanged.

    kappa' = (kappa - mean)/c, alpha2' = c*alpha2, alpha1' = alpha1 +
    mean(kappa)*alpha2, where c = ||kappa - mean|| signed so that kappa' at
    the oldest age is nonnegative. Afterwards sum(kappa') = 0 and
    sum(kappa'^2) = 1.
    """
    mean = params.kappa.mean()
    centered = params.kappa - mean
    c = float(np.linalg.norm(centered))
    if c == 0.0:
        raise DomainError("gauge undefined for constant kappa")
    if centered[-1] < 0.0:
        c = -c
    return replace(
        params,
        alpha1=params.alpha1 + mean * params.alpha2,
        alpha2=c * params.alpha2,
        kappa=centered / c,
    )


def fit_sl(delta: LDiffSurface, config: FitConfig | None = None) -> tuple[SlParams, FitDiagnostics]:
    """Damped elementwise-Newton least squares fit.

    Each sweep updates every alpha1_t, then every alpha2_t, then every
    kappa_x, in that order; every update is the exact one-parameter
    minimizer scaled by gamma, evaluated with all previously updated values.
    Stops once no parameter moved by epsilon or more during a sweep, or
    after k_max sweeps. The returned params are gauge-normalized; the
    diagnostics trace the pre-normalization objective, which is
    non-increasing across sweeps for gamma in (0, 2).

    Raises FitError if kappa collapses to the zero vector mid-fit, which
    makes the alpha2 step undefined.
    """
    if config is None:
        config = FitConfig()
    if len(delta.ages) < 2 or len(delta.years) < 2:
        raise DomainError("need at least 2 ages and 2 fit years")

    start = init_sl(delta)
    alpha1 = start.alpha1.copy()
    alpha2 = start.alpha2.copy()
    kappa = start.kappa.copy()
    target = delta.values
    gamma = config.gamma

    def objective():
        r = target - alpha1[None, :] - alpha2[None, :] * kappa[:, None]
        return float(np.sum(r * r))

    trace = [objective()]
    converged = False
    max_delta = np.inf
    sweeps = 0
    for sweeps in range(1, config.k_max + 1):
        resid = target - alpha1[None, :] - alpha2[None, :] * kappa[:, None]

        d1 = gamma * resid.mean(axis=0)
        alpha1 += d1
        resid -= d1[None, :]

        kk = kappa @ kappa
        if kk == 0.0:
            raise FitError("kappa collapsed to zero during fitting: the alpha2 step is undefined")
        d2 = gamma * (kappa @ resid) / kk
        alpha2 += d2
        resid -= kappa[:, None] * d2[None, :]

        aa = alpha2 @ alpha2
        if aa > 0.0:
            dk = gamma * (resid @ alpha2) / aa
            kappa += dk
        else:
            # objective is flat in kappa when alpha2 is identically zero
            dk = np.zeros_like(kappa)

        trace.append(objective())
        max_delta = max(
            float(np.max(np.abs(d1))),
            float(np.max(np.abs(d2))),
            float(np.max(np.abs(dk))),
        )
        if max_delta < config.epsilon:
            converged = True
            break

    raw = replace(start, alpha1=alpha1, alpha2=alpha2, kappa=kappa)
    diagnostics = FitDiagnostics(
        iterations=sweeps,
        converged=converged,
        final_objective=trace[-1],
        objective_trace=np.asarray(trace),
        max_param_delta=max_delta,
    )
    return normalize_gauge(raw), diagnostics


def sl_forecast(
    params: SlParams,
    rwd: RwdParams,
    horizon: int,
    n_paths: int | None = None,
    seed: int | None = None,
):
    """Death-probability forecast over the given horizon.

    Projects (alpha1, alpha2) by the calibrated walk and applies
    :meth:`SlParams.q_of` to the projected states in one array expression:
    one surface over the years after the fit window without ``n_paths``, an
    (n_paths, n_ages, horizon) array with it, whose path p is reproducible
    from ``seed`` alone (see :func:`~mortcast.timeseries.forecast_q`).

    A projected curve is always inside (0, 1); if a sampled path produces a
    non-monotone curve, DomainError names the path, the year and the two
    ages between which survival increases.
    """
    check_walk(rwd, 2, params.years, "SL")
    q_of = partial(params.q_of, first_year=params.years.t_max + 1)
    return forecast_q(rwd, horizon, q_of, params.ages, n_paths, seed)
