"""Survival-transform mortality model.

Fits delta_{x,t} = alpha1_t + alpha2_t * kappa_x to an L-difference surface
by damped coordinate descent, then forecasts death probabilities by
projecting (alpha1, alpha2) as a two-dimensional random walk with drift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitError
from .lifetable import (
    AGE,
    YEAR,
    AgeRange,
    SurfaceKind,
    YearRange,
    _freeze_series,
    check_surface_values,
    surface_q_to_survival,
    survival_to_q,
)
from .timeseries import forecast_q
from .transforms import LDiffSurface, build_l_diff, check_l_domain, invert_l_diff


@dataclass(frozen=True)
class SlParams:
    """Fitted model parameters and the reference year's survival curve.

    alpha1/alpha2 are indexed by fit year, kappa and base_survival by age.
    base_survival is S_t0, the age constant every fitted and projected
    curve is rebuilt against. The other parameters are only identified up
    to an affine gauge; fit_sl returns them normalized to sum(kappa) = 0,
    sum(kappa^2) = 1, kappa at the oldest age nonnegative.
    """

    NAME = "sl"
    REFERENCE_YEAR = True
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
        if not isinstance(self.t0, (int, np.integer)):
            raise DomainError(f"reference year must be an integer, got {self.t0!r}")
        if self.t0 >= self.years.t_min:
            raise DomainError(f"reference year {self.t0} must precede fit years")
        check_l_domain(self.base_survival, "base_survival", (self.ages, self.t0))

    def q_of(self, states: np.ndarray, years: YearRange, first_path: int = 0) -> np.ndarray:
        """Death probabilities (..., n_ages, n_years) from states (..., n_years, 2).

        The states are (alpha1, alpha2) of ``years``; with a leading axis of
        sample paths, ``states[0]`` is path ``first_path``. Each year's
        survival curve is rebuilt through the inverse transform against
        base_survival. A curve that reaches 0 or rises in age raises the
        DomainError of :func:`check_surface_values`, which names the first
        bad cell by path, age and year.
        """
        # (..., n_years, 1) + (..., n_years, 1) * (ages,): age is the last axis
        delta = states[..., :1] + states[..., 1:] * self.kappa
        survival = invert_l_diff(delta, self.base_survival)
        try:
            q = survival_to_q(survival)
        except DomainError:
            # located only on failure, so valid blocks are not checked twice
            grid = np.swapaxes(survival, -1, -2)
            check_surface_values(grid, SurfaceKind.SURVIVAL, self.ages, years, first_path)
            raise
        return np.swapaxes(q, -1, -2)

    @staticmethod
    def fit(rates, q, fit_years, t0, config):
        return fit_sl(build_l_diff(surface_q_to_survival(q), t0=t0, fit_years=fit_years), config)

    def forecast(self, horizon, n_paths=None, seed=None):
        return sl_forecast(self, horizon, n_paths, seed)

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
        # written so that a NaN fails too
        if not self.epsilon > 0.0:
            raise DomainError(f"epsilon must be positive, got {self.epsilon}")
        if not np.isfinite(self.epsilon):
            raise DomainError(f"epsilon must be finite, got {self.epsilon}")
        # bool is an int subclass, but no sweep budget
        integral = isinstance(self.k_max, (int, np.integer)) and not isinstance(self.k_max, bool)
        if not (integral and self.k_max >= 1):
            raise DomainError(f"k_max must be a positive integer, got {self.k_max!r}")


@dataclass(frozen=True)
class FitDiagnostics:
    iterations: int
    converged: bool
    objective_trace: np.ndarray
    max_param_delta: float


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

    The sweep runs in buffers allocated once per fit, and each sweep
    starts from the residual that the previous objective evaluation left
    behind. It does the same float operations, in the same order, as
    writing each step as one numpy expression on fresh arrays, so the
    iterates are the same bits.

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
    kappa_col = kappa[:, None]
    target = delta.values
    gamma = config.gamma
    n_ages, n_years = target.shape

    # per-fit buffers: resid holds target - alpha1 - alpha2 * kappa, work
    # every product, steps the sweep's d1 | d2 | dk
    resid = np.empty_like(target)
    work = np.empty_like(target)
    steps = np.empty(2 * n_years + n_ages)
    d1 = steps[:n_years]
    d2 = steps[n_years:2 * n_years]
    dk = steps[2 * n_years:]

    def objective():
        """Residual sum of squares; leaves the residual in resid."""
        np.subtract(target, alpha1, out=resid)
        np.multiply(alpha2, kappa_col, out=work)
        np.subtract(resid, work, out=resid)
        np.multiply(resid, resid, out=work)
        return float(np.add.reduce(work, axis=None))

    trace = [objective()]
    converged = False
    max_delta = np.inf
    sweeps = 0
    for sweeps in range(1, config.k_max + 1):
        # resid is the residual objective() left at the current parameters
        np.true_divide(np.add.reduce(resid, axis=0), n_ages, out=d1)
        np.multiply(gamma, d1, out=d1)
        alpha1 += d1
        resid -= d1

        kk = kappa @ kappa
        if kk == 0.0:
            raise FitError("kappa collapsed to zero during fitting: the alpha2 step is undefined")
        np.multiply(gamma, kappa @ resid, out=d2)
        np.true_divide(d2, kk, out=d2)
        alpha2 += d2
        np.multiply(kappa_col, d2, out=work)
        resid -= work

        aa = alpha2 @ alpha2
        if aa > 0.0:
            np.multiply(gamma, resid @ alpha2, out=dk)
            np.true_divide(dk, aa, out=dk)
            kappa += dk
        else:
            # objective is flat in kappa when alpha2 is identically zero
            dk.fill(0.0)

        trace.append(objective())
        max_delta = float(np.abs(steps).max())
        if max_delta < config.epsilon:
            converged = True
            break

    raw = replace(start, alpha1=alpha1, alpha2=alpha2, kappa=kappa)
    diagnostics = FitDiagnostics(
        iterations=sweeps,
        converged=converged,
        objective_trace=np.asarray(trace),
        max_param_delta=max_delta,
    )
    return normalize_gauge(raw), diagnostics


def sl_forecast(
    params: SlParams, horizon: int, n_paths: int | None = None, seed: int | None = None
):
    """Death-probability forecast: :meth:`SlParams.q_of` of the projected (alpha1, alpha2).

    Central without ``n_paths``, sampled with it as a non-contiguous
    (n_paths, n_ages, horizon) view of path-last storage: see
    :func:`~mortcast.timeseries.forecast_q`. A projected curve that rises
    in age, or falls to 0 where exp overflows far out, raises DomainError
    naming its path, age and year.
    """
    return forecast_q(params, horizon, n_paths, seed)
