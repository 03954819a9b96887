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
    MortalitySurface,
    SurfaceKind,
    YearRange,
    _freeze_series,
    check_surface_values,
    q_to_central_rate,
    q_to_survival,
    surface_central_rate_to_q,
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
    curve is rebuilt against, a survival curve that must not rise in age.
    The other parameters are only identified up to an affine gauge; fit_sl
    returns them normalized to sum(kappa) = 0, sum(kappa^2) = 1, kappa at
    the oldest age nonnegative.
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
        check_l_domain(self.base_survival, "base_survival", (self.ages, YearRange(self.t0, self.t0)))
        # a curve that rises in age has a negative q at t0, which survival_to_q rejects
        survival_to_q(self.base_survival)

    def q_of(self, states: np.ndarray, out=None) -> np.ndarray:
        """Death probabilities (n_ages, n_years[, n_paths]) from states (n_years, 2[, n_paths]).

        The states are (alpha1, alpha2) per year, with an optional trailing
        axis of sample paths. q comes from the cumulative hazard e = -log S
        = exp(L0 + (alpha1 + alpha2 * kappa)), L0 = log(-log base_survival):
        1 - exp(-e) at the base age, and 1 - exp(e_{x-1} - e_x) above it,
        each computed as 0.0 - expm1(...) so that a zero increment gives +0.0.
        It is written in ``out`` if that is given: an array of the result's
        shape. It never raises: a curve that rises in age gives q < 0, a
        hazard that grows far out q = 1, and one whose exp overflows at two
        adjacent ages NaN; the forecast's check on q names the first such
        cell by path, age and year.
        """
        alpha1, alpha2 = states[:, 0], states[:, 1]
        shape = (-1,) + (1,) * alpha1.ndim
        l0 = np.log(-np.log(self.base_survival)).reshape(shape)
        e = np.multiply(alpha2, self.kappa.reshape(shape), out=out)
        np.add(alpha1, e, out=e)
        np.add(l0, e, out=e)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(e, out=e)
            # the age increments of e, in place: numpy copies the overlapping operand
            np.subtract(e[:-1], e[1:], out=e[1:])
            np.negative(e[0], out=e[0])
            np.expm1(e, out=e)
        return np.subtract(0.0, e, out=e)

    @staticmethod
    def fit(rates, fit_years, t0, config):
        # SL reads q only in t0 and the fit years
        rates = rates.subset(years=YearRange(t0, fit_years.t_max))
        survival = surface_q_to_survival(surface_central_rate_to_q(rates))
        return fit_sl(build_l_diff(survival, t0=t0, fit_years=fit_years), config)

    def forecast(self, horizon, n_paths=None, seed=None):
        return sl_forecast(self, horizon, n_paths, seed)

    @staticmethod
    def manifold(ages: AgeRange, years: YearRange) -> MortalitySurface:
        """Rates generated through the survival-transform model itself.

        The first year of ``years`` acts as the reference year carrying a
        Gompertz mortality curve; later years apply delta = alpha1_t +
        alpha2_t * kappa_x with a curved normalized kappa and time processes
        affine in t. The implied survival stays monotone on the default
        windows. A q of 1 is named by age and year, the reference year first.
        """
        dx = (ages.to_array() - ages.x_min).astype(float)
        q0 = 1.0 - np.exp(-0.006 * np.exp(0.088 * dx))
        check_surface_values(q0[:, None], SurfaceKind.DEATH_PROB, ages, years)
        s0 = q_to_survival(q0)

        raw = dx - 0.022 * dx * dx
        raw = raw - raw.mean()
        kappa = raw / np.linalg.norm(raw)
        if kappa[-1] < 0.0:
            kappa = -kappa

        h = (years.to_array() - years.t_min).astype(float)
        alpha1 = -0.016 * h
        alpha2 = 0.06 + 0.010 * h

        q = np.empty((len(ages), len(years)))
        q[:, 0] = q0
        # one survival curve per later year, age on the last axis
        delta = alpha1[1:, None] + alpha2[1:, None] * kappa
        q[:, 1:] = survival_to_q(invert_l_diff(delta, s0)).T
        check_surface_values(q, SurfaceKind.DEATH_PROB, ages, years)
        return MortalitySurface(ages, years, SurfaceKind.CENTRAL_RATE, q_to_central_rate(q))

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

    # per-fit buffers: resid holds target - alpha1 - alpha2 * kappa, prod
    # every product, steps the sweep's d1 | d2 | dk
    resid = np.empty_like(target)
    prod = np.empty_like(target)
    steps = np.empty(2 * n_years + n_ages)
    d1 = steps[:n_years]
    d2 = steps[n_years:2 * n_years]
    dk = steps[2 * n_years:]

    def objective():
        """Residual sum of squares; leaves the residual in resid."""
        np.subtract(target, alpha1, out=resid)
        np.multiply(alpha2, kappa_col, out=prod)
        np.subtract(resid, prod, out=resid)
        np.multiply(resid, resid, out=prod)
        return float(np.add.reduce(prod, axis=None))

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
        np.multiply(kappa_col, d2, out=prod)
        resid -= prod

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

    Central without ``n_paths``, a MortalitySurface; sampled with it, the
    (3, n_ages, horizon) QUANTILE_PROBS bands over the paths: see
    :func:`~mortcast.timeseries.forecast_q`. A projected curve that rises
    in age gives a negative q, and one whose hazard grows far out a q of 1;
    either raises the DomainError of forecast_q's check on q, which names
    the path, age and year.
    """
    return forecast_q(params, horizon, n_paths, seed)
