"""Benchmark mortality models: Lee-Carter and Cairns-Blake-Dowd.

Lee-Carter: log m_{x,t} = alpha_x + beta_x * kappa_t, fitted by rank-1 SVD
of the row-centered log rates. CBD: logit q_{x,t} = kappa1_t +
kappa2_t * (x - x_bar), fitted year by year with closed-form least squares.
Both forecast by handing their time indices to the random walk with drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FitError
from .lifetable import (
    AGE,
    YEAR,
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    _first_cell,
    _freeze_series,
    surface_central_rate_to_q,
)
from .timeseries import forecast_q
from .transforms import logistic, logit


@dataclass(frozen=True)
class LcParams:
    """Lee-Carter parameters under sum(beta) = 1, sum(kappa) = 0."""

    NAME = "lc"
    REFERENCE_YEAR = False
    # params.csv layout: (row name, attribute, AGE | YEAR | type of a scalar)
    ROWS = (("alpha_x", "alpha_x", AGE), ("beta_x", "beta_x", AGE), ("kappa_t", "kappa_t", YEAR))

    alpha_x: np.ndarray
    beta_x: np.ndarray
    kappa_t: np.ndarray
    ages: AgeRange
    years: YearRange

    def __post_init__(self):
        _freeze_series(self)
        if abs(self.beta_x.sum() - 1.0) > 1e-10:
            raise DomainError(f"beta_x must sum to 1, got {self.beta_x.sum()}")
        if abs(self.kappa_t.sum()) > 1e-10:
            raise DomainError(f"kappa_t must sum to 0, got {self.kappa_t.sum()}")

    def q_of(self, states: np.ndarray, out=None) -> np.ndarray:
        """Death probabilities (n_ages, n_years[, n_paths]) from states (n_years, 1[, n_paths]).

        The states are kappa_t per year, with an optional trailing axis of
        sample paths. q = -expm1(-m) of the central rate m = exp(alpha_x +
        beta_x * kappa), under a constant force of mortality within each
        year, in ``out`` if it is given: an array of the result's shape. It
        never raises: a rate above about 37, or one that overflows to
        infinity, gives q = 1, which the forecast's check on q names by
        path, age and year.
        """
        kappa = states[:, 0]
        shape = (-1,) + (1,) * kappa.ndim
        m = np.multiply(self.beta_x.reshape(shape), kappa, out=out)
        np.add(self.alpha_x.reshape(shape), m, out=m)
        with np.errstate(over="ignore"):
            np.exp(m, out=m)
        np.negative(m, out=m)
        np.expm1(m, out=m)
        return np.negative(m, out=m)

    @staticmethod
    def fit(rates, fit_years, t0, config):
        return fit_lc(rates.subset(years=fit_years)), None

    def forecast(self, horizon, n_paths=None, seed=None):
        return lc_forecast(self, horizon, n_paths, seed)


@dataclass(frozen=True)
class CbdParams:
    """CBD parameters; x_bar is the midpoint of the fitted age window."""

    NAME = "cbd"
    REFERENCE_YEAR = False
    # params.csv layout: (row name, attribute, AGE | YEAR | type of a scalar)
    ROWS = (("kappa1", "kappa1_t", YEAR), ("kappa2", "kappa2_t", YEAR), ("x_bar", "x_bar", float))

    kappa1_t: np.ndarray
    kappa2_t: np.ndarray
    x_bar: float
    ages: AgeRange
    years: YearRange

    def __post_init__(self):
        _freeze_series(self)
        # written so that a NaN x_bar fails too
        if not abs(self.x_bar - (self.ages.x_min + self.ages.x_max) / 2.0) <= 1e-12:
            raise DomainError("x_bar must be the midpoint of the age window")

    def q_of(self, states: np.ndarray, out=None) -> np.ndarray:
        """Death probabilities (n_ages, n_years[, n_paths]) from states (n_years, 2[, n_paths]).

        The states are (kappa1, kappa2) per year, with an optional trailing
        axis of sample paths. q is the logistic of kappa1 + kappa2 * (x -
        x_bar), in ``out`` if it is given: an array of the result's shape.
        It never raises; where the logit is large enough, q rounds to 1.
        """
        cx = (self.ages.to_array() - self.x_bar).reshape((-1,) + (1,) * (states.ndim - 1))
        eta = np.multiply(cx, states[:, 1], out=out)
        np.add(states[:, 0], eta, out=eta)
        return logistic(eta, out=eta)

    @staticmethod
    def fit(rates, fit_years, t0, config):
        return fit_cbd(surface_central_rate_to_q(rates.subset(years=fit_years))), None

    def forecast(self, horizon, n_paths=None, seed=None):
        return cbd_forecast(self, horizon, n_paths, seed)


def fit_lc(m_surface: MortalitySurface) -> LcParams:
    """Lee-Carter fit by singular value decomposition.

    alpha_x is the row mean of log m over the fit years; (beta, kappa) come
    from the leading singular triple of the centered matrix, scaled to
    sum(beta) = 1 with the SVD sign fixed by sum(beta) > 0 before scaling.
    Any kappa-mean residual is folded back into alpha so sum(kappa) = 0
    holds exactly. A centered matrix of zeros (rates constant over time)
    yields uniform beta and kappa = 0.
    """
    if m_surface.kind is not SurfaceKind.CENTRAL_RATE:
        raise DomainError(f"expected a central_rate surface, got {m_surface.kind.value}")
    if (m_surface.values <= 0.0).any():
        x, t = _first_cell(m_surface.values <= 0.0, m_surface.ages, m_surface.years)
        raise DomainError(f"nonpositive central rate at age {x}, year {t}: log rate undefined")
    log_m = np.log(m_surface.values)
    alpha = log_m.mean(axis=1)
    centered = log_m - alpha[:, None]

    n_ages = len(m_surface.ages)
    # row-mean centering leaves ulp-level residue on time-constant rows, so
    # the zero-matrix branch must trigger at rounding level, not exact zero
    tol = 16.0 * np.finfo(float).eps * len(m_surface.years) * max(1.0, np.max(np.abs(log_m)))
    if np.max(np.abs(centered)) <= tol:
        beta = np.full(n_ages, 1.0 / n_ages)
        kappa = np.zeros(len(m_surface.years))
    else:
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        beta = u[:, 0]
        kappa = s[0] * vt[0]
        if beta.sum() < 0.0:
            beta, kappa = -beta, -kappa
        scale = beta.sum()
        if scale == 0.0:
            raise FitError(
                "leading age pattern sums to zero; the sum(beta) = 1 constraint "
                "cannot be imposed on this surface"
            )
        beta = beta / scale
        kappa = kappa * scale
        # rows were centered, so kappa's mean is already rounding-level;
        # fold whatever is left into alpha to make the constraint exact
        shift = kappa.mean()
        alpha = alpha + beta * shift
        kappa = kappa - shift

    return LcParams(
        alpha_x=alpha,
        beta_x=beta,
        kappa_t=kappa,
        ages=m_surface.ages,
        years=m_surface.years,
    )


def fit_cbd(q_surface: MortalitySurface) -> CbdParams:
    """CBD fit: per-year OLS of logit q on centered age.

    With the regressor centered, each year's intercept kappa1_t is the mean
    logit and the slope kappa2_t the usual ratio of cross products. Exact
    for surfaces whose logit is affine in age.
    """
    if q_surface.kind is not SurfaceKind.DEATH_PROB:
        raise DomainError(f"expected a death_prob surface, got {q_surface.kind.value}")
    if len(q_surface.ages) < 2:
        raise DomainError("need at least 2 ages to fit an age slope")
    # a surface's q lies in [0, 1), so only a zero leaves the logit undefined
    zero = q_surface.values <= 0.0
    if zero.any():
        x, t = _first_cell(zero, q_surface.ages, q_surface.years)
        raise DomainError(f"death probability outside (0, 1) at age {x}, year {t}: logit undefined")
    x_bar = (q_surface.ages.x_min + q_surface.ages.x_max) / 2.0
    cx = q_surface.ages.to_array() - x_bar
    y = logit(q_surface.values)
    kappa1 = y.mean(axis=0)
    kappa2 = cx @ y / (cx @ cx)
    return CbdParams(
        kappa1_t=kappa1,
        kappa2_t=kappa2,
        x_bar=x_bar,
        ages=q_surface.ages,
        years=q_surface.years,
    )


def lc_forecast(
    params: LcParams, horizon: int, n_paths: int | None = None, seed: int | None = None
):
    """Death-probability forecast: :meth:`LcParams.q_of` of the projected kappa_t.

    Central without ``n_paths``, a MortalitySurface; sampled with it, the
    (3, n_ages, horizon) QUANTILE_PROBS bands over the paths: see
    :func:`~mortcast.timeseries.forecast_q`. A rate high enough that q
    rounds to 1, long before it overflows exp, raises the DomainError of
    forecast_q's check on q, which names the path, age and year.
    """
    return forecast_q(params, horizon, n_paths, seed)


def cbd_forecast(
    params: CbdParams, horizon: int, n_paths: int | None = None, seed: int | None = None
):
    """Death-probability forecast: :meth:`CbdParams.q_of` of the projected kappa.

    Central without ``n_paths``, a MortalitySurface; sampled with it, the
    (3, n_ages, horizon) QUANTILE_PROBS bands over the paths: see
    :func:`~mortcast.timeseries.forecast_q`. A logit high enough that q
    rounds to 1 raises the DomainError of forecast_q's check on q, which
    names the path, age and year.
    """
    return forecast_q(params, horizon, n_paths, seed)
