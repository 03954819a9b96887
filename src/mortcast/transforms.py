"""The log(-log) survival transform, the logit and logistic, and difference surfaces.

The central object is the map L(s) = log(-log s) on (0, 1), applied to
survival curves. Differencing L of a year's curve against a fixed
reference year's curve produces the surfaces the survival-transform (SL)
model is fitted to; inverting the difference recovers survival curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lifetable import (
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    _as_float_array,
    _first_cell,
    _freeze,
)

# Survival this close to 1 makes -log(s) collapse to rounding noise; such
# cells are rejected outright rather than nudged.
_ONE_BOUNDARY = 1.0 - 1e-15


def check_l_domain(
    values: np.ndarray, what: str, reference: tuple[AgeRange, int] | None = None
) -> None:
    """Reject survival values outside (0, 1 - 1e-15), NaN too: there log(-log s) is undefined.

    ``reference`` is the (ages, t0) of a reference year's survival curve;
    the first offending value is named by its age and that year when it is
    given, else by position.
    """
    arr = np.atleast_1d(values)
    outside = ~((arr > 0.0) & (arr < _ONE_BOUNDARY))
    if outside.any():
        pos = tuple(np.argwhere(outside)[0].tolist())
        if reference:
            ages, t0 = reference
            where = f"age {ages.x_min + pos[0]}, year {t0}"
        else:
            where = "position " + ", ".join(map(str, pos))
        raise DomainError(f"{what} {float(arr[pos])} at {where} is outside (0, 1 - 1e-15)")


def l_transform(s):
    """log(-log s) for s strictly inside (0, 1); decreasing in s.

    Accepts scalars or arrays. Values within 1e-15 of 1 are rejected.
    """
    arr = _as_float_array(s, "survival value")
    check_l_domain(arr, "survival value")
    return np.log(-np.log(arr))


def l_inverse(y):
    """Inverse of :func:`l_transform`: exp(-exp(y)), landing in (0, 1)."""
    arr = _as_float_array(y, "transformed value")
    return np.exp(-np.exp(arr))


def logit(p):
    """log(p / (1 - p)) for p strictly inside (0, 1)."""
    arr = _as_float_array(p, "probability")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("logit requires probabilities strictly inside (0, 1)")
    return np.log(arr / (1.0 - arr))


def logistic(x, out=None):
    """Inverse of :func:`logit`, 1 / (1 + exp(-x)); exactly 0 where exp(-x) overflows.

    ``out``, as in numpy's ufuncs, receives the result and may be ``x`` itself.
    """
    with np.errstate(over="ignore"):
        e = np.exp(np.negative(np.asarray(x, dtype=float), out=out), out=out)
    return np.divide(1.0, np.add(1.0, e, out=out), out=out)


@dataclass(frozen=True)
class LDiffSurface:
    """Differences L(S_t(x)) - L(S_t0(x)) for fit years t, all after t0.

    The reference year t0 itself is excluded (its difference is
    identically zero). The reference year's survival curve is kept so the
    differences can later be inverted back to survival curves.
    """

    t0: int
    base_survival: np.ndarray
    ages: AgeRange
    years: YearRange
    values: np.ndarray

    def __post_init__(self):
        if self.years.t_min <= self.t0:
            raise DomainError(
                f"fit years must start after the reference year {self.t0}, "
                f"got t_min {self.years.t_min}"
            )
        base = _freeze(self.base_survival)
        values = _freeze(self.values)
        if base.ndim != 1 or base.shape[0] != len(self.ages):
            raise DomainError("base survival must be a vector over the age window")
        check_l_domain(base, "base survival", (self.ages, self.t0))
        if values.shape != (len(self.ages), len(self.years)):
            raise DomainError(
                f"values shape {values.shape} does not match "
                f"{len(self.ages)} ages x {len(self.years)} years"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("difference surface must be finite everywhere")
        object.__setattr__(self, "base_survival", base)
        object.__setattr__(self, "values", values)


def build_l_diff(
    surv: MortalitySurface,
    t0: int,
    fit_years: YearRange | None = None,
) -> LDiffSurface:
    """Difference the L transform of each fit year's curve against year t0.

    Parameters
    ----------
    surv : MortalitySurface
        Survival surface (kind SURVIVAL) covering t0 and every fit year.
    t0 : int
        Reference year.
    fit_years : YearRange, optional
        Years to difference. Defaults to every year after t0 in ``surv``.

    Any survival value equal to 1 (within 1e-15) in a needed cell is a
    domain error naming the age and year, since L is undefined there.
    """
    if surv.kind is not SurfaceKind.SURVIVAL:
        raise DomainError(f"expected a survival surface, got {surv.kind.value}")
    if fit_years is None:
        fit_years = YearRange(t0 + 1, surv.years.t_max)
    if t0 not in surv.years:
        raise DomainError(f"reference year {t0} outside survival years {surv.years}")
    if not surv.years.covers(fit_years):
        raise DomainError(f"fit years {fit_years} not covered by survival years {surv.years}")

    j0 = surv.years.index(fit_years.t_min)
    block = surv.values[:, j0 : j0 + len(fit_years)]
    base = surv.column(t0)
    if (block >= _ONE_BOUNDARY).any():
        x, t = _first_cell(block >= _ONE_BOUNDARY, surv.ages, fit_years)
        raise DomainError(
            f"survival of 1 at age {x}, year {t}: the log(-log) transform is undefined there"
        )
    # LDiffSurface checks t0 and the reference curve; a base survival of 1
    # makes its log(-log) -inf here, which that check then rejects
    with np.errstate(divide="ignore"):
        values = np.log(-np.log(block)) - np.log(-np.log(base))[:, None]
    return LDiffSurface(
        t0=t0,
        base_survival=base,
        ages=surv.ages,
        years=fit_years,
        values=values,
    )


def invert_l_diff(delta_col, base_survival) -> np.ndarray:
    """Survival curves implied by difference values and the reference curve.

    Computes exp(-exp(L(base) + delta)) elementwise; with delta = 0 this
    returns the base curve. ``delta`` has age as its last axis: one column
    of shape (n_ages,) or a stack of shape (..., n_ages), and the result has
    the same shape. Where exp overflows, the survival is 0.
    """
    delta = _as_float_array(delta_col, "difference values")
    base = _as_float_array(base_survival, "base survival")
    if base.ndim != 1 or delta.ndim == 0 or delta.shape[-1] != base.shape[0]:
        raise DomainError("base survival must be a vector as long as the last axis of the differences")
    check_l_domain(base, "base survival")
    with np.errstate(over="ignore"):
        return np.exp(-np.exp(np.log(-np.log(base)) + delta))
