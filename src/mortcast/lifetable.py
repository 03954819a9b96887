"""Life-table data model and exact conversions among mortality quantities.

Everything here assumes a piecewise-constant force of mortality on unit
age-year squares, which ties the central death rate m and the one-year
death probability q together through ``exp(-m) = 1 - q``. Survival curves
are anchored at the lowest age of the window and built as cumulative
products of (1 - q).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

# The axis of a params.csv series: one row per age or per fit year.
AGE, YEAR = "age", "year"


@dataclass(frozen=True)
class AgeRange:
    """Closed integer age window [x_min, x_max]."""

    x_min: int
    x_max: int

    def __post_init__(self):
        if self.x_min < 0 or self.x_max < 0:
            raise DomainError(f"ages must be nonnegative, got [{self.x_min}, {self.x_max}]")
        if self.x_min > self.x_max:
            raise DomainError(f"x_min {self.x_min} exceeds x_max {self.x_max}")

    def __len__(self) -> int:
        return self.x_max - self.x_min + 1

    def __contains__(self, x: int) -> bool:
        return self.x_min <= x <= self.x_max

    def __iter__(self):
        return iter(range(self.x_min, self.x_max + 1))

    def index(self, x: int) -> int:
        """Row index of age ``x`` within the window."""
        if x not in self:
            raise DomainError(f"age {x} outside window [{self.x_min}, {self.x_max}]")
        return x - self.x_min

    def to_array(self) -> np.ndarray:
        return np.arange(self.x_min, self.x_max + 1)

    def covers(self, other: "AgeRange") -> bool:
        return self.x_min <= other.x_min and other.x_max <= self.x_max


@dataclass(frozen=True)
class YearRange:
    """Closed integer calendar-year window [t_min, t_max]."""

    t_min: int
    t_max: int

    def __post_init__(self):
        if self.t_min > self.t_max:
            raise DomainError(f"t_min {self.t_min} exceeds t_max {self.t_max}")

    def __len__(self) -> int:
        return self.t_max - self.t_min + 1

    def __contains__(self, t: int) -> bool:
        return self.t_min <= t <= self.t_max

    def __iter__(self):
        return iter(range(self.t_min, self.t_max + 1))

    def index(self, t: int) -> int:
        """Column index of year ``t`` within the window."""
        if t not in self:
            raise DomainError(f"year {t} outside window [{self.t_min}, {self.t_max}]")
        return t - self.t_min

    def to_array(self) -> np.ndarray:
        return np.arange(self.t_min, self.t_max + 1)

    def covers(self, other: "YearRange") -> bool:
        return self.t_min <= other.t_min and other.t_max <= self.t_max


class SurfaceKind(str, Enum):
    """What quantity a MortalitySurface holds."""

    CENTRAL_RATE = "central_rate"
    DEATH_PROB = "death_prob"
    # S_t(x): the chance of surviving from the lowest age of the window past age x
    SURVIVAL = "survival"


def _freeze(values: np.ndarray) -> np.ndarray:
    """A read-only float copy of ``values``, so the caller's array stays writeable."""
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    return out


def _first_cell(mask: np.ndarray, ages: AgeRange, years: YearRange) -> tuple[int, ...]:
    """(age, year) of the first True cell of ``mask``, by age, then year.

    ``mask`` is one (ages, years) grid, or a (paths, ages, years) block, for
    which the result is (path, age, year) with the path as a block index.
    """
    *path, i, j = np.argwhere(mask)[0].tolist()
    return (*path, ages.x_min + i, years.t_min + j)


def _locate(mask: np.ndarray, ages: AgeRange, years: YearRange, first_path: int = 0) -> str:
    """"age X, year Y" of the first True cell of ``mask``, by age, then year.

    For a (paths, ages, years) block whose first path has index
    ``first_path``, "sample path P, " leads.
    """
    *path, x, t = _first_cell(mask, ages, years)
    cell = f"age {x}, year {t}"
    return f"sample path {first_path + path[0]}, {cell}" if path else cell


def _freeze_series(params) -> None:
    """Store each AGE and YEAR series of ``params.ROWS`` as a private read-only float copy.

    Each must hold one finite entry per age, or per fit year, of the
    params' windows.
    """
    for _, attr, axis in params.ROWS:
        if axis in (AGE, YEAR):
            n = len(params.ages if axis == AGE else params.years)
            values = _freeze(getattr(params, attr))
            if values.shape != (n,) or not np.isfinite(values).all():
                per = "age" if axis == AGE else "fit year"
                raise DomainError(f"{attr} must hold one finite entry per {per} ({n})")
            object.__setattr__(params, attr, values)


def check_surface_values(
    values: np.ndarray, kind: SurfaceKind, ages: AgeRange, years: YearRange, first_path: int = 0
) -> None:
    """Finiteness and the admissible values of ``kind``, naming the first bad cell.

    Death probabilities lie in [0, 1], survival in (0, 1] and non-increasing
    in age, anything else is nonnegative. ``values`` is one (ages, years)
    grid, or a (paths, ages, years) block of sample paths whose first path
    has index ``first_path``; the message then names the path as well as
    the age and year.
    """

    survival = kind is SurfaceKind.SURVIVAL
    if not np.isfinite(values).all():
        at = _locate(~np.isfinite(values), ages, years, first_path)
        raise DomainError(f"non-finite {kind.value} at {at}")
    low = values <= 0.0 if survival else values < 0.0
    if low.any():
        at = _locate(low, ages, years, first_path)
        raise DomainError(f"{'nonpositive' if survival else 'negative'} {kind.value} at {at}")
    if (survival or kind is SurfaceKind.DEATH_PROB) and (values > 1.0).any():
        name = "survival" if survival else "death probability"
        raise DomainError(f"{name} above 1 at {_locate(values > 1.0, ages, years, first_path)}")
    if survival:
        rising = values[..., 1:, :] > values[..., :-1, :]
        if rising.any():
            *path, x, t = _first_cell(rising, ages, years)
            on = f" on sample path {first_path + path[0]}" if path else ""
            raise DomainError(f"survival increases from age {x} to {x + 1} in year {t}{on}")


@dataclass(frozen=True)
class MortalitySurface:
    """Dense rectangular grid of one mortality quantity over ages x years.

    ``values[i, j]`` belongs to age ``ages.x_min + i`` and year
    ``years.t_min + j``. Construction validates shape, finiteness, and the
    admissible values for the given kind; the stored matrix is read-only.
    A survival surface holds per-year curves anchored at its lowest age.
    """

    ages: AgeRange
    years: YearRange
    kind: SurfaceKind
    values: np.ndarray

    def __post_init__(self):
        kind = SurfaceKind(self.kind)
        values = _freeze(self.values)
        expected = (len(self.ages), len(self.years))
        if values.shape != expected:
            raise DomainError(
                f"values shape {values.shape} does not match "
                f"{len(self.ages)} ages x {len(self.years)} years"
            )
        check_surface_values(values, kind, self.ages, self.years)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)

    def column(self, year: int) -> np.ndarray:
        """Values for one calendar year, over all ages (a copy)."""
        return self.values[:, self.years.index(year)].copy()

    def subset(self, ages: AgeRange | None = None, years: YearRange | None = None) -> "MortalitySurface":
        """Restrict to a smaller age/year window.

        A survival surface keeps its lowest age, where its curves are anchored.
        """
        ages = ages or self.ages
        years = years or self.years
        if not self.ages.covers(ages):
            raise DomainError(f"requested ages {ages} not covered by {self.ages}")
        if not self.years.covers(years):
            raise DomainError(f"requested years {years} not covered by {self.years}")
        if self.kind is SurfaceKind.SURVIVAL and ages.x_min != self.ages.x_min:
            raise DomainError(
                f"survival curves are anchored at age {self.ages.x_min}, "
                f"so a subset cannot start at age {ages.x_min}"
            )
        i0 = self.ages.index(ages.x_min)
        j0 = self.years.index(years.t_min)
        block = self.values[i0 : i0 + len(ages), j0 : j0 + len(years)]
        return MortalitySurface(ages, years, self.kind, block)


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def central_rate_to_q(m):
    """Death probability 1 - exp(-m) from a central death rate.

    Accepts scalars or arrays; elementwise on arrays.
    """
    arr = _as_float_array(m, "central rate")
    if np.any(arr < 0.0):
        raise DomainError("central rate must be nonnegative")
    return -np.expm1(-arr)


def q_to_central_rate(q):
    """Central death rate -log(1 - q) from a death probability in [0, 1)."""
    arr = _as_float_array(q, "death probability")
    if np.any(arr < 0.0) or np.any(arr >= 1.0):
        raise DomainError("death probability must lie in [0, 1)")
    return -np.log1p(-arr)


def _validate_q_vector(q_col) -> np.ndarray:
    q = _as_float_array(q_col, "death probabilities")
    if q.ndim != 1 or q.size == 0:
        raise DomainError("expected a non-empty 1-d vector of death probabilities")
    if np.any(q < 0.0):
        raise DomainError("death probabilities must be nonnegative")
    if np.any(q >= 1.0):
        x = int(np.argmax(q >= 1.0))
        raise DomainError(
            f"death probability of 1 at position {x}: survival hits zero, "
            "downstream transforms are undefined"
        )
    return q


def q_to_survival(q_col) -> np.ndarray:
    """Survival curve S(x) = prod_(i<=x) (1 - q_i) over one year's ages.

    The input runs from the base age upward; every entry must lie in
    [0, 1). The result is strictly positive and non-increasing.
    """
    q = _validate_q_vector(q_col)
    return np.cumprod(1.0 - q)


def survival_to_q(s_col) -> np.ndarray:
    """One-year death probabilities from survival curves.

    Exact inverse of :func:`q_to_survival` along the last axis: q at the
    base age is 1 - S(x0), and q_x = 1 - S(x)/S(x-1) above it. Takes one
    curve of shape (n_ages,) or a stack of shape (..., n_ages) and returns
    the same shape.
    """
    s = _as_float_array(s_col, "survival values")
    if s.ndim == 0 or s.shape[-1] == 0:
        raise DomainError("expected non-empty survival curves")
    if np.any(s <= 0.0):
        raise DomainError("survival values must be strictly positive")
    if np.any(s[..., 0] > 1.0):
        raise DomainError(f"survival at the base age must be <= 1, got {np.max(s[..., 0])}")
    rising = s[..., 1:] > s[..., :-1]
    if np.any(rising):
        *curve, x = (int(i) for i in np.argwhere(rising)[0])
        of = f" of curve {tuple(curve)}" if curve else ""
        raise DomainError(f"survival increases between positions {x} and {x + 1}{of}")
    q = np.empty_like(s)
    q[..., 0] = 1.0 - s[..., 0]
    q[..., 1:] = 1.0 - s[..., 1:] / s[..., :-1]
    return q


def curve_of_deaths(q_col) -> np.ndarray:
    """Deferred death probabilities r_x: survive from the base age to x, die within a year.

    r at the base age equals q there; above it r_x = q_x * S(x-1). On the
    finite window, sum(r) + S(x_max) = 1.
    """
    q = _validate_q_vector(q_col)
    s = np.cumprod(1.0 - q)
    r = q.copy()
    r[1:] *= s[:-1]
    return r


def surface_central_rate_to_q(m_surface: MortalitySurface) -> MortalitySurface:
    """Elementwise :func:`central_rate_to_q` over a central-rate surface."""
    q = central_rate_to_q(m_surface.values)
    return MortalitySurface(m_surface.ages, m_surface.years, SurfaceKind.DEATH_PROB, q)


def surface_q_to_survival(q_surface: MortalitySurface) -> MortalitySurface:
    """Columnwise lift of :func:`q_to_survival` over a death-probability surface.

    The result is a survival surface anchored at the surface's lowest age.
    Any q equal to 1 is rejected with the offending cell named.
    """
    if q_surface.kind is not SurfaceKind.DEATH_PROB:
        raise DomainError(f"expected a death_prob surface, got {q_surface.kind.value}")
    if (q_surface.values >= 1.0).any():
        x, t = _first_cell(q_surface.values >= 1.0, q_surface.ages, q_surface.years)
        raise DomainError(f"death probability of 1 at age {x}, year {t}: survival hits zero")
    s = np.cumprod(1.0 - q_surface.values, axis=0)
    return MortalitySurface(q_surface.ages, q_surface.years, SurfaceKind.SURVIVAL, s)
