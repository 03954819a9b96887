"""Data ingestion and serialization.

Reads Human Mortality Database period 1x1 text tables, estimates central
rates from deaths and exposures, generates synthetic surfaces for
desk-scale verification, and serializes surfaces and backtest reports to
CSV. The parser rejects malformed input with a line number; it never
repairs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .evaluation import BacktestReport
from .lifetable import (
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    q_to_central_rate,
    q_to_survival,
    survival_to_q,
)
from .transforms import invert_l_diff, logistic

_HMD_HEADER = ("Year", "Age", "Female", "Male", "Total")
_COLUMNS = {"female": 2, "male": 3, "total": 4}
_OPEN_AGE = 110
# probabilities of the sample-forecast bands in quantiles.csv
QUANTILE_PROBS = (0.05, 0.5, 0.95)


@dataclass(frozen=True)
class HmdRecord:
    """One parsed HMD row. ``open_age`` marks the terminal "110+" group."""

    year: int
    age: int
    female: float | None
    male: float | None
    total: float | None
    open_age: bool = False

    def __post_init__(self):
        if self.year < 1750:
            raise ParseError(f"implausible year {self.year}")
        if not (0 <= self.age <= _OPEN_AGE):
            raise ParseError(f"age {self.age} outside [0, {_OPEN_AGE}]")

    def value(self, column: str) -> float | None:
        return getattr(self, column)


def _open_stream(source):
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "r", encoding="utf-8"), True


def _parse_value(token: str, line_no: int) -> float | None:
    if token == ".":
        return None
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"line {line_no}: unparseable value {token!r}") from None


def _parse_row(line: str, line_no: int) -> HmdRecord:
    fields = line.split()
    if len(fields) != 5:
        raise ParseError(f"line {line_no}: expected 5 fields, got {len(fields)}")
    try:
        year = int(fields[0])
    except ValueError:
        raise ParseError(f"line {line_no}: unparseable year {fields[0]!r}") from None
    open_age = fields[1] == f"{_OPEN_AGE}+"
    if open_age:
        age = _OPEN_AGE
    else:
        try:
            age = int(fields[1])
        except ValueError:
            raise ParseError(f"line {line_no}: unparseable age {fields[1]!r}") from None
    values = [_parse_value(tok, line_no) for tok in fields[2:]]
    try:
        return HmdRecord(year, age, values[0], values[1], values[2], open_age=open_age)
    except ParseError as exc:
        raise ParseError(f"line {line_no}: {exc}") from None


def parse_hmd(
    source,
    column: str,
    ages: AgeRange,
    years: YearRange,
    kind: SurfaceKind = SurfaceKind.CENTRAL_RATE,
) -> MortalitySurface:
    """Read one column of an HMD 1x1 table into a dense surface.

    The file must carry a title line, a blank line, and the header
    "Year Age Female Male Total" before the data rows. Rows outside the
    requested window are skipped; inside it, a "." (missing value), the
    open "110+" group, a duplicate cell, or an uncovered cell is an error
    naming the line.
    """
    if column not in _COLUMNS:
        raise DomainError(f"unknown column {column!r}; choose female, male, or total")
    stream, owned = _open_stream(source)
    try:
        lines = stream.read().splitlines()
    finally:
        if owned:
            stream.close()
    if len(lines) < 3:
        raise ParseError(f"line {len(lines) + 1}: file ends before the header")
    if lines[1].strip():
        raise ParseError("line 2: expected a blank line after the title")
    if tuple(lines[2].split()) != _HMD_HEADER:
        raise ParseError(f"line 3: expected header {' '.join(_HMD_HEADER)}")

    seen: dict[tuple[int, int], float] = {}
    for offset, line in enumerate(lines[3:], start=4):
        if not line.strip():
            continue
        rec = _parse_row(line, offset)
        if rec.year not in years:
            continue
        if rec.open_age:
            if rec.age in ages:
                raise ParseError(
                    f"line {offset}: open age group {_OPEN_AGE}+ inside requested window {ages}"
                )
            continue
        if rec.age not in ages:
            continue
        v = rec.value(column)
        if v is None:
            raise ParseError(
                f"line {offset}: missing {column} value at age {rec.age}, year {rec.year}"
            )
        key = (rec.year, rec.age)
        if key in seen:
            raise ParseError(f"line {offset}: duplicate row for age {rec.age}, year {rec.year}")
        seen[key] = v

    values = np.empty((len(ages), len(years)))
    for i, x in enumerate(ages):
        for j, t in enumerate(years):
            if (t, x) not in seen:
                raise ParseError(f"requested window not covered: no row for age {x}, year {t}")
            values[i, j] = seen[(t, x)]
    return MortalitySurface(ages=ages, years=years, kind=kind, values=values)


def estimate_m(deaths: MortalitySurface, exposures: MortalitySurface) -> MortalitySurface:
    """Central rate surface D/E from matching deaths and exposures."""
    if deaths.kind is not SurfaceKind.DEATHS:
        raise DomainError(f"expected a deaths surface, got {deaths.kind.value}")
    if exposures.kind is not SurfaceKind.EXPOSURES:
        raise DomainError(f"expected an exposures surface, got {exposures.kind.value}")
    if deaths.ages != exposures.ages or deaths.years != exposures.years:
        raise DomainError("deaths and exposures must cover the same grid")
    bad = np.argwhere(exposures.values <= 0.0)
    if bad.size:
        i, j = bad[0]
        raise DomainError(
            f"nonpositive exposure at age {exposures.ages.x_min + i}, "
            f"year {exposures.years.t_min + j}"
        )
    return MortalitySurface(
        ages=deaths.ages,
        years=deaths.years,
        kind=SurfaceKind.CENTRAL_RATE,
        values=deaths.values / exposures.values,
    )


@dataclass(frozen=True)
class SynthConfig:
    """Gompertz-with-drift generator parameters.

    log m_{x,t} = log(a) + b*(x - x_min) + improvement*(t - t_min) + noise.
    """

    gompertz_a: float = 0.005
    gompertz_b: float = 0.09
    improvement: float = -0.01
    ages: AgeRange = AgeRange(60, 94)
    years: YearRange = YearRange(1959, 2009)
    noise_sd: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.gompertz_a <= 0.0 or self.gompertz_b <= 0.0:
            raise DomainError("Gompertz level and slope must be positive")
        if self.noise_sd < 0.0:
            raise DomainError("noise_sd must be nonnegative")
        if self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed}")


def generate_synthetic(config: SynthConfig) -> MortalitySurface:
    """Deterministic-per-seed Gompertz surface with log-linear improvement.

    With noise_sd = 0 the log rate is exactly affine in age and in time,
    an exactness class for all three models at once on narrow windows.
    """
    dx = config.ages.to_array() - config.ages.x_min
    dt = config.years.to_array() - config.years.t_min
    log_m = (
        np.log(config.gompertz_a)
        + config.gompertz_b * dx[:, None]
        + config.improvement * dt[None, :]
    )
    if config.noise_sd > 0.0:
        rng = np.random.default_rng(config.seed)
        log_m = log_m + rng.normal(0.0, config.noise_sd, log_m.shape)
    with np.errstate(over="ignore"):
        m = np.exp(log_m)
    if not np.all(np.isfinite(m)) or np.any(m == 0.0):
        raise DomainError("generator parameters overflow or underflow the rate surface")
    return MortalitySurface(
        ages=config.ages, years=config.years, kind=SurfaceKind.CENTRAL_RATE, values=m
    )


def _q_grid_to_m(q: np.ndarray, ages: AgeRange, years: YearRange) -> MortalitySurface:
    return MortalitySurface(
        ages=ages, years=years, kind=SurfaceKind.CENTRAL_RATE, values=q_to_central_rate(q)
    )


def generate_lc_exact(ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Rates exactly on the Lee-Carter manifold with an affine time index.

    The age shape and loadings are curved so the surface sits off the
    other models' manifolds; the time index is affine in t, so a random
    walk with drift continues it exactly.
    """
    dx = (ages.to_array() - ages.x_min).astype(float)
    n = len(ages)
    alpha = np.log(0.004) + 0.095 * dx - 0.0009 * dx * dx
    beta = (1.0 + 0.6 * np.sin(2.0 * np.pi * dx / n)) / n
    t_mid = 0.5 * (years.t_min + years.t_max)
    kappa = -0.45 * (years.to_array() - t_mid)
    m = np.exp(alpha[:, None] + beta[:, None] * kappa[None, :])
    return MortalitySurface(ages=ages, years=years, kind=SurfaceKind.CENTRAL_RATE, values=m)


def generate_cbd_exact(ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Rates whose death probabilities are exactly logit-affine in age.

    Both CBD time indices are affine in t.
    """
    x_bar = 0.5 * (ages.x_min + ages.x_max)
    cx = ages.to_array() - x_bar
    dt = (years.to_array() - years.t_min).astype(float)
    k1 = -4.0 - 0.028 * dt
    k2 = 0.12 + 0.0009 * dt
    q = logistic(k1[None, :] + cx[:, None] * k2[None, :])
    return _q_grid_to_m(q, ages, years)


def generate_sl_exact(ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Rates generated through the survival-transform model itself.

    The first year of ``years`` acts as the reference year carrying a
    Gompertz mortality curve; later years apply delta = alpha1_t +
    alpha2_t * kappa_x with a curved normalized kappa and time processes
    affine in t. The implied survival stays monotone on the default
    windows.
    """
    dx = (ages.to_array() - ages.x_min).astype(float)
    q0 = 1.0 - np.exp(-0.006 * np.exp(0.088 * dx))
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
    return _q_grid_to_m(q, ages, years)


_MANIFOLDS = {
    "lc": generate_lc_exact,
    "cbd": generate_cbd_exact,
    "sl": generate_sl_exact,
}


def generate_manifold(manifold: str, ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Dispatch to one of the exact-manifold generators by name."""
    if manifold not in _MANIFOLDS:
        raise DomainError(f"unknown manifold {manifold!r}; choose from {sorted(_MANIFOLDS)}")
    return _MANIFOLDS[manifold](ages, years)


def write_hmd(surface: MortalitySurface, destination, title: str = "synthetic") -> None:
    """Write a surface in the HMD 1x1 layout so parse_hmd can read it back.

    The surface's values land in all three sex columns.
    """
    lines = [title, "", "Year   Age   Female   Male   Total"]
    for j, t in enumerate(surface.years):
        for i, x in enumerate(surface.ages):
            v = f"{surface.values[i, j]:.17g}"
            lines.append(f"{t}   {x}   {v}   {v}   {v}")
    _write_text(destination, "\n".join(lines) + "\n")


def _write_text(destination, text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _comment_block(comments) -> str:
    return "".join(f"# {line}\n" for line in comments)


def export_csv(obj, destination, comments=()) -> None:
    """Serialize a surface or a backtest report to CSV.

    Surfaces: header "age,year,value", rows sorted by age then year, 17
    significant digits. Reports: header
    "country,sex,model,period,mse,mse_star,mape", one fit row and one
    forecast row per model. ``comments`` are emitted first as "# " lines.
    """
    if isinstance(obj, MortalitySurface):
        text = _surface_csv(obj)
    elif isinstance(obj, BacktestReport):
        text = _report_csv(obj)
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to CSV")
    _write_text(destination, _comment_block(comments) + text)


def _surface_csv(surface: MortalitySurface) -> str:
    out = io.StringIO()
    out.write("age,year,value\n")
    for i, x in enumerate(surface.ages):
        for j, t in enumerate(surface.years):
            out.write(f"{x},{t},{surface.values[i, j]:.17g}\n")
    return out.getvalue()


def _report_csv(report: BacktestReport) -> str:
    out = io.StringIO()
    out.write("country,sex,model,period,mse,mse_star,mape\n")
    for m in report.metrics:
        for period, err, pct in (
            ("fit", m.fit_mse, m.fit_mape),
            ("forecast", m.forecast_mse, m.forecast_mape),
        ):
            out.write(
                f"{report.country},{report.sex},{m.model},{period},"
                f"{err:.17g},{1e4 * err:.17g},{pct:.17g}\n"
            )
    return out.getvalue()


def export_mi_csv(report: BacktestReport, destination, comments=()) -> None:
    """Improvement-rate series: observed and per-model columns by year."""
    if report.mi_observed is None:
        raise DomainError("report carries no improvement-rate series")
    models = [m.model for m in report.metrics]
    out = io.StringIO()
    out.write("year," + ",".join(["observed"] + models) + "\n")
    years = report.config.forecast_years.to_array()
    for j, t in enumerate(years):
        row = [f"{report.mi_observed[j]:.17g}"]
        row += [f"{report.mi_forecast[m][j]:.17g}" for m in models]
        out.write(f"{t}," + ",".join(row) + "\n")
    _write_text(destination, _comment_block(comments) + out.getvalue())


def export_quantiles_csv(
    quantiles: np.ndarray, ages: AgeRange, years: YearRange, destination, comments=()
) -> None:
    """Sample-forecast bands "age,year,q05,q50,q95", by age then year.

    ``quantiles`` has shape (3, n_ages, n_years): the QUANTILE_PROBS bands
    as :func:`~mortcast.timeseries.path_quantiles` returns them. Values
    carry 17 significant digits; ``comments`` are emitted first as "# "
    lines.
    """
    if quantiles.shape != (len(QUANTILE_PROBS), len(ages), len(years)):
        raise DomainError(
            f"quantiles of shape {quantiles.shape} do not match {len(QUANTILE_PROBS)} bands "
            f"over {len(ages)} ages and {len(years)} years"
        )
    out = io.StringIO()
    out.write("age,year,q05,q50,q95\n")
    cells = np.moveaxis(quantiles, 0, -1).tolist()
    for x, row in zip(ages, cells):
        for t, values in zip(years, row):
            out.write(f"{x},{t}," + ",".join(f"{v:.17g}" for v in values) + "\n")
    _write_text(destination, _comment_block(comments) + out.getvalue())


def read_surface_csv(source, kind: SurfaceKind) -> MortalitySurface:
    """Rebuild a surface written by export_csv. Comment lines are skipped."""
    stream, owned = _open_stream(source)
    try:
        lines = stream.read().splitlines()
    finally:
        if owned:
            stream.close()
    rows: dict[tuple[int, int], float] = {}
    header_seen = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if not header_seen:
            if line.strip() != "age,year,value":
                raise ParseError(f"line {line_no}: expected header age,year,value")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {line_no}: expected 3 fields, got {len(parts)}")
        try:
            key = (int(parts[0]), int(parts[1]))
            value = float(parts[2])
        except ValueError:
            raise ParseError(f"line {line_no}: unparseable row {line!r}") from None
        if key in rows:
            raise ParseError(f"line {line_no}: duplicate cell age {key[0]}, year {key[1]}")
        rows[key] = value
    if not rows:
        raise ParseError("no data rows found")
    age_vals = sorted({k[0] for k in rows})
    year_vals = sorted({k[1] for k in rows})
    ages = AgeRange(age_vals[0], age_vals[-1])
    years = YearRange(year_vals[0], year_vals[-1])
    values = np.empty((len(ages), len(years)))
    for i, x in enumerate(ages):
        for j, t in enumerate(years):
            if (x, t) not in rows:
                raise ParseError(f"grid not dense: no row for age {x}, year {t}")
            values[i, j] = rows[(x, t)]
    return MortalitySurface(ages=ages, years=years, kind=kind, values=values)
