"""Data ingestion and every artifact format.

Reads Human Mortality Database period 1x1 central death rate (Mx) tables,
generates the Gompertz synthetic surface (each model owns its exact
manifold), and writes HMD tables and every CSV artifact. The reader rejects
malformed input with a line number; it never repairs.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ParseError
from .evaluation import MODELS, BacktestReport
from .lifetable import AgeRange, MortalitySurface, SurfaceKind, YearRange, _first_cell
from .timeseries import QUANTILE_PROBS

_HMD_HEADER = ("Year", "Age", "Female", "Male", "Total")
_COLUMNS = {"female": 0, "male": 1, "total": 2}  # index among a row's three values
_OPEN_AGE = 110
_FIRST_YEAR = 1750  # the earliest year an HMD table may hold


def decode_utf8(data: bytes, name) -> str:
    """``data`` as UTF-8 text; a ParseError naming ``name`` and the line if it is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{name}: line {line_no}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None


def _number(token: str, convert, what: str, line_no: int):
    try:
        return convert(token)
    except ValueError:
        raise ParseError(f"line {line_no}: unparseable {what} {token!r}") from None


def parse_hmd(source, column: str, ages: AgeRange, years: YearRange) -> MortalitySurface:
    """Read one column of an HMD Mx 1x1 table into a central-rate surface.

    ``source`` is an open text stream or the path of a UTF-8 file. The file
    must carry a title line, a blank line, and the header "Year Age Female
    Male Total" before the data rows. Every row is checked in full: five
    fields, a year from 1750, an age in [0, 110] or "110+", and three
    numbers or "." (missing). Rows outside the requested window are then
    skipped; inside it, a missing value, the open "110+" group, a duplicate
    cell, or an uncovered cell is an error naming the line.
    """
    if column not in _COLUMNS:
        raise DomainError(f"unknown column {column!r}; choose female, male, or total")
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = decode_utf8(Path(source).read_bytes(), source).splitlines()
    if len(lines) < 3:
        raise ParseError(f"line {len(lines) + 1}: file ends before the header")
    if lines[1].strip():
        raise ParseError("line 2: expected a blank line after the title")
    if tuple(lines[2].split()) != _HMD_HEADER:
        raise ParseError(f"line 3: expected header {' '.join(_HMD_HEADER)}")

    col = _COLUMNS[column]
    open_token = f"{_OPEN_AGE}+"
    values = np.empty((len(ages), len(years)))
    seen = np.zeros(values.shape, dtype=bool)
    for line_no, line in enumerate(lines[3:], start=4):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 5:
            raise ParseError(f"line {line_no}: expected 5 fields, got {len(fields)}")
        year = _number(fields[0], int, "year", line_no)
        open_age = fields[1] == open_token
        age = _OPEN_AGE if open_age else _number(fields[1], int, "age", line_no)
        cells = [None if t == "." else _number(t, float, "value", line_no) for t in fields[2:]]
        if year < _FIRST_YEAR:
            raise ParseError(f"line {line_no}: implausible year {year}")
        if not 0 <= age <= _OPEN_AGE:
            raise ParseError(f"line {line_no}: age {age} outside [0, {_OPEN_AGE}]")
        if year not in years:
            continue
        if open_age:
            if age in ages:
                raise ParseError(
                    f"line {line_no}: open age group {_OPEN_AGE}+ inside requested window {ages}"
                )
            continue
        if age not in ages:
            continue
        v = cells[col]
        if v is None:
            raise ParseError(f"line {line_no}: missing {column} value at age {age}, year {year}")
        i, j = age - ages.x_min, year - years.t_min
        if seen[i, j]:
            raise ParseError(f"line {line_no}: duplicate row for age {age}, year {year}")
        seen[i, j] = True
        values[i, j] = v

    if not seen.all():
        x, t = _first_cell(~seen, ages, years)
        raise ParseError(f"requested window not covered: no row for age {x}, year {t}")
    return MortalitySurface(ages=ages, years=years, kind=SurfaceKind.CENTRAL_RATE, values=values)


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
        # written so that a NaN fails too
        if not (self.gompertz_a > 0.0 and self.gompertz_b > 0.0):
            a, b = self.gompertz_a, self.gompertz_b
            raise DomainError(f"Gompertz level and slope must be positive, got {a} and {b}")
        if not self.noise_sd >= 0.0:
            raise DomainError(f"noise_sd must be nonnegative, got {self.noise_sd}")
        for name in ("gompertz_a", "gompertz_b", "improvement", "noise_sd"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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


def generate_manifold(manifold: str, ages: AgeRange, years: YearRange) -> MortalitySurface:
    """The rates that the model named ``manifold`` fits exactly: its class's ``manifold``."""
    if manifold not in MODELS:
        raise DomainError(f"unknown manifold {manifold!r}; choose from {sorted(MODELS)}")
    return MODELS[manifold].manifold(ages, years)


def write_hmd(surface: MortalitySurface, destination, title: str = "synthetic") -> None:
    """Write a surface in the HMD 1x1 layout so parse_hmd can read it back.

    The surface's values land in all three sex columns. A surface with an
    age above _OPEN_AGE or a year before _FIRST_YEAR, which parse_hmd
    rejects, is refused before anything is written, and so is an unprintable title.
    """
    check_text(title, "title")
    if surface.ages.x_max > _OPEN_AGE:
        age = max(surface.ages.x_min, _OPEN_AGE + 1)
        raise DomainError(f"HMD tables hold ages 0-{_OPEN_AGE}, cannot write age {age}")
    if surface.years.t_min < _FIRST_YEAR:
        year = surface.years.t_min
        raise DomainError(f"HMD tables start in {_FIRST_YEAR}, cannot write year {year}")
    lines = [title, "", "   ".join(_HMD_HEADER)]
    for t, column in zip(surface.years, surface.values.T.tolist()):
        for x, value in zip(surface.ages, column):
            v = f"{value:.17g}"
            lines.append(f"{t}   {x}   {v}   {v}   {v}")
    _write_text(destination, "\n".join(lines) + "\n")


def _write_text(destination, text: str) -> None:
    """Write ``text`` to an open text stream, or as UTF-8 to a path.

    Every artifact file goes through here. A path's parent directory is
    created on the first write into it, so a command that fails before
    writing leaves no directory behind. The text goes to a temporary file
    beside the path, which replaces the path only once it is complete: a
    failed write leaves no temporary, and any earlier file keeps its bytes.
    """
    if hasattr(destination, "write"):
        destination.write(text)
        return
    path = Path(destination)
    path.parent.mkdir(parents=True, exist_ok=True)
    # the process id keeps two commands writing one path apart
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def check_text(text: str, what: str, cell: bool = False) -> None:
    """Refuse text that is not one printable line, or a CSV ``cell`` that needs quotes."""
    if not text.isprintable():
        raise DomainError(f"{what} must be printable, got {text!r}")
    if cell and ("," in text or '"' in text):
        raise DomainError(f"{what} must hold no comma or double quote, got {text!r}")


def write_csv(destination, header, rows, comments=()) -> None:
    """Write "# " comment lines, the header and one comma-joined line per row.

    Floats carry 17 significant digits, so they read back bit for bit; other
    cells are written with ``str``. ``destination`` is a path or an open text
    stream. ``rows`` may be a generator. Comment lines and text cells must
    pass :func:`check_text`, or nothing is written; a cell is named by its
    row, the first after the header being 1, and its column.
    """
    out = io.StringIO()
    for k, line in enumerate(comments, start=1):
        check_text(line, f"comment line {k}")
        out.write(f"# {line}\n")
    out.write(",".join(header) + "\n")
    # per sequence of cell types, a %-template (%.17g is f"{v:.17g}") and the text columns
    fmt = {}
    for r, row in enumerate(rows, start=1):
        key = tuple(map(type, row))
        if key not in fmt:
            template = ",".join("%.17g" if issubclass(t, float) else "%s" for t in key) + "\n"
            fmt[key] = template, [j for j, t in enumerate(key) if issubclass(t, str)]
        template, texts = fmt[key]
        for j in texts:
            check_text(row[j], f"text cell at row {r}, column {j + 1}", cell=True)
        out.write(template % tuple(row))
    _write_text(destination, out.getvalue())


def export_csv(obj, destination, comments=()) -> None:
    """Serialize a surface or a backtest report to CSV.

    Surfaces: header "age,year,value", rows sorted by age then year.
    Reports: header "country,sex,model,period,mse,mse_star,mape", one fit
    row and one forecast row per model.
    """
    if isinstance(obj, MortalitySurface):
        header = ("age", "year", "value")
        cells = obj.values.tolist()
        rows = ((x, t, v) for x, row in zip(obj.ages, cells) for t, v in zip(obj.years, row))
    elif isinstance(obj, BacktestReport):
        header = ("country", "sex", "model", "period", "mse", "mse_star", "mape")
        rows = [
            (obj.country, obj.sex, m.model, *scores)
            for m in obj.metrics
            for scores in (
                ("fit", m.fit_mse, m.fit_mse_star, m.fit_mape),
                ("forecast", m.forecast_mse, m.forecast_mse_star, m.forecast_mape),
            )
        ]
    else:
        raise DomainError(f"cannot serialize {type(obj).__name__} to CSV")
    write_csv(destination, header, rows, comments)


def export_mi_csv(report: BacktestReport, destination, comments=()) -> None:
    """Improvement rates at the backtest's ``mi_age``, in percent, by holdout year.

    Header "year,observed,<model>...": the observed series, then each model's.
    """
    models = [m.model for m in report.metrics]
    columns = [report.mi_observed.tolist()] + [report.mi_forecast[m].tolist() for m in models]
    rows = zip(report.config.forecast_years, *columns)
    write_csv(destination, ("year", "observed", *models), rows, comments)


def export_quantiles_csv(
    quantiles: np.ndarray, ages: AgeRange, years: YearRange, destination, comments=()
) -> None:
    """Sample-forecast bands "age,year,q05,q50,q95", by age then year.

    ``quantiles`` has shape (3, n_ages, n_years): the QUANTILE_PROBS bands
    as a sample forecast returns them.
    """
    if quantiles.shape != (len(QUANTILE_PROBS), len(ages), len(years)):
        raise DomainError(
            f"quantiles of shape {quantiles.shape} do not match {len(QUANTILE_PROBS)} bands "
            f"over {len(ages)} ages and {len(years)} years"
        )
    cells = np.moveaxis(quantiles, 0, -1).tolist()
    rows = ((x, t, *bands) for x, row in zip(ages, cells) for t, bands in zip(years, row))
    write_csv(destination, ("age", "year", "q05", "q50", "q95"), rows, comments)
