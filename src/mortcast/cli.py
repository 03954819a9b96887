"""Command line interface: fit, forecast, backtest, synth.

Exit codes are a stable contract: 0 success, 1 usage error, 2 fit did not
converge within k_max sweeps, 3 data or domain error. Every artifact file
starts with a comment header holding the resolved configuration and a
SHA-256 digest of the input, so identical inputs rerun to byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

from .errors import MortcastError, ParseError
from .evaluation import MODELS, BacktestConfig, run_backtest
from .ingest import (
    _MANIFOLDS,
    SynthConfig,
    _write_text,
    decode_utf8,
    export_csv,
    export_mi_csv,
    export_quantiles_csv,
    generate_manifold,
    generate_synthetic,
    parse_hmd,
    write_csv,
    write_hmd,
)
from .lifetable import AGE, YEAR, AgeRange, MortalitySurface, YearRange
from .sl_model import FitConfig
from .timeseries import PATH_LIMIT, forecast_years

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_DATA = 3

_SEX_COLUMN = {"f": "female", "m": "male", "total": "total"}
_SYNTH = ["gompertz", *_MANIFOLDS]
class _UsageError(MortcastError):
    """A flag value failed a module precondition before any computation."""


def _checked(ctor, *args, **kwargs):
    try:
        return ctor(*args, **kwargs)
    except MortcastError as exc:
        raise _UsageError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for non-convergence."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_window_flags(p):
    p.add_argument("--x-min", type=int, required=True, help="youngest age of the window")
    p.add_argument("--x-max", type=int, required=True, help="oldest age of the window")


def _add_data_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", help="HMD 1x1 Mx (central death rate) table to read")
    g.add_argument(
        "--synth",
        choices=_SYNTH,
        help="generate data on the named manifold instead of reading a file",
    )
    p.add_argument("--sex", choices=sorted(_SEX_COLUMN), default="total")
    p.add_argument("--noise-sd", type=float, default=0.0, help="gompertz generator noise")
    p.add_argument("--seed", type=int, default=0)


def _add_fit_knobs(p):
    p.add_argument("--gamma", type=float, default=0.5, help="damping factor in (0,2)")
    p.add_argument("--epsilon", type=float, default=1e-8, help="per-parameter stop threshold")
    p.add_argument("--k-max", type=int, default=5000, help="sweep budget")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mortcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one model and write its parameters")
    fit.add_argument("--config", help="flat key = value file; flags override it")
    fit.add_argument("--model", choices=list(MODELS), required=True)
    _add_data_flags(fit)
    _add_window_flags(fit)
    fit.add_argument("--t-min", type=int, required=True, help="first fit year")
    fit.add_argument("--t-max", type=int, required=True, help="last fit year")
    fit.add_argument("--t0", type=int, default=None, help="reference year (sl), default t-min - 1")
    _add_fit_knobs(fit)
    fit.add_argument("--out", required=True, help="artifact directory")

    fc = sub.add_parser("forecast", help="project a fitted model forward")
    fc.add_argument("--config", help="flat key = value file; flags override it")
    fc.add_argument("--params", required=True, help="params.csv written by fit")
    fc.add_argument("--horizon", type=int, required=True)
    fc.add_argument("--mode", choices=["central", "sample"], default="central")
    fc.add_argument("--paths", type=int, default=1000)
    fc.add_argument("--seed", type=int, default=0)
    fc.add_argument("--out", required=True)

    bt = sub.add_parser("backtest", help="fit/holdout scoring of the models")
    bt.add_argument("--config", help="flat key = value file; flags override it")
    _add_data_flags(bt)
    _add_window_flags(bt)
    bt.add_argument("--fit-from", type=int, default=1960)
    bt.add_argument("--fit-to", type=int, default=1989)
    bt.add_argument("--forecast-to", type=int, default=2009)
    bt.add_argument("--t0", type=int, default=None, help="reference year, default fit-from - 1")
    models = ",".join(MODELS)
    bt.add_argument("--models", default=models, help=f"comma list from {models}")
    bt.add_argument("--mi-age", type=int, default=65)
    bt.add_argument("--country", default="", help="label for the report rows")
    _add_fit_knobs(bt)
    bt.add_argument("--out", required=True)

    sy = sub.add_parser("synth", help="write a synthetic surface as an HMD-format file")
    sy.add_argument("--config", help="flat key = value file; flags override it")
    sy.add_argument("--manifold", choices=_SYNTH, default="gompertz")
    _add_window_flags(sy)
    sy.add_argument("--t-min", type=int, required=True)
    sy.add_argument("--t-max", type=int, required=True)
    sy.add_argument("--gompertz-a", type=float, default=0.005)
    sy.add_argument("--gompertz-b", type=float, default=0.09)
    sy.add_argument("--improvement", type=float, default=-0.01)
    sy.add_argument("--noise-sd", type=float, default=0.0)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--out", required=True, help="output file path")

    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    text = decode_utf8(Path(path).read_bytes(), path)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {line_no}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _inject_config(argv: list[str]) -> list[str]:
    """Expand --config FILE into leading flags so explicit flags override."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        return argv  # let argparse report the missing value
    injected: list[str] = []
    for key, value in _load_config_file(argv[i + 1]).items():
        injected += [f"--{key.replace('_', '-')}", value]
    return argv[:1] + injected + argv[1:]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_rates(args, ages: AgeRange, years: YearRange) -> tuple[MortalitySurface, str]:
    """Rate surface over the requested window plus its content digest."""
    if args.input is not None:
        raw = Path(args.input).read_bytes()
        text = io.StringIO(decode_utf8(raw, args.input))
        surface = parse_hmd(text, _SEX_COLUMN[args.sex], ages, years)
        return surface, _digest(raw)
    surface = _synthesize(args.synth, ages, years, noise_sd=args.noise_sd, seed=args.seed)
    buf = io.StringIO()
    export_csv(surface, buf)
    return surface, _digest(buf.getvalue().encode())


def _synthesize(name: str, ages: AgeRange, years: YearRange, **gompertz) -> MortalitySurface:
    """The named synthetic rate surface; ``gompertz`` holds SynthConfig fields."""
    if name == "gompertz":
        return generate_synthetic(_checked(SynthConfig, ages=ages, years=years, **gompertz))
    return generate_manifold(name, ages, years)


def _resolved_header(args) -> list[str]:
    lines = []
    for key in sorted(vars(args)):
        if key == "command":
            continue
        lines.append(f"{key} = {getattr(args, key)}")
    return lines


def _read_params(raw: bytes, path: str):
    """Rebuild the params written by cmd_fit from its params.csv bytes.

    The header names the model and its age and year windows, and the rows
    must follow the ROWS layout of the model's params class exactly: each
    series over its whole window in order, each scalar once and of its
    type, every value finite. Any departure is a ParseError naming the line.
    """
    meta: dict[str, tuple[int, str]] = {}
    rows: list[tuple[int, str]] = []
    lines = decode_utf8(raw, path).splitlines()
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = (line_no, value.strip())
        elif line.strip() and line != "param,index,value":
            rows.append((line_no, line))

    def header(key, convert=int):
        if key not in meta:
            raise ParseError(f"params file carries no '# {key} =' header")
        line_no, value = meta[key]
        try:
            return convert(value)
        except (ValueError, KeyError):
            raise ParseError(f"line {line_no}: invalid {key} {value!r}") from None

    model = header("model", MODELS.__getitem__)
    ages = AgeRange(header("x_min"), header("x_max"))
    years = YearRange(header("t_min"), header("t_max"))
    windows = {AGE: ages, YEAR: years}
    layout = [
        (attr, f"{name},{i},", float if axis in windows else axis)
        for name, attr, axis in model.ROWS
        for i in windows.get(axis, [""])
    ]
    got: dict[str, list] = {attr: [] for _, attr, _ in model.ROWS}
    for k, (attr, prefix, convert) in enumerate(layout):
        if k == len(rows):
            raise ParseError(f"params file ends at line {len(lines)}, before its {prefix} row")
        line_no, line = rows[k]
        if not line.startswith(prefix):
            raise ParseError(f"line {line_no}: expected a {prefix} row, got {line!r}")
        try:
            got[attr].append(convert(line[len(prefix):]))
        except ValueError:
            raise ParseError(f"line {line_no}: unparseable {convert.__name__} in {line!r}") from None
        if convert is float and not np.isfinite(got[attr][-1]):
            raise ParseError(f"line {line_no}: non-finite value in {line!r}")
    if len(rows) > len(layout):
        raise ParseError(f"line {rows[len(layout)][0]}: more rows than the {model.NAME} layout")
    values = {
        attr: np.array(got[attr]) if axis in windows else got[attr][0]
        for _, attr, axis in model.ROWS
    }
    return model(**values, ages=ages, years=years)


def cmd_fit(args) -> int:
    model = MODELS[args.model]
    if args.t0 is None:
        args.t0 = args.t_min - 1
    ages = _checked(AgeRange, args.x_min, args.x_max)
    fit_years = _checked(YearRange, args.t_min, args.t_max)
    config = _checked(FitConfig, gamma=args.gamma, epsilon=args.epsilon, k_max=args.k_max)
    if model.REFERENCE_YEAR:
        span = _checked(YearRange, args.t0, args.t_max)
        if args.t0 >= args.t_min:
            raise _UsageError(f"t0 {args.t0} must precede the fit window")
    else:
        span = fit_years

    rates, digest = _load_rates(args, ages, span)
    header = _resolved_header(args) + [f"input_sha256 = {digest}"]
    out_dir = Path(args.out)

    params, diag = model.fit(rates, fit_years, args.t0, config)
    if diag is not None:
        diag_header = header + [
            f"iterations = {diag.iterations}",
            f"converged = {diag.converged}",
            f"max_param_delta = {diag.max_param_delta:.17g}",
        ]
        trace = enumerate(diag.objective_trace.tolist())
        write_csv(out_dir / "diagnostics.csv", ("sweep", "objective"), trace, diag_header)

    windows = {AGE: params.ages, YEAR: params.years}
    rows = [
        (name, i, v)
        for name, attr, axis in params.ROWS
        for i, v in zip(windows.get(axis, [""]), np.atleast_1d(getattr(params, attr)).tolist())
    ]
    write_csv(out_dir / "params.csv", ("param", "index", "value"), rows, header)
    # config.txt is plain "key = value" text, not CSV
    text = "".join(f"{line}\n" for line in header)
    _write_text(out_dir / "config.txt", "# resolved configuration\n" + text)
    print(f"wrote {out_dir / 'params.csv'}")
    if diag is not None and not diag.converged:
        print("fit did not converge within k_max sweeps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise _UsageError(f"horizon must be positive, got {args.horizon}")
    if args.mode == "sample" and not 1 <= args.paths < PATH_LIMIT:
        raise _UsageError(f"paths must be in [1, 2**32), got {args.paths}")
    if args.mode == "sample" and args.seed < 0:
        raise _UsageError(f"seed must be a nonnegative integer, got {args.seed}")
    raw = Path(args.params).read_bytes()
    params = _read_params(raw, args.params)
    header = _resolved_header(args) + [f"input_sha256 = {_digest(raw)}", f"model = {params.NAME}"]
    out_dir = Path(args.out)

    if args.mode == "central":
        surface = params.forecast(args.horizon)
        export_csv(surface, out_dir / "forecast.csv", comments=header)
        print(f"wrote {out_dir / 'forecast.csv'}")
    else:
        bands = params.forecast(args.horizon, n_paths=args.paths, seed=args.seed)
        years = forecast_years(params, args.horizon)
        export_quantiles_csv(bands, params.ages, years, out_dir / "quantiles.csv", comments=header)
        print(f"wrote {out_dir / 'quantiles.csv'}")
    return EXIT_OK


def cmd_backtest(args) -> int:
    # the label is one cell of report.csv
    if "," in args.country:
        raise _UsageError(f"--country must hold no comma, got {args.country!r}")
    if args.t0 is None:
        args.t0 = args.fit_from - 1
    models = tuple(m.strip().upper() for m in args.models.split(",") if m.strip())
    config = _checked(
        BacktestConfig,
        ages=_checked(AgeRange, args.x_min, args.x_max),
        fit_years=_checked(YearRange, args.fit_from, args.fit_to),
        forecast_years=_checked(YearRange, args.fit_to + 1, args.forecast_to),
        t0=args.t0,
        models=models,
        mi_age=args.mi_age,
        fit=_checked(FitConfig, gamma=args.gamma, epsilon=args.epsilon, k_max=args.k_max),
    )
    span = _checked(YearRange, args.t0, args.forecast_to)
    rates, digest = _load_rates(args, config.ages, span)
    header = _resolved_header(args) + [f"input_sha256 = {digest}"]

    report = run_backtest(rates, config, country=args.country, sex=args.sex)
    out_dir = Path(args.out)
    export_csv(report, out_dir / "report.csv", comments=header)
    print(f"wrote {out_dir / 'report.csv'}")
    export_mi_csv(report, out_dir / "mi_rates.csv", comments=header)
    print(f"wrote {out_dir / 'mi_rates.csv'}")
    if report.sl_converged is False:
        print("SL fit did not converge within k_max sweeps", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_synth(args) -> int:
    ages = _checked(AgeRange, args.x_min, args.x_max)
    years = _checked(YearRange, args.t_min, args.t_max)
    surface = _synthesize(
        args.manifold, ages, years, gompertz_a=args.gompertz_a, gompertz_b=args.gompertz_b,
        improvement=args.improvement, noise_sd=args.noise_sd, seed=args.seed,
    )
    out = Path(args.out)
    title = "synthetic " + args.manifold + "; " + "; ".join(_resolved_header(args))
    write_hmd(surface, out, title=title)
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "fit": cmd_fit,
    "forecast": cmd_forecast,
    "backtest": cmd_backtest,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv)
    except (OSError, MortcastError) as exc:
        print(f"mortcast: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        # every flag value is written into the artifact headers, one line each
        for key, value in vars(args).items():
            if isinstance(value, str) and not value.isprintable():
                raise _UsageError(f"--{key.replace('_', '-')} must be printable, got {value!r}")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"mortcast: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MortcastError as exc:
        print(f"mortcast: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"mortcast: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
