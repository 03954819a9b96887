"""The benchmark's three workloads: inputs made from a seed, timed ops, checks.

Each workload is a closed loop with one caller: an op is sent only after the
previous one returned and was checked. ``ops()`` lists one pass; a run
repeats whole passes. ``run(op)`` is the only timed call. ``check(op,
result)`` validates the op's output, compares its artifact bytes with the
first pass, and, for the default seed, compares its values with the
committed reference to a relative tolerance.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mortcast import cli, evaluation, ingest
from mortcast.evaluation import BacktestConfig
from mortcast.ingest import SynthConfig
from mortcast.lifetable import AgeRange, YearRange

DEFAULT_SEED = 0
MODELS = ("sl", "lc", "cbd")
REFERENCE = Path(__file__).with_name("reference.json")
# Reference values may move in the last digits (an ulp change in a fit
# moves its objective far below this), never by a visible amount.
RTOL = 1e-6
ATOL = 1e-12
# A model's own fit MSE on its exact manifold: rounding level.
EXACT_MSE = 1e-20


def derive(seed: int, label: str) -> int:
    """Independent 31-bit seed for one input stream of a workload seed."""
    return random.Random(f"{seed}:{label}").randrange(2**31)


@dataclass
class Op:
    """One timed call. ``name`` keys the reference values; ``out`` is where
    a CLI op writes its artifact. Each pass writes into its own directory:
    rewriting a file in place makes the filesystem wait on the old blocks,
    which adds noise that is not the program's."""

    name: str
    pass_index: int = 0
    model: str | None = None
    paths: int = 0
    args: list = field(default_factory=list)
    data: object = None
    out: Path | None = None
    in_reference: bool = True


def _dir_bytes(directory: Path) -> bytes:
    return b"".join(p.name.encode() + p.read_bytes() for p in sorted(directory.iterdir()))


def _rows(text: str, header: str) -> np.ndarray:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return np.array([line.split(",") for line in lines[1:]], dtype=float)


def check_quantiles(text: str, ages: AgeRange, years: YearRange) -> tuple[list[str], list[float]]:
    """Errors in a quantiles.csv body, and its column sums."""
    q = _rows(text, "age,year,q05,q50,q95")
    errors = []
    want_age = np.repeat(ages.to_array(), len(years))
    want_year = np.tile(years.to_array(), len(ages))
    if q.shape != (len(want_age), 5) or not (
        np.array_equal(q[:, 0], want_age) and np.array_equal(q[:, 1], want_year)
    ):
        errors.append(f"quantiles grid {q.shape} is not one row per age x year")
        return errors, []
    lo, mid, hi = q[:, 2], q[:, 3], q[:, 4]
    ok = (lo > 0.0) & (lo <= mid) & (mid <= hi) & (hi < 1.0)
    if not np.all(ok):
        i = int(np.argmin(ok))
        errors.append(f"quantiles out of order at age {q[i, 0]:.0f}, year {q[i, 1]:.0f}")
    return errors, [float(lo.sum()), float(mid.sum()), float(hi.sum())]


def compare(summary: list[float], reference: list[float]) -> str | None:
    if len(summary) != len(reference):
        return f"{len(summary)} values against {len(reference)} in the reference"
    for i, (got, want) in enumerate(zip(summary, reference)):
        if not abs(got - want) <= RTOL * abs(want) + ATOL:
            return f"value {i} is {got!r}, reference {want!r}"
    return None


class Workload:
    """Shared bookkeeping: first-pass artifact digests and reference values."""

    name = ""

    def __init__(self, seed: int, workdir: Path, in_process: bool = True):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.digests: dict[str, str] = {}  # first artifact digest per op and pass
        self.summaries: dict[str, list[float]] = {}
        self.reference = None
        if seed == DEFAULT_SEED and REFERENCE.is_file():
            self.reference = json.loads(REFERENCE.read_text())[self.name]

    def ops(self, pass_index: int = 0) -> list[Op]:
        """The ops of one pass, in the order they are sent."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def inspect(self, op: Op, result) -> tuple[list[str], bytes, list[float]]:
        """Errors, artifact bytes and reference summary of one op's output."""
        raise NotImplementedError

    def check(self, op: Op, result) -> list[str]:
        errors, artifact, summary = self.inspect(op, result)
        if errors:
            return errors
        digest = hashlib.sha256(artifact).hexdigest()
        first = self.digests.setdefault(f"{op.name}@{op.pass_index}", digest)
        if digest != first:
            errors.append("artifact bytes differ from the first run of this op")
        self.summaries[op.name] = summary
        if self.reference is not None and op.in_reference:
            mismatch = compare(summary, self.reference.get(op.name, []))
            if mismatch:
                errors.append(f"reference mismatch: {mismatch}")
        return errors

    def metrics(self, samples: list[tuple[int, str | None, float]], pass_s: list[float]) -> dict:
        """Metrics named after what this workload's user waits on.

        ``samples`` holds (pass index, model, seconds) of every op that passed
        its checks; ``pass_s`` the busy seconds of each pass.
        """
        return {}


def _ms(seconds: list[float]) -> list[float]:
    return sorted(s * 1e3 for s in seconds)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)]


class SampleForecast(Workload):
    """Sample-mode forecasts of SL, LC and CBD through in-process ``cli.main``.

    Nearly all the time is the forecast layer: path simulation, one surface
    per path and the per-column transforms. Two shapes separate vectorizing
    over paths (5000 x 20 years) from vectorizing over horizon (1000 x 50).
    """

    name = "sample_forecast"
    SHAPES = ((5000, 20), (1000, 50))
    AGES = AgeRange(60, 94)

    def __init__(self, seed: int, workdir: Path, in_process: bool = True):
        super().__init__(seed, workdir, in_process)
        self.path_seed = derive(seed, "paths")
        surface_seed = str(derive(seed, "surface"))
        for model in MODELS:
            rc = cli.main([
                "fit", "--model", model, "--synth", "gompertz", "--noise-sd", "0.01",
                "--seed", surface_seed, "--x-min", "60", "--x-max", "94",
                "--t-min", "1960", "--t-max", "2009", "--out", str(workdir / f"fit_{model}"),
            ])
            if rc != 0:
                raise RuntimeError(f"set-up fit of {model} exited {rc}")

    def ops(self, pass_index: int = 0) -> list[Op]:
        ops = []
        for paths, horizon in self.SHAPES:
            for model in MODELS:
                name = f"{model}_{paths}x{horizon}"
                out = self.workdir / f"pass{pass_index}" / name
                ops.append(Op(name, pass_index, model, paths, args=[
                    "forecast", "--params", str(self.workdir / f"fit_{model}" / "params.csv"),
                    "--horizon", str(horizon), "--mode", "sample", "--paths", str(paths),
                    "--seed", str(self.path_seed), "--out", str(out),
                ], data=horizon, out=out))
        return ops

    def run(self, op: Op):
        return cli.main(op.args)

    def inspect(self, op, rc):
        if rc != 0:
            return [f"forecast exited {rc}"], b"", []
        artifact = (op.out / "quantiles.csv").read_bytes()
        errors, sums = check_quantiles(
            artifact.decode(), self.AGES, YearRange(2010, 2009 + op.data)
        )
        return errors, artifact, sums

    def metrics(self, samples, pass_s):
        out = {}
        for model in MODELS:
            paths = sum(op.paths for op in self.ops() if op.model == model)
            per_pass = [0.0] * len(pass_s)
            for k, op_model, s in samples:
                if op_model == model:
                    per_pass[k] += s
            if min(per_pass) > 0.0:  # otherwise some op of this model failed
                out[f"{model}_paths_per_s"] = (paths / statistics.median(per_pass), "paths/s", len(pass_s))
        return out


class BacktestSweep(Workload):
    """In-process ``run_backtest`` over a grid of populations and windows.

    Nearly all the time is fitting (SL descent, LC SVD, CBD OLS) followed by
    central forecasts and scoring. The seed fixes the noise draws and the
    order of the grid, never its size. SL descent sweeps vary with the draw
    and have a heavy tail, so each pass draws its noisy populations afresh:
    a run then averages thousands of draws and every seed does nearly the
    same work.
    """

    name = "backtest_sweep"
    NOISE = (0.0, 0.002, 0.005, 0.01, 0.02)
    AGE_WINDOWS = ((50, 89), (60, 94), (60, 99))
    DATA_YEARS = YearRange(1940, 2019)
    FIT_FROM = tuple(range(1941, 1987, 5))  # rolling 30-year fit windows
    MANIFOLD_HOLDOUTS = (20, 10)

    def __init__(self, seed: int, workdir: Path, in_process: bool = True):
        super().__init__(seed, workdir, in_process)
        self.manifolds = []
        for manifold in MODELS:
            for lo, hi in self.AGE_WINDOWS:
                for holdout in self.MANIFOLD_HOLDOUTS:
                    config = self._config(lo, hi, 1960, holdout)
                    span = YearRange(config.t0, config.forecast_years.t_max)
                    data = ingest.generate_manifold(manifold, config.ages, span)
                    self.manifolds.append(Op(
                        f"{manifold}_exact_{lo}-{hi}_h{holdout}", model=manifold, data=(data, config)
                    ))
        self.first_pass = self._grid(0)
        self.sl_nonconverged = 0

    @staticmethod
    def _config(lo, hi, start, holdout) -> BacktestConfig:
        end = start + 29
        return BacktestConfig(
            ages=AgeRange(lo, hi), fit_years=YearRange(start, end),
            forecast_years=YearRange(end + 1, end + holdout), t0=start - 1, mi_age=65,
        )

    def _grid(self, pass_index: int) -> list[Op]:
        grid = [Op(op.name, pass_index, op.model, data=op.data) for op in self.manifolds]
        for sd in self.NOISE:
            fresh = pass_index > 0 and sd > 0.0
            for lo, hi in self.AGE_WINDOWS:
                for start in self.FIT_FROM:
                    name = f"gompertz_sd{sd}_{lo}-{hi}_{start}"
                    population = ingest.generate_synthetic(SynthConfig(
                        ages=AgeRange(lo, hi), years=self.DATA_YEARS, noise_sd=sd,
                        seed=derive(self.seed, f"{name}@{pass_index}" if fresh else name),
                    ))
                    config = self._config(lo, hi, start, min(20, self.DATA_YEARS.t_max - start - 29))
                    grid.append(Op(name, pass_index, data=(population, config), in_reference=not fresh))
        random.Random(derive(self.seed, f"order{pass_index}")).shuffle(grid)
        return grid

    def ops(self, pass_index: int = 0) -> list[Op]:
        return self.first_pass if pass_index == 0 else self._grid(pass_index)

    def run(self, op: Op):
        return evaluation.run_backtest(*op.data)

    def inspect(self, op, report):
        # A descent that stops at k_max still yields a finite report; it is
        # counted and reported, not failed (the CLI marks it with exit 2).
        self.sl_nonconverged += report.sl_converged is False
        errors = []
        summary = []
        for m in report.metrics:
            summary += [m.fit_mse, m.fit_mape, m.forecast_mse, m.forecast_mape]
        series = [report.mi_observed, *report.mi_forecast.values()]
        if not (np.all(np.isfinite(summary)) and all(np.all(np.isfinite(s)) for s in series)):
            errors.append("non-finite backtest metric")
        if op.model is not None:
            own = report.metrics_for(op.model.upper()).fit_mse
            if not own <= EXACT_MSE:
                errors.append(f"{op.model} fit MSE {own!r} on its own manifold")
        report_csv, mi_csv = io.StringIO(), io.StringIO()
        ingest.export_csv(report, report_csv)
        ingest.export_mi_csv(report, mi_csv)
        artifact = (report_csv.getvalue() + mi_csv.getvalue()).encode()
        return errors, artifact, summary

    def metrics(self, samples, pass_s):
        ms = _ms([s for _, _, s in samples])
        n = len(ms)
        return {
            "backtests_per_s": (len(self.first_pass) / statistics.median(pass_s), "1/s", len(pass_s)),
            "backtest_ms_p50": (statistics.median(ms), "ms", n),
            "backtest_ms_p99": (percentile(ms, 99), "ms", n),
            "sl_nonconverged": (self.sl_nonconverged, "count", n),
        }


class CliPipeline(Workload):
    """The CLI end to end, one command at a time, on a full-size HMD table.

    The cost is interpreter start, import, argument parsing, parsing a
    22.5k-line table, hashing and CSV writes; the model math is small.
    Measured runs start each command as its own process; the traced run
    sends the same command list through in-process ``cli.main``.
    """

    name = "cli_pipeline"
    TABLE_LINES = 3 + 110 * 205
    AGES = AgeRange(60, 94)
    HORIZON = 20

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        super().__init__(seed, workdir, in_process)
        self.table_seed = str(derive(seed, "table"))
        self.path_seed = str(derive(seed, "paths"))

    def ops(self, pass_index: int = 0) -> list[Op]:
        w = self.workdir / f"pass{pass_index}"
        table = str(w / "table.txt")
        window = ["--x-min", "60", "--x-max", "94"]
        ops = [Op("synth", pass_index, out=w / "table.txt", args=[
            "synth", "--gompertz-a", "5e-5", "--x-min", "0", "--x-max", "109",
            "--t-min", "1816", "--t-max", "2020", "--noise-sd", "0.01",
            "--seed", self.table_seed, "--out", table,
        ])]
        for model in MODELS:
            ops.append(Op(f"fit_{model}", pass_index, model, out=w / f"fit_{model}", args=[
                "fit", "--model", model, "--input", table, *window,
                "--t-min", "1960", "--t-max", "2009", "--out", str(w / f"fit_{model}"),
            ]))
        for model in MODELS:
            ops.append(Op(f"central_{model}", pass_index, model, out=w / f"central_{model}", args=[
                "forecast", "--params", str(w / f"fit_{model}" / "params.csv"),
                "--horizon", str(self.HORIZON), "--out", str(w / f"central_{model}"),
            ]))
        for model in MODELS:
            ops.append(Op(f"sample_{model}", pass_index, model, 1000, out=w / f"sample_{model}", args=[
                "forecast", "--params", str(w / f"fit_{model}" / "params.csv"),
                "--horizon", str(self.HORIZON), "--mode", "sample", "--paths", "1000",
                "--seed", self.path_seed, "--out", str(w / f"sample_{model}"),
            ]))
        ops.append(Op("backtest", pass_index, out=w / "backtest", args=[
            "backtest", "--input", table, *window, "--models", "sl,lc,cbd",
            "--out", str(w / "backtest"),
        ]))
        return ops

    def run(self, op: Op):
        if self.in_process:
            return cli.main(op.args)
        done = subprocess.run(
            [sys.executable, "-m", "mortcast.cli", *op.args],
            cwd=self.workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
        return done.returncode

    def inspect(self, op, rc):
        if rc != 0:
            return [f"{op.name} exited {rc}"], b"", []
        years = YearRange(2010, 2009 + self.HORIZON)
        if op.name == "synth":
            artifact = op.out.read_bytes()
            lines = artifact.count(b"\n")
            errors = [] if lines == self.TABLE_LINES else [f"table has {lines} lines"]
            return errors, artifact, [float(lines)]
        out = op.out
        artifact = _dir_bytes(out)
        if op.name.startswith("fit_"):
            return [], artifact, []
        if op.name.startswith("sample_"):
            errors, sums = check_quantiles((out / "quantiles.csv").read_text(), self.AGES, years)
            return errors, artifact, sums
        if op.name.startswith("central_"):
            q = _rows((out / "forecast.csv").read_text(), "age,year,value")
            ok = q.shape == (len(self.AGES) * len(years), 3) and np.all((q[:, 2] > 0) & (q[:, 2] < 1))
            return ([] if ok else ["central forecast outside (0, 1) or wrong grid"]), artifact, [float(q[:, 2].sum())]
        lines = [row for row in (out / "report.csv").read_text().splitlines() if not row.startswith("#")]
        values = [float(v) for line in lines[1:] for v in line.split(",")[4:]]
        mi = _rows((out / "mi_rates.csv").read_text(), "year,observed,SL,LC,CBD")
        ok = len(lines) == 7 and np.all(np.isfinite(values)) and np.all(np.isfinite(mi))
        return ([] if ok else ["backtest report malformed or non-finite"]), artifact, values

    def metrics(self, samples, pass_s):
        ms = _ms([s for _, _, s in samples])
        return {
            "cli_pipeline_s": (statistics.median(pass_s), "s", len(pass_s)),
            "cli_call_ms_p50": (statistics.median(ms), "ms", len(ms)),
        }


WORKLOADS = {w.name: w for w in (SampleForecast, BacktestSweep, CliPipeline)}
