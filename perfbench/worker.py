"""One workload process: set up, say ``ready``, then measure or trace.

Started by run.py with the BLAS pin and ``PYTHONPATH`` already in its
environment. Protocol lines (``ready``, then one JSON result) go to the
original standard output; everything mortcast prints goes to /dev/null.

Modes:
  setup    set up and exit; run.py times spawn-to-ready.
  measure  repeat whole passes of the workload until --seconds have passed.
  trace    one untraced and one traced set-up-and-pass, twice (ABBA order),
           plus ``-X importtime`` of a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import Tracer, parse_importtime
from workloads import WORKLOADS, percentile

OUT = Path(__file__).resolve().parents[1] / ".perfbench_out"
IMPORT_REPS = 3
MAX_ERRORS = 20


class Run:
    """Failure accounting for the timed or traced ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(f"{label}: {'; '.join(errors)}")

    def attempt(self, workload, op):
        """Run one op; returns (seconds, result) or (seconds, None) if it raised."""
        start = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception:  # an op that raises is a counted failure, not a crash
            elapsed = time.perf_counter() - start
            self.record(op.name, [traceback.format_exc(limit=3).strip().splitlines()[-1]])
            return elapsed, None
        return time.perf_counter() - start, result

    def checked(self, workload, op, result) -> bool:
        try:
            errors = workload.check(op, result)
        except Exception:  # malformed output is a counted failure
            errors = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
        self.record(op.name, errors)
        return not errors


def measure(workload, seconds: float) -> dict:
    """Whole passes until ``seconds`` have passed; every op checked.

    Throughputs divide one pass's work by the median pass time, so a burst
    of load from outside the benchmark moves them less than a mean would.
    """
    run = Run()
    samples, pass_s = [], []
    start = time.perf_counter()
    while not pass_s or time.perf_counter() - start < seconds:
        busy = 0.0
        for op in workload.ops(len(pass_s)):
            elapsed, result = run.attempt(workload, op)
            busy += elapsed
            if result is not None and run.checked(workload, op, result):
                samples.append((len(pass_s), op.model, elapsed))
        pass_s.append(busy)
        if len(pass_s) == 1:
            # Rerun one op at once: its artifact must be byte-identical.
            op = workload.ops(0)[0]
            _, result = run.attempt(workload, op)
            if result is not None:
                run.checked(workload, op, result)
    ms = sorted(s * 1e3 for _, _, s in samples) or [float("nan")]
    n = len(samples)
    metrics = {
        "peak_rss_mb": (peak_rss_mb(workload), "MB", 1),
        "ops_per_s": (len(workload.ops(0)) / statistics.median(pass_s), "1/s", len(pass_s)),
        "op_ms_p50": (statistics.median(ms), "ms", n),
        "op_ms_p95": (percentile(ms, 95), "ms", n),
        "op_ms_p99": (percentile(ms, 99), "ms", n),
        "error_rate": (run.failed / run.attempted, "failed/attempted", run.attempted),
    }
    metrics.update(workload.metrics(samples, pass_s) if samples else {})
    return {
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "pass_s": pass_s, "wall_s": time.perf_counter() - start,
        "metrics": metrics,
    }


def peak_rss_mb(workload) -> float:
    """Peak resident set: of this process, or of the largest CLI child."""
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def import_attribution() -> dict:
    """Median over fresh interpreters of start-up and import costs of mortcast."""
    rows = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import mortcast"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True,
        )
        wall_ms = (time.perf_counter() - start) * 1e3
        row = parse_importtime(done.stderr)
        row["interp.start_ms"] = wall_ms - row["import.total_ms"]
        rows.append(row)
    return {key: statistics.median(r[key] for r in rows) for key in rows[0]}


def trace(factory, seed: int, workload_name: str) -> dict:
    """Untraced and traced set-up-and-pass in ABBA order; per-layer numbers."""
    run = Run()
    totals = {False: [], True: []}
    tracers, summaries = [], []
    for traced in (False, True, True, False):
        workdir = Path(tempfile.mkdtemp(dir=OUT))
        try:
            tracer = Tracer()
            results = []
            start = time.perf_counter()
            if traced:
                tracer.install()
            try:
                with tracer.region("bench.setup"):
                    workload = factory(seed, workdir)
                with tracer.region("bench.pass"):
                    for op in workload.ops():
                        results.append((op, run.attempt(workload, op)[1]))
            finally:
                tracer.uninstall()
            totals[traced].append(time.perf_counter() - start)
            # Checked after tracing stops, so checks add no spans or counts.
            for op, result in results:
                if result is not None:
                    run.checked(workload, op, result)
            summaries.append(workload.summaries)
            if traced:
                tracers.append(tracer)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if any(s != summaries[0] for s in summaries):
        run.record("trace", ["traced and untraced passes gave different outputs"])

    per_pass = [layer_metrics(t) for t in tracers]
    counters = [{k: v for k, v in m.items() if not k.endswith("_ms")} for m in per_pass]
    if counters[0] != counters[1]:
        run.record("trace", ["exact counters differ between the two traced passes"])
    metrics = {k: statistics.mean(m[k] for m in per_pass) for k in per_pass[0]}
    for k in counters[0]:
        metrics[k] = counters[0][k]
    metrics.update(import_attribution())
    metrics["trace.overhead_pct"] = 100.0 * (sum(totals[True]) / sum(totals[False]) - 1.0)
    spans = OUT / f"spans-{workload_name}-seed{seed}.npz"
    tracers[0].save(spans)
    return {
        "attempted": run.attempted, "failed": run.failed, "errors": run.errors,
        "spans_file": str(spans.relative_to(OUT.parent)),
        "untraced_s": totals[False], "traced_s": totals[True],
        "metrics": {k: (v, unit_of(k), 1) for k, v in metrics.items()},
    }


# Per-layer metrics read from the spans: (span name, field) in report order.
SPAN_METRICS = (
    ("cli.main", "calls"), ("cli.main", "self_ms"),
    ("ingest.parse_hmd", "self_ms"), ("ingest.write_hmd", "self_ms"),
    ("ingest.export_csv", "self_ms"), ("ingest.generate_synthetic", "self_ms"),
    ("lifetable.MortalitySurface", "calls"), ("lifetable.MortalitySurface", "self_ms"),
    ("lifetable.survival_to_q", "calls"), ("lifetable.survival_to_q", "self_ms"),
    ("lifetable.surface_q_to_survival", "self_ms"), ("lifetable.central_rate_to_q", "self_ms"),
    ("transforms.invert_l_diff", "calls"), ("transforms.invert_l_diff", "self_ms"),
    ("transforms.build_l_diff", "self_ms"),
    ("sl_model.fit_sl", "calls"), ("sl_model.fit_sl", "self_ms"), ("sl_model.sl_forecast", "self_ms"),
    ("benchmark_models.fit_lc", "self_ms"), ("benchmark_models.fit_cbd", "self_ms"),
    ("benchmark_models.lc_forecast", "self_ms"), ("benchmark_models.cbd_forecast", "self_ms"),
    ("timeseries.simulate_paths", "calls"), ("timeseries.simulate_paths", "self_ms"),
    ("timeseries.calibrate_rwd", "self_ms"), ("timeseries.forecast_states", "self_ms"),
    ("evaluation.run_backtest", "self_ms"), ("evaluation.mse", "calls"), ("evaluation.mape", "calls"),
)
COUNTERS = (
    "ingest.parse_hmd.lines", "ingest.bytes_written", "sl_model.fit_sl.sweeps",
    "timeseries.simulate_paths.paths",
)
RENAMED = {"lifetable.MortalitySurface.calls": "lifetable.MortalitySurface.constructions"}


def layer_metrics(tracer) -> dict:
    summary = tracer.summary()
    out = {}
    for span, field in SPAN_METRICS:
        name = f"{span}.{field}"
        out[RENAMED.get(name, name)] = summary.get(span, {"calls": 0, "self_ms": 0.0})[field]
    for name in COUNTERS:
        out[name] = tracer.counters.get(name, 0)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name == "ingest.bytes_written":
        return "bytes"
    return "count"


def environment() -> dict:
    """Library versions and the BLAS pin; scipy only if installed."""
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    args = parser.parse_args(argv)

    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    sys.stdout = open(os.devnull, "w")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        factory = WORKLOADS[args.workload]
        if args.mode == "trace":
            protocol.write("ready\n")
            result = trace(lambda seed, wd: factory(seed, wd, in_process=True), args.seed, args.workload)
        else:
            workload = factory(args.seed, workdir)
            protocol.write("ready\n")
            if args.mode == "setup":
                return 0
            result = measure(workload, args.seconds)
        result["env"] = environment()
        protocol.write(json.dumps(result) + "\n")
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
