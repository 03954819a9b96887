"""mortcast benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py): sample_forecast, backtest_sweep, cli_pipeline.
Each run starts fresh workload processes with BLAS pinned to one thread
(matrices here are at most 50 x 61, so more threads only add scheduler
noise). Set-up is timed from spawn to ``ready`` in several processes and
reported as the median; the last process then measures.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run, which does a fixed amount of work (set-up and one
pass, untraced and traced, twice) so that its counters repeat exactly, and
ignores ``--seconds``. Lines before the last one report every metric with
its unit and sample count, plus the environment; the full result is also
written under ``.perfbench_out/``. The exit code is 0 only if every op
passed its output checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sample_forecast", "backtest_sweep", "cli_pipeline")
SETUP_REPS = 9
TIMEOUT_S = 170.0
END_TO_END = ("setup_s", "peak_rss_mb", "ops_per_s", "op_ms_p50", "op_ms_p95")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine() -> dict:
    """CPU facts read from /proc and /sys, when present."""
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


class Worker:
    """One workload process; ``ready()`` returns seconds from spawn to ready."""

    def __init__(self, args, mode: str, env: dict, deadline: float):
        self.deadline = deadline
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode],
            stdout=subprocess.PIPE, env=env, bufsize=0,  # unbuffered, so select() sees every line
        )

    def _line(self) -> str:
        left = self.deadline - time.perf_counter()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise TimeoutError("workload process did not answer in time")
        return self.proc.stdout.readline().decode()

    def ready(self) -> float:
        line = self._line()
        elapsed = time.perf_counter() - self.spawned
        if line.strip() != "ready":
            raise RuntimeError("workload process failed during set-up")
        return elapsed

    def result(self) -> dict:
        line = self._line()
        if not line:
            raise RuntimeError("workload process exited without a result")
        return json.loads(line)

    def close(self) -> int:
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def run(args) -> tuple[dict, list[float]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_PIN)
    deadline = time.perf_counter() + TIMEOUT_S
    setups: list[float] = []
    reps = 1 if args.trace else SETUP_REPS
    for i in range(reps):
        last = i == reps - 1
        mode = ("trace" if args.trace else "measure") if last else "setup"
        worker = Worker(args, mode, env, deadline)
        try:
            setups.append(worker.ready())
            result = worker.result() if last else None
        finally:
            code = worker.close()
        if code != 0:
            raise RuntimeError(f"workload process exited {code}")
    return result, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mortcast" / "__init__.py").is_file():
        print(f"perfbench: no mortcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result, setups = run(args)
    except (RuntimeError, TimeoutError, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    result.update(workload=args.workload, seed=args.seed, trace=args.trace, setup_samples_s=setups)
    result["env"].update(machine())
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} ops checked, {result['failed']} failed")
    for error in result["errors"]:
        print(f"  FAILED {error}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:18s} n={n}")
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    print(f"full result in {path.relative_to(ROOT)}")

    chosen = list(metrics) if args.trace else END_TO_END
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in chosen},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
