"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The exact-counter test starts the traced run twice per workload, about a
minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import mortcast  # noqa: E402
from mortcast import evaluation, lifetable, sl_model  # noqa: E402
from tracing import Tracer, parse_importtime, self_times  # noqa: E402
from worker import COUNTERS, RENAMED, SPAN_METRICS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = [RENAMED.get(f"{s}.{f}", f"{s}.{f}") for s, f in SPAN_METRICS if f == "calls"]
COUNT_METRICS += list(COUNTERS)


def bench(*args: str) -> tuple[int, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=180
    )
    return done.returncode, done.stdout


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | _io",
        "import time:       500 |        500 |       scipy._lib",
        "import time:      2000 |       2500 |     scipy",
        "import time:      1000 |       3500 |   scipy.special",
        "import time:      4000 |       4000 |   numpy",
        "import time:       300 |       7800 | mortcast",
    ])
    assert parse_importtime(stderr) == {"import.total_ms": 7.8, "import.scipy_ms": 3.5}


def test_self_time_subtracts_direct_children():
    # root [0, 100) holds a [10, 40) which holds b [20, 30), and c [50, 60).
    names = ["root", "a", "b", "c"]
    name_id = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 20, 50]) * 1_000_000
    end = np.array([100, 40, 30, 60]) * 1_000_000
    got = self_times(names, name_id, parent, start, end)
    assert {k: v["self_ms"] for k, v in got.items()} == {"root": 60, "a": 20, "b": 10, "c": 10}


def test_tracer_rebinds_every_copy_and_restores():
    original = lifetable.survival_to_q
    init = lifetable.MortalitySurface.__init__
    with Tracer() as tracer:
        assert sl_model.survival_to_q is not original
        assert evaluation.survival_to_q is sl_model.survival_to_q
        assert mortcast.survival_to_q is sl_model.survival_to_q
        report = evaluation.run_backtest(mortcast.generate_synthetic(mortcast.SynthConfig()))
    assert sl_model.survival_to_q is original and mortcast.survival_to_q is original
    assert lifetable.MortalitySurface.__init__ is init
    summary = tracer.summary()
    assert summary["evaluation.run_backtest"]["calls"] == 1
    assert summary["sl_model.fit_sl"]["calls"] == 1
    assert summary["lifetable.survival_to_q"]["calls"] > 0
    assert tracer.counters["sl_model.fit_sl.sweeps"] > 0
    assert report.metrics_for("SL").fit_mse >= 0.0


def test_end_to_end_metrics_match_benchmark_json():
    code, out = bench("--workload", "backtest_sweep", "--seed", "0", "--seconds", "1", "--trace", "0")
    result = json.loads(out.splitlines()[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_exact_counters_repeat(workload):
    runs = []
    for _ in range(2):
        code, out = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1")
        assert code == 0, out
        runs.append(json.loads(out.splitlines()[-1]))
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == want
    counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert all(r["correct"] for r in runs)


def test_exits_nonzero_without_the_program():
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_pipeline", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
        assert done.returncode != 0
        assert '"correct"' not in done.stdout
    finally:
        shutil.rmtree(scratch)
