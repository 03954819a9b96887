"""Record perfbench results of one or more source trees in a BENCH_<n>.json file.

    python3 tools/bench_record.py --tree parent=../parent --tree change=. \
        --seeds 601 602 603 --seconds 30 --out BENCH_6.json

Each tree is a checkout of this repository. For every workload and seed the
tool runs ``perfbench/run.py --trace 0`` in each tree, alternating which
tree goes first from one seed to the next, then one traced run
(``--trace 1``) per tree and workload at seed 0, the seed of perfbench's
reference check. It reads the full result that run.py writes under the
tree's ``.perfbench_out/`` and writes, per tree, workload and metric: unit,
median, quartiles, IQR, n and the per-seed values, plus the tree's commit,
the ops attempted and failed, and the machine facts run.py reports. Traced
metrics are single runs (n = 1). The output file is written afresh.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sample_forecast", "backtest_sweep", "cli_pipeline")
TRACE_SEED = 0


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``; the full result dict it writes.

    run.py exits 1 both when some checked ops failed (the result is written)
    and when the workload crashed (nothing is written), so the result file
    is removed first and exit 1 is accepted only with a fresh result that
    counts failed ops.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    path = tree / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = json.loads(path.read_text()) if path.is_file() else None
    if result is None or proc.returncode != (1 if result["failed"] else 0):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    """Median, quartiles and IQR (numpy's default "linear" quartiles)."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(ordered), "values": values}


def commit_of(tree: Path) -> str:
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=tree,
                           capture_output=True, text=True).stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def record(trees: dict[str, Path], seeds, seconds: float) -> dict[str, dict]:
    runs = {label: {"commit": commit_of(tree), "seconds": seconds, "seeds": list(seeds),
                    "rows": [], "machine": None} for label, tree in trees.items()}
    for workload in WORKLOADS:
        results: dict[str, list[dict]] = {label: [] for label in trees}
        for k, seed in enumerate(seeds):
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            for label in order:
                print(f"{workload} seed {seed} {label}", file=sys.stderr, flush=True)
                results[label].append(run_once(trees[label], workload, seed, seconds, 0))
        for label, tree in trees.items():
            print(f"{workload} traced {label}", file=sys.stderr, flush=True)
            traced = run_once(tree, workload, TRACE_SEED, seconds, 1)
            untraced = results[label]
            run = runs[label]
            run["machine"] = untraced[-1]["env"]
            counts = {"attempted": sum(r["attempted"] for r in untraced),
                      "failed": sum(r["failed"] for r in untraced)}
            for name, (_, unit, _) in untraced[0]["metrics"].items():
                values = [r["metrics"][name][0] for r in untraced]
                run["rows"].append({"workload": workload, "metric": name, "unit": unit,
                                    "trace": 0, **summary(values), **counts})
            for name, (value, unit, _) in traced["metrics"].items():
                run["rows"].append({"workload": workload, "metric": name, "unit": unit,
                                    "trace": 1, **summary([value]),
                                    "attempted": traced["attempted"], "failed": traced["failed"]})
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a labelled checkout to measure; repeat for each tree")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    trees = {}
    for item in args.tree:
        label, eq, directory = item.partition("=")
        if not eq or not (Path(directory) / "perfbench" / "run.py").is_file():
            parser.error(f"--tree {item!r} is not LABEL=DIR of a checkout with perfbench/")
        trees[label] = Path(directory).resolve()

    doc = {"command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1",
           "runs": record(trees, args.seeds, args.seconds)}
    out = Path(args.out)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
