"""Regenerate reference.json: one checked pass of each workload at the default seed.

    python3 perfbench/make_reference.py

Run it only when a change to mortcast's outputs is intended; the values
are what every default-seed benchmark run is compared against.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, REFERENCE, WORKLOADS  # noqa: E402


def main() -> int:
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    reference = {}
    for name, factory in WORKLOADS.items():
        workdir = Path(tempfile.mkdtemp(dir=out_dir))
        try:
            with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
                workload = factory(DEFAULT_SEED, workdir, in_process=True)
                workload.reference = None
                results = [(op, workload.run(op)) for op in workload.ops()]
            for op, result in results:
                errors = workload.check(op, result)
                if errors:
                    print(f"{name} {op.name}: {'; '.join(errors)}", file=sys.stderr)
                    return 1
            reference[name] = dict(sorted(workload.summaries.items()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
