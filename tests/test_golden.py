"""Byte-level regression of the forecast artifacts against committed golden files.

The golden bodies were produced by the CLI from a fixed synthetic fit
(noisy Gompertz, sd 0.01, seed 0, ages 60-94, fit 1960-2009). Headers carry
artifact paths, so only non-comment lines are compared. After a deliberate
change to artifact bytes, regenerate with::

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
import tempfile
from pathlib import Path

import pytest

from mortcast.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODELS = ("sl", "lc", "cbd")
FIT = ["--synth", "gompertz", "--noise-sd", "0.01", "--seed", "0",
       "--x-min", "60", "--x-max", "94", "--t-min", "1960", "--t-max", "2009"]
HORIZON = "12"
PATHS = "300"


def _body(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def _artifacts(model: str, work: Path) -> dict[str, list[str]]:
    """forecast.csv (central) and quantiles.csv (sample) bodies for one model."""
    fit_dir = work / f"fit_{model}"
    assert main(["fit", "--model", model, *FIT, "--out", str(fit_dir)]) == 0
    params = str(fit_dir / "params.csv")
    central, sample = work / f"central_{model}", work / f"sample_{model}"
    assert main(["forecast", "--params", params, "--horizon", HORIZON, "--out", str(central)]) == 0
    assert main(
        ["forecast", "--params", params, "--horizon", HORIZON, "--mode", "sample",
         "--paths", PATHS, "--seed", "0", "--out", str(sample)]
    ) == 0
    return {
        f"{model}_forecast.csv": _body(central / "forecast.csv"),
        f"{model}_quantiles.csv": _body(sample / "quantiles.csv"),
    }


@pytest.mark.parametrize("model", MODELS)
def test_forecast_bodies_match_golden(model, tmp_path):
    for name, lines in _artifacts(model, tmp_path).items():
        expected = (GOLDEN / name).read_text().splitlines()
        assert len(lines) == len(expected), name
        for k, (got, want) in enumerate(zip(lines, expected)):
            assert got == want, f"{name} line {k + 1}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for model in MODELS:
            for name, lines in _artifacts(model, Path(tmp)).items():
                (GOLDEN / name).write_text("".join(f"{l}\n" for l in lines))
                print(f"wrote {GOLDEN / name}", file=sys.stderr)
