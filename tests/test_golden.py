"""Byte-level regression of the CLI artifacts against committed golden files.

The golden bodies were produced by the CLI from fixed synthetic inputs
(noisy Gompertz, sd 0.01, seed 0, ages 60-94): fits over 1960-2009 with
their central and sample forecasts, and one backtest of all three models
over the default windows (fit 1960-1989, holdout 1990-2009). Each model's
exact manifold is pinned too: the HMD table that ``synth --manifold`` writes
over ages 60-94 and 1959-2009. Headers and the table's title line carry
artifact paths, so only the lines after them are compared. After a deliberate
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
DATA = ["--synth", "gompertz", "--noise-sd", "0.01", "--seed", "0",
        "--x-min", "60", "--x-max", "94"]
FIT = [*DATA, "--t-min", "1960", "--t-max", "2009"]
HORIZON = "12"
PATHS = "300"


def _body(path: Path) -> list[str]:
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def _fit(model: str, work: Path) -> Path:
    fit_dir = work / f"fit_{model}"
    assert main(["fit", "--model", model, *FIT, "--out", str(fit_dir)]) == 0
    return fit_dir


def _fit_artifacts(model: str, work: Path) -> dict[str, list[str]]:
    """params.csv, and for SL diagnostics.csv, bodies for one model."""
    fit_dir = _fit(model, work)
    names = ("params.csv", "diagnostics.csv") if model == "sl" else ("params.csv",)
    return {f"{model}_{name}": _body(fit_dir / name) for name in names}


def _forecast_artifacts(model: str, work: Path) -> dict[str, list[str]]:
    """forecast.csv (central) and quantiles.csv (sample) bodies for one model."""
    params = str(_fit(model, work) / "params.csv")
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


def _backtest_artifacts(work: Path) -> dict[str, list[str]]:
    """report.csv and mi_rates.csv bodies of one backtest over all three models."""
    out = work / "backtest"
    assert main(["backtest", *DATA, "--out", str(out)]) == 0
    return {f"backtest_{name}": _body(out / name) for name in ("report.csv", "mi_rates.csv")}


def _manifold_artifacts(model: str, work: Path) -> dict[str, list[str]]:
    """The lines after the title of the HMD table of one model's exact manifold."""
    out = work / f"{model}_manifold.txt"
    assert main(["synth", "--manifold", model, "--x-min", "60", "--x-max", "94",
                 "--t-min", "1959", "--t-max", "2009", "--out", str(out)]) == 0
    return {f"{model}_manifold.txt": out.read_text().splitlines()[1:]}


def _all_artifacts(work: Path) -> dict[str, list[str]]:
    bodies = _backtest_artifacts(work)
    for model in MODELS:
        bodies |= _fit_artifacts(model, work) | _forecast_artifacts(model, work)
        bodies |= _manifold_artifacts(model, work)
    return bodies


def _assert_golden(bodies: dict[str, list[str]]):
    for name, lines in bodies.items():
        expected = (GOLDEN / name).read_text().splitlines()
        assert len(lines) == len(expected), name
        for k, (got, want) in enumerate(zip(lines, expected)):
            assert got == want, f"{name} line {k + 1}"


@pytest.mark.parametrize("model", MODELS)
def test_forecast_bodies_match_golden(model, tmp_path):
    _assert_golden(_forecast_artifacts(model, tmp_path))


@pytest.mark.parametrize("model", MODELS)
def test_fit_bodies_match_golden(model, tmp_path):
    _assert_golden(_fit_artifacts(model, tmp_path))


def test_backtest_bodies_match_golden(tmp_path):
    _assert_golden(_backtest_artifacts(tmp_path))


@pytest.mark.parametrize("model", MODELS)
def test_manifold_bodies_match_golden(model, tmp_path):
    _assert_golden(_manifold_artifacts(model, tmp_path))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines in _all_artifacts(Path(tmp)).items():
            (GOLDEN / name).write_text("".join(f"{l}\n" for l in lines))
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
