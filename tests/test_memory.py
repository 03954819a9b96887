"""Memory bounds of the HMD table stages, as multiples of the table's size.

tracemalloc counts Python's own allocations, so these peaks do not depend on
the machine or on what else the process has touched. The table is full size:
ages 0-109 over 1816-2020, 22,553 lines and about 1.8 MB.
"""

import hashlib
import tracemalloc

import pytest

from mortcast import AgeRange, SynthConfig, YearRange, generate_synthetic, write_hmd
from mortcast.cli import main

FULL_SIZE = SynthConfig(
    gompertz_a=5e-5, ages=AgeRange(0, 109), years=YearRange(1816, 2020), noise_sd=0.01, seed=1
)
WINDOW = ["--x-min", "60", "--x-max", "94"]


def traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, beyond what was held before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "table.txt"
    write_hmd(generate_synthetic(FULL_SIZE), path)
    return path


def test_write_hmd_holds_less_than_the_table(tmp_path, table):
    surface = generate_synthetic(FULL_SIZE)
    path = tmp_path / "table.txt"
    peak = traced_peak(lambda: write_hmd(surface, path))
    assert path.read_bytes() == table.read_bytes()
    assert peak < path.stat().st_size


@pytest.mark.parametrize(
    "args",
    [
        ["fit", "--model", "sl", *WINDOW, "--t-min", "1960", "--t-max", "2009"],
        ["backtest", *WINDOW],
    ],
    ids=["fit", "backtest"],
)
def test_reading_holds_less_than_five_tables(tmp_path, table, args):
    out = tmp_path / "out"
    codes = []
    peak = traced_peak(lambda: codes.append(main([*args, "--input", str(table), "--out", str(out)])))
    assert codes == [0]
    assert peak < 5 * table.stat().st_size
    # the digest is of the bytes that were parsed: the file's own
    artifact = "params.csv" if args[0] == "fit" else "report.csv"
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert f"# input_sha256 = {digest}" in (out / artifact).read_text().splitlines()
