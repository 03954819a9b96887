"""tools/bench_record.py's summary against numpy's default "linear" percentiles.

Every gain and no-regression verdict is read from these medians and IQRs.
The tool is a script, not a package module, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def check_summary(values):
    out = bench_record.summary(values)
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    # the tool and numpy interpolate in different orders: equal up to rounding
    tol = 1e-12 * max(abs(v) for v in values)
    assert out["q1"] == pytest.approx(q1, rel=0.0, abs=tol)
    assert out["q3"] == pytest.approx(q3, rel=0.0, abs=tol)
    assert out["iqr"] == pytest.approx(q3 - q1, rel=0.0, abs=2 * tol)
    assert out["median"] == pytest.approx(median, rel=0.0, abs=tol)
    assert out["n"] == len(values) and out["values"] == values


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
def test_summary_matches_numpy_percentiles(values):
    check_summary(values)


@pytest.mark.parametrize("values", [
    [3.5],
    [0.0],
    [2.0, 2.0],
    [7.0, 7.0, 7.0, 7.0, 7.0],
    [1.0, 1.0, 5.0, 5.0, 5.0],
    [9.0, 1.0, 4.0, 1.0, 9.0, 9.0],
])
def test_single_value_and_ties(values):
    check_summary(values)
