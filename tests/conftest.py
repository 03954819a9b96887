import re

import numpy as np
import pytest

from mortcast import AgeRange, MortalitySurface, YearRange

_CRITERION = re.compile(r"test_criterion_(\d+)")

# qualitative verdicts recorded by tests that pass without asserting
QUALITATIVE: dict[int, str] = {}


def read_export_csv(text: str, kind) -> MortalitySurface:
    """The surface whose export_csv body is ``text``; "#" comment lines are skipped.

    The rows must cover a dense age-by-year grid, by age then year.
    """
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "age,year,value"
    rows = [line.split(",") for line in lines[1:]]
    ages = AgeRange(int(rows[0][0]), int(rows[-1][0]))
    years = YearRange(int(rows[0][1]), int(rows[-1][1]))
    assert [(int(x), int(t)) for x, t, _ in rows] == [(x, t) for x in ages for t in years]
    values = np.array([float(v) for _, _, v in rows]).reshape(len(ages), len(years))
    return MortalitySurface(ages=ages, years=years, kind=kind, values=values)


@pytest.fixture
def record_qualitative():
    def record(criterion: int, verdict: str):
        QUALITATIVE[criterion] = verdict

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results: dict[int, str] = {}
    for status, label in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
        ("skipped", "SKIPPED"),
    ):
        for rep in terminalreporter.stats.get(status, []):
            m = _CRITERION.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            n = int(m.group(1))
            if results.get(n) != "FAIL":
                results[n] = label
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(results):
        line = f"criterion {n:2d}: {results[n]}"
        if n in QUALITATIVE:
            line += f" ({QUALITATIVE[n]})"
        terminalreporter.write_line(line)
