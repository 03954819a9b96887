"""Every error that names the first offending cell of a grid, by age, then year.

The reference-curve errors name the first offending age, or the position
where no ages are known; the array conversions name the first offending
value by its position. The texts are pinned in full; generated properties
check the cell and fault that ``check_surface_values`` and the array
conversions name against a plain-loop oracle, over any grid and over SL's
q, whose ``q_of`` never raises.
"""

import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import (
    AgeRange,
    CbdParams,
    DomainError,
    LcParams,
    LDiffSurface,
    MortalitySurface,
    MortcastError,
    SlParams,
    SurfaceKind,
    YearRange,
    build_l_diff,
    central_rate_to_q,
    curve_of_deaths,
    fit_cbd,
    fit_lc,
    generate_manifold,
    invert_l_diff,
    l_transform,
    parse_hmd,
    q_to_central_rate,
    q_to_survival,
    surface_q_to_survival,
    survival_to_q,
)
from mortcast.cli import _read_params
from mortcast.lifetable import _paths_first, check_surface_values
from mortcast.timeseries import _raise_first_fault, q_surface

AGES = AgeRange(60, 62)
YEARS = YearRange(2000, 2002)
# two bad cells: (61, 2001) comes first by age, (62, 2000) first by year
BAD = ((1, 1), (2, 0))


def grid(kind, fill, bad=None):
    values = np.full((3, 3), fill)
    if bad is not None:
        values[BAD[0]] = values[BAD[1]] = bad
    return MortalitySurface(AGES, YEARS, kind, values)


def survival(values):
    return MortalitySurface(AGES, YEARS, SurfaceKind.SURVIVAL, np.array(values))


def hmd_without_bad_cells():
    rows = [
        f"{t} {x} 0.01 0.01 0.01"
        for t in YEARS
        for x in AGES
        if (x - AGES.x_min, t - YEARS.t_min) not in BAD
    ]
    return io.StringIO("title\n\nYear Age Female Male Total\n" + "\n".join(rows) + "\n")


def sl_params(base_survival):
    return SlParams(
        alpha1=np.zeros(3), alpha2=np.zeros(3), kappa=np.array([-1.0, 0.0, 1.0]),
        base_survival=np.array(base_survival), t0=YEARS.t_min - 1, ages=AGES, years=YEARS,
    )


def checked_q(params, states, first_path=0):
    """``params.q_of(states)`` over YEARS, through the check a forecast makes on q."""
    q = params.q_of(np.array(states, dtype=float))
    check_surface_values(_paths_first(q), SurfaceKind.DEATH_PROB, params.ages, YEARS, first_path)
    return q


def sl_q_of(states, first_path=0):
    """Checked SL death probabilities over YEARS; L0 = log(-log S) is -2.25, -1.50, -1.25."""
    return checked_q(sl_params([0.9, 0.8, 0.75]), states, first_path)


def lc_q_of(kappa):
    """Checked Lee-Carter death probabilities over YEARS from log m = -4 + beta_x * kappa_t."""
    params = LcParams(
        alpha_x=np.full(3, -4.0), beta_x=np.array([0.0, 0.25, 0.75]), kappa_t=np.zeros(3),
        ages=AGES, years=YEARS,
    )
    return checked_q(params, np.array(kappa, dtype=float)[:, None])


def cbd_forecast_of_one(n_paths=None):
    """CBD forecast over 2003-2005 of logit q = kappa1 + 5 (x - 61), kappa1 = 35, 40, 45.

    q rounds to 1 where the logit passes about 36.7: at 62 in 2003, at 61
    from 2004 and at 60 in 2005. The walk has no noise, so every sample path
    is the central one.
    """
    params = CbdParams(kappa1_t=np.array([20.0, 25.0, 30.0]), kappa2_t=np.full(3, 5.0),
                       x_bar=61.0, ages=AGES, years=YEARS)
    return params.forecast(3, n_paths, seed=None if n_paths is None else 0)


def sl_params_csv(base_survival):
    """params.csv bytes of ``sl_params(base_survival)``, as cmd_fit lays them out."""
    header = ["# model = sl", "# x_min = 60", "# x_max = 62", "# t_min = 2000", "# t_max = 2002"]
    series = (("alpha1", YEARS, [0, 0, 0]), ("alpha2", YEARS, [0, 0, 0]),
              ("kappa", AGES, [-1, 0, 1]), ("base_survival", AGES, base_survival))
    rows = [f"{name},{i},{v}" for name, index, values in series for i, v in zip(index, values)]
    return "\n".join([*header, "param,index,value", *rows, "t0,,1999", ""]).encode()


def paths_block(kind, fill, cell, bad):
    block = np.full((3, 3, 3), fill)
    block[cell] = bad
    block[2, 0, 0] = bad  # a later path, same fault
    return lambda: check_surface_values(block, kind, AGES, YEARS, first_path=10)


CASES = {
    "fit_lc": (
        lambda: fit_lc(grid(SurfaceKind.CENTRAL_RATE, 0.01, 0.0)),
        "nonpositive central rate at age 61, year 2001: log rate undefined",
    ),
    # a q of 1 cannot reach fit_cbd, nor surface_q_to_survival: the surface refuses it
    "fit_cbd": (
        lambda: fit_cbd(grid(SurfaceKind.DEATH_PROB, 0.01, 0.0)),
        "death probability of 0 at age 61, year 2001: logit undefined",
    ),
    "surface_q_to_survival": (
        lambda: surface_q_to_survival(grid(SurfaceKind.DEATH_PROB, 0.01, 1.0)),
        "death probability of 1 at age 61, year 2001",
    ),
    "build_l_diff base year": (
        lambda: build_l_diff(survival([[1, 0.9, 0.9], [1, 0.8, 0.8], [0.7, 0.7, 0.7]]), t0=2000),
        "base survival 1.0 at age 60, year 2000 is outside (0, 1 - 1e-15)",
    ),
    "build_l_diff fit year": (
        lambda: build_l_diff(survival([[0.9, 0.9, 1], [0.8, 0.8, 1], [0.7, 0.7, 0.7]]), t0=2000),
        "survival 1.0 at age 60, year 2002 is outside (0, 1 - 1e-15)",
    ),
    "LDiffSurface reference curve": (
        lambda: LDiffSurface(
            t0=1999, base_survival=np.array([0.9, 1.0, 0.0]), ages=AGES, years=YEARS,
            values=np.zeros((3, 3)),
        ),
        "base survival 1.0 at age 61, year 1999 is outside (0, 1 - 1e-15)",
    ),
    "SlParams reference curve": (
        lambda: sl_params([0.9, 0.0, 1.0]),
        "base_survival 0.0 at age 61, year 1999 is outside (0, 1 - 1e-15)",
    ),
    "params.csv reference curve": (
        lambda: _read_params(sl_params_csv([0.9, 1.0, 0.7]), "params.csv"),
        "base_survival 1.0 at age 61, year 1999 is outside (0, 1 - 1e-15)",
    ),
    "invert_l_diff reference curve": (
        lambda: invert_l_diff(np.zeros(3), np.array([0.9, -0.5, 1.0])),
        "base survival -0.5 at position 1 is outside (0, 1 - 1e-15)",
    ),
    "l_transform": (
        lambda: l_transform(np.array([[0.5, 0.9], [1.0, 0.0]])),
        "survival value 1.0 at position 1, 0 is outside (0, 1 - 1e-15)",
    ),
    "l_transform non-finite": (
        lambda: l_transform(np.array([0.5, np.nan])),
        "survival value nan at position 1 is outside (0, 1 - 1e-15)",
    ),
    # the array conversions name the first bad value by position, with the surface's faults
    "curve_of_deaths": (
        lambda: curve_of_deaths([0.2, 1.5]),
        "death probability above 1 at position 1",
    ),
    "q_to_survival": (
        lambda: q_to_survival([0.2, 0.1, np.nan]),
        "non-finite death_prob at position 2",
    ),
    "q_to_central_rate": (
        lambda: q_to_central_rate([0.1, 1.0]),
        "death probability of 1 at position 1",
    ),
    "central_rate_to_q first value": (
        lambda: central_rate_to_q([[0.01, -0.01], [np.nan, 0.01]]),
        "negative central_rate at position 0, 1",
    ),
    "central_rate_to_q scalar": (
        lambda: central_rate_to_q(-0.001),
        "negative central_rate",
    ),
    # 1.2 also rises in age, but the values are checked first
    "survival_to_q stack": (
        lambda: survival_to_q(
            [[[0.9, 0.8, 0.7], [0.9, 0.8, 0.7]], [[0.9, 0.8, 0.7], [0.9, 1.2, 0.7]]]
        ),
        "survival above 1 at position 1, 1, 1",
    ),
    # the SL manifold's q rounds to 1 from age 100 in its reference year, the first of the
    # window: over 1950-2020 as synth writes it, over 1959-2009 as a default backtest reads it
    "SL manifold, synth window": (
        lambda: generate_manifold("sl", AgeRange(0, 110), YearRange(1950, 2020)),
        "death probability of 1 at age 100, year 1950",
    ),
    "SL manifold, backtest window": (
        lambda: generate_manifold("sl", AgeRange(0, 110), YearRange(1959, 2009)),
        "death probability of 1 at age 100, year 1959",
    ),
    # the CBD manifold's logit passes about 36.7 only on age windows hundreds of years wide
    "CBD manifold": (
        lambda: generate_manifold("cbd", AgeRange(0, 800), YearRange(1950, 2020)),
        "death probability of 1 at age 634, year 2020",
    ),
    "parse_hmd": (
        lambda: parse_hmd(hmd_without_bad_cells(), "total", AGES, YEARS),
        "requested window not covered: no row for age 61, year 2001",
    ),
    "non-finite": (
        lambda: grid(SurfaceKind.CENTRAL_RATE, 1.0, np.nan),
        "non-finite central_rate at age 61, year 2001",
    ),
    "negative": (
        lambda: grid(SurfaceKind.CENTRAL_RATE, 0.01, -0.01),
        "negative central_rate at age 61, year 2001",
    ),
    "death probability above 1": (
        lambda: grid(SurfaceKind.DEATH_PROB, 0.01, 1.5),
        "death probability above 1 at age 61, year 2001",
    ),
    # the first bad cell is named with its own fault, not the cell of the first kind of fault
    "first bad cell, whatever its fault": (
        lambda: MortalitySurface(
            AGES, YEARS, SurfaceKind.DEATH_PROB,
            np.array([[0.01, 0.01, 0.01], [0.01, 1.0, 0.01], [np.nan, -1.0, 0.01]]),
        ),
        "death probability of 1 at age 61, year 2001",
    ),
    "survival non-finite": (
        lambda: survival([[1.0, 1.0, 1.0], [0.9, np.inf, 0.9], [np.nan, 0.8, 0.8]]),
        "non-finite survival at age 61, year 2001",
    ),
    "survival nonpositive": (
        lambda: survival([[1.0, 1.0, 1.0], [0.9, 0.0, 0.9], [-0.1, 0.0, 0.8]]),
        "nonpositive survival at age 61, year 2001",
    ),
    "survival above 1": (
        lambda: survival([[1.0, 1.0, 1.0], [0.9, 1.5, 0.9], [1.5, 0.8, 0.8]]),
        "survival above 1 at age 61, year 2001",
    ),
    "survival increases": (
        lambda: survival([[1.0, 0.8, 1.0], [0.9, 0.9, 0.9], [0.95, 0.8, 0.8]]),
        "survival increases from age 60 to 61 in year 2001",
    ),
    "sample path non-finite": (
        paths_block(SurfaceKind.DEATH_PROB, 0.01, (1, 2, 1), np.nan),
        "non-finite death_prob at sample path 11, age 62, year 2001",
    ),
    "sample path above 1": (
        paths_block(SurfaceKind.DEATH_PROB, 0.01, (1, 2, 1), 1.5),
        "death probability above 1 at sample path 11, age 62, year 2001",
    ),
    "sample path survival increases": (
        paths_block(SurfaceKind.SURVIVAL, 0.5, (1, 2, 1), 0.9),
        "survival increases from age 61 to 62 in year 2001 on sample path 11",
    ),
    # (alpha1, alpha2) per year: alpha2 below -0.25 breaks ages 61-62, below -0.75 also
    # 60-61; where survival rises into an age, q there is negative
    "SlParams.q_of survival increases": (
        lambda: sl_q_of([[0.0, -0.5], [0.0, -1.0], [0.0, 0.0]]),
        "negative death_prob at age 61, year 2001",
    ),
    # exp overflows where L0 + delta passes 709: at 62 in 2000, at 61 and 62 in 2001,
    # so q is 1 at those cells but NaN at 62 in 2001, where e_61 and e_62 are both inf
    "SlParams.q_of sample path overflow": (
        lambda: sl_q_of(
            np.stack([np.zeros((3, 2)), [[0, 1000], [1000, 1000], [0, 0]]], axis=-1), 10
        ),
        "death probability of 1 at sample path 11, age 61, year 2001",
    ),
    # q rounds to 1 where log m passes about 3.6: at 61 and 62 in 2000 and 2001; log m
    # overflows exp only at 62 in 2000 and at 61 and 62 in 2001
    "LcParams.q_of overflow": (
        lambda: lc_q_of([1000.0, 3000.0, 0.0]),
        "death probability of 1 at age 61, year 2000",
    ),
    "forecast death probability of 1": (
        cbd_forecast_of_one,
        "death probability of 1 at age 60, year 2005",
    ),
    "forecast sample path death probability of 1": (
        lambda: cbd_forecast_of_one(n_paths=3),
        "death probability of 1 at sample path 0, age 60, year 2005",
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_message_text(case):
    call, text = CASES[case]
    with pytest.raises(MortcastError) as exc:
        call()
    assert str(exc.value) == text


def first_bad_value(values, kind):
    """(index, fault) of the first value of ``values`` in C order that ``kind`` does not admit.

    Found by plain loops and comparisons; None if every value is admissible.
    """
    for index in itertools.product(*map(range, values.shape)):
        v = float(values[index])
        if not math.isfinite(v):
            return index, f"non-finite {kind.value}"
        if kind is SurfaceKind.SURVIVAL:
            if v <= 0.0:
                return index, "nonpositive survival"
            if v > 1.0:
                return index, "survival above 1"
        elif v < 0.0:
            return index, f"negative {kind.value}"
        elif kind is SurfaceKind.DEATH_PROB and v > 1.0:
            return index, "death probability above 1"
        elif kind is SurfaceKind.DEATH_PROB and v == 1.0:
            return index, "death probability of 1"
    return None


def first_fault(values, kind, ages, years, first_path=0):
    """The message check_surface_values owes ``values``, found by plain loops; None if valid.

    ``values`` is an (ages, years) grid, or a (paths, ages, years) block
    whose first path has index ``first_path``. The first bad cell by path,
    then age, then year is named with its first fault; only a survival block
    with no bad cell is then searched for a rise in age.
    """
    paths = values if values.ndim == 3 else values[None]
    found = first_bad_value(paths, kind)
    if found is not None:
        (p, i, j), what = found
        cell = f"age {ages.x_min + i}, year {years.t_min + j}"
        if values.ndim == 3:
            cell = f"sample path {first_path + p}, {cell}"
        return f"{what} at {cell}"
    if kind is SurfaceKind.SURVIVAL:
        for p, i, j in itertools.product(*map(range, paths.shape)):
            if i > 0 and paths[p, i, j] > paths[p, i - 1, j]:
                x, t = ages.x_min + i - 1, years.t_min + j
                on = f" on sample path {first_path + p}" if values.ndim == 3 else ""
                return f"survival increases from age {x} to {x + 1} in year {t}{on}"
    return None


@st.composite
def faulty_grids(draw):
    kind = draw(st.sampled_from(list(SurfaceKind)))
    n_paths = draw(st.sampled_from([None, 1, 2, 3]))
    n_ages, n_years = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (n_ages, n_years) if n_paths is None else (n_paths, n_ages, n_years)
    x_min, t_min = draw(st.integers(0, 100)), draw(st.integers(1900, 2100))
    # valid for every kind: survival falls down the ages, anything else lies in [0, 0.5]
    u = draw(hnp.arrays(float, shape, elements=st.floats(0.5, 1.0)))
    values = np.cumprod(u, axis=-2) if kind is SurfaceKind.SURVIVAL else 1.0 - u
    for _ in range(draw(st.integers(0, 3))):
        cell = tuple(draw(st.integers(0, n - 1)) for n in shape)
        fault = draw(
            st.sampled_from(["nan", "inf", "negative", "zero", "one", "above 1", "rising"])
        )
        if fault == "rising":
            *path, i, j = cell
            if i > 0:
                above = (*path, i - 1, j)
                values[cell], values[above] = values[above], values[above] / 2.0
        else:
            values[cell] = {
                "nan": np.nan, "inf": -np.inf, "negative": -5e-324, "zero": 0.0, "one": 1.0,
                "above 1": np.nextafter(1.0, 2.0),
            }[fault]
    first_path = draw(st.integers(0, 10_000))
    ages, years = AgeRange(x_min, x_min + n_ages - 1), YearRange(t_min, t_min + n_years - 1)
    return values, kind, ages, years, first_path


# the array conversion of each kind; survival_to_q reads its last axis as age, so a
# trailing axis of one makes each cell a curve of its own, which cannot rise in age
CONVERSIONS = {
    SurfaceKind.CENTRAL_RATE: central_rate_to_q,
    SurfaceKind.DEATH_PROB: q_to_central_rate,
    SurfaceKind.SURVIVAL: lambda s: survival_to_q(s[..., None]),
}


@settings(max_examples=200, deadline=None)
@given(faulty_grids())
def test_check_names_the_first_bad_cell(case):
    values, _, *window = case
    # the grid is drawn valid for its own kind, then faulted; it is checked as every kind
    for kind in SurfaceKind:
        expected = first_fault(values, kind, *window)
        if expected is None:
            check_surface_values(values, kind, *window)
        else:
            with pytest.raises(DomainError) as exc:
                check_surface_values(values, kind, *window)
            assert str(exc.value) == expected
        # the conversion names the cell the grid check names by age and year, by position
        found = first_bad_value(values, kind)
        if found is None:
            CONVERSIONS[kind](values)
            continue
        index, fault = found
        index += (0,) * (kind is SurfaceKind.SURVIVAL)
        with pytest.raises(DomainError) as exc:
            CONVERSIONS[kind](values)
        assert str(exc.value) == f"{fault} at position {', '.join(map(str, index))}"


@settings(max_examples=200, deadline=None)
@given(faulty_grids())
def test_forecast_check_names_the_first_bad_cell(case):
    values, _, ages, years, first_path = case
    # q as a forecast holds it: path last, as q_of returns it, then checked path first
    q = values if values.ndim == 2 else np.moveaxis(values, 0, -1)
    expected = first_fault(values, SurfaceKind.DEATH_PROB, ages, years, first_path)

    def check():
        if q.ndim == 2:
            MortalitySurface(ages, years, SurfaceKind.DEATH_PROB, q)
        else:
            check_surface_values(_paths_first(q), SurfaceKind.DEATH_PROB, ages, years, first_path)

    if expected is None:
        check()
        return
    with pytest.raises(DomainError) as exc:
        check()
    assert str(exc.value) == expected


@st.composite
def sl_blocks(draw):
    """SL params and states; large states make exp overflow or curves rise in age."""
    n_ages, n_years = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    n_paths = draw(st.sampled_from([None, 1, 3]))
    ages = AgeRange(60, 60 + n_ages - 1)
    params = SlParams(
        alpha1=np.zeros(3), alpha2=np.zeros(3),
        kappa=draw(hnp.arrays(float, n_ages, elements=st.floats(-1.0, 1.0))),
        # a survival curve, falling or flat in age; large states make curves rise
        base_survival=-np.sort(-draw(hnp.arrays(float, n_ages, elements=st.floats(0.01, 0.99)))),
        t0=YEARS.t_min - 1, ages=ages, years=YEARS,
    )
    shape = (n_years, 2) if n_paths is None else (n_years, 2, n_paths)
    state = st.one_of(st.floats(-8.0, 8.0), st.sampled_from([-1000.0, 1000.0]))
    states = draw(hnp.arrays(float, shape, elements=state))
    t_min = draw(st.integers(1900, 2100))
    return params, states, YearRange(t_min, t_min + n_years - 1)


@settings(max_examples=200, deadline=None)
@given(sl_blocks())
def test_sl_forecast_names_the_first_bad_q_cell(case):
    params, states, years = case
    # q_of never raises, nor warns (warnings are errors here), and never gives -0.0
    q = params.q_of(states)
    assert q.shape == (len(params.ages), *states[:, 0].shape)
    assert not np.any((q == 0.0) & np.signbit(q))
    expected = first_fault(_paths_first(q), SurfaceKind.DEATH_PROB, params.ages, years)
    check = q_surface if q.ndim == 2 else _raise_first_fault
    if expected is None:
        check(params, states, years)
        return
    with pytest.raises(DomainError) as exc:
        check(params, states, years)
    assert str(exc.value) == expected
