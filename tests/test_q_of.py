"""Each model's q_of: SL's precision, LC's and CBD's bits, and no -0.0.

SL computes q from its cumulative hazard e = exp(L0 + (alpha1 + alpha2 *
kappa)): 0.0 - expm1(-e) at the base age and 0.0 - expm1(e_{x-1} - e_x)
above it. Its q is checked against the same expression evaluated in
np.longdouble from the same float inputs, within a bound propagated
through every float operation. LC and CBD keep the expressions they had
before SL's change, so their q is checked bit for bit against those.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import AgeRange, CbdParams, LcParams, SlParams, YearRange
from mortcast.cli import main

YEARS = YearRange(2000, 2002)
LD = np.longdouble

# Error per operation, relative to its result. Float64 arithmetic is
# correctly rounded: half an ulp, at most 2**-53. numpy's test suite holds
# float64 exp, log and expm1 to 1 ulp of the correctly rounded result
# (numpy/_core/tests/data/umath-validation-set-*.csv): 1.5 ulp, at most
# 1.5 * 2**-52. The longdouble reference errs too; its operations are
# taken to be within 2 ulp of its own precision.
LD_ULP = float(np.finfo(LD).eps)
ARITH = 2.0**-53 + 2.0 * LD_ULP
TRANS = 1.5 * 2.0**-52 + 2.0 * LD_ULP
# The propagation below is first order. For the cases drawn here (e < 550)
# every error it propagates, relative for the other steps and absolute for
# the increments that expm1 takes, is below 2**-35, so the second-order
# terms it drops are below 2**-35 of the bound; this factor covers them.
SECOND_ORDER = 1.0 + 2.0**-30


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def sl_q_bound(a1, a2, kappa, base):
    """The longdouble q of SL's hazard form and a bound on the float q's distance from it.

    ``a1``/``a2`` are (n_years[, n_paths]) states, ``kappa``/``base``
    (n_ages,). Each step's absolute error is what its inputs carry in,
    through the step's derivative, plus its own rounding, ARITH or TRANS
    times the result's magnitude:

    - P = a2 * k, D = a1 + P: E_P = ARITH |P|, E_D = E_P + ARITH |D|;
    - N = -log(b), L0 = log(N): E_N = TRANS N, E_L0 = E_N / N + TRANS |L0|;
    - S = L0 + D: E_S = E_L0 + E_D + ARITH |S|;
    - e = exp(S): E_e = e (E_S + TRANS);
    - d = -e_x0 at the base age, exactly, and e_{x-1} - e_x above it:
      E_d = E_e at the base age, E_{e,x-1} + E_{e,x} + ARITH |d| above;
    - m = expm1(d): E_m = exp(d) E_d + TRANS |m|, and q = 0.0 - m exactly.
    """
    shape = (-1,) + (1,) * np.ndim(a1)
    k, b = LD(kappa).reshape(shape), LD(base).reshape(shape)
    p = LD(a2) * k
    d = LD(a1) + p
    n = -np.log(b)
    l0 = np.log(n)
    s = l0 + d
    e = np.exp(s)
    inc = np.concatenate([-e[:1], e[:-1] - e[1:]])
    m = np.expm1(inc)
    q = -m

    p, d, l0, s, e, inc, m = (np.abs(v.astype(float)) for v in (p, d, l0, s, e, inc, m))
    err_d = ARITH * p + ARITH * d
    err_l0 = TRANS + TRANS * l0
    err_s = err_l0 + err_d + ARITH * s
    err_e = e * (err_s + TRANS)
    err_inc = np.concatenate([err_e[:1], err_e[:-1] + err_e[1:] + ARITH * inc[1:]])
    # exp(d) <= exp(|d|) bounds expm1's derivative whatever the sign of d
    err_m = np.exp(inc) * err_inc + TRANS * m
    return q, SECOND_ORDER * err_m


@st.composite
def sl_cases(draw):
    """SL params and states in the normal range: e < 550 <= 700 in every cell.

    With base survival at least 1e-4, |kappa| <= 1 and |alpha1|, |alpha2|
    <= 2, L0 + delta stays below log(-log(1e-4)) + 4 < 6.3.
    """
    n_ages, n_years = draw(st.integers(2, 8)), draw(st.integers(1, 4))
    n_paths = draw(st.sampled_from([None, 1, 3]))
    ages = AgeRange(60, 60 + n_ages - 1)
    params = SlParams(
        alpha1=np.zeros(3), alpha2=np.zeros(3),
        kappa=draw(hnp.arrays(float, n_ages, elements=st.floats(-1.0, 1.0))),
        # a survival curve: falling or flat in age
        base_survival=-np.sort(-draw(hnp.arrays(float, n_ages, elements=st.floats(1e-4, 0.9999)))),
        t0=YEARS.t_min - 1, ages=ages, years=YEARS,
    )
    shape = (n_years, 2) if n_paths is None else (n_years, 2, n_paths)
    states = draw(hnp.arrays(float, shape, elements=st.floats(-2.0, 2.0)))
    return params, states


@pytest.mark.skipif(
    np.finfo(LD).nmant < 63, reason="needs an extended-precision longdouble as the reference"
)
@settings(max_examples=300, deadline=None)
@given(sl_cases())
def test_sl_q_is_within_the_propagated_rounding_bound(case):
    params, states = case
    q = params.q_of(states)
    expected, bound = sl_q_bound(states[:, 0], states[:, 1], params.kappa, params.base_survival)
    assert np.all(np.abs(LD(q) - expected) <= bound)


def test_sl_zero_increment_gives_positive_zero(tmp_path):
    # equal base survival and kappa at 60 and 61 make e_60 == e_61, where
    # -expm1(+0.0) would be -0.0
    params = SlParams(
        alpha1=np.array([0.0, 0.01, 0.02]), alpha2=np.array([0.0, 0.05, 0.1]),
        kappa=np.array([-0.5, -0.5, 1.0]) / np.sqrt(1.5),
        base_survival=np.array([0.9, 0.9, 0.8]), t0=1999, ages=AgeRange(60, 62), years=YEARS,
    )
    q = params.q_of(np.array([[0.03, 0.15], [0.04, 0.2]]))
    assert np.all(q[1] == 0.0) and not np.any(np.signbit(q))

    # the same params, forecast through the CLI: the walk has no noise and
    # continues the drifts, so e_60 == e_61 in every forecast year too
    lines = ["# model = sl", "# x_min = 60", "# x_max = 62", "# t_min = 2000", "# t_max = 2002",
             "param,index,value"]
    for name, index in (("alpha1", YEARS), ("alpha2", YEARS), ("kappa", params.ages),
                        ("base_survival", params.ages)):
        lines += [f"{name},{i},{v!r}" for i, v in zip(index, getattr(params, name).tolist())]
    (tmp_path / "params.csv").write_text("\n".join([*lines, "t0,,1999", ""]))
    out = tmp_path / "fc"
    assert main(["forecast", "--params", str(tmp_path / "params.csv"), "--horizon", "3",
                 "--out", str(out)]) == 0
    cells = [line.split(",")[2] for line in (out / "forecast.csv").read_text().splitlines()
             if line[:1].isdigit()]
    assert "0" in cells and "-0" not in cells


state_floats = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-1000.0, 1000.0]))


@st.composite
def benchmark_cases(draw, dim):
    """An age window, an age constant over it, states, and whether to pass ``out``.

    The states reach +-1000, where exp overflows and q is 1 or 0.
    """
    n_ages, n_years = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    n_paths = draw(st.sampled_from([None, 1, 3]))
    per_age = draw(hnp.arrays(float, n_ages, elements=st.floats(-8.0, 8.0)))
    shape = (n_years, dim) if n_paths is None else (n_years, dim, n_paths)
    states = draw(hnp.arrays(float, shape, elements=state_floats))
    return AgeRange(60, 60 + n_ages - 1), per_age, states, draw(st.booleans())


def q_with(params, states, use_out):
    """params.q_of(states), given a scratch ``out`` of garbage if ``use_out``."""
    if not use_out:
        return params.q_of(states)
    out = np.full((len(params.ages), *states[:, 0].shape), np.nan)
    got = params.q_of(states, out=out)
    assert got is out
    return got


@settings(max_examples=200, deadline=None)
@given(benchmark_cases(dim=1), st.floats(-2.0, 2.0))
def test_lc_q_is_the_parents_expression_bit_for_bit(case, beta_scale):
    ages, alpha, states, use_out = case
    n = len(ages)
    beta = np.full(n, 1.0 / n) + beta_scale * (np.arange(n) - (n - 1) / 2.0) / n
    params = LcParams(alpha_x=alpha, beta_x=beta / beta.sum(), kappa_t=np.zeros(2), ages=ages,
                      years=YearRange(2000, 2001))
    shape = (-1,) + (1,) * (states.ndim - 1)
    with np.errstate(over="ignore"):
        m = np.exp(params.alpha_x.reshape(shape) + params.beta_x.reshape(shape) * states[:, 0])
    expected = -np.expm1(-m)
    np.testing.assert_array_equal(bits(q_with(params, states, use_out)), bits(expected))


@settings(max_examples=200, deadline=None)
@given(benchmark_cases(dim=2))
def test_cbd_q_is_the_parents_expression_bit_for_bit(case):
    ages, _, states, use_out = case
    params = CbdParams(kappa1_t=np.zeros(2), kappa2_t=np.zeros(2),
                       x_bar=(ages.x_min + ages.x_max) / 2.0, ages=ages,
                       years=YearRange(2000, 2001))
    cx = (ages.to_array() - params.x_bar).reshape((-1,) + (1,) * (states.ndim - 1))
    with np.errstate(over="ignore"):
        expected = 1.0 / (1.0 + np.exp(-(states[:, 0] + cx * states[:, 1])))
    np.testing.assert_array_equal(bits(q_with(params, states, use_out)), bits(expected))
