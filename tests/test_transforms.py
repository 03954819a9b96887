import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import (
    AgeRange,
    DomainError,
    LDiffSurface,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    build_l_diff,
    invert_l_diff,
    l_inverse,
    l_transform,
    logit,
)
from mortcast.transforms import logistic

# log(log 2) and exp(-e), pinned at full double precision
LOG_LOG_2 = -0.36651292058166433
EXP_NEG_E = 0.06598803584531254
# L(0.95) - L(0.9), pinned at full double precision
DELTA_95_90 = -0.7198279217297193


def make_survival(values, base_age=60, t_min=2000):
    values = np.asarray(values, dtype=float)
    return MortalitySurface(
        ages=AgeRange(base_age, base_age + values.shape[0] - 1),
        years=YearRange(t_min, t_min + values.shape[1] - 1),
        kind=SurfaceKind.SURVIVAL,
        values=values,
    )


@st.composite
def survival_windows(draw):
    """A survival surface of 1-12 ages and 2-6 years, a reference year t0 and a fit window after it.

    Each curve is a running product of survival ratios in [0.05, 0.999], so
    every cell lies inside the domain of the log(-log) transform.
    """
    n_ages, n_years = draw(st.integers(1, 12)), draw(st.integers(2, 6))
    ratios = draw(hnp.arrays(float, (n_ages, n_years), elements=st.floats(0.05, 0.999)))
    surv = make_survival(np.cumprod(ratios, axis=0), base_age=draw(st.integers(0, 100)),
                         t_min=draw(st.integers(1900, 2100)))
    t0 = draw(st.integers(surv.years.t_min, surv.years.t_max - 1))
    fit_years = YearRange(draw(st.integers(t0 + 1, surv.years.t_max)), surv.years.t_max)
    return surv, t0, fit_years


class TestLTransform:
    def test_values(self):
        assert l_transform(np.exp(-1.0)) == pytest.approx(0.0, abs=1e-15)
        assert l_transform(EXP_NEG_E) == pytest.approx(1.0, abs=1e-14)
        assert l_transform(0.5) == pytest.approx(LOG_LOG_2, abs=1e-16)

    def test_domain(self):
        for bad in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                l_transform(bad)
        # values this close to 1 are outside the usable domain
        with pytest.raises(DomainError):
            l_transform(1.0 - 1e-16)

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(5)
        s = np.sort(rng.uniform(1e-12, 0.999999, size=500))
        vals = l_transform(s)
        assert np.all(np.diff(vals) < 0)

    def test_array_shape(self):
        out = l_transform(np.array([[0.5, 0.9], [0.1, 0.2]]))
        assert out.shape == (2, 2)


class TestLInverse:
    def test_values(self):
        assert l_inverse(0.0) == pytest.approx(np.exp(-1.0), abs=1e-16)
        assert l_inverse(1.0) == pytest.approx(EXP_NEG_E, abs=1e-16)

    @settings(max_examples=40, deadline=None)
    @given(
        s=hnp.arrays(float, st.integers(1, 40), elements=st.floats(1e-9, 0.999)),
        y=hnp.arrays(float, st.integers(1, 40), elements=st.floats(-20.0, 3.0)),
    )
    def test_round_trips(self, s, y):
        np.testing.assert_allclose(l_inverse(l_transform(s)), s, rtol=0.0, atol=1e-12)
        # near y = -20, S = exp(-exp(y)) is within 1e-8 of 1 and keeps only half its digits
        np.testing.assert_allclose(l_transform(l_inverse(y)), y, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            l_inverse(np.nan)
        with pytest.raises(DomainError):
            l_inverse(np.inf)


class TestLogit:
    def test_values(self):
        assert logit(0.5) == 0.0
        assert logit(0.25) == pytest.approx(-1.0986122886681098, abs=1e-15)
        assert logit(0.3) == pytest.approx(-logit(0.7), abs=1e-15)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                logit(bad)


class TestLogistic:
    def test_inverts_logit(self):
        p = np.linspace(0.001, 0.999, 41)
        np.testing.assert_allclose(logistic(logit(p)), p, rtol=1e-14)
        assert logistic(0.0) == 0.5

    def test_saturates_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(logistic([-1000.0, 1000.0]), [0.0, 1.0])


class TestBuildLDiff:
    def test_constant_surface_gives_zero(self):
        col = np.array([0.95, 0.9, 0.8])
        surv = make_survival(np.column_stack([col, col, col]), t_min=1999)
        delta = build_l_diff(surv, t0=1999)
        assert delta.t0 == 1999
        assert delta.years == YearRange(2000, 2001)
        np.testing.assert_allclose(delta.values, 0.0, atol=1e-14)
        np.testing.assert_array_equal(delta.base_survival, col)

    def test_scalar_identity(self):
        surv = make_survival(np.array([[0.9, 0.95]]), t_min=1999)
        delta = build_l_diff(surv, t0=1999)
        expected = l_transform(0.95) - l_transform(0.9)
        assert expected == pytest.approx(DELTA_95_90, abs=1e-15)
        assert delta.values[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_default_t0_and_window(self):
        surv = make_survival(np.array([[0.9, 0.8, 0.7]]), t_min=1999)
        delta = build_l_diff(surv, t0=1999)
        assert delta.t0 == 1999
        assert delta.years == YearRange(2000, 2001)

    def test_explicit_fit_years(self):
        surv = make_survival(np.array([[0.9, 0.8, 0.7, 0.6]]), t_min=1999)
        delta = build_l_diff(surv, t0=1999, fit_years=YearRange(2001, 2002))
        assert delta.years == YearRange(2001, 2002)
        assert delta.values.shape == (1, 2)

    def test_t0_inside_fit_years_rejected(self):
        surv = make_survival(np.array([[0.9, 0.8, 0.7]]), t_min=1999)
        with pytest.raises(DomainError):
            build_l_diff(surv, t0=2000, fit_years=YearRange(2000, 2001))

    def test_t0_outside_data_rejected(self):
        surv = make_survival(np.array([[0.9, 0.8]]), t_min=2000)
        with pytest.raises(DomainError):
            build_l_diff(surv, t0=1998)

    def test_other_kinds_rejected(self):
        q = MortalitySurface(AgeRange(60, 61), YearRange(2000, 2001), SurfaceKind.DEATH_PROB,
                             np.full((2, 2), 0.1))
        with pytest.raises(DomainError, match="^expected a survival surface, got death_prob$"):
            build_l_diff(q, t0=2000)

    def test_boundary_survival_cell_named(self):
        values = np.array([[1.0, 0.9], [0.9, 0.8]])
        surv = make_survival(values, t_min=1999)
        with pytest.raises(DomainError, match="60.*1999"):
            build_l_diff(surv, t0=1999)

    @settings(max_examples=50, deadline=None)
    @given(survival_windows(), st.data())
    def test_reference_survival_of_one_names_age_and_year(self, case, data):
        surv, t0, fit_years = case
        values = surv.values.copy()
        j = surv.years.index(t0)
        # the first k ages of the reference curve at or above 1 - 1e-15, still non-increasing
        k = data.draw(st.integers(1, len(surv.ages)))
        top = data.draw(st.lists(st.floats(1.0 - 1e-15, 1.0), min_size=k, max_size=k))
        values[:k, j] = sorted(top, reverse=True)
        bad = make_survival(values, base_age=surv.ages.x_min, t_min=surv.years.t_min)
        with pytest.raises(DomainError) as exc:
            build_l_diff(bad, t0=t0, fit_years=fit_years)
        assert str(exc.value) == (
            f"base survival {max(top)} at age {surv.ages.x_min}, year {t0} "
            "is outside (0, 1 - 1e-15)"
        )


class TestInvertLDiff:
    def test_zero_delta_returns_base(self):
        base = np.array([0.95, 0.9, 0.7])
        np.testing.assert_allclose(invert_l_diff(np.zeros(3), base), base, atol=1e-14)

    def test_scalar_identity(self):
        out = invert_l_diff(np.array([DELTA_95_90]), np.array([0.9]))
        assert out[0] == pytest.approx(0.95, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(survival_windows())
    def test_round_trip_with_build(self, case):
        surv, t0, fit_years = case
        delta = build_l_diff(surv, t0=t0, fit_years=fit_years)
        np.testing.assert_array_equal(delta.base_survival, surv.column(t0))
        # invert_l_diff takes age on the last axis
        recovered = invert_l_diff(delta.values.T, delta.base_survival).T
        expected = surv.subset(years=fit_years).values
        np.testing.assert_allclose(recovered, expected, rtol=0.0, atol=1e-12)

    def test_stack_matches_columns(self):
        rng = np.random.default_rng(22)
        base = np.array([0.95, 0.9, 0.7])
        delta = rng.normal(scale=0.3, size=(5, 2, 3))
        out = invert_l_diff(delta, base)
        for idx in np.ndindex(5, 2):
            np.testing.assert_array_equal(out[idx], invert_l_diff(delta[idx], base))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            invert_l_diff(np.zeros(3), np.array([0.9, 0.8]))
        with pytest.raises(DomainError):
            invert_l_diff(np.zeros((3, 2)), np.array([0.9, 0.8, 0.7]))


class TestLDiffSurface:
    def test_years_must_follow_t0(self):
        with pytest.raises(DomainError):
            LDiffSurface(
                t0=2000,
                base_survival=np.array([0.9]),
                ages=AgeRange(60, 60),
                years=YearRange(2000, 2001),
                values=np.zeros((1, 2)),
            )
