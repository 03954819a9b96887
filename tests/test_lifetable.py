import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import (
    AgeRange,
    DomainError,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    central_rate_to_q,
    curve_of_deaths,
    q_to_central_rate,
    q_to_survival,
    surface_q_to_survival,
    survival_to_q,
)


def make_surface(values, kind=SurfaceKind.CENTRAL_RATE, x_min=60, t_min=2000):
    values = np.asarray(values, dtype=float)
    return MortalitySurface(
        ages=AgeRange(x_min, x_min + values.shape[0] - 1),
        years=YearRange(t_min, t_min + values.shape[1] - 1),
        kind=kind,
        values=values,
    )


def vectors(low, high):
    """Float vectors of 1-40 entries in [low, high]."""
    return hnp.arrays(float, st.integers(1, 40), elements=st.floats(low, high))


class TestRanges:
    def test_age_range_basics(self):
        r = AgeRange(60, 64)
        assert len(r) == 5
        assert 60 in r and 64 in r and 59 not in r
        assert list(r) == [60, 61, 62, 63, 64]
        assert r.index(62) == 2
        np.testing.assert_array_equal(r.to_array(), [60, 61, 62, 63, 64])
        assert r.covers(AgeRange(61, 63))
        assert not r.covers(AgeRange(55, 63))

    def test_age_range_rejects_bad_windows(self):
        with pytest.raises(DomainError):
            AgeRange(70, 60)
        with pytest.raises(DomainError):
            AgeRange(-1, 5)
        with pytest.raises(DomainError):
            AgeRange(60, 64).index(70)

    def test_year_range_basics(self):
        r = YearRange(1960, 1962)
        assert len(r) == 3
        assert list(r) == [1960, 1961, 1962]
        assert r.index(1961) == 1
        with pytest.raises(DomainError):
            YearRange(1990, 1989)
        with pytest.raises(DomainError):
            r.index(1959)


class TestMortalitySurface:
    def test_shape_must_match_ranges(self):
        with pytest.raises(DomainError):
            MortalitySurface(
                ages=AgeRange(60, 61),
                years=YearRange(2000, 2002),
                kind=SurfaceKind.CENTRAL_RATE,
                values=np.zeros((2, 2)),
            )
        with pytest.raises(DomainError):
            MortalitySurface(
                ages=AgeRange(60, 62),
                years=YearRange(2000, 2001),
                kind=SurfaceKind.CENTRAL_RATE,
                values=np.zeros((2, 2)),
            )

    def test_nan_rejected_with_cell(self):
        values = np.ones((2, 2))
        values[1, 0] = np.nan
        with pytest.raises(DomainError, match="61.*2000"):
            make_surface(values)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            make_surface([[-0.1, 0.2], [0.3, 0.4]])

    def test_death_prob_bounds(self):
        # [0, 1): a q of 1 would make survival zero, where log(-log S) and logit are undefined
        make_surface([[0.0, np.nextafter(1.0, 0.0)]], kind=SurfaceKind.DEATH_PROB)
        with pytest.raises(DomainError, match="^death probability of 1 at age 60, year 2001$"):
            make_surface([[0.0, 1.0]], kind=SurfaceKind.DEATH_PROB)
        with pytest.raises(DomainError, match="^death probability above 1 at age 60, year 2001$"):
            make_surface([[0.5, 1.1]], kind=SurfaceKind.DEATH_PROB)

    def test_values_frozen(self):
        s = make_surface([[0.1, 0.2]])
        with pytest.raises(ValueError):
            s.values[0, 0] = 9.9

    def test_accessors(self):
        s = make_surface([[0.1, 0.2], [0.3, 0.4]])
        assert s.values[1, 0] == 0.3
        np.testing.assert_array_equal(s.column(2001), [0.2, 0.4])
        sub = s.subset(ages=AgeRange(61, 61))
        assert sub.values.shape == (1, 2)
        assert sub.values[0, 1] == 0.4
        with pytest.raises(DomainError):
            s.subset(ages=AgeRange(60, 70))


class TestSurvivalSurface:
    def test_bounds_and_monotonicity(self):
        MortalitySurface(
            ages=AgeRange(60, 61), years=YearRange(2000, 2000), kind=SurfaceKind.SURVIVAL,
            values=np.array([[1.0], [0.9]]),
        )
        with pytest.raises(DomainError):
            MortalitySurface(
                ages=AgeRange(60, 61), years=YearRange(2000, 2000), kind=SurfaceKind.SURVIVAL,
                values=np.array([[0.8], [0.9]]),  # increasing in age
            )
        with pytest.raises(DomainError):
            MortalitySurface(
                ages=AgeRange(60, 60), years=YearRange(2000, 2000), kind=SurfaceKind.SURVIVAL,
                values=np.array([[0.0]]),
            )

    def test_subset_keeps_the_anchor_age(self):
        s = make_surface([[1.0, 0.9], [0.9, 0.8], [0.8, 0.7]], kind=SurfaceKind.SURVIVAL)
        sub = s.subset(ages=AgeRange(60, 61), years=YearRange(2001, 2001))
        np.testing.assert_array_equal(sub.values, [[0.9], [0.8]])
        assert sub.kind is SurfaceKind.SURVIVAL
        with pytest.raises(DomainError, match="at age 60, so a subset cannot start at age 61$"):
            s.subset(ages=AgeRange(61, 62))


class TestRateConversions:
    def test_central_rate_to_q_values(self):
        assert central_rate_to_q(0.0) == 0.0
        assert central_rate_to_q(np.log(2.0)) == pytest.approx(0.5, abs=1e-15)
        # high-precision oracle for 1 - exp(-0.01)
        assert central_rate_to_q(0.01) == pytest.approx(0.009950166250831946, abs=1e-17)

    def test_central_rate_to_q_domain(self):
        with pytest.raises(DomainError):
            central_rate_to_q(-0.001)
        with pytest.raises(DomainError):
            central_rate_to_q(np.inf)

    def test_q_to_central_rate_values(self):
        assert q_to_central_rate(0.0) == 0.0
        assert q_to_central_rate(0.5) == pytest.approx(np.log(2.0), abs=1e-15)
        assert q_to_central_rate(0.00995016625) == pytest.approx(0.01, abs=1e-12)

    def test_q_to_central_rate_domain(self):
        for bad in (1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                q_to_central_rate(bad)

    @settings(max_examples=40, deadline=None)
    @given(m=vectors(0.0, 5.0), q=vectors(0.0, 0.99))
    def test_rate_round_trip(self, m, q):
        np.testing.assert_allclose(q_to_central_rate(central_rate_to_q(m)), m, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(central_rate_to_q(q_to_central_rate(q)), q, rtol=1e-12, atol=0.0)

    def test_array_in_scalar_out_contract(self):
        out = central_rate_to_q(np.array([0.0, np.log(2.0)]))
        assert isinstance(out, np.ndarray)
        assert isinstance(central_rate_to_q(0.3), float)


class TestSurvivalConversions:
    def test_q_to_survival_values(self):
        np.testing.assert_array_equal(q_to_survival([0.0, 0.0, 0.0]), [1, 1, 1])
        np.testing.assert_allclose(q_to_survival([0.5, 0.5, 0.5]), [0.5, 0.25, 0.125])
        np.testing.assert_allclose(q_to_survival([0.1, 0.2, 0.3]), [0.9, 0.72, 0.504])

    def test_q_of_one_rejected(self):
        with pytest.raises(DomainError):
            q_to_survival([0.1, 1.0, 0.3])

    def test_survival_to_q_values(self):
        np.testing.assert_array_equal(survival_to_q([1.0, 1.0, 1.0]), [0, 0, 0])
        np.testing.assert_allclose(survival_to_q([0.5, 0.25, 0.125]), [0.5, 0.5, 0.5])
        np.testing.assert_allclose(
            survival_to_q([0.9, 0.72, 0.504]), [0.1, 0.2, 0.3], atol=1e-14
        )

    def test_survival_to_q_domain(self):
        with pytest.raises(DomainError, match="increases"):
            survival_to_q([0.5, 0.6])
        with pytest.raises(DomainError):
            survival_to_q([0.5, 0.0])
        with pytest.raises(DomainError):
            survival_to_q([1.2, 0.5])

    @settings(max_examples=40, deadline=None)
    @given(q=vectors(0.0, 0.99), ratios=vectors(0.01, 1.0))
    def test_round_trip_random(self, q, ratios):
        np.testing.assert_allclose(survival_to_q(q_to_survival(q)), q, rtol=0.0, atol=1e-12)
        s = np.cumprod(ratios)
        np.testing.assert_allclose(q_to_survival(survival_to_q(s)), s, rtol=1e-12, atol=0.0)

    def test_survival_to_q_stack_matches_rows(self):
        rng = np.random.default_rng(12)
        s = np.sort(rng.uniform(0.05, 1.0, size=(4, 3, 9)), axis=-1)[..., ::-1]
        out = survival_to_q(s)
        for idx in np.ndindex(4, 3):
            np.testing.assert_array_equal(out[idx], survival_to_q(s[idx]))

    def test_survival_to_q_stack_names_curve(self):
        s = np.tile([0.9, 0.8, 0.7], (2, 3, 1))
        s[1, 2] = [0.9, 0.8, 0.85]
        with pytest.raises(DomainError, match="positions 1 and 2 of curve \\(1, 2\\)") as err:
            survival_to_q(s)

    def test_monotonicity(self):
        q = np.array([0.0, 0.1, 0.0, 0.2])
        s = q_to_survival(q)
        assert s[0] == 1.0 and s[1] < s[0] and s[2] == s[1] and s[3] < s[2]


class TestCurveOfDeaths:
    def test_values(self):
        np.testing.assert_allclose(curve_of_deaths([0.5, 0.5, 0.5]), [0.5, 0.25, 0.125])
        np.testing.assert_array_equal(curve_of_deaths([0.0, 0.0, 0.0]), [0, 0, 0])
        r = curve_of_deaths([0.1, 0.2, 0.3])
        np.testing.assert_allclose(r, [0.1, 0.18, 0.216])
        assert 1.0 - r.sum() == pytest.approx(0.504, abs=1e-15)

    def test_closure_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q = rng.uniform(0.0, 0.99, size=rng.integers(1, 40))
            r = curve_of_deaths(q)
            s_last = q_to_survival(q)[-1]
            assert r.sum() + s_last == pytest.approx(1.0, abs=1e-12)


class TestSurfaceQToSurvival:
    def test_matches_columnwise(self):
        q = np.array([[0.1, 0.05], [0.2, 0.15], [0.3, 0.25]])
        surf = surface_q_to_survival(make_surface(q, kind=SurfaceKind.DEATH_PROB))
        assert surf.kind is SurfaceKind.SURVIVAL and surf.ages.x_min == 60
        for j in range(2):
            np.testing.assert_allclose(surf.values[:, j], q_to_survival(q[:, j]))

    def test_all_zero_q(self):
        surf = surface_q_to_survival(make_surface(np.zeros((3, 2)), kind=SurfaceKind.DEATH_PROB))
        np.testing.assert_array_equal(surf.values, np.ones((3, 2)))

    def test_rejects_wrong_kind_and_boundary(self):
        with pytest.raises(DomainError):
            surface_q_to_survival(make_surface([[0.1]], kind=SurfaceKind.CENTRAL_RATE))
        q = np.array([[0.1, 0.2], [1.0, 0.3]])
        with pytest.raises(DomainError, match="61.*2000"):
            surface_q_to_survival(make_surface(q, kind=SurfaceKind.DEATH_PROB))
