import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mortcast import (
    AgeRange,
    DomainError,
    FitConfig,
    LDiffSurface,
    RwdParams,
    SlParams,
    SynthConfig,
    YearRange,
    build_l_diff,
    fit_sl,
    generate_synthetic,
    init_sl,
    invert_l_diff,
    l_inverse,
    l_transform,
    normalize_gauge,
    sl_forecast,
    sl_objective,
    surface_q_to_survival,
    survival_to_q,
)
from mortcast.lifetable import surface_central_rate_to_q

INV_SQRT_2 = 0.7071067811865476
SQRT_2 = 1.4142135623730951


def unit_kappa(raw):
    centered = raw - raw.mean()
    k = centered / np.linalg.norm(centered)
    return k if k[-1] >= 0 else -k


def manifold_delta(rng, n_ages=8, n_years=10, x_min=60, t_min=2000, noise_sd=0.0):
    """Noiseless (or jittered) surface lying exactly on the model manifold."""
    kappa = unit_kappa(rng.normal(size=n_ages))
    alpha1 = rng.normal(scale=0.3, size=n_years)
    alpha2 = rng.uniform(0.3, 1.2, size=n_years)
    values = alpha1[None, :] + alpha2[None, :] * kappa[:, None]
    if noise_sd > 0.0:
        values = values + rng.normal(scale=noise_sd, size=values.shape)
    ages = AgeRange(x_min, x_min + n_ages - 1)
    years = YearRange(t_min, t_min + n_years - 1)
    base = np.linspace(0.95, 0.5, n_ages)
    delta = LDiffSurface(
        t0=t_min - 1, base_survival=base, ages=ages, years=years, values=values
    )
    truth = SlParams(
        alpha1=alpha1, alpha2=alpha2, kappa=kappa, base_survival=base, t0=t_min - 1,
        ages=ages, years=years,
    )
    return delta, truth


def zero_delta(n_ages=5, n_years=4):
    return LDiffSurface(
        t0=1999,
        base_survival=np.linspace(0.9, 0.6, n_ages),
        ages=AgeRange(60, 60 + n_ages - 1),
        years=YearRange(2000, 2000 + n_years - 1),
        values=np.zeros((n_ages, n_years)),
    )


class TestObjective:
    def test_exact_params_give_zero(self):
        rng = np.random.default_rng(1)
        delta, truth = manifold_delta(rng)
        assert sl_objective(delta, truth) == 0.0

    def test_sum_of_squares(self):
        delta = zero_delta(n_ages=2, n_years=2)
        params = SlParams(
            alpha1=np.array([1.0, 0.0]),
            alpha2=np.zeros(2),
            kappa=np.array([-1.0, 1.0]),
            base_survival=delta.base_survival,
            t0=1999,
            ages=delta.ages,
            years=delta.years,
        )
        # residual is -1 in the first column only
        assert sl_objective(delta, params) == 2.0

    def test_range_mismatch(self):
        rng = np.random.default_rng(2)
        delta, _ = manifold_delta(rng)
        _, truth = manifold_delta(rng, t_min=2005)
        with pytest.raises(DomainError):
            sl_objective(delta, truth)


class TestParams:
    def test_base_survival_and_t0_are_checked(self):
        good = dict(
            alpha1=np.zeros(2), alpha2=np.zeros(2), kappa=np.array([-1.0, 1.0]),
            base_survival=np.array([0.9, 0.8]), t0=1999,
            ages=AgeRange(60, 61), years=YearRange(2000, 2001),
        )
        assert not SlParams(**good).base_survival.flags.writeable
        for bad in (
            {"base_survival": np.array([0.9])},
            {"base_survival": np.array([0.9, 1.0])},
            {"base_survival": np.array([0.9, np.nan])},
            {"t0": 1999.5},
        ):
            with pytest.raises(DomainError):
                SlParams(**{**good, **bad})


class TestInit:
    def test_zero_surface_gives_zero_alphas(self):
        start = init_sl(zero_delta())
        np.testing.assert_array_equal(start.alpha1, 0.0)
        np.testing.assert_array_equal(start.alpha2, 0.0)
        x = start.ages.to_array()
        np.testing.assert_array_equal(start.kappa, x - x.mean())

    def test_matches_per_year_least_squares(self):
        rng = np.random.default_rng(3)
        delta, _ = manifold_delta(rng, n_ages=6, n_years=5, noise_sd=0.2)
        start = init_sl(delta)
        for j in range(5):
            slope, intercept = np.polyfit(start.kappa, delta.values[:, j], 1)
            assert start.alpha2[j] == pytest.approx(slope, abs=1e-12)
            assert start.alpha1[j] == pytest.approx(intercept, abs=1e-12)

    def test_affine_columns_reproduced_exactly(self):
        x = np.arange(4, dtype=float)
        kappa0 = x - x.mean()
        values = np.column_stack([0.5 + 2.0 * kappa0, -1.0 - 0.25 * kappa0])
        delta = LDiffSurface(
            t0=1999,
            base_survival=np.linspace(0.9, 0.6, 4),
            ages=AgeRange(60, 63),
            years=YearRange(2000, 2001),
            values=values,
        )
        start = init_sl(delta)
        np.testing.assert_allclose(start.fitted_surface(), values, atol=1e-14)


class TestFitConfig:
    def test_gamma_bounds(self):
        for bad in (0.0, 2.0, -0.5, 2.5):
            with pytest.raises(DomainError):
                FitConfig(gamma=bad)
        FitConfig(gamma=1.999)

    def test_other_knobs(self):
        with pytest.raises(DomainError):
            FitConfig(epsilon=0.0)
        with pytest.raises(DomainError):
            FitConfig(k_max=0)


class TestNormalizeGauge:
    def test_hand_example(self):
        params = SlParams(
            alpha1=np.array([0.0]),
            alpha2=np.array([1.0]),
            kappa=np.array([1.0, 2.0, 3.0]),
            base_survival=np.array([0.9, 0.8, 0.7]),
            t0=1999,
            ages=AgeRange(60, 62),
            years=YearRange(2000, 2000),
        )
        out = normalize_gauge(params)
        np.testing.assert_allclose(out.kappa, [-INV_SQRT_2, 0.0, INV_SQRT_2], atol=1e-15)
        assert out.alpha2[0] == pytest.approx(SQRT_2, abs=1e-15)
        assert out.alpha1[0] == pytest.approx(2.0, abs=1e-15)

    def test_constraints_and_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            _, params = manifold_delta(rng, n_ages=rng.integers(3, 10))
            # denormalize arbitrarily, then restore
            scaled = SlParams(
                alpha1=params.alpha1,
                alpha2=params.alpha2 * 0.2,
                kappa=params.kappa * 5.0 + 3.0,
                base_survival=params.base_survival,
                t0=params.t0,
                ages=params.ages,
                years=params.years,
            )
            out = normalize_gauge(scaled)
            assert out.kappa.sum() == pytest.approx(0.0, abs=1e-12)
            assert out.kappa @ out.kappa == pytest.approx(1.0, abs=1e-12)
            assert out.kappa[-1] >= 0.0
            np.testing.assert_allclose(
                out.fitted_surface(), scaled.fitted_surface(), atol=1e-13
            )

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        _, params = manifold_delta(rng)
        once = normalize_gauge(params)
        twice = normalize_gauge(once)
        np.testing.assert_allclose(twice.kappa, once.kappa, atol=1e-15)
        np.testing.assert_allclose(twice.alpha1, once.alpha1, atol=1e-15)
        np.testing.assert_allclose(twice.alpha2, once.alpha2, atol=1e-15)

    def test_constant_kappa_rejected(self):
        params = SlParams(
            alpha1=np.zeros(2),
            alpha2=np.zeros(2),
            kappa=np.full(3, 2.0),
            base_survival=np.array([0.9, 0.8, 0.7]),
            t0=1999,
            ages=AgeRange(60, 62),
            years=YearRange(2000, 2001),
        )
        with pytest.raises(DomainError):
            normalize_gauge(params)


class TestFit:
    def test_recovers_manifold_surfaces(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            delta, truth = manifold_delta(rng)
            params, diag = fit_sl(delta)
            assert diag.converged
            np.testing.assert_allclose(
                params.fitted_surface(), delta.values, atol=1e-6
            )
            want = normalize_gauge(truth)
            np.testing.assert_allclose(params.kappa, want.kappa, atol=1e-4)
            np.testing.assert_allclose(params.alpha1, want.alpha1, atol=1e-4)
            np.testing.assert_allclose(params.alpha2, want.alpha2, atol=1e-4)

    @settings(max_examples=30, deadline=None)
    @given(noise_sd=st.floats(0.0, 0.05), seed=st.integers(0, 2**32 - 1))
    def test_converged_objective_is_the_svd_optimum(self, noise_sd, seed):
        """A converged descent reaches the rank-1 optimum of the age-centred delta.

        alpha1 absorbs each year's mean over ages, so the best attainable
        residual is that of the best rank-1 approximation of the centred
        surface: the sum of its squared singular values past the first
        (Eckart-Young). Near a zero optimum only an absolute gap is
        meaningful.
        """
        rates = generate_synthetic(SynthConfig(noise_sd=noise_sd, seed=seed))
        surv = surface_q_to_survival(surface_central_rate_to_q(rates))
        delta = build_l_diff(surv, t0=1959, fit_years=YearRange(1960, 1989))
        params, diag = fit_sl(delta)
        assume(diag.converged)
        centred = delta.values - delta.values.mean(axis=0)
        s = np.linalg.svd(centred, compute_uv=False)
        assert abs(sl_objective(delta, params) - np.sum(s[1:] ** 2)) <= 1e-13

    def test_zero_surface_converges_immediately(self):
        params, diag = fit_sl(zero_delta())
        assert diag.converged
        assert diag.iterations == 1
        assert diag.final_objective == 0.0
        np.testing.assert_array_equal(params.alpha1, 0.0)
        np.testing.assert_array_equal(params.alpha2, 0.0)

    def test_affine_surface_converges_in_one_sweep(self):
        x = np.arange(5, dtype=float)
        kappa0 = x - x.mean()
        cols = [0.3 - 0.8 * kappa0, 0.1 + 0.5 * kappa0, -0.2 + 1.5 * kappa0]
        delta = LDiffSurface(
            t0=1999,
            base_survival=np.linspace(0.9, 0.5, 5),
            ages=AgeRange(60, 64),
            years=YearRange(2000, 2002),
            values=np.column_stack(cols),
        )
        params, diag = fit_sl(delta)
        assert diag.converged
        assert diag.final_objective < 1e-24
        np.testing.assert_allclose(params.fitted_surface(), delta.values, atol=1e-12)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(6)
        for gamma in (0.25, 0.5, 1.0):
            delta, _ = manifold_delta(rng, n_ages=7, n_years=9, noise_sd=0.1)
            _, diag = fit_sl(delta, FitConfig(gamma=gamma, k_max=300))
            trace = diag.objective_trace
            assert len(trace) == diag.iterations + 1
            slack = 1e-12 * max(1.0, trace[0])
            assert np.all(np.diff(trace) <= slack)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        delta, _ = manifold_delta(rng, noise_sd=0.05)
        a, _ = fit_sl(delta)
        b, _ = fit_sl(delta)
        np.testing.assert_array_equal(a.kappa, b.kappa)
        np.testing.assert_array_equal(a.alpha1, b.alpha1)
        np.testing.assert_array_equal(a.alpha2, b.alpha2)

    def test_k_max_exhaustion_reported(self):
        rng = np.random.default_rng(8)
        delta, _ = manifold_delta(rng, noise_sd=0.3)
        _, diag = fit_sl(delta, FitConfig(k_max=2))
        assert not diag.converged
        assert diag.iterations == 2
        assert diag.max_param_delta >= 1e-8

    def test_needs_two_ages_and_years(self):
        with pytest.raises(DomainError):
            fit_sl(zero_delta(n_ages=1))
        with pytest.raises(DomainError):
            fit_sl(zero_delta(n_years=1))


class TestForecast:
    @staticmethod
    def params_2x2():
        return SlParams(
            alpha1=np.array([0.0, -0.2]),
            alpha2=np.array([0.01, 0.0]),
            kappa=np.array([-INV_SQRT_2, INV_SQRT_2]),
            base_survival=np.array([0.9, 0.8]),
            t0=1999,
            ages=AgeRange(60, 61),
            years=YearRange(2000, 2001),
        )

    @staticmethod
    def walk(drift, factor, last_state, last_year=2001):
        drift = np.asarray(drift, dtype=float)
        return RwdParams(
            drift=drift,
            innovation_factor=np.asarray(factor, dtype=float),
            last_state=np.asarray(last_state, dtype=float),
            last_year=last_year,
        )

    def test_one_step_hand_check(self):
        params = self.params_2x2()
        base = params.base_survival
        rwd = self.walk([0.1, 0.05], np.zeros((2, 2)), [-0.2, 0.0])
        out = sl_forecast(params, rwd, horizon=1)
        assert out.years == YearRange(2002, 2002)
        delta = -0.1 + 0.05 * params.kappa
        s = np.array(
            [l_inverse(l_transform(base[i]) + delta[i]) for i in range(2)]
        )
        np.testing.assert_allclose(out.values[:, 0], survival_to_q(s), atol=1e-14)

    def test_zero_drift_repeats_state(self):
        params = self.params_2x2()
        rwd = self.walk([0.0, 0.0], np.zeros((2, 2)), [-0.3, 0.4])
        out = sl_forecast(params, rwd, horizon=5)
        expected = survival_to_q(invert_l_diff(-0.3 + 0.4 * params.kappa, params.base_survival))
        for h in range(5):
            np.testing.assert_allclose(out.values[:, h], expected, atol=1e-14)

    def test_degenerate_sample_matches_central(self):
        params = self.params_2x2()
        rwd = self.walk([0.05, -0.01], np.zeros((2, 2)), [-0.3, 0.4])
        central = sl_forecast(params, rwd, horizon=4)
        out = sl_forecast(params, rwd, horizon=4, n_paths=3, seed=9)
        assert out.shape == (3, 2, 4)
        for p in range(3):
            np.testing.assert_array_equal(out[p], central.values)

    def test_non_monotone_curve_raises(self):
        params = self.params_2x2()
        # a large negative alpha2 state pushes old-age survival above young-age
        rwd = self.walk([0.0, 0.0], np.zeros((2, 2)), [0.0, -3.0])
        with pytest.raises(DomainError):
            sl_forecast(params, rwd, horizon=1)

    def test_walk_shape_validation(self):
        params = self.params_2x2()
        bad_dim = RwdParams(
            drift=np.zeros(1),
            innovation_factor=np.zeros((1, 1)),
            last_state=np.zeros(1),
            last_year=2001,
        )
        with pytest.raises(DomainError):
            sl_forecast(params, bad_dim, horizon=1)
        stale = self.walk([0.0, 0.0], np.zeros((2, 2)), [0.0, 0.0], last_year=2000)
        with pytest.raises(DomainError):
            sl_forecast(params, stale, horizon=1)
