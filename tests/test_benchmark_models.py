import numpy as np
import pytest

from mortcast import (
    AgeRange,
    CbdParams,
    DomainError,
    LcParams,
    MortalitySurface,
    RwdParams,
    SurfaceKind,
    YearRange,
    cbd_forecast,
    central_rate_to_q,
    fit_cbd,
    fit_lc,
    lc_forecast,
    logit,
)


def rate_surface(values, x_min=60, t_min=2000):
    values = np.asarray(values, dtype=float)
    return MortalitySurface(
        ages=AgeRange(x_min, x_min + values.shape[0] - 1),
        years=YearRange(t_min, t_min + values.shape[1] - 1),
        kind=SurfaceKind.CENTRAL_RATE,
        values=values,
    )


def q_surface(values, x_min=60, t_min=2000):
    values = np.asarray(values, dtype=float)
    return MortalitySurface(
        ages=AgeRange(x_min, x_min + values.shape[0] - 1),
        years=YearRange(t_min, t_min + values.shape[1] - 1),
        kind=SurfaceKind.DEATH_PROB,
        values=values,
    )


def lc_manifold(rng, n_ages=6, n_years=8):
    alpha = rng.uniform(-6.0, -3.0, size=n_ages)
    beta = rng.uniform(0.2, 1.0, size=n_ages)
    beta = beta / beta.sum()
    kappa = rng.normal(scale=1.5, size=n_years)
    kappa = kappa - kappa.mean()
    m = np.exp(alpha[:, None] + beta[:, None] * kappa[None, :])
    return rate_surface(m), alpha, beta, kappa


class TestLcParams:
    def test_constraints_enforced(self):
        common = dict(ages=AgeRange(60, 61), years=YearRange(2000, 2001))
        LcParams(
            alpha_x=np.zeros(2), beta_x=np.array([0.3, 0.7]),
            kappa_t=np.array([1.0, -1.0]), **common,
        )
        with pytest.raises(DomainError):
            LcParams(
                alpha_x=np.zeros(2), beta_x=np.array([0.3, 0.8]),
                kappa_t=np.array([1.0, -1.0]), **common,
            )
        with pytest.raises(DomainError):
            LcParams(
                alpha_x=np.zeros(2), beta_x=np.array([0.3, 0.7]),
                kappa_t=np.array([1.0, -0.5]), **common,
            )


class TestFitLc:
    def test_recovers_rank_one_structure(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            surface, alpha, beta, kappa = lc_manifold(rng)
            params = fit_lc(surface)
            np.testing.assert_allclose(params.alpha_x, alpha, atol=1e-10)
            np.testing.assert_allclose(params.beta_x, beta, atol=1e-10)
            np.testing.assert_allclose(params.kappa_t, kappa, atol=1e-10)

    def test_constraints_on_noisy_input(self):
        rng = np.random.default_rng(32)
        m = np.exp(rng.uniform(-6.0, -1.0, size=(9, 7)))
        params = fit_lc(rate_surface(m))
        assert params.beta_x.sum() == pytest.approx(1.0, abs=1e-10)
        assert params.kappa_t.sum() == pytest.approx(0.0, abs=1e-10)

    def test_time_constant_rates(self):
        col = np.array([0.01, 0.02, 0.05])
        params = fit_lc(rate_surface(np.column_stack([col, col, col, col])))
        np.testing.assert_array_equal(params.kappa_t, np.zeros(4))
        np.testing.assert_allclose(params.beta_x, np.full(3, 1.0 / 3.0))
        np.testing.assert_allclose(params.alpha_x, np.log(col), atol=1e-15)

    def test_best_rank_one_locally(self):
        # SVD solution should beat nearby perturbations of (beta, kappa)
        rng = np.random.default_rng(33)
        m = np.exp(rng.uniform(-6.0, -1.0, size=(6, 8)))
        surface = rate_surface(m)
        params = fit_lc(surface)
        log_m = np.log(m)

        def sse(alpha, beta, kappa):
            fit = alpha[:, None] + beta[:, None] * kappa[None, :]
            return np.sum((log_m - fit) ** 2)

        best = sse(params.alpha_x, params.beta_x, params.kappa_t)
        for _ in range(20):
            db = rng.normal(scale=1e-3, size=6)
            dk = rng.normal(scale=1e-3, size=8)
            assert best <= sse(params.alpha_x, params.beta_x + db, params.kappa_t + dk) + 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            fit_lc(q_surface([[0.1, 0.2]]))
        values = np.array([[0.01, 0.02], [0.0, 0.03]])
        with pytest.raises(DomainError, match="61.*2000"):
            fit_lc(rate_surface(values))


class TestFitCbd:
    def test_exact_on_logit_affine_surfaces(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n_ages = int(rng.integers(2, 12))
            n_years = int(rng.integers(1, 9))
            ages = AgeRange(60, 60 + n_ages - 1)
            x_bar = (ages.x_min + ages.x_max) / 2.0
            cx = ages.to_array() - x_bar
            k1 = rng.uniform(-5.0, -1.0, size=n_years)
            k2 = rng.uniform(0.02, 0.2, size=n_years)
            q = 1.0 / (1.0 + np.exp(-(k1[None, :] + k2[None, :] * cx[:, None])))
            params = fit_cbd(q_surface(q))
            assert params.x_bar == x_bar
            np.testing.assert_allclose(params.kappa1_t, k1, atol=1e-12)
            np.testing.assert_allclose(params.kappa2_t, k2, atol=1e-12)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(42)
        q = rng.uniform(0.01, 0.4, size=(5, 3))
        params = fit_cbd(q_surface(q))
        x = np.arange(60, 65, dtype=float)
        design = np.column_stack([np.ones(5), x - params.x_bar])
        for j in range(3):
            coef, *_ = np.linalg.lstsq(design, logit(q[:, j]), rcond=None)
            assert params.kappa1_t[j] == pytest.approx(coef[0], abs=1e-12)
            assert params.kappa2_t[j] == pytest.approx(coef[1], abs=1e-12)

    def test_two_ages_interpolate(self):
        q = np.array([[0.1], [0.3]])
        params = fit_cbd(q_surface(q))
        eta = params.kappa1_t[0] + params.kappa2_t[0] * (np.array([60.0, 61.0]) - params.x_bar)
        fitted = 1.0 / (1.0 + np.exp(-eta))
        np.testing.assert_allclose(fitted, q[:, 0], atol=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            fit_cbd(rate_surface([[0.1, 0.2], [0.2, 0.3]]))
        with pytest.raises(DomainError):
            fit_cbd(q_surface([[0.1, 0.2]]))  # single age
        values = np.array([[0.1, 0.2], [0.3, 0.0]])
        with pytest.raises(DomainError, match="61.*2001"):
            fit_cbd(q_surface(values))


def walk(drift, last_state, last_year, factor=None):
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    if factor is None:
        factor = np.zeros((drift.size, drift.size))
    return RwdParams(
        drift=drift,
        innovation_factor=np.asarray(factor, dtype=float),
        last_state=np.atleast_1d(np.asarray(last_state, dtype=float)),
        last_year=last_year,
    )


class TestLcForecast:
    @staticmethod
    def params():
        return LcParams(
            alpha_x=np.array([-4.0, -3.0]),
            beta_x=np.array([0.25, 0.75]),
            kappa_t=np.array([0.5, -0.5]),
            ages=AgeRange(60, 61),
            years=YearRange(2000, 2001),
        )

    def test_one_step_hand_check(self):
        params = self.params()
        out = lc_forecast(params, walk([-0.1], [-0.5], 2001), horizon=1)
        assert out.kind is SurfaceKind.DEATH_PROB
        assert out.years == YearRange(2002, 2002)
        m = np.exp(params.alpha_x + params.beta_x * (-0.6))
        np.testing.assert_allclose(out.values[:, 0], 1.0 - np.exp(-m), atol=1e-15)

    def test_zero_drift_repeats_last_state(self):
        params = self.params()
        out = lc_forecast(params, walk([0.0], [-0.5], 2001), horizon=4)
        first = out.values[:, 0]
        for h in range(1, 4):
            np.testing.assert_array_equal(out.values[:, h], first)

    def test_sample_degenerate_matches_central(self):
        params = self.params()
        rwd = walk([-0.2], [-0.5], 2001)
        central = lc_forecast(params, rwd, horizon=3)
        out = lc_forecast(params, rwd, horizon=3, n_paths=2, seed=1)
        assert out.shape == (2, 2, 3)
        for p in range(2):
            np.testing.assert_array_equal(out[p], central.values)

    def test_walk_validation(self):
        params = self.params()
        with pytest.raises(DomainError):
            lc_forecast(params, walk([0.0, 0.0], [0.0, 0.0], 2001), horizon=1)
        with pytest.raises(DomainError):
            lc_forecast(params, walk([0.0], [0.0], 2005), horizon=1)


class TestCbdForecast:
    @staticmethod
    def params():
        return CbdParams(
            kappa1_t=np.array([-3.0, -2.9]),
            kappa2_t=np.array([0.1, 0.11]),
            x_bar=60.5,
            ages=AgeRange(60, 61),
            years=YearRange(2000, 2001),
        )

    def test_one_step_hand_check(self):
        params = self.params()
        rwd = walk([0.1, 0.01], [-2.9, 0.11], 2001)
        out = cbd_forecast(params, rwd, horizon=1)
        expected = 1.0 / (1.0 + np.exp(-(-2.8 + 0.12 * (np.array([60.0, 61.0]) - 60.5))))
        np.testing.assert_allclose(out.values[:, 0], expected, atol=1e-15)

    def test_flat_slope_gives_age_constant_q(self):
        params = self.params()
        rwd = walk([0.05, 0.0], [-2.9, 0.0], 2001)
        out = cbd_forecast(params, rwd, horizon=3)
        np.testing.assert_allclose(out.values[0], out.values[1], atol=1e-15)

    def test_walk_validation(self):
        params = self.params()
        with pytest.raises(DomainError):
            cbd_forecast(params, walk([0.0], [0.0], 2001), horizon=1)
        with pytest.raises(DomainError):
            cbd_forecast(params, walk([0.0, 0.0], [0.0, 0.0], 1999), horizon=1)
