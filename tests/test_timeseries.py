import numpy as np
import pytest

from mortcast import (
    DomainError,
    RwdParams,
    YearRange,
    calibrate_rwd,
    forecast_states,
    project_central,
    simulate_paths,
)


def make_params(drift, factor, last_state, last_year=2009):
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    return RwdParams(
        dim=drift.size,
        drift=drift,
        innovation_factor=np.asarray(factor, dtype=float),
        last_state=np.atleast_1d(np.asarray(last_state, dtype=float)),
        last_year=last_year,
    )


class TestCalibrate:
    def test_constant_series_exact_zero(self):
        series = np.tile([1.0, 2.0], (5, 1))
        params = calibrate_rwd(series, YearRange(2000, 2004))
        np.testing.assert_array_equal(params.drift, [0.0, 0.0])
        np.testing.assert_array_equal(params.innovation_factor, np.zeros((2, 2)))
        np.testing.assert_array_equal(params.last_state, [1.0, 2.0])
        assert params.last_year == 2004

    def test_affine_series_exact(self):
        t = np.arange(5, dtype=float)
        series = np.column_stack([1.0 + 0.5 * t, 3.0 - 2.0 * t])
        params = calibrate_rwd(series, YearRange(2000, 2004))
        np.testing.assert_array_equal(params.drift, [0.5, -2.0])
        np.testing.assert_array_equal(params.innovation_factor, np.zeros((2, 2)))

    def test_one_dimensional_series(self):
        params = calibrate_rwd(np.array([0.0, 1.0, 2.0, 3.0]), YearRange(2000, 2003))
        assert params.dim == 1
        assert params.drift[0] == 1.0
        assert params.innovation_factor[0, 0] == 0.0

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            calibrate_rwd(np.zeros((2, 2)), YearRange(2000, 2001))

    def test_years_must_match_rows(self):
        with pytest.raises(DomainError):
            calibrate_rwd(np.zeros((4, 2)), YearRange(2000, 2002))

    def test_factor_reproduces_sample_covariance(self):
        rng = np.random.default_rng(17)
        series = np.cumsum(rng.normal(size=(50, 3)), axis=0)
        params = calibrate_rwd(series, YearRange(1960, 2009))
        diffs = np.diff(series, axis=0)
        cov = np.cov(diffs, rowvar=False, ddof=1)
        a = params.innovation_factor
        np.testing.assert_allclose(a @ a.T, cov, atol=1e-12)
        assert np.all(np.triu(a, k=1) == 0.0)
        assert np.all(np.diag(a) >= 0.0)

    def test_long_walk_recovery(self):
        rng = np.random.default_rng(100)
        n = 10_000
        drift = np.array([-0.5, 0.1])
        factor = np.array([[0.2, 0.0], [0.0, 0.05]])
        z = rng.standard_normal((n, 2))
        series = np.vstack([np.zeros(2), np.cumsum(drift + z @ factor.T, axis=0)])
        params = calibrate_rwd(series, YearRange(0, n))
        se = np.sqrt(np.diag(factor @ factor.T) / n)
        assert np.all(np.abs(params.drift - drift) <= 3.0 * se)
        est_cov = params.innovation_factor @ params.innovation_factor.T
        true_cov = factor @ factor.T
        rel = np.linalg.norm(est_cov - true_cov) / np.linalg.norm(true_cov)
        assert rel <= 0.10


class TestRwdParams:
    def test_factor_must_be_triangular(self):
        with pytest.raises(DomainError):
            make_params([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]], [0.0, 0.0])
        # either triangular orientation is a valid factor
        make_params([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
        make_params([0.0, 0.0], [[1.0, 0.0], [0.5, 1.0]], [0.0, 0.0])

    def test_diagonal_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            make_params([0.0], [[-1.0]], [0.0])

    def test_shape_consistency(self):
        with pytest.raises(DomainError):
            RwdParams(
                dim=2,
                drift=np.zeros(2),
                innovation_factor=np.zeros((2, 2)),
                last_state=np.zeros(3),
                last_year=2009,
            )


class TestProjectCentral:
    def test_zero_drift_is_constant(self):
        params = make_params([0.0, 0.0], np.zeros((2, 2)), [3.0, -1.0])
        out = project_central(params, 4)
        np.testing.assert_array_equal(out, np.tile([3.0, -1.0], (4, 1)))

    def test_linear_in_horizon(self):
        params = make_params([1.0, 2.0], np.zeros((2, 2)), [0.0, 10.0])
        out = project_central(params, 3)
        np.testing.assert_array_equal(out, [[1, 12], [2, 14], [3, 16]])

    def test_horizon_must_be_positive(self):
        params = make_params([0.0], np.zeros((1, 1)), [0.0])
        with pytest.raises(DomainError):
            project_central(params, 0)


class TestSimulatePaths:
    def test_zero_factor_matches_central(self):
        params = make_params([1.0, -0.5], np.zeros((2, 2)), [0.0, 0.0])
        central = project_central(params, 5)
        paths = simulate_paths(params, 5, n_paths=3, seed=42)
        assert paths.shape == (3, 5, 2)
        for p in range(3):
            np.testing.assert_array_equal(paths[p], central)

    def test_seed_reproducibility(self):
        params = make_params([0.1, 0.2], [[0.3, 0.0], [0.1, 0.2]], [1.0, 2.0])
        a = simulate_paths(params, 10, n_paths=4, seed=7)
        b = simulate_paths(params, 10, n_paths=4, seed=7)
        np.testing.assert_array_equal(a, b)
        c = simulate_paths(params, 10, n_paths=4, seed=8)
        assert not np.array_equal(a, c)

    def test_paths_are_seed_indexed(self):
        # path p depends only on (seed, p), not on n_paths
        params = make_params([0.1], [[0.5]], [0.0])
        few = simulate_paths(params, 6, n_paths=3, seed=11)
        many = simulate_paths(params, 6, n_paths=5, seed=11)
        np.testing.assert_array_equal(few, many[:3])

    def test_paths_match_independent_streams(self):
        # path p is the (seed, p) stream pushed through drift, factor and cumsum
        params = make_params([0.1, -0.05], [[0.3, 0.0], [0.1, 0.2]], [1.0, 2.0])
        paths = simulate_paths(params, 9, n_paths=6, seed=13)
        for p in range(6):
            z = np.random.default_rng([13, p]).standard_normal((9, 2))
            increments = params.drift + z @ params.innovation_factor.T
            expected = params.last_state + np.cumsum(increments, axis=0)
            np.testing.assert_array_equal(paths[p], expected)

    def test_moments(self):
        params = make_params([0.25, -0.1], [[0.4, 0.0], [0.2, 0.3]], [0.0, 0.0])
        h, n = 4, 20_000
        paths = simulate_paths(params, h, n_paths=n, seed=123)
        cov = np.array([[0.4, 0.0], [0.2, 0.3]]) @ np.array([[0.4, 0.2], [0.0, 0.3]])
        for step in range(h):
            mean = paths[:, step, :].mean(axis=0)
            expected = params.last_state + (step + 1) * params.drift
            se = np.sqrt((step + 1) * np.diag(cov) / n)
            assert np.all(np.abs(mean - expected) <= 4.0 * se)
        inc = paths[:, 1, :] - paths[:, 0, :]
        inc_cov = np.cov(inc, rowvar=False, ddof=1)
        assert np.linalg.norm(inc_cov - cov) / np.linalg.norm(cov) <= 0.05

    def test_argument_validation(self):
        params = make_params([0.0], [[0.1]], [0.0])
        with pytest.raises(DomainError):
            simulate_paths(params, 3, n_paths=0, seed=1)
        with pytest.raises(DomainError):
            simulate_paths(params, 3, n_paths=2, seed=-1)


class TestForecastStates:
    def test_central_dispatch(self):
        params = make_params([1.0], np.zeros((1, 1)), [0.0])
        np.testing.assert_array_equal(
            forecast_states(params, 3), project_central(params, 3)
        )

    def test_sample_dispatch(self):
        params = make_params([1.0], [[0.2]], [0.0])
        out = forecast_states(params, 3, mode="sample", n_paths=2, seed=5)
        np.testing.assert_array_equal(out, simulate_paths(params, 3, n_paths=2, seed=5))

    def test_sample_requires_paths_and_seed(self):
        params = make_params([1.0], [[0.2]], [0.0])
        with pytest.raises(DomainError):
            forecast_states(params, 3, mode="sample")
        with pytest.raises(DomainError):
            forecast_states(params, 3, mode="wild")
