import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mortcast import (
    DomainError,
    RwdParams,
    calibrate_rwd,
    forecast_states,
    path_quantiles,
    project_central,
    simulate_paths,
)
from mortcast import timeseries


def make_params(drift, factor, last_state):
    drift = np.atleast_1d(np.asarray(drift, dtype=float))
    return RwdParams(
        drift=drift,
        innovation_factor=np.asarray(factor, dtype=float),
        last_state=np.atleast_1d(np.asarray(last_state, dtype=float)),
    )


def oracle_paths(params, horizon, n_paths, seed):
    """Path p from its own numpy stream default_rng([seed, p]), one path at a time."""
    out = np.empty((n_paths, horizon, params.dim))
    for p in range(n_paths):
        z = np.random.default_rng([seed, p]).standard_normal((horizon, params.dim))
        increments = params.drift + z @ params.innovation_factor.T
        out[p] = params.last_state + np.cumsum(increments, axis=0)
    return out


# one to seven seed words: the pool of four is padded, exactly filled,
# and overflowing into SeedSequence's extra-entropy loop
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96 - 1, 2**96, 2**100 + 7, 2**200 + 3]


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestCalibrate:
    def test_constant_series_exact_zero(self):
        series = np.tile([1.0, 2.0], (5, 1))
        params = calibrate_rwd(series)
        np.testing.assert_array_equal(params.drift, [0.0, 0.0])
        np.testing.assert_array_equal(params.innovation_factor, np.zeros((2, 2)))
        np.testing.assert_array_equal(params.last_state, [1.0, 2.0])

    def test_affine_series_exact(self):
        t = np.arange(5, dtype=float)
        series = np.column_stack([1.0 + 0.5 * t, 3.0 - 2.0 * t])
        params = calibrate_rwd(series)
        np.testing.assert_array_equal(params.drift, [0.5, -2.0])
        np.testing.assert_array_equal(params.innovation_factor, np.zeros((2, 2)))

    def test_one_dimensional_series(self):
        params = calibrate_rwd(np.array([[0.0], [1.0], [2.0], [3.0]]))
        assert params.dim == 1
        assert params.drift[0] == 1.0
        assert params.innovation_factor[0, 0] == 0.0
        with pytest.raises(DomainError, match=r"^series must be a finite \(n, dim\) array$"):
            calibrate_rwd(np.array([0.0, 1.0, 2.0, 3.0]))

    def test_minimum_length(self):
        with pytest.raises(DomainError):
            calibrate_rwd(np.zeros((2, 2)))

    def test_factor_reproduces_sample_covariance(self):
        rng = np.random.default_rng(17)
        series = np.cumsum(rng.normal(size=(50, 3)), axis=0)
        params = calibrate_rwd(series)
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
        params = calibrate_rwd(series)
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
                drift=np.zeros(2),
                innovation_factor=np.zeros((2, 2)),
                last_state=np.zeros(3),
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
        np.testing.assert_array_equal(bits(paths), bits(oracle_paths(params, 9, 6, 13)))

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("n_paths", [1, 261])
    def test_streams_are_default_rng_bit_for_bit(self, seed, n_paths):
        params = make_params([0.1, -0.05], [[0.3, 0.0], [0.1, 0.2]], [1.0, 2.0])
        paths = simulate_paths(params, 4, n_paths=n_paths, seed=seed)
        np.testing.assert_array_equal(bits(paths), bits(oracle_paths(params, 4, n_paths, seed)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**160),
        n_paths=st.integers(min_value=1, max_value=40),
        horizon=st.integers(min_value=1, max_value=6),
        dim=st.integers(min_value=1, max_value=2),
    )
    def test_streams_property(self, seed, n_paths, horizon, dim):
        params = make_params([0.1] * dim, np.eye(dim) * 0.3, [0.5] * dim)
        paths = simulate_paths(params, horizon, n_paths=n_paths, seed=seed)
        expected = oracle_paths(params, horizon, n_paths, seed)
        np.testing.assert_array_equal(bits(paths), bits(expected))

    def test_path_count_must_fit_one_seed_word(self, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used before the path count was checked")

        params = make_params([0.0], [[0.1]], [0.0])
        monkeypatch.setattr(timeseries, "np", NoNumpy())
        for n_paths in (2**32, 2**40):
            with pytest.raises(DomainError, match="n_paths"):
                simulate_paths(params, 3, n_paths=n_paths, seed=0)

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
        with pytest.raises(DomainError, match="n_paths"):
            simulate_paths(params, 3, n_paths=0, seed=1)
        with pytest.raises(DomainError, match="seed must be a nonnegative integer, got -1$"):
            simulate_paths(params, 3, n_paths=2, seed=-1)

    @pytest.mark.parametrize("seed", [1.9, 2.0])
    def test_non_integer_seed_is_refused(self, seed):
        # numpy's SeedSequence refuses these too; truncating would alias seed 1 or 2
        params = make_params([0.0], [[0.1]], [0.0])
        with pytest.raises(DomainError, match=f"nonnegative integer, got {seed}$"):
            simulate_paths(params, 3, n_paths=2, seed=seed)

    def test_numpy_integer_seed(self):
        params = make_params([0.1], [[0.5]], [0.0])
        np.testing.assert_array_equal(
            bits(simulate_paths(params, 4, n_paths=3, seed=np.int64(7))),
            bits(simulate_paths(params, 4, n_paths=3, seed=7)),
        )

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_path_seed_answers_as_seed_sequence(self, seed):
        for p, path_seed in enumerate(timeseries._path_seeds(seed, 3)):
            want = np.random.SeedSequence([seed, p]).generate_state(4, np.uint64)
            got = path_seed.generate_state(4, np.uint64)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want)
            for n_words, dtype in ((5, np.uint64), (8, np.uint64), (8, np.uint32), (9, np.uint32)):
                with pytest.raises(ValueError, match="4 uint64 words"):
                    path_seed.generate_state(n_words, dtype)


QUANTILE_SIZES = [1, 2, 3, 7, 20, 299, 300, 1000, 4999, 5000]
PROBS = [0.0, 0.05, 0.25, 0.5, 0.95, 1.0]


class TestPathQuantiles:
    @pytest.mark.parametrize("n", QUANTILE_SIZES)
    def test_matches_numpy_linear_bit_for_bit(self, n):
        values = np.random.default_rng(n).uniform(0.0, 0.3, size=(n, 3, 4))
        values[::3] = np.round(values[::3], 2)  # ties
        expected = np.quantile(values, PROBS, axis=0)
        got = path_quantiles(values.copy(), PROBS)
        assert got.shape == (len(PROBS), 3, 4)
        np.testing.assert_array_equal(bits(got), bits(expected))

    @pytest.mark.parametrize("n", [1, 2, 300])
    def test_all_tied_paths(self, n):
        values = np.full((n, 2, 2), 0.125)
        np.testing.assert_array_equal(
            path_quantiles(values, PROBS), np.full((len(PROBS), 2, 2), 0.125)
        )

    @settings(max_examples=60, deadline=None)
    @given(
        values=hnp.arrays(
            np.float64,
            st.tuples(
                st.integers(min_value=1, max_value=60),
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=1, max_value=3),
            ),
            elements=st.floats(min_value=-1e9, max_value=1e9),
        ),
        probs=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5),
    )
    # one path: numpy takes its value as b - (b - a) * (1 - g) with g = 1, keeping -0.0
    @example(values=np.array([[[-0.0]]]), probs=[0.0])
    # mixed signed zeros: the median is -0.0 here and 0.0 from np.quantile
    @example(values=np.array([-0.0, -0.0, 0.0, -1.0]).reshape(4, 1, 1), probs=[0.5])
    def test_property_matches_numpy(self, values, probs):
        expected = np.quantile(values, probs, axis=0)
        got = path_quantiles(values.copy(), probs)
        # numpy's partition leaves equal zeros in no defined order, so a cell whose
        # paths mix -0.0 and +0.0 matches by value; every other cell bit for bit
        zero = values == 0.0
        mixed = (zero & np.signbit(values)).any(axis=0) & (zero & ~np.signbit(values)).any(axis=0)
        np.testing.assert_array_equal(got[:, mixed], expected[:, mixed])
        np.testing.assert_array_equal(bits(got[:, ~mixed]), bits(expected[:, ~mixed]))

    def test_sorts_input_in_place(self):
        values = np.random.default_rng(1).random((50, 2, 3))
        original = values.copy()
        path_quantiles(values, [0.5])
        np.testing.assert_array_equal(values, np.sort(original, axis=0))

    def test_probabilities_outside_unit_interval(self):
        with pytest.raises(DomainError, match="probabilities"):
            path_quantiles(np.zeros((3, 1, 1)), [0.5, 1.5])
        with pytest.raises(DomainError, match="probabilities"):
            path_quantiles(np.zeros((3, 1, 1)), [-0.1])


class TestForecastStates:
    def test_central_dispatch(self):
        params = make_params([1.0], np.zeros((1, 1)), [0.0])
        np.testing.assert_array_equal(
            forecast_states(params, 3), project_central(params, 3)
        )

    def test_sample_dispatch(self):
        params = make_params([1.0], [[0.2]], [0.0])
        out = forecast_states(params, 3, n_paths=2, seed=5)
        np.testing.assert_array_equal(out, simulate_paths(params, 3, n_paths=2, seed=5))

    def test_sample_requires_paths_and_seed(self):
        params = make_params([1.0], [[0.2]], [0.0])
        with pytest.raises(DomainError):
            forecast_states(params, 3, n_paths=2)
