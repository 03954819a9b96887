"""Random walk with drift: calibration, central projection, and simulation.

The same machinery backs the two-dimensional time processes of the
survival-transform and CBD models and the one-dimensional Lee-Carter time
index: state_{t+1} = state_t + drift + factor @ z with standard normal z.
:func:`forecast_q` calibrates the walk on a fit's time indices and turns
its projected states into death probabilities for all three models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lifetable import (
    YEAR,
    AgeRange,
    MortalitySurface,
    SurfaceKind,
    YearRange,
    _freeze,
    _paths_first,
    check_surface_values,
)

# Probabilities of the bands a sample forecast returns, written to quantiles.csv.
QUANTILE_PROBS = (0.05, 0.5, 0.95)

# A sample forecast maps its states to death probabilities in blocks of
# whole years of at most this many cells (ages x years x paths), or of one
# year where a year holds more, so its store stays about 1 MB however
# many paths are asked for. A failed forecast is located over path chunks
# of the whole horizon, of the same size.
BLOCK_CELLS = 2**17

# A path's index is one 32-bit word of its stream's seed, so n_paths must
# stay below this.
PATH_LIMIT = 2**32

# numpy.random.SeedSequence's hash constants and pool size (O'Neill's
# seed_seq_fe, as in numpy/random/bit_generator.pyx). simulate_paths hashes
# every path's SeedSequence([seed, p]) with them at once; numpy's own
# SeedSequence and default_rng are the test oracles.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF


def _psd_cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T ~= cov for PSD cov.

    Columns whose pivot falls at or below 1e-12 times the largest variance
    are zeroed, so semidefinite covariances (deterministic directions)
    factor cleanly instead of failing. An exactly zero covariance gives
    exactly zero L.
    """
    n = cov.shape[0]
    L = np.zeros_like(cov)
    tol = 1e-12 * max(float(np.max(np.abs(np.diag(cov)))), 0.0)
    for j in range(n):
        d = cov[j, j] - L[j, :j] @ L[j, :j]
        if d <= tol:
            continue
        L[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            L[i, j] = (cov[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return L


def _is_triangular(a: np.ndarray) -> bool:
    return np.array_equal(a, np.tril(a)) or np.array_equal(a, np.triu(a))


@dataclass(frozen=True)
class RwdParams:
    """Calibrated random walk with drift.

    ``drift`` is the per-year step, and its length the walk's ``dim``;
    ``innovation_factor`` is a triangular matrix A with nonnegative diagonal
    such that A @ A.T is the innovation covariance. ``last_state`` anchors
    projections. The arrays are stored as read-only copies.
    """

    drift: np.ndarray
    innovation_factor: np.ndarray
    last_state: np.ndarray

    def __post_init__(self):
        for name in ("drift", "innovation_factor", "last_state"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        dim, factor = self.dim, self.innovation_factor
        if self.drift.shape != (dim,) or self.last_state.shape != (dim,):
            shapes = f"{self.drift.shape} and {self.last_state.shape}"
            raise DomainError(f"drift and state must be vectors of one length, got shapes {shapes}")
        if factor.shape != (dim, dim):
            raise DomainError(f"innovation factor must be {dim}x{dim}")
        if not all(np.isfinite(a).all() for a in (self.drift, factor, self.last_state)):
            raise DomainError("drift, state, and innovation factor must be finite")
        if not _is_triangular(factor) or np.any(np.diag(factor) < 0.0):
            raise DomainError("innovation factor must be triangular with nonnegative diagonal")

    @property
    def dim(self) -> int:
        """Dimension of the walk's state: the length of its drift."""
        return self.drift.size


def calibrate_rwd(series) -> RwdParams:
    """Gaussian maximum-likelihood calibration on first differences.

    ``series`` holds the observed states, one row per year and one column
    per dimension: shape (n, dim), also when dim is 1. The drift is the
    mean first difference and the innovation factor the Cholesky factor of
    their sample covariance (denominator n-1). A series with identical differences therefore
    calibrates to a zero factor.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or not np.all(np.isfinite(arr)):
        raise DomainError("series must be a finite (n, dim) array")
    if len(arr) < 3:
        raise DomainError("need at least 3 observations to estimate the innovation covariance")

    diffs = np.diff(arr, axis=0)
    drift = diffs.mean(axis=0)
    centered = diffs - drift
    cov = centered.T @ centered / (diffs.shape[0] - 1)
    return RwdParams(drift=drift, innovation_factor=_psd_cholesky(cov), last_state=arr[-1])


def time_indices(params) -> np.ndarray:
    """The YEAR rows of ``params.ROWS`` stacked in order: (n_years, dim)."""
    return np.column_stack([getattr(params, attr) for _, attr, axis in params.ROWS if axis == YEAR])


def project_central(params: RwdParams, horizon: int) -> np.ndarray:
    """Noise-free continuation: state after h steps is last_state + h * drift.

    Returns an array of shape (horizon, dim), one row per step.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be positive, got {horizon}")
    steps = np.arange(1, horizon + 1, dtype=float)
    return params.last_state + steps[:, None] * params.drift


def _seed_sequence_state(seed: int, n_paths: int) -> np.ndarray:
    """``SeedSequence([seed, p]).generate_state(4, np.uint64)`` for every p < n_paths.

    The entropy of path p is the little-endian 32-bit words of ``seed``,
    then p. The hash constants advance the same way whatever the words are,
    so the pool mix runs on all paths' words at once; uint32 arithmetic
    wraps as SeedSequence's does. Each uint64 word of the (n_paths, 4)
    result joins a little-endian pair of the eight uint32 words hashed out.
    """
    entropy = [
        np.full(n_paths, seed >> shift & _MASK32, dtype=np.uint32)
        for shift in range(0, max(seed.bit_length(), 1), 32)
    ]
    entropy.append(np.arange(n_paths, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([words[2 * k] | words[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


def _path_seeds(seed: int, n_paths: int):
    """Seeds for ``numpy.random.PCG64``, one per path p < n_paths, in order.

    Path p's seed answers PCG64's one request, ``generate_state(4,
    np.uint64)``, with the words ``SeedSequence([seed, p])`` gives: its row
    of :func:`_seed_sequence_state`, which PCG64 reads as a raw C-contiguous
    buffer. Any other request raises ValueError.
    """
    # numpy.random is imported here, and the class built per call, so that
    # importing mortcast, as every CLI command does, does not load it
    from numpy.random.bit_generator import ISeedSequence

    class PathSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a path seed holds 4 uint64 words, not {n_words} of {dtype}")
            return self.state

    return map(PathSeed, _seed_sequence_state(seed, n_paths))


def simulate_paths(params: RwdParams, horizon: int, n_paths: int, seed: int) -> np.ndarray:
    """Simulate seeded sample paths of the walk; shape (n_paths, horizon, dim).

    Path p draws its (horizon, dim) standard normals from its own stream,
    bit for bit that of ``Generator(PCG64(SeedSequence([seed, p])))``, so any
    path can be reproduced on its own and the result is bit-identical for
    a fixed seed whatever the number of paths. The SeedSequence hashes are
    computed for all paths at once and handed to numpy's PCG64 as
    :func:`_path_seeds`; drift, innovation factor and the cumulative sum are
    then applied to all paths at once. ``n_paths`` must be below PATH_LIMIT,
    so that p is one seed word, and ``seed`` a nonnegative integer.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if not 1 <= n_paths < PATH_LIMIT:
        raise DomainError(f"n_paths must be in [1, 2**32), got {n_paths}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    z = np.empty((n_paths, horizon, params.dim))
    for p, path_seed in enumerate(_path_seeds(int(seed), n_paths)):
        np.random.Generator(np.random.PCG64(path_seed)).standard_normal(out=z[p])
    # built in place, so z and the walk are the only arrays of their size
    walk = z @ params.innovation_factor.T
    walk += params.drift
    np.cumsum(walk, axis=1, out=walk)
    walk += params.last_state
    return walk


def path_quantiles(paths: np.ndarray, probs) -> np.ndarray:
    """Quantiles over the first (path) axis; shape (len(probs), *paths.shape[1:]).

    Bit for bit ``numpy.quantile(paths, probs, axis=0)`` with numpy's default
    ``"linear"`` method, method 7 of Hyndman & Fan (1996): with
    v = (n - 1) * q, the order statistics a = x[i] and b = x[i + 1] for
    i = floor(v) and g = v - i, the result is a + (b - a) * g, or
    b - (b - a) * (1 - g) when g >= 0.5, as numpy's ``_lerp`` computes it.
    Where v >= n - 1, numpy takes i = -1: a and b are both the last order
    statistic and g = v + 1. The bits match in every cell whose paths do not
    mix -0.0 and +0.0: numpy's partition leaves equal zeros in no defined
    order, so there a zero result may differ from numpy's in its sign bit.
    ``paths`` is sorted in place along its first axis, so its rows come back
    reordered, and no copy of it is made. The sort is fastest when each
    cell's paths are contiguous, as in the path-last blocks that
    :func:`forecast_q` passes as path-first views. The values must be
    finite, as forecast_q checks for those blocks.
    """
    if any(not 0.0 <= q <= 1.0 for q in probs):
        raise DomainError(f"quantile probabilities must lie in [0, 1], got {list(probs)}")
    np.moveaxis(paths, 0, -1).sort(axis=-1)
    n = paths.shape[0]
    out = np.empty((len(probs),) + paths.shape[1:])
    for k, q in enumerate(probs):
        v = (n - 1) * q
        i, j = (math.floor(v), math.floor(v) + 1) if v < n - 1 else (-1, -1)
        a, b = paths[i], paths[j]
        g = v - i
        out[k] = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return out


def forecast_states(
    params: RwdParams, horizon: int, n_paths: int | None = None, seed: int | None = None
) -> np.ndarray:
    """Projected states: central without ``n_paths``, sampled with it.

    Without ``n_paths`` this is the (horizon, dim) noise-free projection;
    with it, the (n_paths, horizon, dim) paths of :func:`simulate_paths`,
    which also need ``seed``.
    """
    if n_paths is None:
        return project_central(params, horizon)
    if seed is None:
        raise DomainError("sample paths need a seed")
    return simulate_paths(params, horizon, n_paths, seed)


def forecast_years(params, horizon: int) -> YearRange:
    """The ``horizon`` years that follow the fit ``params``: the years of a forecast."""
    last = params.years.t_max
    return YearRange(last + 1, last + horizon)


def q_surface(params, states: np.ndarray, years: YearRange) -> MortalitySurface:
    """The MortalitySurface of ``params.q_of(states)``, states (n_years, dim) of ``years``.

    A q that is non-finite, negative or rounds to 1 is a DomainError of the
    surface's own check, naming the first such cell by age, then year.
    """
    return MortalitySurface(params.ages, years, SurfaceKind.DEATH_PROB, params.q_of(states))


def _raise_first_fault(params, states: np.ndarray, years: YearRange) -> None:
    """Raise the DomainError of the first bad path of a failed sample forecast.

    ``states`` are the (horizon, dim, n_paths) states of all ``years``. Path
    chunks of the whole horizon are mapped by ``params.q_of`` as one
    forecast block is, in order, and :func:`check_surface_values`, the
    check of every death-probability surface, names the first bad cell by
    path, then age, then year. Called only once a block has failed, so it
    raises on some chunk.
    """
    ages = params.ages
    chunk = max(1, BLOCK_CELLS // (len(ages) * len(years)))
    for start in range(0, states.shape[-1], chunk):
        q = _paths_first(params.q_of(states[..., start : start + chunk]))
        check_surface_values(q, SurfaceKind.DEATH_PROB, ages, years, start)


def forecast_q(params, horizon: int, n_paths: int | None = None, seed: int | None = None):
    """Death probabilities for the :func:`forecast_years` after the fit ``params``.

    The walk is :func:`calibrate_rwd` of the params' :func:`time_indices`,
    and the forecast covers ``params.ages``. ``params.q_of`` is the model's
    array expression: it maps states of shape (n_years, dim[, n_paths]) to
    death probabilities of shape (n_ages, n_years[, n_paths]), and never
    raises. Every fault shows in q: a q that is non-finite, negative, or
    rounds to 1, as it does far enough out, is a DomainError naming the
    first such cell by path, then age, then year. Without ``n_paths`` the
    central projection is mapped to one MortalitySurface by
    :func:`q_surface`.

    With ``n_paths`` it returns the QUANTILE_PROBS bands over the paths, an
    (3, n_ages, horizon) array, bit for bit ``numpy.quantile(q, QUANTILE_PROBS,
    axis=0)`` of the (n_paths, n_ages, horizon) array q of all paths, which is
    never stored whole. The states are transposed once to (horizon, dim,
    n_paths); each block of years is then mapped by ``q_of`` into one
    (n_ages, years, n_paths) store, allocated once per forecast. A block
    passes when its values lie in [0, 1), and :func:`path_quantiles` then
    sorts it in place. A block that fails hands over to a search over path
    chunks of the whole horizon, which names the first bad cell.
    """
    states = forecast_states(calibrate_rwd(time_indices(params)), horizon, n_paths, seed)
    ages, years = params.ages, forecast_years(params, horizon)
    if n_paths is None:
        return q_surface(params, states, years)
    # year-major and path-last: a block's states are contiguous, and so is each cell's paths
    states = np.ascontiguousarray(np.moveaxis(states, 0, -1))
    per_year = len(ages) * n_paths
    step = min(horizon, max(1, BLOCK_CELLS // per_year))
    store = np.empty(step * per_year)
    bands = np.empty((len(QUANTILE_PROBS), len(ages), horizon))
    for t in range(0, horizon, step):
        n = min(step, horizon - t)
        block = store[: n * per_year].reshape(len(ages), n, n_paths)
        params.q_of(states[t : t + n], out=block)
        # written so that a NaN fails too
        if not (block.min() >= 0.0 and block.max() < 1.0):
            _raise_first_fault(params, states, years)
        bands[:, :, t : t + n] = path_quantiles(np.moveaxis(block, -1, 0), QUANTILE_PROBS)
    return bands
