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
    _locate,
    check_surface_values,
)

# Sample paths are mapped to death probabilities this many at a time, so
# the temporaries of a model's array expression stay a few MB however many
# paths are asked for.
PATH_CHUNK = 256

# A path's index is one 32-bit word of its stream's seed, so n_paths must
# stay below this.
PATH_LIMIT = 2**32

# numpy.random.SeedSequence's hash constants and pool size (O'Neill's
# seed_seq_fe, as in numpy/random/bit_generator.pyx) and PCG64's 128-bit
# LCG multiplier (O'Neill 2014, "PCG"). simulate_paths reproduces numpy's
# Generator(PCG64(SeedSequence([seed, p]))) with them; numpy's own
# generators are the test oracle.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


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


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits an int."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, np.uint32)`` for many entropies.

    ``entropy`` lists the uint32 words in order, word k of every entropy
    in array k. The hash constants advance the same way whatever the
    words are, so the pool mix runs on whole arrays; uint32 arithmetic
    wraps as SeedSequence's does.
    """
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
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _pcg64_streams(seed: int, n_paths: int):
    """PCG64 (state, inc) seeded by ``SeedSequence([seed, p])``, p < n_paths.

    The entropy of path p is the words of ``seed`` followed by the one word
    of p. Its SeedSequence state gives two 128-bit words, high half first:
    the initial state and the stream. PCG64 seeds with two LCG steps,
    state = ((inc + initstate) * mult + inc), where inc = 2 * stream + 1.
    """
    entropy = [np.full(n_paths, w, dtype=np.uint32) for w in _uint32_words(seed)]
    entropy.append(np.arange(n_paths, dtype=np.uint32))
    words = _seed_sequence_state(entropy)
    # little-endian pairs of uint32 words make the four uint64 words
    w0, w1, w2, w3 = (
        (words[2 * k].astype(np.uint64) | words[2 * k + 1].astype(np.uint64) << np.uint64(32))
        .tolist()
        for k in range(4)
    )
    for hi_state, lo_state, hi_seq, lo_seq in zip(w0, w1, w2, w3):
        inc = ((hi_seq << 64 | lo_seq) << 1 | 1) & _MASK128
        init_state = (hi_state << 64) | lo_state
        yield ((inc + init_state) * _PCG_MULT + inc) & _MASK128, inc


def simulate_paths(params: RwdParams, horizon: int, n_paths: int, seed: int) -> np.ndarray:
    """Simulate seeded sample paths of the walk; shape (n_paths, horizon, dim).

    Path p draws its (horizon, dim) standard normals from its own stream,
    bit for bit that of ``Generator(PCG64(SeedSequence([seed, p])))``, so any
    path can be reproduced on its own and the result is bit-identical for
    a fixed seed whatever the number of paths. The streams' seeds are
    computed for all paths at once and loaded into one reused PCG64; drift,
    innovation factor and the cumulative sum are then applied to all paths
    at once. ``n_paths`` must be below PATH_LIMIT, so that p is one seed word.
    """
    if horizon < 1:
        raise DomainError(f"horizon must be positive, got {horizon}")
    if not 1 <= n_paths < PATH_LIMIT:
        raise DomainError(f"n_paths must be in [1, 2**32), got {n_paths}")
    if seed < 0:
        raise DomainError("seed must be a nonnegative integer")
    z = np.empty((n_paths, horizon, params.dim))
    bit_generator = np.random.PCG64()
    generator = np.random.Generator(bit_generator)
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for p, (state, inc) in enumerate(_pcg64_streams(int(seed), n_paths)):
        pcg["state"], pcg["inc"] = state, inc
        bit_generator.state = full
        generator.standard_normal(out=z[p])
    increments = params.drift + z @ params.innovation_factor.T
    return params.last_state + np.cumsum(increments, axis=1)


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
    cell's paths are contiguous, as in the path-last storage behind
    forecast_q's sample arrays. The values must be finite, as forecast_q
    guarantees for those arrays.
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


def _check_below_one(q: np.ndarray, ages: AgeRange, years: YearRange, first_path: int = 0) -> None:
    """Reject a death probability that rounds to 1, naming its path, age and year."""
    if q.max() >= 1.0:
        raise DomainError(f"death probability of 1 at {_locate(q >= 1.0, ages, years, first_path)}")


def forecast_q(params, horizon: int, n_paths: int | None = None, seed: int | None = None):
    """Death probabilities for the :func:`forecast_years` after the fit ``params``.

    The walk is :func:`calibrate_rwd` of the params' :func:`time_indices`,
    and the forecast covers ``params.ages``. ``params.q_of`` is the model's
    array expression: it maps states of shape (..., horizon, dim) to death
    probabilities of shape (..., n_ages, horizon), and names the path, age
    and year of any cell its own expression fails at. Without ``n_paths``
    it maps the central projection to one validated MortalitySurface. With
    ``n_paths`` it maps the simulated paths PATH_CHUNK at a time, checking
    each block once (finite, inside [0, 1], first bad cell named by path,
    age and year), and returns an (n_paths, n_ages, horizon) array. Either
    way a q that rounds to 1, as it does far enough out, is a DomainError
    naming its path, age and year.

    The sample array is stored path-last, (n_ages, horizon, n_paths) in C
    order, so that each cell's paths are contiguous for
    :func:`path_quantiles`; the returned array is a non-contiguous view of
    that storage with the path axis moved first. Reorder it freely, but
    copy it before relying on C order.
    """
    states = forecast_states(calibrate_rwd(time_indices(params)), horizon, n_paths, seed)
    ages, years = params.ages, forecast_years(params, horizon)
    if n_paths is None:
        q = params.q_of(states, years)
        _check_below_one(q, ages, years)
        return MortalitySurface(ages, years, SurfaceKind.DEATH_PROB, q)
    out = np.empty((len(ages), horizon, states.shape[0]))
    for start in range(0, states.shape[0], PATH_CHUNK):
        block = params.q_of(states[start : start + PATH_CHUNK], years, start)
        check_surface_values(block, SurfaceKind.DEATH_PROB, ages, years, first_path=start)
        _check_below_one(block, ages, years, start)
        out[..., start : start + PATH_CHUNK] = np.moveaxis(block, 0, -1)
        # freed before the next chunk's temporaries are made
        del block
    return np.moveaxis(out, -1, 0)
