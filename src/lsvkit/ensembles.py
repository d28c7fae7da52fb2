"""Seeded sampling of i.i.d. centered unit-variance entry distributions.

Reproducibility is counter based: entry values are pure functions of
``(master_seed, stream_index, entry_index)``, so chunked or parallel
generation cannot change a single byte of output.

Frozen generation scheme (changing any constant is a breaking change):

* ``mix(z)`` is the splitmix64 finalizer::

      z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
      z ^= z >> 27;  z *= 0x94D049BB133111EB
      z ^= z >> 31

* stream key, all arithmetic mod 2**64 with G = 0x9E3779B97F4A7C15::

      key = mix(mix(master_seed + G) ^ mix(stream_index + 2*G))

* raw word for counter ``m`` (m = 0, 1, ..., 2**64 - 2, so that m + 1
  is a uint64)::

      w_m = mix(key + (m + 1) * G)

* uniform draw in the open interval (0, 1)::

      u_m = ((w_m >> 12) + 0.5) * 2**-52

  The top 52 bits are kept so every u_m is exactly representable and
  bounded away from 0 and 1 (min 2**-53, max 1 - 2**-53); inverse-CDF
  transforms therefore never see 0 or 1.

* entry transforms (entry ``j`` consumes uniforms
  ``j*draws_per_entry .. (j+1)*draws_per_entry - 1``):

  - ``gaussian``    1 draw:  Phi^{-1}(u)
  - ``rademacher``  1 draw:  -1 if u < 1/2 else +1
  - ``uniform``     1 draw:  sqrt(3) * (2u - 1)
  - ``student_t5``  6 draws: sqrt(3/5) * N0 / sqrt((N1^2+...+N5^2)/5)
    with N_i = Phi^{-1}(u_i); exact Student t with 5 degrees of freedom
    scaled to unit variance, built from normals because the direct
    inverse CDF is an order of magnitude slower per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, as_int

_G = np.uint64(0x9E3779B97F4A7C15)
_G2 = np.uint64(0x3C6EF372FE94F82A)  # 2*G mod 2**64
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

def _mix(z: np.ndarray) -> np.ndarray:
    """Apply mix to the uint64 array z in place; returns z."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= _M1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _M2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Both fields lie in [0, 2**64).  Trials, resampling rounds and internal
    sub-experiments are separated by stream_index, never by consuming
    extra draws, so per-trial data is independent of execution order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_index"):
            object.__setattr__(self, name, as_int(name, getattr(self, name), 0, 2**64 - 1))

    def key(self) -> int:
        return int(stream_keys(self.master_seed, [self.stream_index])[0])


def stream_keys(master_seed: int, streams) -> np.ndarray:
    """Keys of the given streams of master_seed, as a uint64 array.

    streams holds stream indices in [0, 2**64); the sums with G and 2*G
    wrap mod 2**64 like every other step of the scheme.
    """
    master_seed = as_int("master_seed", master_seed, 0, 2**64 - 1)
    if not (isinstance(streams, np.ndarray) and streams.dtype == np.uint64):
        # as objects: np.asarray would take [0, 2**64 - 1] as float64 and 1.5 as 1
        given = np.array(streams, dtype=object)
        streams = np.array([as_int("stream index", s, 0, 2**64 - 1) for s in given.flat],
                           dtype=np.uint64).reshape(given.shape)
    a = _mix(np.array([master_seed], dtype=np.uint64) + _G)
    # a 0-d sum would take numpy's scalar path, which warns on the wraparound
    return _mix(a ^ _mix(np.atleast_1d(streams) + _G2))


def _uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms for counters start .. start+count-1 of each key, along the last axis.

    One array carries the counters, the raw words and, viewed as float64
    in place, the uniforms.
    """
    w = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    w *= _G
    if keys.ndim:
        w = keys + w  # a (b, 1) block of keys spreads the counters over b rows
    else:
        w += keys
    _mix(w)
    w >>= np.uint64(12)
    flat = w.reshape(-1)
    u = flat.view(np.float64)
    u[...] = flat  # 1-D, element over element: numpy casts this in place, without a temporary
    u += 0.5
    u *= 2.0**-52
    return u.reshape(w.shape)


def uniform_stream(seed: SeedSpec, start: int, count: int) -> np.ndarray:
    """Uniform draws in (0, 1) for counters start .. start+count-1, all below 2**64 - 1."""
    start = as_int("start", start, 0, 2**64 - 1)
    count = as_int("count", count, 0, 2**64 - 1 - start)  # the last counter is 2**64 - 2
    return _uniforms(np.uint64(seed.key()), start, count)


@dataclass(frozen=True)
class Ensemble:
    """An i.i.d. entry distribution with mean 0 and variance 1.

    fourth_moment is the exact E[xi^4]; subgaussian flags whether the
    tails decay at least as fast as a Gaussian's.
    """

    kind: str
    subgaussian: bool
    fourth_moment: float
    draws_per_entry: int


GAUSSIAN = Ensemble("gaussian", True, 3.0, 1)
RADEMACHER = Ensemble("rademacher", True, 1.0, 1)
UNIFORM = Ensemble("uniform", True, 9.0 / 5.0, 1)
STUDENT_T5 = Ensemble("student_t5", False, 9.0, 6)

ENSEMBLES = {e.kind: e for e in (GAUSSIAN, RADEMACHER, UNIFORM, STUDENT_T5)}


def get_ensemble(name: str) -> Ensemble:
    try:
        return ENSEMBLES[name]
    except KeyError:
        raise ValueError(f"unknown ensemble {name!r}; choose from {sorted(ENSEMBLES)}") from None


_SQRT3 = np.sqrt(3.0)
_T5_SCALE = np.sqrt(3.0 / 5.0)  # sqrt((nu-2)/nu) for nu=5


def _transform(ensemble: Ensemble, u: np.ndarray) -> np.ndarray:
    """Map uniforms (count = entries * draws_per_entry) to entry values."""
    if ensemble.kind == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if ensemble.kind == "uniform":
        return _SQRT3 * (2.0 * u - 1.0)
    # loaded here so that runs which never draw a normal never import scipy.special
    from scipy.special import ndtri
    if ensemble.kind == "gaussian":
        return ndtri(u)
    if ensemble.kind == "student_t5":
        z = ndtri(u.reshape(-1, 6))
        denom = np.sqrt(np.mean(z[:, 1:] ** 2, axis=1))
        return _T5_SCALE * z[:, 0] / denom
    raise ValueError(f"unknown ensemble kind {ensemble.kind!r}")


def sample_array(ensemble: Ensemble, shape: tuple[int, ...] | int, seed: SeedSpec,
                 entry_offset: int = 0) -> np.ndarray:
    """Entries ``entry_offset .. entry_offset + prod(shape) - 1`` of a stream.

    Row-major: reshaping or generating the same stream in chunks (via
    entry_offset) yields identical values, which is what makes worker
    partitioning invisible in outputs.
    """
    shape = tuple(as_int("shape entry", s, 0) for s in np.atleast_1d(shape))
    d = ensemble.draws_per_entry
    u = uniform_stream(seed, as_int("entry_offset", entry_offset, 0) * d, math.prod(shape) * d)
    return _transform(ensemble, u).reshape(shape)


def sample_matrix(ensemble: Ensemble, n: int, seed: SeedSpec) -> np.ndarray:
    """n x n matrix; entry (i, j) sits at counter i*n + j of the stream."""
    return sample_matrices(ensemble, n, seed.master_seed, [seed.stream_index])[0]


def sample_matrices(ensemble: Ensemble, n: int, master_seed: int, streams) -> np.ndarray:
    """(len(streams), n, n) stack of the given streams' matrices.

    Matrix b equals sample_matrix(ensemble, n, SeedSpec(master_seed, streams[b]))
    bit for bit.
    """
    n = as_int("matrix dimension n", n, 2, error=InvalidDimension)
    keys = stream_keys(master_seed, streams)
    u = _uniforms(keys[:, None], 0, n * n * ensemble.draws_per_entry)
    return _transform(ensemble, u.ravel()).reshape(-1, n, n)


def sample_vector(ensemble: Ensemble, n: int, seed: SeedSpec) -> np.ndarray:
    return sample_array(ensemble, as_int("vector dimension n", n, 1, error=InvalidDimension), seed)

