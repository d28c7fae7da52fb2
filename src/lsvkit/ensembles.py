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

* raw word for counter ``m`` (m = 0, 1, 2, ...)::

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

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import InvalidDimension

_G = np.uint64(0x9E3779B97F4A7C15)
_G2 = np.uint64(0x3C6EF372FE94F82A)  # 2*G mod 2**64
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

def _mix(z: np.ndarray) -> np.ndarray:
    z = z.copy()
    z ^= z >> np.uint64(30)
    z *= _M1
    z ^= z >> np.uint64(27)
    z *= _M2
    z ^= z >> np.uint64(31)
    return z


@dataclass(frozen=True)
class SeedSpec:
    """Addresses one reproducible random stream.

    Both fields must lie in [0, 2**64).  Trials, resampling rounds and
    internal sub-experiments are separated by stream_index, never by
    consuming extra draws, so per-trial data is independent of execution
    order.
    """

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        _check_u64("master_seed", self.master_seed)
        _check_u64("stream_index", self.stream_index)

    def key(self) -> int:
        return int(stream_keys(self.master_seed, [self.stream_index])[0])


def _check_u64(name: str, v) -> None:
    if not isinstance(v, int) or not 0 <= v < 1 << 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {v!r}")


def stream_keys(master_seed: int, streams) -> np.ndarray:
    """Keys of the given streams of master_seed, as a uint64 array.

    streams holds stream indices in [0, 2**64); the sums with G and 2*G
    wrap mod 2**64 like every other step of the scheme.
    """
    _check_u64("master_seed", master_seed)
    a = _mix(np.array([master_seed], dtype=np.uint64) + _G)
    return _mix(a ^ _mix(np.asarray(streams, dtype=np.uint64) + _G2))


def _uniforms(keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Uniforms for counters start .. start+count-1 of each key, along the last axis."""
    c = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    w = _mix(keys + c * _G)
    return ((w >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


def uniform_stream(seed: SeedSpec, start: int, count: int) -> np.ndarray:
    """Uniform draws in (0, 1) for counters start .. start+count-1."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
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
    if ensemble.kind == "gaussian":
        return ndtri(u)
    if ensemble.kind == "rademacher":
        return np.where(u < 0.5, -1.0, 1.0)
    if ensemble.kind == "uniform":
        return _SQRT3 * (2.0 * u - 1.0)
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
    if isinstance(shape, int):
        shape = (shape,)
    total = 1
    for s in shape:
        if s < 0:
            raise ValueError("shape entries must be nonnegative")
        total *= s
    d = ensemble.draws_per_entry
    u = uniform_stream(seed, entry_offset * d, total * d)
    return _transform(ensemble, u).reshape(shape)


def sample_matrix(ensemble: Ensemble, n: int, seed: SeedSpec) -> np.ndarray:
    """n x n matrix; entry (i, j) sits at counter i*n + j of the stream."""
    if n < 2:
        raise InvalidDimension(f"matrix dimension must be >= 2, got {n}")
    return sample_array(ensemble, (n, n), seed)


def sample_matrices(ensemble: Ensemble, n: int, master_seed: int, streams) -> np.ndarray:
    """(len(streams), n, n) stack of the given streams' matrices.

    Matrix b equals sample_matrix(ensemble, n, SeedSpec(master_seed, streams[b]))
    bit for bit.
    """
    if n < 2:
        raise InvalidDimension(f"matrix dimension must be >= 2, got {n}")
    keys = stream_keys(master_seed, streams)
    u = _uniforms(keys[:, None], 0, n * n * ensemble.draws_per_entry)
    return _transform(ensemble, u.ravel()).reshape(-1, n, n)


def sample_vector(ensemble: Ensemble, n: int, seed: SeedSpec) -> np.ndarray:
    if n < 1:
        raise InvalidDimension(f"vector dimension must be >= 1, got {n}")
    return sample_array(ensemble, (n,), seed)

