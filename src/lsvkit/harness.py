"""Seeded Monte Carlo experiments on the smallest singular value.

Experiment layout: trial t of a run with master seed m draws its matrix
from stream t of m, so every trial is a pure function of (m, t) and the
set of trials can be partitioned across workers arbitrarily without
changing a single value.  Degenerate draws (singular matrices, possible
with positive probability only for rademacher) are resampled from the
reserved substream r * 2**32 + t for resampling round r and counted in
singular_count, never scored.

Estimated quantities:

* upper tail   P(s_n(A) > K / sqrt(n))   expected shape ~ (C/K) log K
* lower tail   P(s_n(A) <= eps / sqrt(n))  expected shape ~ C eps
* scaling      median of sqrt(n) * s_n, stable in n
* distance     tail of dist(X_1, span of other columns), subgaussian

The exponential additive term in the tail bounds is far below Monte
Carlo resolution at the matrix sizes this harness targets, so fits drop
it; fit_tail_model recovers only the leading constant.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from .ensembles import Ensemble, sample_matrices
from .errors import (
    EnumerationTooLarge,
    InsufficientData,
    InvalidDimension,
    NumericallyDependent,
)
from .linalg import dist_to_subspace, orthonormalize, smallest_singular_values
from .stats import wilson_interval

# bench/layers.py traces these per-matrix names by rebinding them here
from .ensembles import sample_matrix  # noqa: F401
from .linalg import smallest_singular_value  # noqa: F401

RESAMPLE_STRIDE = 1 << 32
_MAX_RESAMPLE_ROUNDS = 64
MAX_WORKERS = 64
# Matrix entries sampled per map_trials block: large enough to amortize
# per-call overhead, small enough to keep peak memory flat.
BLOCK_ENTRIES = 1 << 14

DIST_THRESHOLDS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

TAIL_CSV_HEADER = ("ensemble,n,K,direction,trials,exceed_count,"
                   "p_hat,ci_low,ci_high,singular_count,master_seed")

ENUMERATION_BUDGET = 1_000_000


def fmt_g10(x: float) -> str:
    """Canonical 10-significant-digit float rendering for data files."""
    return format(float(x), ".10g")


def _loaded_openblas() -> tuple:
    """(file name, openblas_set_num_threads_local) of each OpenBLAS numpy and scipy bundle.

    Only copies this process has already loaded are bound (RTLD_NOLOAD),
    and a copy without the symbol is skipped.
    """
    found = []
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                set_threads = lib.openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = ctypes.c_int
            found.append((path.name, set_threads))
    return tuple(found)


_OPENBLAS = _loaded_openblas()
# file names of the OpenBLAS copies map_trials runs at one thread per worker
PINNED_BLAS = tuple(name for name, _ in _OPENBLAS)


class _OneBlasThread:
    """Context manager running its body with every bound OpenBLAS at one thread.

    map_trials threads each call BLAS, so a multi-threaded BLAS under them
    only oversubscribes the cores.  The bundled pthreads builds keep one
    process-wide count, so overlapping bodies share one pin: the first to
    enter saves each library's count, the last to leave restores it.
    Every entry still pins, which also covers builds whose count is per
    thread.  With no library bound it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            saved = tuple((set_threads, set_threads(1)) for _, set_threads in _OPENBLAS)
            if self._depth == 0:
                self._saved = saved
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_threads, count in self._saved:
                    set_threads(count)


_one_blas_thread = _OneBlasThread()


def map_trials(score, ensemble: Ensemble, n: int, trials: int, master_seed: int,
               workers: int = 1) -> tuple[list, int]:
    """Every trial's n x n matrix, scored in blocks; returns (values by trial, rejected draws).

    Trial t first draws its matrix from stream t of master_seed;
    rejection round r uses stream r * RESAMPLE_STRIDE + t, so resampling
    never collides with other trials' streams.  Matrices are drawn with
    sample_matrices, max(1, BLOCK_ENTRIES // n**2) at a time, and
    score(stack) returns one value per matrix of the stack, None to
    reject that draw; a block's rejected trials are redrawn together as
    a smaller block.  workers only partitions range(trials) into chunks
    run on a thread pool, and the block size only splits chunks, so
    neither ever changes a value.  Each chunk runs with the bundled
    OpenBLAS copies (PINNED_BLAS) at one thread, restored afterwards;
    where none is found the chunk runs unpinned.
    """
    if n < 2:
        raise InvalidDimension(f"n must be >= 2, got {n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > RESAMPLE_STRIDE:
        raise ValueError("trials must not exceed 2**32 (resample stream layout)")
    if workers > MAX_WORKERS:
        raise ValueError(f"workers must not exceed {MAX_WORKERS}, got {workers}")
    block = max(1, BLOCK_ENTRIES // (n * n))

    def run_block(t0: int, t1: int):
        values = [None] * (t1 - t0)
        pending = list(range(t0, t1))
        rejected = 0
        for r in range(_MAX_RESAMPLE_ROUNDS):
            streams = np.array(pending, dtype=np.uint64) + np.uint64(r * RESAMPLE_STRIDE)
            stack = sample_matrices(ensemble, n, master_seed, streams)
            retry = []
            for t, value in zip(pending, score(stack), strict=True):
                if value is None:
                    retry.append(t)
                else:
                    values[t - t0] = value
            if not retry:
                return values, rejected
            rejected += len(retry)
            pending = retry
        raise RuntimeError(f"trial {pending[0]}: {_MAX_RESAMPLE_ROUNDS} degenerate draws in a row")

    def run_chunk(t0: int, t1: int):
        values = []
        rejected = 0
        with _one_blas_thread:
            for b0 in range(t0, t1, block):
                v, r = run_block(b0, min(b0 + block, t1))
                values += v
                rejected += r
        return values, rejected

    if workers <= 1 or trials <= 1:
        return run_chunk(0, trials)
    chunk = math.ceil(trials / (workers * 4))
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(run_chunk, s, min(s + chunk, trials))
                   for s in range(0, trials, chunk)]
        parts = [f.result() for f in futures]
    return [v for values, _ in parts for v in values], sum(r for _, r in parts)


def scaled_sn_samples(ensemble: Ensemble, n: int, trials: int, master_seed: int,
                      workers: int = 1) -> tuple[np.ndarray, int]:
    """sqrt(n) * s_n over trials streams; returns (values by trial, singular_count)."""

    def score(stack: np.ndarray):
        return [v if v > 0.0 else None for v in smallest_singular_values(stack)]

    values, singular = map_trials(score, ensemble, n, trials, master_seed, workers)
    return np.array(values) * np.sqrt(n), singular


@dataclass(frozen=True)
class TailSweepConfig:
    ensemble: Ensemble
    n_values: tuple[int, ...]
    k_values: tuple[float, ...]
    trials: int
    master_seed: int
    direction: str  # "upper" (s_n > K/sqrt(n)) or "lower" (s_n <= eps/sqrt(n))
    workers: int = 1

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        if not self.n_values or not self.k_values:
            raise ValueError("n_values and k_values must be nonempty")
        for n in self.n_values:
            if n < 2:
                raise InvalidDimension(f"n must be >= 2, got {n}")
        for k in self.k_values:
            if k < 0:
                raise ValueError(f"thresholds must be nonnegative, got {k}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TailEstimate:
    ensemble: str
    n: int
    k: float
    direction: str
    trials: int
    exceed_count: int
    p_hat: float
    ci_low: float
    ci_high: float
    singular_count: int
    master_seed: int

    @property
    def in_guarantee_range(self) -> bool:
        """Upper-tail theory speaks only for K >= 2; smaller K is curve shaping."""
        return self.direction == "lower" or self.k >= 2.0


def run_tail_sweep(cfg: TailSweepConfig) -> list[TailEstimate]:
    """One pass per n; every K threshold is evaluated on the same samples.

    Shared samples make p_hat exactly monotone in the threshold, and the
    upper count at t plus the lower count at t equals trials (ties go to
    the lower tail).
    """
    out: list[TailEstimate] = []
    for n in sorted(set(cfg.n_values)):
        values, singular = scaled_sn_samples(cfg.ensemble, n, cfg.trials,
                                             cfg.master_seed, cfg.workers)
        for k in sorted(set(float(k) for k in cfg.k_values)):
            if cfg.direction == "upper":
                count = int(np.count_nonzero(values > k))
            else:
                count = int(np.count_nonzero(values <= k))
            lo, hi = wilson_interval(count, cfg.trials)
            out.append(TailEstimate(
                ensemble=cfg.ensemble.kind, n=n, k=k, direction=cfg.direction,
                trials=cfg.trials, exceed_count=count, p_hat=count / cfg.trials,
                ci_low=lo, ci_high=hi, singular_count=singular,
                master_seed=cfg.master_seed,
            ))
    return out


def write_tail_csv(estimates: list[TailEstimate], path) -> None:
    """Schema is frozen: exact header below, 10-significant-digit floats,
    rows sorted by (n, K), LF line endings."""
    rows = sorted(estimates, key=lambda e: (e.n, e.k))
    lines = [TAIL_CSV_HEADER]
    for e in rows:
        lines.append(",".join([
            e.ensemble, str(e.n), fmt_g10(e.k), e.direction, str(e.trials),
            str(e.exceed_count), fmt_g10(e.p_hat), fmt_g10(e.ci_low),
            fmt_g10(e.ci_high), str(e.singular_count), str(e.master_seed),
        ]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class ScalingRow:
    n: int
    trials: int
    median_scaled: float
    q1: float
    q3: float
    iqr: float
    singular_count: int


def median_scaling_report(ensemble: Ensemble, n_values, trials: int, master_seed: int,
                          workers: int = 1) -> list[ScalingRow]:
    """Robust per-n statistics of sqrt(n) * s_n (median and quartiles)."""
    rows = []
    for n in sorted(set(n_values)):
        values, singular = scaled_sn_samples(ensemble, n, trials, master_seed, workers)
        q1, med, q3 = (float(q) for q in np.percentile(values, [25.0, 50.0, 75.0]))
        rows.append(ScalingRow(n=n, trials=trials, median_scaled=med,
                               q1=q1, q3=q3, iqr=q3 - q1, singular_count=singular))
    return rows


@dataclass(frozen=True)
class DistanceTailReport:
    ensemble: str
    n: int
    trials: int
    master_seed: int
    samples: np.ndarray
    tail: tuple  # ((u, empirical P(dist > u)), ...) at DIST_THRESHOLDS
    singular_count: int


def distance_tail_experiment(ensemble: Ensemble, n: int, trials: int, master_seed: int,
                             workers: int = 1) -> DistanceTailReport:
    """Sample dist(X_1, span of the other columns) and report its upper tail.

    Draws whose non-distinguished columns are numerically dependent are
    resampled like singular draws in the s_n sweeps.
    """

    def distance(m: np.ndarray):
        try:
            basis = orthonormalize(m[:, 1:])
        except NumericallyDependent:
            return None
        return dist_to_subspace(m[:, 0], basis)

    values, singular = map_trials(lambda stack: [distance(m) for m in stack],
                                  ensemble, n, trials, master_seed, workers)
    samples = np.array(values)
    tail = tuple((u, float(np.count_nonzero(samples > u)) / trials) for u in DIST_THRESHOLDS)
    return DistanceTailReport(ensemble=ensemble.kind, n=n, trials=trials,
                              master_seed=master_seed, samples=samples, tail=tail,
                              singular_count=singular)


def check_markov_sum_bound(distribution, n: int, epsilon: float) -> tuple[float, float]:
    """Exact enumeration of P(mean of n i.i.d. Z <= eps) vs 2 * P(Z <= 2 eps).

    distribution is a sequence of (value, probability) pairs with
    nonnegative values summing to probability 1.  Both sides are exact
    sums over the support^n product space; the averaging argument
    guarantees lhs <= rhs, which is re-checked defensively.
    """
    pairs = list(distribution)
    if not pairs:
        raise ValueError("distribution must be nonempty")
    vals = np.array([float(v) for v, _ in pairs])
    probs = np.array([float(p) for _, p in pairs])
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise ValueError("support values must be finite and nonnegative")
    if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must be nonnegative and sum to 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if len(pairs) ** n > ENUMERATION_BUDGET:
        raise EnumerationTooLarge(
            f"support^n = {len(pairs)}^{n} exceeds budget {ENUMERATION_BUDGET}")

    sums = np.zeros(1)
    weights = np.ones(1)
    for _ in range(n):
        sums = (sums[:, None] + vals[None, :]).ravel()
        weights = (weights[:, None] * probs[None, :]).ravel()
    lhs = float(weights[sums <= n * epsilon].sum())
    rhs = float(2.0 * probs[vals <= 2.0 * epsilon].sum())
    if lhs > rhs + 1e-12:
        raise RuntimeError(f"averaged-tail bound violated: lhs={lhs} rhs={rhs}")
    return lhs, rhs


@dataclass(frozen=True)
class TailFitReport:
    direction: str
    n: int
    constant: float
    thresholds: np.ndarray
    observed: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray

    def predict(self, k: float) -> float:
        if self.direction == "upper":
            return self.constant * math.log(k) / k
        return self.constant * k


def fit_tail_model(estimates: list[TailEstimate]) -> TailFitReport:
    """Least-squares constant for the expected tail shape.

    upper: p(K) ~ C log(K)/K over >= 3 distinct positive K;
    lower: p(eps) ~ C eps over >= 2 distinct positive eps.
    The additive exponential term is dropped (unobservably small here),
    so C is the only fitted parameter.
    """
    if not estimates:
        raise InsufficientData("no estimates supplied")
    directions = {e.direction for e in estimates}
    ns = {e.n for e in estimates}
    if len(directions) != 1 or len(ns) != 1:
        raise ValueError("estimates must share one direction and one n")
    direction = directions.pop()
    n = ns.pop()
    pts = sorted({e.k for e in estimates if e.k > 0})
    needed = 3 if direction == "upper" else 2
    if len(pts) < needed:
        raise InsufficientData(
            f"{direction} fit needs >= {needed} distinct positive thresholds, got {len(pts)}")
    by_k = {}
    for e in estimates:
        if e.k > 0:
            by_k.setdefault(e.k, []).append(e.p_hat)
    ks = np.array(pts)
    p = np.array([float(np.mean(by_k[k])) for k in pts])
    basis = np.log(ks) / ks if direction == "upper" else ks
    denom = float(basis @ basis)
    if denom == 0.0:
        raise InsufficientData("degenerate design (all basis values zero)")
    c = float(basis @ p) / denom
    fitted = c * basis
    return TailFitReport(direction=direction, n=n, constant=c, thresholds=ks,
                         observed=p, fitted=fitted, residuals=p - fitted)
