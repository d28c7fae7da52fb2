"""Independent oracles used by the test suite.

Everything here is deliberately implemented along different routes than
the library (cofactor expansion instead of LU, exhaustive grids instead
of bisection, explicit enumeration instead of sampling) so a test
failure points at a real disagreement, not a shared bug.
"""

from __future__ import annotations

import math

import numpy as np

from lsvkit.ensembles import SeedSpec, sample_matrix


def det_cofactor(a: np.ndarray) -> float:
    """Determinant by recursive first-row cofactor expansion (n <= 8)."""
    n = a.shape[0]
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * float(a[0, j]) * det_cofactor(minor)
    return total


def inverse_cofactor(a: np.ndarray) -> np.ndarray:
    """Matrix inverse via the adjugate; O(n!) but exact in structure."""
    n = a.shape[0]
    d = det_cofactor(a)
    if d == 0.0:
        raise ZeroDivisionError("singular input")
    cof = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = ((-1.0) ** (i + j)) * det_cofactor(minor)
    return cof.T / d


def solve_cofactor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return inverse_cofactor(a) @ b


def round_half_away_scalarwise(v: np.ndarray) -> np.ndarray:
    # sign/floor route, distinct from the library's trunc/copysign route
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def lattice_dist(v: np.ndarray) -> float:
    return float(np.linalg.norm(v - round_half_away_scalarwise(v)))


def lcd_grid_oracle(a: np.ndarray, gamma: float, alpha: float, theta_max: float,
                    step: float) -> float | None:
    """First admissible grid multiple of `step`, or None if there is none.

    Exhaustive vectorized scan; no bisection, no early refinement.
    """
    a = np.asarray(a, dtype=np.float64)
    norm = float(np.linalg.norm(a))
    n_pts = int(math.floor(theta_max / step))
    block = 1 << 15
    for lo in range(1, n_pts + 1, block):
        hi = min(lo + block, n_pts + 1)
        thetas = np.arange(lo, hi, dtype=np.float64) * step
        pts = thetas[:, None] * a[None, :]
        d = np.linalg.norm(pts - round_half_away_scalarwise(pts), axis=1)
        ok = d < np.minimum(gamma * thetas * norm, alpha)
        idx = np.flatnonzero(ok)
        if idx.size:
            return float(thetas[idx[0]])
    return None


def rademacher_sum_distribution(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All 2^n signed sums of the weights with their exact probabilities."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    if n > 20:
        raise ValueError("enumeration limited to n <= 20")
    signs = np.array([[1.0 if (mask >> i) & 1 else -1.0 for i in range(n)]
                      for mask in range(1 << n)])
    sums = signs @ w
    probs = np.full(1 << n, 1.0 / (1 << n))
    return sums, probs


def rademacher_small_ball_exact(weights: np.ndarray, epsilon: float) -> float:
    sums, probs = rademacher_sum_distribution(weights)
    return float(probs[np.abs(sums) <= epsilon].sum())


def half_normal_cdf(x: np.ndarray) -> np.ndarray:
    """CDF of |N(0,1)|: erf(x / sqrt(2)) for x >= 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x <= 0.0, 0.0, np.vectorize(math.erf)(x / math.sqrt(2.0)))


def gaussian_abs_tail(u: float) -> float:
    """P(|N(0,1)| > u)."""
    return math.erfc(u / math.sqrt(2.0))


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF and `cdf`."""
    s = np.sort(np.asarray(samples, dtype=np.float64))
    n = s.shape[0]
    theo = np.asarray(cdf(s), dtype=np.float64)
    upper = np.max(np.arange(1, n + 1) / n - theo)
    lower = np.max(theo - np.arange(0, n) / n)
    return float(max(upper, lower))


def first_accepted_draw(ensemble, n: int, master_seed: int, t: int, value):
    """(value(m), rejected rounds) of trial t, drawing one matrix per stream.

    Round r draws stream r * 2**32 + t until value(m) is not None: the
    resample layout of the trial engine, without its blocks or workers.
    """
    for r in range(64):
        v = value(sample_matrix(ensemble, n, SeedSpec(master_seed, r * 2**32 + t)))
        if v is not None:
            return v, r
    raise AssertionError(f"trial {t} never drew an accepted matrix")
