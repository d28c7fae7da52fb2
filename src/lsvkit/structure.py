"""Arithmetic structure probes: lattice distance, LCD, small-ball frequency.

The least common denominator of a direction a with parameters alpha > 0,
gamma in (0, 1) is

    lcd(a) = inf { theta > 0 : dist(theta a, Z^n) < min(gamma ||theta a||, alpha) }.

lcd_vector resolves the infimum numerically: a grid scan over
(0, theta_max] followed by bisection, so the returned theta_star carries
a documented slack (final bracket width) and admissible windows narrower
than 4 grid steps can in principle be missed.  "Unbounded" results mean
no admissible theta was found up to theta_max, i.e. lcd(a) > theta_max
as far as the grid can tell.

small_ball_estimate measures the Levy concentration function
P(|sum_i w_i xi_i| <= epsilon) by seeded Monte Carlo with a Wilson 95%
interval.  Structure and concentration are linked: directions with large
LCD spread their signed sums out and show small small-ball mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import GAUSSIAN, Ensemble, SeedSpec, sample_array
from .errors import InvalidQuery
from .linalg import OrthonormalBasis, as_vector
from .stats import wilson_interval

DEFAULT_GAMMA = 0.5
DEFAULT_THETA_MAX = 1e4
BISECTION_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
LCD_GRID_BUDGET = 10_000_000
LCD_SAMPLE_BUDGET = 10_000

# Entries per LCD scan block (grid points x n) and uniforms per small-ball
# block (trials x n x draws per entry): small enough to stay in cache, large
# enough to amortize the per-block numpy calls.  No result depends on it.
BLOCK_ENTRIES = 1 << 16


def default_alpha(n: int) -> float:
    """Default admissibility cap alpha = sqrt(n)/2 for dimension n."""
    return 0.5 * np.sqrt(n)


def _round_half_away(v: np.ndarray) -> np.ndarray:
    # np.round ties to even; the lattice contract wants ties away from zero
    return np.trunc(v + np.copysign(0.5, v))


def dist_to_lattice(v) -> tuple[float, np.ndarray]:
    """Euclidean distance from v to Z^n and the nearest lattice point.

    Ties (half-integer coordinates) round away from zero, fixed for
    determinism.  The distance never exceeds sqrt(n)/2.
    """
    w = as_vector(v)
    rounded = _round_half_away(w)
    d = float(np.linalg.norm(w - rounded))
    return d, rounded.astype(np.int64)


@dataclass(frozen=True)
class LcdQuery:
    """Parameters of the LCD admissibility condition and of the search.

    grid_step = None picks min(gamma, 0.1) / (4 ||a||) at call time; an
    explicit step larger than gamma / (4 ||a||) is rejected because the
    map theta -> dist(theta a, Z^n) is ||a||-Lipschitz and a coarser
    grid could step over an admissible window.
    """

    alpha: float
    gamma: float
    theta_max: float = DEFAULT_THETA_MAX
    grid_step: float | None = None

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise InvalidQuery(f"gamma must lie in (0,1), got {self.gamma}")
        if self.alpha <= 0.0:
            raise InvalidQuery(f"alpha must be positive, got {self.alpha}")
        if self.theta_max <= 0.0:
            raise InvalidQuery(f"theta_max must be positive, got {self.theta_max}")
        if self.grid_step is not None and self.grid_step <= 0.0:
            raise InvalidQuery(f"grid_step must be positive, got {self.grid_step}")

    def resolved_step(self, a_norm: float) -> float:
        limit = self.gamma / (4.0 * a_norm)
        if self.grid_step is None:
            return min(self.gamma, 0.1) / (4.0 * a_norm)
        if self.grid_step > limit:
            raise InvalidQuery(
                f"grid_step {self.grid_step:.3e} exceeds gamma/(4*norm) = {limit:.3e}"
            )
        return self.grid_step


@dataclass(frozen=True)
class LcdResult:
    """theta_star None means no admissible theta <= theta_max (lcd > theta_max)."""

    theta_star: float | None
    achieved_dist: float | None
    certificate: np.ndarray | None
    slack: float
    n_samples: int | None = None
    direction: np.ndarray | None = None

    @property
    def unbounded(self) -> bool:
        return self.theta_star is None


class _LcdBuffers:
    """Work arrays of one lcd_vector call, reused by every admissibility test."""

    def __init__(self, rows: int, n: int):
        self.thetas = np.empty(rows)
        self.points = np.empty((rows, n))
        self.rounded = np.empty((rows, n))
        self.dists = np.empty(rows)
        self.limits = np.empty(rows)
        self.ok = np.empty(rows, dtype=bool)


def _first_admissible(thetas: np.ndarray, a: np.ndarray, a_norm: float, q: LcdQuery,
                      buf: _LcdBuffers) -> int | None:
    """Index of the first admissible entry of thetas (at most buf's rows), or None.

    Same operations, in the same order, as the unbuffered route:
    _round_half_away, np.linalg.norm(axis=1) (sqrt of add.reduce of the
    squares) and (gamma*theta)*||a||, so every decision is bitwise the same.
    """
    m = thetas.shape[0]
    pts, rnd = buf.points[:m], buf.rounded[:m]
    dists, limits, ok = buf.dists[:m], buf.limits[:m], buf.ok[:m]
    np.multiply(thetas[:, None], a, out=pts)
    np.copysign(0.5, pts, out=rnd)  # _round_half_away, written into rnd
    rnd += pts
    np.trunc(rnd, out=rnd)
    np.subtract(pts, rnd, out=pts)
    pts *= pts
    np.add.reduce(pts, axis=1, out=dists)
    np.sqrt(dists, out=dists)
    np.multiply(thetas, q.gamma, out=limits)
    limits *= a_norm
    np.minimum(limits, q.alpha, out=limits)
    np.less(dists, limits, out=ok)
    i = int(ok.argmax())
    return i if ok[i] else None


def lcd_vector(a, q: LcdQuery) -> LcdResult:
    """Smallest admissible theta in (0, theta_max], to grid + bisection accuracy.

    Scans the grid k*step in order, max(1, BLOCK_ENTRIES // n) points at
    a time through buffers allocated once per call (the reduction is a
    minimum, so partitioning cannot change the answer), then bisects
    between the first admissible grid point and its non-admissible
    predecessor down to BISECTION_TOL.  A grid longer than
    LCD_GRID_BUDGET points is rejected with InvalidQuery instead of
    scanned.
    """
    vec = as_vector(a)
    with np.errstate(over="ignore"):  # an overflowing norm is rejected just below
        a_norm = float(np.linalg.norm(vec))
    if not 0.0 < a_norm < np.inf:
        raise InvalidQuery(f"direction must be nonzero with a finite norm, got norm {a_norm}")
    step = q.resolved_step(a_norm)
    if q.theta_max / step > LCD_GRID_BUDGET:
        raise InvalidQuery(
            f"theta_max/step = {q.theta_max / step:.3e} grid points exceeds budget {LCD_GRID_BUDGET}")

    n_pts = int(np.floor(q.theta_max / step))
    chunk = max(1, min(BLOCK_ENTRIES // vec.shape[0], n_pts))
    buf = _LcdBuffers(chunk, vec.shape[0])
    offsets = np.arange(chunk, dtype=np.float64)

    def admissible(theta: float) -> bool:
        return _first_admissible(np.array([theta]), vec, a_norm, q, buf) is not None

    hit = None
    for lo_idx in range(1, n_pts + 1, chunk):
        thetas = buf.thetas[:min(chunk, n_pts + 1 - lo_idx)]
        # arange(lo_idx, ...) * step exactly, since integers below 2**53 are exact
        np.add(offsets[:thetas.shape[0]], lo_idx, out=thetas)
        thetas *= step
        i = _first_admissible(thetas, vec, a_norm, q, buf)
        if i is not None:
            hit = float(thetas[i])
            break
    if hit is None and n_pts * step < q.theta_max and admissible(q.theta_max):
        hit = float(q.theta_max)  # the ragged end of the interval
    if hit is None:
        return LcdResult(theta_star=None, achieved_dist=None, certificate=None, slack=0.0)

    lo = max(hit - step, 0.0)  # theta -> 0 is never admissible since gamma < 1
    hi = hit
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    d, cert = dist_to_lattice(hi * vec)
    return LcdResult(theta_star=hi, achieved_dist=d, certificate=cert, slack=hi - lo)


def lcd_subspace_sampled(basis: OrthonormalBasis, q: LcdQuery, samples: int,
                         seed: SeedSpec) -> LcdResult:
    """Upper-bound estimate of inf{lcd(a) : a unit vector in span(basis)}.

    Minimizes lcd_vector over `samples` uniformly distributed unit
    directions of the subspace (Gaussian coefficients, normalized).  As
    a sampled infimum it can only overestimate the true subspace LCD;
    an unbounded result says no sampled direction was admissible within
    theta_max, not that none exists.  More than LCD_SAMPLE_BUDGET
    directions are rejected with InvalidQuery before any is drawn.
    """
    if not 1 <= samples <= LCD_SAMPLE_BUDGET:
        raise InvalidQuery(f"samples must lie in [1, {LCD_SAMPLE_BUDGET}], got {samples}")
    if basis.size < 1:
        raise InvalidQuery("subspace must have dimension >= 1")
    coeffs = sample_array(GAUSSIAN, (samples, basis.size), seed)
    dirs = coeffs @ basis.vectors
    norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]

    best: LcdResult | None = None
    best_dir = None
    for i in range(samples):
        res = lcd_vector(dirs[i], q)
        if res.unbounded:
            continue
        if best is None or res.theta_star < best.theta_star:
            best = res
            best_dir = dirs[i].copy()
    if best is None:
        return LcdResult(theta_star=None, achieved_dist=None, certificate=None,
                         slack=0.0, n_samples=samples)
    return LcdResult(theta_star=best.theta_star, achieved_dist=best.achieved_dist,
                     certificate=best.certificate, slack=best.slack,
                     n_samples=samples, direction=best_dir)


@dataclass(frozen=True)
class SmallBallEstimate:
    epsilon: float
    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float


def small_ball_estimate(weights, ensemble: Ensemble, epsilon: float, trials: int,
                        seed: SeedSpec) -> SmallBallEstimate:
    """Monte Carlo P(|sum_i w_i xi_i| <= epsilon) for unit-norm weights.

    Entry (t, i) of the sample block sits at counter t*n + i of the
    stream, so max(1, BLOCK_ENTRIES // (n * draws_per_entry)) trials per
    block reproduce the same draws exactly in bounded memory.
    """
    w = as_vector(weights)
    if abs(float(np.linalg.norm(w)) - 1.0) > UNIT_NORM_TOL:
        raise InvalidQuery("weights must have unit Euclidean norm")
    if epsilon <= 0.0:
        raise InvalidQuery(f"epsilon must be positive, got {epsilon}")
    if trials < 1:
        raise InvalidQuery(f"trials must be >= 1, got {trials}")
    n = w.shape[0]
    chunk = max(1, BLOCK_ENTRIES // (n * ensemble.draws_per_entry))
    hits = 0
    for t0 in range(0, trials, chunk):
        m = min(chunk, trials - t0)
        block = sample_array(ensemble, (m, n), seed, entry_offset=t0 * n)
        sums = block @ w
        hits += int(np.count_nonzero(np.abs(sums) <= epsilon))
    p_hat = hits / trials
    lo, hi = wilson_interval(hits, trials)
    return SmallBallEstimate(epsilon=float(epsilon), trials=trials, hits=hits,
                             p_hat=p_hat, ci_low=lo, ci_high=hi)
