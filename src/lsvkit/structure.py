"""Arithmetic structure probes: lattice distance, LCD, small-ball frequency.

The least common denominator of a direction a with parameters alpha > 0,
gamma in (0, 1) is

    lcd(a) = inf { theta > 0 : dist(theta a, Z^n) < min(gamma ||theta a||, alpha) }.

lcd_vector resolves the infimum numerically: a grid scan over
(0, theta_max] followed by bisection, so the returned theta_star carries
a documented slack (final bracket width) and admissible windows narrower
than 4 grid steps can in principle be missed.  The scan evaluates a
coarse subgrid first and skips every run of grid points that the
Lipschitz bound of theta -> dist(theta a, Z^n) proves inadmissible; the
skipped points could not have been the first admissible one, so the
answer is the full scan's.  "Unbounded" results mean no admissible theta
was found up to theta_max, i.e. lcd(a) > theta_max as far as the grid
can tell.

small_ball_estimate measures the Levy concentration function
P(|sum_i w_i xi_i| <= epsilon) by seeded Monte Carlo with a Wilson 95%
interval.  Structure and concentration are linked: directions with large
LCD spread their signed sums out and show small small-ball mass.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ensembles import GAUSSIAN, Ensemble, SeedSpec, sample_array
from .errors import InvalidQuery, as_int
from .linalg import OrthonormalBasis, as_vector
from .stats import wilson_interval

DEFAULT_GAMMA = 0.5
DEFAULT_THETA_MAX = 1e4
BISECTION_TOL = 1e-10
UNIT_NORM_TOL = 1e-10
LCD_GRID_BUDGET = 10_000_000
LCD_SAMPLE_BUDGET = 10_000
SMALL_BALL_TRIAL_BUDGET = 1 << 32  # the trial cap of the tail and witness runs

# Entries per LCD scan block (grid points x n) and uniforms per small-ball
# block (trials x n x draws per entry): small enough to stay in cache, large
# enough to amortize the per-block numpy calls.  No result depends on it.
BLOCK_ENTRIES = 1 << 16


def default_alpha(n: int) -> float:
    """Default admissibility cap alpha = sqrt(n)/2 for dimension n.

    sqrt(n)/2 is the largest distance of any point of R^n from Z^n, so
    this cap never binds: only the deep holes (Z + 1/2)^n sit at distance
    alpha, every other theta with gamma*theta*||a|| > alpha is admissible,
    and every direction's LCD is at most about sqrt(n)/(2*gamma*||a||).
    """
    return 0.5 * np.sqrt(n)


def _round_half_away(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # np.round ties to even; the lattice contract wants ties away from zero:
    # r = trunc(v), plus copysign(1, v) where |v - r| >= 0.5, written into out
    # when given.  v - r and its double are exact, so trunc(2|v - r|) is that
    # indicator; trunc(v + copysign(0.5, v)) would round the sum, taking
    # 2**52 + 1 to 2**52 + 2 and 0.5 - 2**-54 to 1.
    r = np.trunc(v, out=out)
    f = v - r
    np.abs(f, out=f)
    f += f
    r += np.copysign(np.trunc(f, out=f), v, out=f)
    return r


def dist_to_lattice(v) -> tuple[float, np.ndarray]:
    """Euclidean distance from v to Z^n and the nearest lattice point.

    Ties (half-integer coordinates) round away from zero, fixed for
    determinism.  The distance never exceeds sqrt(n)/2.  Raises
    ValueError when a coordinate of the lattice point does not fit int64.
    """
    w = as_vector(v)
    rounded = _round_half_away(w)
    if not np.all((rounded >= -2.0**63) & (rounded < 2.0**63)):
        raise ValueError("nearest lattice point has a coordinate outside the int64 range")
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
        # written so that NaN fails every test; an infinite alpha means no cap
        if not (0.0 < self.gamma < 1.0):
            raise InvalidQuery(f"gamma must lie in (0,1), got {self.gamma}")
        if not self.alpha > 0.0:
            raise InvalidQuery(f"alpha must be positive, got {self.alpha}")
        if not self.theta_max > 0.0:
            raise InvalidQuery(f"theta_max must be positive, got {self.theta_max}")
        if self.grid_step is not None and not self.grid_step > 0.0:
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
    """The defaults are the unbounded result: theta_star None, lcd > theta_max.

    grid_points_evaluated counts the grid points whose lattice distance
    the scan computed (summed over directions for a sampled subspace).
    """

    theta_star: float | None = None
    achieved_dist: float | None = None
    certificate: np.ndarray | None = None
    slack: float = 0.0
    n_samples: int | None = None
    direction: np.ndarray | None = None
    grid_points_evaluated: int = 0

    @property
    def unbounded(self) -> bool:
        return self.theta_star is None


def _lattice_terms(thetas: np.ndarray, a: np.ndarray, a_norm: float, q: LcdQuery,
                   scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lattice distances of thetas*a and their limits min(gamma*theta*||a||, alpha).

    The two 2-D intermediates are written into scratch, of shape
    (2, rows, n) with rows >= len(thetas), by _round_half_away and in the
    same operations and order as np.linalg.norm(axis=1) (sqrt of
    add.reduce of the squares) and (gamma*theta)*||a||, so every value is
    bitwise the unbuffered route's.
    """
    m = thetas.shape[0]
    pts, rnd = scratch[0, :m], scratch[1, :m]
    np.multiply(thetas[:, None], a, out=pts)
    pts -= _round_half_away(pts, out=rnd)
    pts *= pts
    dists = np.sqrt(np.add.reduce(pts, axis=1))
    return dists, np.minimum(thetas * q.gamma * a_norm, q.alpha)


def _scan_grid(a: np.ndarray, a_norm: float, q: LcdQuery, step: float, n_pts: int,
               scratch: np.ndarray) -> tuple[float | None, int]:
    """The first admissible grid point k*step, k in [1, n_pts], and the grid points evaluated.

    A coarse pass evaluates every stride-th grid point (and the last);
    the fine pass then scans, in grid order and a block of scratch's rows
    at a time, only the intervals between coarse points that it cannot
    rule out.  Since theta -> dist(theta a, Z^n) is ||a||-Lipschitz, every
    theta between consecutive coarse points theta_i < theta_j (theta_i = 0
    before the first) with computed distances d_i, d_j lies at distance
    at least (d_i + d_j - (theta_j - theta_i)*||a||) / 2, and every limit
    there is at most the one at theta_j; an interval whose bound exceeds
    that limit plus a margin is skipped.  The stride makes an interval as
    long, in theta*||a||, as the largest limit min(alpha,
    gamma*theta_max*||a||), clipped to [1, n_pts].  The first coarse
    block spans only one fine block's grid points, so an early hit costs
    little more than the full scan's first block.  Integers below 2**53
    are exact in float64, so every theta is k*step rounded once, whichever
    pass computes it.

    The margin 16*n*eps*(theta_max*||a|| + sqrt(n)) covers the float
    error of the rule.  With u = eps/2 and T = theta*||a|| (at most
    theta_max*||a||, below 2.5e6 for any scan within LCD_GRID_BUDGET), a
    computed distance is within 3*u*T + (n+6)*u*sqrt(n)/4 of the exact
    distance at the same theta (the product theta*a, the choice of the
    nearest integer, the sum of n squares, the square root).  Adding the
    errors of both interval ends, of ||a|| and the interval width, of the
    bound's two additions and of limit + margin, a computed bound exceeds
    the computed distance of a grid point in its interval by at most
    (n + 10)*u*(T + sqrt(n)), 11/32 of the margin or less for every n, so
    a ruled-out interval holds no computed distance below its end's
    computed limit.  No grid point's computed limit exceeds its interval
    end's, since rounding is monotone and both come from the same
    operations.
    """
    n = a.shape[0]
    rows = scratch.shape[1]
    stride = max(1, min(int(min(q.alpha, q.gamma * q.theta_max * a_norm) / (step * a_norm)),
                        n_pts))
    margin = 16 * n * np.finfo(np.float64).eps * (q.theta_max * a_norm + np.sqrt(n))
    n_coarse = -(-n_pts // stride)
    evaluated = 0
    prev_theta = prev_dist = 0.0  # theta = 0 sits on the lattice
    c0, span = 1, -(-rows // stride)
    while c0 <= n_coarse:
        ks = np.minimum(np.arange(c0, min(c0 + span, n_coarse + 1)) * stride, n_pts)
        coarse = ks * step
        dists, limits = _lattice_terms(coarse, a, a_norm, q, scratch)
        m = coarse.shape[0]
        evaluated += m
        lower = (dists - np.diff(coarse, prepend=prev_theta) * a_norm
                 + np.concatenate(([prev_dist], dists[:-1]))) * 0.5
        ruled_out = lower > limits + margin
        prev_theta, prev_dist = float(coarse[-1]), float(dists[-1])
        # ruled-out flags change state where an open run starts and where it ends
        edges = np.flatnonzero(np.diff(ruled_out, prepend=True, append=True))
        for j0, j1 in edges.reshape(-1, 2).tolist():
            # coarse intervals c0+j0 .. c0+j1-1, grid points lo..hi
            lo = min((c0 + j0 - 1) * stride, n_pts) + 1
            hi = min((c0 + j1 - 1) * stride, n_pts)
            for k0 in range(lo, hi + 1, rows):
                thetas = np.arange(k0, min(k0 + rows, hi + 1)) * step
                evaluated += thetas.shape[0]
                dists, limits = _lattice_terms(thetas, a, a_norm, q, scratch)
                hits = np.flatnonzero(dists < limits)
                if hits.size:
                    return float(thetas[hits[0]]), evaluated
        c0, span = c0 + m, rows
    return None, evaluated


def lcd_vector(a, q: LcdQuery) -> LcdResult:
    """Smallest admissible theta in (0, theta_max], to grid + bisection accuracy.

    Scans the grid k*step in order (_scan_grid: a coarse pass, then only
    the intervals it cannot rule out), max(1, BLOCK_ENTRIES // n) points
    at a time through one scratch array allocated per call (the reduction
    is a minimum, so neither partitioning nor skipping ruled-out points
    can change the answer), then bisects between the first admissible grid
    point and its non-admissible predecessor down to BISECTION_TOL.  A
    grid longer than LCD_GRID_BUDGET points is rejected with
    InvalidQuery instead of scanned.
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
    if q.theta_max * float(np.abs(vec).max()) < 0.5:
        # every theta*a rounds to the origin, at distance ||theta a|| > gamma*||theta a||
        return LcdResult()

    n_pts = int(np.floor(q.theta_max / step))
    n = vec.shape[0]
    scratch = np.empty((2, max(1, min(BLOCK_ENTRIES // n, n_pts)), n))

    def admissible(theta: float) -> bool:
        dists, limits = _lattice_terms(np.array([theta]), vec, a_norm, q, scratch)
        return bool(dists[0] < limits[0])

    hit, evaluated = _scan_grid(vec, a_norm, q, step, n_pts, scratch)
    if hit is None and n_pts * step < q.theta_max and admissible(q.theta_max):
        hit = float(q.theta_max)  # the ragged end of the interval
    if hit is None:
        return LcdResult(grid_points_evaluated=evaluated)

    lo = max(hit - step, 0.0)  # theta -> 0 is never admissible since gamma < 1
    hi = hit
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            hi = mid
        else:
            lo = mid
    d, cert = dist_to_lattice(hi * vec)
    return LcdResult(theta_star=hi, achieved_dist=d, certificate=cert, slack=hi - lo,
                     grid_points_evaluated=evaluated)


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
    samples = as_int("samples", samples, 1, LCD_SAMPLE_BUDGET, InvalidQuery)
    if basis.size < 1:
        raise InvalidQuery("subspace must have dimension >= 1")
    coeffs = sample_array(GAUSSIAN, (samples, basis.size), seed)
    dirs = coeffs @ basis.vectors
    norms = np.linalg.norm(dirs, axis=1)
    dirs /= norms[:, None]

    best, best_direction = LcdResult(), None
    evaluated = 0
    for direction in dirs:
        res = lcd_vector(direction, q)
        evaluated += res.grid_points_evaluated
        if not res.unbounded and (best.unbounded or res.theta_star < best.theta_star):
            best, best_direction = res, direction.copy()
    return replace(best, n_samples=samples, direction=best_direction,
                   grid_points_evaluated=evaluated)


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
    block reproduce the same draws exactly in bounded memory.  More than
    SMALL_BALL_TRIAL_BUDGET trials are rejected with InvalidQuery before
    any is drawn.
    """
    w = as_vector(weights)
    if abs(float(np.linalg.norm(w)) - 1.0) > UNIT_NORM_TOL:
        raise InvalidQuery("weights must have unit Euclidean norm")
    if not epsilon > 0.0:  # NaN fails too; an infinite epsilon counts every trial
        raise InvalidQuery(f"epsilon must be positive, got {epsilon}")
    trials = as_int("trials", trials, 1, SMALL_BALL_TRIAL_BUDGET, InvalidQuery)
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
