"""Lattice distance, LCD search and small-ball estimation vs grid/enumeration oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    gaussian_abs_tail,
    lcd_grid_oracle,
    rademacher_small_ball_exact,
)

from lsvkit import structure
from lsvkit.ensembles import ENSEMBLES, GAUSSIAN, RADEMACHER, SeedSpec, sample_array
from lsvkit.errors import InvalidQuery
from lsvkit.linalg import OrthonormalBasis, orthonormalize
from lsvkit.structure import (
    LCD_SAMPLE_BUDGET,
    LcdQuery,
    dist_to_lattice,
    lcd_subspace_sampled,
    lcd_vector,
    small_ball_estimate,
)

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


# ---- dist_to_lattice --------------------------------------------------------

def test_lattice_distance_half_ties_round_away_from_zero():
    d, rounded = dist_to_lattice(np.array([0.5, 0.5]))
    assert d == pytest.approx(np.sqrt(2.0) / 2.0, rel=1e-15)
    assert rounded.tolist() == [1, 1]
    d, rounded = dist_to_lattice(np.array([-0.5, 2.5, -3.5]))
    assert rounded.tolist() == [-1, 3, -4]


def test_lattice_distance_integer_points():
    d, rounded = dist_to_lattice(np.array([3.0, -7.0, 0.0]))
    assert d == 0.0
    assert rounded.tolist() == [3, -7, 0]


def test_lattice_distance_plain_case():
    d, rounded = dist_to_lattice(np.array([0.3, -0.4]))
    assert d == pytest.approx(0.5, rel=1e-15)
    assert rounded.tolist() == [0, 0]


@pytest.mark.parametrize("v", [[1e19, 2.5], [-1e19], [2.0**63], [-(2.0**63) - 2048.0]])
def test_lattice_distance_rejects_points_outside_int64(v):
    with pytest.raises(ValueError):
        dist_to_lattice(np.array(v))


def test_lattice_distance_accepts_int64_extremes():
    # -2**63 and the largest double below 2**63 are int64 values
    _, rounded = dist_to_lattice(np.array([-(2.0**63), 2.0**63 - 1024.0]))
    assert rounded.tolist() == [-(2**63), 2**63 - 1024]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_lattice_distance_rounds_exactly(sign):
    # trunc(v + copysign(0.5, v)) rounds its sum: 2**52 + 1.5 is a tie that
    # rounds to the even 2**52 + 2, and 0.5 - 2**-54 + 0.5 rounds up to 1.0
    for k in (2**52 + 1, 2**53 - 1):
        d, rounded = dist_to_lattice(np.array([sign * k]))
        assert d == 0.0 and rounded.tolist() == [int(sign) * k]
    h = 0.5 - 2.0**-54  # the largest double below 0.5
    d, rounded = dist_to_lattice(np.array([sign * h]))
    assert d == h and rounded.tolist() == [0]


def test_lattice_distance_never_exceeds_half_sqrt_n():
    for seed in range(5):
        v = 100.0 * sample_array(GAUSSIAN, (17,), SeedSpec(seed, 0))
        d, _ = dist_to_lattice(v)
        assert d <= np.sqrt(17.0) / 2.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-(2**20), max_value=2**20), min_size=1, max_size=8),
       st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
# v = -0.5 rounds to -1 but v + 1 = 0.5 rounds to 1: ties round away from
# zero, which does not shift with z across zero
@example(numerators=[3, -524288], shift=[2, 1])
def test_lattice_periodicity_exact(numerators, shift):
    n = min(len(numerators), len(shift))
    # dyadic rationals keep v + z exactly representable, so equality is exact
    v = np.array(numerators[:n], dtype=np.float64) / 2.0**20
    z = np.array(shift[:n], dtype=np.float64)
    d1, r1 = dist_to_lattice(v)
    d2, r2 = dist_to_lattice(v + z)
    assert d1 == d2
    tie = v - np.floor(v) == 0.5
    assert np.array_equal(r2[~tie], r1[~tie] + z[~tie].astype(np.int64))
    for w, r in ((v, r1), (v + z, r2)):
        assert np.array_equal(r[tie], w[tie] + np.copysign(0.5, w[tie]))


# ---- LcdQuery validation ------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(alpha=1.0, gamma=0.0),
    dict(alpha=1.0, gamma=1.0),
    dict(alpha=1.0, gamma=1.5),
    dict(alpha=1.0, gamma=-0.2),
    dict(alpha=0.0, gamma=0.5),
    dict(alpha=-3.0, gamma=0.5),
    dict(alpha=1.0, gamma=0.5, theta_max=0.0),
    dict(alpha=1.0, gamma=0.5, grid_step=-1e-3),
    dict(alpha=np.nan, gamma=0.5),
    dict(alpha=1.0, gamma=np.nan),
    dict(alpha=1.0, gamma=0.5, theta_max=np.nan),
    dict(alpha=1.0, gamma=0.5, grid_step=np.nan),
])
def test_lcd_query_rejects_bad_parameters(kwargs):
    with pytest.raises(InvalidQuery):
        LcdQuery(**kwargs)


def test_lcd_query_accepts_infinite_alpha():
    # alpha = inf drops the cap: theta e1 is admissible past 2/3 as with alpha = 10
    q = LcdQuery(alpha=np.inf, gamma=0.5, theta_max=100.0)
    res = lcd_vector(np.array([1.0, 0.0]), q)
    assert res.theta_star == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert _lcd_bytes(res) == _lcd_bytes(lcd_vector(np.array([1.0, 0.0]),
                                                    LcdQuery(alpha=10.0, gamma=0.5, theta_max=100.0)))


def test_lcd_rejects_too_coarse_grid():
    q = LcdQuery(alpha=1.0, gamma=0.4, grid_step=0.2)  # limit is 0.1 for unit vectors
    with pytest.raises(InvalidQuery):
        lcd_vector(np.array([1.0, 0.0]), q)


def test_lcd_rejects_zero_vector():
    with pytest.raises(InvalidQuery):
        lcd_vector(np.zeros(3), LcdQuery(alpha=1.0, gamma=0.5))


@pytest.mark.parametrize("vec, theta_max", [
    ([1e300, 1e300], 1e4),  # the norm overflows to inf
    ([1.0, 0.0], 1e6),      # step 0.025: 4e7 grid points, over LCD_GRID_BUDGET
    ([1.0, 0.0], np.inf),
])
def test_lcd_rejects_unbounded_scans(vec, theta_max):
    with pytest.raises(InvalidQuery):
        lcd_vector(np.array(vec), LcdQuery(alpha=1.0, gamma=0.5, theta_max=theta_max))


# ---- lcd_vector ---------------------------------------------------------------

def test_lcd_axis_direction_closed_form():
    # dist(theta e1, Z^n) = min(theta mod 1, 1 - theta mod 1); the condition
    # 1 - theta < 0.5 theta first holds past theta = 2/3
    res = lcd_vector(np.array([1.0, 0.0]), LcdQuery(alpha=10.0, gamma=0.5, theta_max=100.0))
    assert not res.unbounded
    assert res.theta_star == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.slack <= 1e-9
    assert res.certificate.tolist() == [1, 0]
    oracle = lcd_grid_oracle(np.array([1.0, 0.0]), 0.5, 10.0, 100.0, 1e-5)
    assert abs(res.theta_star - oracle) <= 1e-5


def test_lcd_diagonal_direction_closed_form():
    a = np.array([1.0, 1.0]) / np.sqrt(2.0)
    res = lcd_vector(a, LcdQuery(alpha=10.0, gamma=0.1, theta_max=100.0))
    assert res.theta_star == pytest.approx(np.sqrt(2.0) / 1.1, abs=1e-6)
    oracle = lcd_grid_oracle(a, 0.1, 10.0, 100.0, 1e-5)
    assert abs(res.theta_star - oracle) <= 1e-5


def test_lcd_golden_direction_agrees_with_grid_oracle():
    # badly approximable direction: admissibility is delayed but, contrary
    # to naive expectation, not beyond theta ~ 3.5 at gamma = 0.05 (the
    # exhaustive oracle agrees; see the decisions ledger)
    a = np.array([1.0, _GOLDEN])
    a /= np.linalg.norm(a)
    res = lcd_vector(a, LcdQuery(alpha=0.5, gamma=0.05, theta_max=50.0))
    oracle = lcd_grid_oracle(a, 0.05, 0.5, 50.0, 1e-4)
    assert not res.unbounded
    assert abs(res.theta_star - oracle) <= 1e-4
    assert res.theta_star <= oracle + 1e-12  # refinement can only move left


def test_lcd_golden_direction_unbounded_at_tight_gamma():
    a = np.array([1.0, _GOLDEN])
    a /= np.linalg.norm(a)
    res = lcd_vector(a, LcdQuery(alpha=0.5, gamma=1e-4, theta_max=50.0))
    assert res.unbounded
    assert res.theta_star is None and res.certificate is None
    assert lcd_grid_oracle(a, 1e-4, 0.5, 50.0, 1e-4) is None


def test_lcd_scale_covariance():
    # scaling the direction by c scales every admissible theta by 1/c
    a = sample_array(GAUSSIAN, (4,), SeedSpec(55, 0))
    a /= np.linalg.norm(a)
    q = LcdQuery(alpha=2.0, gamma=0.5, theta_max=100.0)
    base = lcd_vector(a, q).theta_star
    for c in (0.5, 2.0, 3.0):
        scaled = lcd_vector(c * a, q).theta_star
        assert scaled == pytest.approx(base / c, abs=1e-6)


def test_lcd_result_satisfies_admissibility_invariants():
    for seed in range(4):
        a = sample_array(GAUSSIAN, (6,), SeedSpec(seed, 3))
        a /= np.linalg.norm(a)
        q = LcdQuery(alpha=np.sqrt(6.0) / 2.0, gamma=0.5)
        res = lcd_vector(a, q)
        assert not res.unbounded
        assert res.achieved_dist < q.gamma * res.theta_star + res.slack
        assert res.achieved_dist < q.alpha
        # certificate actually realizes the reported distance
        gap = res.theta_star * a - res.certificate
        assert np.linalg.norm(gap) == pytest.approx(res.achieved_dist, rel=1e-12)


def test_lcd_unbounded_when_horizon_too_small():
    res = lcd_vector(np.array([1.0, 0.0]), LcdQuery(alpha=10.0, gamma=0.5, theta_max=0.5))
    assert res.unbounded


def _lcd_bytes(res):
    """Every field of an LcdResult, as bytes, so equality is bitwise."""
    return tuple(None if v is None else np.asarray(v).tobytes()
                 for v in (res.theta_star, res.achieved_dist, res.slack, res.certificate,
                           res.n_samples, res.direction))


# rows per scan block of 1, 7 and 64 grid points; the default holds thousands
_BLOCK_ROWS = (1, 7, 64)

_E1 = np.array([1.0, 0.0])
# theta e1 is admissible at gamma 0.5 exactly past 2/3, so this step puts the
# first admissible grid point at index 449 = 1 + 7*64, which opens a block
# at every patched size while the default block covers it from index 1
_STEP_449 = (2.0 / 3.0) / 448.5


@pytest.mark.parametrize("a, q, check", [
    (_E1, LcdQuery(alpha=10.0, gamma=0.5, theta_max=100.0, grid_step=_STEP_449),
     lambda r: 448 * _STEP_449 < r.theta_star <= 449 * _STEP_449),
    # grid stops at 26 * 0.025 = 0.65; only the ragged end 0.67 is admissible
    (_E1, LcdQuery(alpha=10.0, gamma=0.5, theta_max=0.67),
     lambda r: 0.65 < r.theta_star <= 0.67),
    (sample_array(GAUSSIAN, (20,), SeedSpec(3, 3)), LcdQuery(alpha=2.0, gamma=0.3, theta_max=50.0),
     lambda r: not r.unbounded),
    (sample_array(GAUSSIAN, (5,), SeedSpec(4, 3)), LcdQuery(alpha=0.1, gamma=0.05, theta_max=30.0),
     lambda r: r.unbounded),
], ids=["first-point-of-later-block", "ragged-end", "hit-n20", "unbounded"])
def test_lcd_scan_block_size_makes_no_difference(monkeypatch, a, q, check):
    default = lcd_vector(a, q)
    assert check(default)
    for rows in _BLOCK_ROWS:
        monkeypatch.setattr(structure, "BLOCK_ENTRIES", rows * a.shape[0])
        assert _lcd_bytes(lcd_vector(a, q)) == _lcd_bytes(default), rows


def test_lcd_subspace_block_size_makes_no_difference(monkeypatch):
    basis = orthonormalize(sample_array(GAUSSIAN, (6, 3), SeedSpec(8, 0)))
    q = LcdQuery(alpha=np.sqrt(6.0) / 2.0, gamma=0.5, theta_max=20.0)
    default = lcd_subspace_sampled(basis, q, samples=4, seed=SeedSpec(8, 1))
    assert not default.unbounded
    for rows in _BLOCK_ROWS:
        monkeypatch.setattr(structure, "BLOCK_ENTRIES", rows * 6)
        got = lcd_subspace_sampled(basis, q, samples=4, seed=SeedSpec(8, 1))
        assert _lcd_bytes(got) == _lcd_bytes(default), rows


def _reference_terms(thetas, a, a_norm, q):
    """Lattice distances of thetas * a and their admissibility limits, in fresh arrays."""
    pts = thetas[:, None] * a[None, :]
    d = np.linalg.norm(pts - np.trunc(pts + np.copysign(0.5, pts)), axis=1)
    return d, np.minimum(q.gamma * thetas * a_norm, q.alpha)


def _reference_lcd_vector(a, q):
    """lcd_vector as plain whole-array numpy: the whole grid in one block, fresh arrays."""
    a_norm = float(np.linalg.norm(a))
    step = q.resolved_step(a_norm)

    def admissible(thetas):
        d, limit = _reference_terms(thetas, a, a_norm, q)
        return d < limit

    n_pts = int(np.floor(q.theta_max / step))
    thetas = np.arange(1, n_pts + 1, dtype=np.float64) * step
    where = np.flatnonzero(admissible(thetas))
    if where.size:
        hit = float(thetas[where[0]])
    elif n_pts * step < q.theta_max and admissible(np.array([q.theta_max]))[0]:
        hit = q.theta_max
    else:
        return None
    lo, hi = max(hit - step, 0.0), hit
    while hi - lo > structure.BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if admissible(np.array([mid]))[0]:
            hi = mid
        else:
            lo = mid
    d, cert = dist_to_lattice(hi * a)
    return hi, d, hi - lo, cert


@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 33])
def test_lcd_vector_matches_whole_array_reference_bitwise(n):
    hits = 0
    for seed in range(8):
        a = sample_array(GAUSSIAN, (n,), SeedSpec(seed, 9))
        if seed % 2:
            a /= np.linalg.norm(a)
        for alpha, gamma, theta_max in ((0.5 * np.sqrt(n), 0.5, 20.0), (0.5, 0.05, 40.0),
                                        (10.0, 0.3, 7.3)):
            q = LcdQuery(alpha=alpha, gamma=gamma, theta_max=theta_max)
            res, ref = lcd_vector(a, q), _reference_lcd_vector(a, q)
            if ref is None:
                assert res.unbounded
                continue
            hits += 1
            assert (res.theta_star, res.achieved_dist, res.slack) == ref[:3]
            assert res.certificate.tobytes() == ref[3].tobytes()
    assert hits >= 8


@st.composite
def _lcd_queries(draw):
    """A direction and a query with at most about 3,000 grid points."""
    n = draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["gaussian", "integer", "rational"]))
    if kind == "gaussian":
        a = sample_array(GAUSSIAN, (n,), SeedSpec(draw(st.integers(0, 2**32 - 1)), 11))
    else:
        # integer directions meet the lattice at theta = 1, rational ones at their
        # denominator, so hits come early, late and after long ruled-out runs
        ints = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n).filter(any))
        a = np.array(ints, dtype=np.float64)
        if kind == "rational":
            a /= draw(st.integers(min_value=2, max_value=97))
    if draw(st.booleans()):
        a /= np.linalg.norm(a)
    a_norm = float(np.linalg.norm(a))
    gamma = draw(st.floats(min_value=0.01, max_value=0.9))
    # sqrt(n/12) is the typical lattice distance; alpha = inf means no cap
    alpha = draw(st.one_of(st.just(np.inf), st.floats(min_value=0.05, max_value=1.5)
                           .map(lambda f: f * np.sqrt(n / 12.0))))
    grid_step = draw(st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.99)
                               .map(lambda f: f * gamma / (4.0 * a_norm))))
    step = LcdQuery(alpha=alpha, gamma=gamma, grid_step=grid_step).resolved_step(a_norm)
    # a fractional number of steps leaves a ragged end
    theta_max = draw(st.floats(min_value=0.5, max_value=3000.0)) * step
    return a, LcdQuery(alpha=alpha, gamma=gamma, theta_max=theta_max, grid_step=grid_step)


@settings(max_examples=150, deadline=None)
@given(_lcd_queries())
# only the ragged end 0.67 is admissible (the grid stops at 0.65)
@example((_E1, LcdQuery(alpha=10.0, gamma=0.5, theta_max=0.67)))
# first admissible grid point 144, a coarse point (stride 6), after 22 ruled-out intervals
@example((np.array([1.0, 2.0, 3.0]) / 11.0, LcdQuery(alpha=0.15, gamma=0.3, theta_max=22.0)))
def test_lcd_vector_matches_reference_on_random_queries(case):
    a, q = case
    ref = _reference_lcd_vector(a, q)
    for rows in (None,) + _BLOCK_ROWS:
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(structure, "BLOCK_ENTRIES", rows * a.shape[0])
            res = lcd_vector(a, q)
        if ref is None:
            assert res.unbounded, rows
        else:
            assert (res.theta_star, res.achieved_dist, res.slack) == ref[:3], rows
            assert res.certificate.tobytes() == ref[3].tobytes(), rows


def test_lcd_scan_skips_ruled_out_grid_points(monkeypatch):
    # the structure workload's query on a unit n = 20 direction: 80,000 grid
    # points, none admissible, and the coarse pass rules out nearly all of them
    a = sample_array(GAUSSIAN, (20,), SeedSpec(0, 1))
    a /= np.linalg.norm(a)
    q = LcdQuery(alpha=0.5, gamma=0.05, theta_max=1000.0)
    n_pts = int(np.floor(q.theta_max / q.resolved_step(float(np.linalg.norm(a)))))
    assert n_pts == 80_000
    evaluated = []
    lattice_terms = structure._lattice_terms

    def counted(thetas, *args):
        evaluated.append(thetas.shape[0])
        return lattice_terms(thetas, *args)

    monkeypatch.setattr(structure, "_lattice_terms", counted)
    res = lcd_vector(a, q)
    assert res.unbounded and _reference_lcd_vector(a, q) is None
    assert sum(evaluated) < 0.05 * n_pts, sum(evaluated)
    assert res.grid_points_evaluated == sum(evaluated)


def test_subspace_sums_grid_points_evaluated(monkeypatch):
    counts = []
    vector = structure.lcd_vector

    def counted(a, q):
        res = vector(a, q)
        counts.append(res.grid_points_evaluated)
        return res

    monkeypatch.setattr(structure, "lcd_vector", counted)
    basis = orthonormalize(sample_array(GAUSSIAN, (6, 3), SeedSpec(8, 0)))
    q = LcdQuery(alpha=np.sqrt(6.0) / 2.0, gamma=0.5, theta_max=20.0)
    sub = lcd_subspace_sampled(basis, q, samples=4, seed=SeedSpec(8, 1))
    assert len(counts) == 4
    assert sub.grid_points_evaluated == sum(counts) > 0


def test_lattice_terms_repeat_reference_arithmetic():
    # the distances and limits themselves, bit for bit, not only the decisions
    # they lead to: a reordered sum or product rarely flips a decision
    for n in (1, 7, 20, 33):
        a = sample_array(GAUSSIAN, (n,), SeedSpec(n, 10))
        a_norm = float(np.linalg.norm(a))
        q = LcdQuery(alpha=0.5 * np.sqrt(n), gamma=0.3)
        thetas = np.arange(1, 2001, dtype=np.float64) * 0.0137
        dists, limits = structure._lattice_terms(thetas, a, a_norm, q,
                                                 np.empty((2, thetas.size, n)))
        d, limit = _reference_terms(thetas, a, a_norm, q)
        assert dists.tobytes() == d.tobytes()
        assert limits.tobytes() == limit.tobytes()


def test_lattice_terms_round_ties_like_dist_to_lattice():
    # thetas*a holds exact half-integers of both signs, and +-(0.5 - 2**-54):
    # adding 0.5 to that rounds up to 1.0, so the documented rule rounds it
    # away from zero where np.rint (ties to even) rounds it to 0; at exact
    # ties both rules give the same distance
    h = 0.5 - 2.0**-54
    q = LcdQuery(alpha=1.0, gamma=0.5)
    thetas = np.array([1.0, 3.0, 5.0])
    for a in (np.array([0.5, -1.5, 2.5]), np.array([h]), np.array([-h])):
        dists, _ = structure._lattice_terms(thetas, a, float(np.linalg.norm(a)), q,
                                            np.empty((2, thetas.size, a.size)))
        ref = np.array([dist_to_lattice(t * a)[0] for t in thetas])
        assert dists.tobytes() == ref.tobytes(), a


def test_lcd_vector_memory_is_bounded():
    # tracemalloc sees numpy's data buffers; an unbounded scan of 8e5 and
    # 8e6 grid points must still work in a few blocks' worth of memory
    a = sample_array(GAUSSIAN, (20,), SeedSpec(3, 3))
    a /= np.linalg.norm(a)
    cases = [(a, LcdQuery(alpha=0.1, gamma=0.05, theta_max=theta_max, grid_step=1.25e-3), True)
             for theta_max in (1e3, 1e4)]
    # at n = 2 the coarse pass leaves about 87% of the intervals open, so a
    # fine pass that gathered a coarse block's open grid points at once
    # would pass 4 MB; it must take them one block at a time
    b = sample_array(GAUSSIAN, (2,), SeedSpec(3, 3))
    b /= np.linalg.norm(b)
    cases.append((b, LcdQuery(alpha=0.35, gamma=0.5, theta_max=8000.0), False))
    for vec, q, unbounded in cases:
        tracemalloc.start()
        try:
            res = lcd_vector(vec, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.unbounded == unbounded
        assert peak < 4e6, (vec.shape, q.theta_max, peak)


# ---- lcd_subspace_sampled -------------------------------------------------------

def test_subspace_one_dimensional_reduces_to_vector():
    basis = OrthonormalBasis(ambient_dim=3, vectors=np.array([[1.0, 0.0, 0.0]]))
    q = LcdQuery(alpha=10.0, gamma=0.5, theta_max=100.0)
    sub = lcd_subspace_sampled(basis, q, samples=5, seed=SeedSpec(1, 0))
    vec = lcd_vector(np.array([1.0, 0.0, 0.0]), q)
    assert sub.theta_star == vec.theta_star
    assert sub.n_samples == 5
    assert np.allclose(np.abs(sub.direction), [1.0, 0.0, 0.0])


def test_subspace_result_never_beats_its_own_direction():
    basis = orthonormalize(np.eye(3))
    q = LcdQuery(alpha=100.0, gamma=0.5, theta_max=100.0)
    sub = lcd_subspace_sampled(basis, q, samples=12, seed=SeedSpec(2, 0))
    assert not sub.unbounded
    again = lcd_vector(sub.direction, q)
    assert sub.theta_star == again.theta_star


def test_subspace_validation():
    basis = orthonormalize(np.eye(2))
    q = LcdQuery(alpha=1.0, gamma=0.5)
    with pytest.raises(InvalidQuery):
        lcd_subspace_sampled(basis, q, samples=0, seed=SeedSpec(0, 0))
    with pytest.raises(InvalidQuery):
        lcd_subspace_sampled(basis, q, samples=LCD_SAMPLE_BUDGET + 1, seed=SeedSpec(0, 0))
    empty = OrthonormalBasis(ambient_dim=2, vectors=np.empty((0, 2)))
    with pytest.raises(InvalidQuery):
        lcd_subspace_sampled(empty, q, samples=3, seed=SeedSpec(0, 0))


def test_random_subspace_lcd_large_at_tight_parameters():
    # with gamma and alpha small, no sampled direction of a generic
    # codimension-2 subspace admits any theta <= 10^3 >> 10 sqrt(n)
    # (parameter choice recorded in the decisions ledger)
    n = 20
    q = LcdQuery(alpha=0.5, gamma=0.05, theta_max=1e3)
    for seed in (0, 1, 2):
        cols = sample_array(GAUSSIAN, (n, n - 2), SeedSpec(seed, 0))
        basis = orthonormalize(cols)
        res = lcd_subspace_sampled(basis, q, samples=15, seed=SeedSpec(seed, 1))
        assert res.unbounded
        assert res.n_samples == 15


# ---- small_ball_estimate ---------------------------------------------------------

def test_small_ball_two_point_case():
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    est = small_ball_estimate(w, RADEMACHER, 0.5, 100_000, SeedSpec(10, 0))
    assert 0.49 <= est.p_hat <= 0.51
    assert est.ci_low <= est.p_hat <= est.ci_high
    assert est.hits == round(est.p_hat * est.trials)


def test_small_ball_gaussian_cdf_oracle():
    est = small_ball_estimate(np.array([1.0]), GAUSSIAN, 0.1, 100_000, SeedSpec(11, 0))
    exact = 1.0 - gaussian_abs_tail(0.1)  # about 0.0797
    assert est.ci_low <= exact <= est.ci_high


def test_small_ball_matches_full_enumeration():
    w = np.ones(10) / np.sqrt(10.0)
    exact = rademacher_small_ball_exact(w, 0.3)
    assert exact == 252.0 / 1024.0  # only the balanced sign patterns land inside
    est = small_ball_estimate(w, RADEMACHER, 0.3, 100_000, SeedSpec(12, 0))
    assert est.ci_low <= exact <= est.ci_high


def test_small_ball_monotone_in_epsilon_same_seed():
    w = sample_array(GAUSSIAN, (8,), SeedSpec(13, 0))
    w /= np.linalg.norm(w)
    a = small_ball_estimate(w, RADEMACHER, 0.1, 20_000, SeedSpec(13, 1))
    b = small_ball_estimate(w, RADEMACHER, 0.2, 20_000, SeedSpec(13, 1))
    assert a.hits <= b.hits  # identical draws, nested events


def test_small_ball_hits_match_direct_recount():
    w = sample_array(GAUSSIAN, (7,), SeedSpec(14, 0))
    w /= np.linalg.norm(w)
    trials = 4003
    est = small_ball_estimate(w, GAUSSIAN, 0.25, trials, SeedSpec(14, 1))
    draws = sample_array(GAUSSIAN, (trials, 7), SeedSpec(14, 1))
    assert est.hits == int(np.count_nonzero(np.abs(draws @ w) <= 0.25))


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_small_ball_block_size_makes_no_difference(monkeypatch, kind):
    # 1000 trials is no multiple of 7 or 64, so the last block is short;
    # student_t5 takes 6 uniforms per entry
    ens = ENSEMBLES[kind]
    for n in (1, 3, 20):
        w = sample_array(GAUSSIAN, (n,), SeedSpec(16, n))
        w /= np.linalg.norm(w)
        default = small_ball_estimate(w, ens, 0.4, 1000, SeedSpec(16, 1))
        # +-w with n = 1 never comes within 0.4 of 0 under rademacher signs
        assert 0 < default.hits < 1000 or (kind, n) == ("rademacher", 1)
        for rows in _BLOCK_ROWS:
            monkeypatch.setattr(structure, "BLOCK_ENTRIES", rows * n * ens.draws_per_entry)
            got = small_ball_estimate(w, ens, 0.4, 1000, SeedSpec(16, 1))
            assert got == default, (n, rows)
        monkeypatch.undo()


@pytest.mark.parametrize("kind,trials", [
    pytest.param("gaussian", 150_000, id="150000"),
    pytest.param("gaussian", 1_500_000, id="1500000"),
    pytest.param("student_t5", 150_000, id="student_t5-150000"),
])
def test_small_ball_memory_is_bounded(kind, trials):
    # blocks count uniforms, so student_t5's six per entry stay in bounds too
    w = np.ones(20) / np.sqrt(20.0)
    tracemalloc.start()
    try:
        est = small_ball_estimate(w, ENSEMBLES[kind], 0.1, trials, SeedSpec(17, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.trials == trials
    assert peak < 4e6, peak


def test_small_ball_validation():
    w = np.array([1.0, 1.0])  # not unit norm
    with pytest.raises(InvalidQuery):
        small_ball_estimate(w, RADEMACHER, 0.5, 10, SeedSpec(0, 0))
    unit = w / np.linalg.norm(w)
    with pytest.raises(InvalidQuery):
        small_ball_estimate(unit, RADEMACHER, 0.0, 10, SeedSpec(0, 0))
    with pytest.raises(InvalidQuery):
        small_ball_estimate(unit, RADEMACHER, np.nan, 10, SeedSpec(0, 0))
    assert small_ball_estimate(unit, RADEMACHER, np.inf, 10, SeedSpec(0, 0)).hits == 10
    with pytest.raises(InvalidQuery):
        small_ball_estimate(unit, RADEMACHER, 0.5, 0, SeedSpec(0, 0))


def _no_draws(*args, **kwargs):
    raise AssertionError("drew samples before the trial budget was checked")


def test_small_ball_trial_budget_is_checked_before_any_draw(monkeypatch):
    monkeypatch.setattr(structure, "sample_array", _no_draws)
    unit = np.array([0.6, 0.8])
    budget = structure.SMALL_BALL_TRIAL_BUDGET
    assert budget == 2**32
    with pytest.raises(InvalidQuery):
        small_ball_estimate(unit, RADEMACHER, 0.5, budget + 1, SeedSpec(0, 0))
    with pytest.raises(AssertionError, match="drew samples"):  # the budget itself is allowed
        small_ball_estimate(unit, RADEMACHER, 0.5, budget, SeedSpec(0, 0))


def test_high_lcd_direction_has_small_ball_mass_bounded():
    # surrogate coupling: a direction whose LCD exceeds 10^3 (premise
    # checked below at gamma=0.05, alpha=0.1) should satisfy
    # p_hat(eps) <= 3 (eps + 1/10^3) + CI width; heuristic constant 3,
    # parameters recorded in the decisions ledger
    w = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], dtype=np.float64))
    w /= np.linalg.norm(w)
    premise = lcd_vector(w, LcdQuery(alpha=0.1, gamma=0.05, theta_max=1e3))
    assert premise.unbounded
    for eps in (0.01, 0.05, 0.1):
        est = small_ball_estimate(w, RADEMACHER, eps, 20_000, SeedSpec(15, 0))
        cap = 3.0 * (eps + 1e-3) + (est.ci_high - est.ci_low)
        assert est.p_hat <= cap
        # and the Monte Carlo is consistent with exhaustive enumeration
        assert est.ci_low <= rademacher_small_ball_exact(w, eps) <= est.ci_high


@pytest.mark.parametrize("theta_max", [1e-300, 1e-200, 0.2])
def test_horizon_inside_the_origin_cell_is_unbounded_and_unscanned(theta_max):
    # theta_max * max|a_i| < 1/2: every theta*a rounds to the origin, at distance
    # ||theta a|| > gamma*||theta a||, so no theta is admissible, even where the
    # squares of the distance underflow to 0
    res = lcd_vector(np.array([1.0, 2.0]), LcdQuery(alpha=0.5, gamma=0.5, theta_max=theta_max))
    assert res.unbounded and res == structure.LcdResult()
