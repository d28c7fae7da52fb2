"""Monte Carlo harness: determinism, tail sweeps, CSV schema, exact bound checks, fits."""

import ctypes
import itertools
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.stats import binomtest

from oracles import first_accepted_draw, half_normal_cdf, ks_statistic

from lsvkit import harness, linalg
from lsvkit.ensembles import GAUSSIAN, RADEMACHER, UNIFORM, SeedSpec, sample_matrix
from lsvkit.errors import EnumerationTooLarge, InsufficientData, InvalidDimension
from lsvkit.harness import (
    DIST_THRESHOLDS,
    MAX_WORKERS,
    PINNED_BLAS,
    RESAMPLE_STRIDE,
    TAIL_CSV_HEADER,
    TailEstimate,
    TailSweepConfig,
    check_markov_sum_bound,
    distance_tail_experiment,
    fit_tail_model,
    fmt_g10,
    map_trials,
    median_scaling_report,
    run_tail_sweep,
    scaled_sn_samples,
    write_tail_csv,
)
from lsvkit.errors import NumericallyDependent
from lsvkit.linalg import dist_to_subspace, orthonormalize, smallest_singular_value
from lsvkit.stats import wilson_interval
from lsvkit.witness import audit


# ---- scaled_sn_samples ------------------------------------------------------

def test_worker_count_never_changes_values():
    one, sing_one = scaled_sn_samples(GAUSSIAN, 6, 40, 17, workers=1)
    three, sing_three = scaled_sn_samples(GAUSSIAN, 6, 40, 17, workers=3)
    assert np.array_equal(one, three)  # bitwise, not approx
    assert sing_one == sing_three


def _nonsingular_sn(m):
    s = smallest_singular_value(m)
    return s if s > 0.0 else None


def test_samples_match_per_trial_recomputation():
    # rademacher n=16 resamples about 1 draw in 20, across block boundaries
    for ensemble, n, trials, seed, workers in ((GAUSSIAN, 5, 8, 7, 1),
                                               (RADEMACHER, 16, 300, 3, 1),
                                               (RADEMACHER, 16, 300, 3, 3)):
        values, singular = scaled_sn_samples(ensemble, n, trials, seed, workers)
        draws = [first_accepted_draw(ensemble, n, seed, t, _nonsingular_sn)
                 for t in range(trials)]
        assert values.tolist() == [s * np.sqrt(n) for s, _ in draws]
        assert singular == sum(r for _, r in draws)
        assert (singular > 0) == (ensemble is RADEMACHER)


def test_rademacher_small_n_resamples_singular_draws():
    values, singular = scaled_sn_samples(RADEMACHER, 2, 200, 5)
    assert singular > 0  # 2x2 sign matrices are singular half the time
    assert np.all(values > 0)  # every kept draw is invertible


def test_lower_tail_sweep_factors_little_beyond_its_singular_draws(monkeypatch):
    # each singular draw needs its LU; a regular one's computed s_n almost always proves it passes
    calls = itertools.count()  # next() is one C call, so two workers count exactly
    getrf = linalg._getrf

    def counted(*args):
        next(calls)
        return getrf(*args)

    monkeypatch.setattr(linalg, "_getrf", counted)
    _, singular = scaled_sn_samples(RADEMACHER, 16, 2000, 9105, workers=2)
    assert singular <= next(calls) < 200


def test_sample_validation():
    with pytest.raises(InvalidDimension):
        scaled_sn_samples(GAUSSIAN, 1, 10, 0)
    with pytest.raises(ValueError):
        scaled_sn_samples(GAUSSIAN, 4, 0, 0)
    with pytest.raises(ValueError):
        scaled_sn_samples(GAUSSIAN, 4, 2**32 + 1, 0)


# ---- map_trials -------------------------------------------------------------

def _reject_negative_corner(stack):
    # value = the accepted matrix; a draw whose (0, 0) sign is -1 is rejected
    return [None if m[0, 0] < 0 else m.tobytes() for m in stack]


def _matrix_bytes(stack):
    return [m.tobytes() for m in stack]


def _per_stream(score_one, trials, seed, ensemble=RADEMACHER, n=2):
    # values and rejected draws of trials 0..trials-1, one matrix per stream
    draws = [first_accepted_draw(ensemble, n, seed, t, score_one) for t in range(trials)]
    return [v for v, _ in draws], sum(r for _, r in draws)


def test_map_trials_order_and_resample_accounting(monkeypatch):
    expected, rejected = _per_stream(lambda m: _reject_negative_corner([m])[0], 37, 5)
    assert rejected > 0
    for workers in (1, 3, 7):
        for entries in (4, 16, 148):  # blocks of 1, 4 and 37 2x2 matrices
            monkeypatch.setattr(harness, "BLOCK_ENTRIES", entries)
            got = map_trials(_reject_negative_corner, RADEMACHER, 2, 37, 5, workers)
            assert got == (expected, rejected), (workers, entries)


def test_map_trials_redraws_each_round_together(monkeypatch):
    # round r cuts every trial still pending into blocks, across the blocks of round r - 1
    draws = [first_accepted_draw(RADEMACHER, 2, 5, t, lambda m: _reject_negative_corner([m])[0])
             for t in range(37)]
    expected = ([v for v, _ in draws], sum(r for _, r in draws))
    last = max(r for _, r in draws)
    assert last >= 2  # two resample rounds at least, so rounds meet across blocks
    pending = [[t for t, (_, rejected) in enumerate(draws) if rejected >= r]
               for r in range(last + 1)]
    for workers in (1, 3, 7):
        for entries in (4, 16, 148):
            monkeypatch.setattr(harness, "BLOCK_ENTRIES", entries)
            block = max(1, min(entries // 4, math.ceil(37 / (4 * workers))))
            sizes = []

            def score(stack):
                sizes.append(len(stack))
                return _reject_negative_corner(stack)

            got = map_trials(score, RADEMACHER, 2, 37, 5, workers)
            assert got == expected, (workers, entries)
            for trials_r in pending:  # rounds run one after another
                cut = [len(trials_r[i:i + block]) for i in range(0, len(trials_r), block)]
                assert sorted(sizes[:len(cut)]) == sorted(cut), (workers, entries)
                del sizes[:len(cut)]
            assert sizes == []
            with pytest.raises(RuntimeError, match="trial 0: 64 degenerate"):
                map_trials(lambda stack: [None] * len(stack), RADEMACHER, 2, 37, 5, workers)


def test_map_trials_bounds():
    calls = []

    def score(stack):
        calls.append(stack)
        return [0.0] * len(stack)

    with pytest.raises(InvalidDimension, match="n must be >= 2, got 1"):
        map_trials(score, GAUSSIAN, 1, 10, 0)
    with pytest.raises(ValueError):
        map_trials(score, GAUSSIAN, 2, 0, 0)
    with pytest.raises(ValueError):
        map_trials(score, GAUSSIAN, 2, RESAMPLE_STRIDE + 1, 0)
    with pytest.raises(ValueError):
        map_trials(score, GAUSSIAN, 2, 10, 0, workers=MAX_WORKERS + 1)
    for workers in (0, -3, 2.5, "2", None):
        with pytest.raises(ValueError, match="workers"):
            map_trials(score, GAUSSIAN, 2, 10, 0, workers=workers)
    assert calls == []  # every bound is checked before any trial runs
    assert map_trials(score, GAUSSIAN, 2, 10, 0, workers=np.int64(2)) == ([0.0] * 10, 0)
    with pytest.raises(RuntimeError):
        map_trials(lambda stack: [None] * len(stack), GAUSSIAN, 2, 3, 0)


def _blas_thread_counts():
    # each pinned OpenBLAS's thread count, read through its own getter
    counts = {}
    for package in (np, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            if path.name in PINNED_BLAS:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
                getter = next(getattr(lib, name) for name in (
                    "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads") if hasattr(lib, name))
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[path.name] = getter()
    return counts


class _ScoreFailed(Exception):
    pass


@pytest.mark.skipif(not PINNED_BLAS, reason="no bundled OpenBLAS to pin")
@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_pins_one_blas_thread_and_restores(workers):
    before = _blas_thread_counts()
    assert set(before) == set(PINNED_BLAS)
    seen = []

    def score(stack):
        seen.append(_blas_thread_counts())
        return _matrix_bytes(stack)

    values, _ = map_trials(score, RADEMACHER, 2, 12, 0, workers)
    assert values == _per_stream(np.ndarray.tobytes, 12, 0)[0]
    assert seen and all(counts == dict.fromkeys(PINNED_BLAS, 1) for counts in seen)
    assert _blas_thread_counts() == before

    def failing(stack):
        raise _ScoreFailed

    with pytest.raises(_ScoreFailed):
        map_trials(failing, RADEMACHER, 2, 12, 0, workers)
    assert _blas_thread_counts() == before


@pytest.mark.skipif(not PINNED_BLAS, reason="no bundled OpenBLAS to pin")
def test_blas_pin_holds_under_thread_switching(monkeypatch):
    # more workers than cores, switching constantly: a lost update to the
    # pin's shared depth would unpin a running chunk or leave the pin behind
    monkeypatch.setattr(harness, "BLOCK_ENTRIES", 4)  # one 2x2 matrix per block
    before = _blas_thread_counts()
    seen = []

    def score(stack):
        seen.append(_blas_thread_counts())
        return _matrix_bytes(stack)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values, _ = map_trials(score, RADEMACHER, 2, 256, 0, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert values == _per_stream(np.ndarray.tobytes, 256, 0)[0]
    assert len(seen) == 256 and all(counts == dict.fromkeys(PINNED_BLAS, 1) for counts in seen)
    assert _blas_thread_counts() == before


@pytest.mark.skipif(not PINNED_BLAS, reason="no bundled OpenBLAS to pin")
def test_blas_pin_spans_overlapping_and_nested_calls():
    # A's call enters first and exits while B's call still runs; B's score
    # then makes a nested call.  The pin must hold until the last call leaves.
    pinned = dict.fromkeys(PINNED_BLAS, 1)
    raised = []
    if _blas_thread_counts() == pinned:  # one thread already: the restore would show nothing
        raised = [(set_threads, set_threads(2)) for _, set_threads in harness._OPENBLAS]
    try:
        before = _blas_thread_counts()
        assert before != pinned
        a_entered, b_started, a_done = (threading.Event() for _ in range(3))
        seen = []

        def score_a(stack):
            seen.append(_blas_thread_counts())
            a_entered.set()
            assert b_started.wait(30)
            return _matrix_bytes(stack)

        def score_b(stack):
            b_started.set()
            assert a_done.wait(30)
            seen.append(_blas_thread_counts())
            [inner], _ = map_trials(score_inner, RADEMACHER, 2, 1, 1)
            seen.append(_blas_thread_counts())
            return [inner] * len(stack)

        def score_inner(stack):
            seen.append(_blas_thread_counts())
            return _matrix_bytes(stack)

        def call_b():
            assert a_entered.wait(30)
            return map_trials(score_b, RADEMACHER, 2, 1, 0)

        with ThreadPoolExecutor(max_workers=2) as ex:
            a = ex.submit(map_trials, score_a, RADEMACHER, 2, 1, 0)
            b = ex.submit(call_b)
            assert a.result(timeout=60) == (_per_stream(np.ndarray.tobytes, 1, 0)[0], 0)
            a_done.set()
            assert b.result(timeout=60) == ([_per_stream(np.ndarray.tobytes, 1, 1)[0][0]], 0)
        assert len(seen) == 4  # score_a, score_b twice, score_inner
        assert all(counts == pinned for counts in seen)
        assert _blas_thread_counts() == before
    finally:
        for set_threads, count in raised:
            set_threads(count)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_trials_without_blas_libraries(monkeypatch, workers):
    pinned = scaled_sn_samples(GAUSSIAN, 20, 30, 41, workers)
    monkeypatch.setattr(harness, "_OPENBLAS", ())
    before = _blas_thread_counts()
    seen = []

    def score(stack):
        seen.append(_blas_thread_counts())
        return _matrix_bytes(stack)

    values, _ = map_trials(score, RADEMACHER, 2, 12, 0, workers)
    assert values == _per_stream(np.ndarray.tobytes, 12, 0)[0]
    assert seen and all(counts == before for counts in seen)  # nothing pinned
    unpinned = scaled_sn_samples(GAUSSIAN, 20, 30, 41, workers)
    assert pinned[0].tobytes() == unpinned[0].tobytes() and pinned[1] == unpinned[1]


@pytest.mark.parametrize("n, trials, stacks", [
    (60, 16, [2] * 8),              # witness: BLOCK_ENTRIES // 3600 = 9, 16 / (4 * 2) = 2
    (16, 2000, [80] + [128] * 15),  # tail-small: BLOCK_ENTRIES // 256 = 128
])
def test_map_trials_block_partition(n, trials, stacks):
    sizes = []

    def score(stack):
        sizes.append(len(stack))
        return [0.0] * len(stack)

    map_trials(score, GAUSSIAN, n, trials, 0, workers=2)
    assert sorted(sizes) == stacks


def test_pinned_workers_match_one_worker_bitwise():
    one, sing_one = scaled_sn_samples(GAUSSIAN, 100, 64, 53, workers=1)
    two, sing_two = scaled_sn_samples(GAUSSIAN, 100, 64, 53, workers=2)
    assert one.tobytes() == two.tobytes() and sing_one == sing_two


# ---- run_tail_sweep ---------------------------------------------------------

def _sweep(direction, k_values, trials=300, seed=9, n=6, workers=1):
    return run_tail_sweep(TailSweepConfig(
        ensemble=GAUSSIAN, n_values=(n,), k_values=tuple(k_values),
        trials=trials, master_seed=seed, direction=direction, workers=workers))


def test_threshold_zero_is_trivial():
    up = _sweep("upper", [0.0], trials=50)[0]
    assert up.exceed_count == 50 and up.p_hat == 1.0
    lo = _sweep("lower", [0.0], trials=50)[0]
    assert lo.exceed_count == 0 and lo.p_hat == 0.0


def test_upper_counts_decrease_lower_counts_increase():
    ks = [0.25, 0.5, 1.0, 2.0]
    up = _sweep("upper", ks)
    lo = _sweep("lower", ks)
    up_counts = [e.exceed_count for e in up]
    lo_counts = [e.exceed_count for e in lo]
    assert up_counts == sorted(up_counts, reverse=True)
    assert lo_counts == sorted(lo_counts)


def test_upper_and_lower_partition_the_trials():
    # same seed means the exact same samples; ties score as lower
    for k in (0.5, 1.0, 1.7):
        up = _sweep("upper", [k])[0]
        lo = _sweep("lower", [k])[0]
        assert up.exceed_count + lo.exceed_count == up.trials


def test_estimate_fields_and_ci_ordering():
    est = _sweep("upper", [1.0], trials=120, seed=21)[0]
    assert est.ensemble == "gaussian" and est.n == 6 and est.direction == "upper"
    assert est.trials == 120 and est.master_seed == 21
    assert est.p_hat == est.exceed_count / 120
    assert 0.0 <= est.ci_low <= est.p_hat <= est.ci_high <= 1.0


def test_guarantee_range_flag():
    assert TailEstimate("gaussian", 4, 1.5, "upper", 1, 0, 0, 0, 1, 0, 0).in_guarantee_range is False
    assert TailEstimate("gaussian", 4, 2.0, "upper", 1, 0, 0, 0, 1, 0, 0).in_guarantee_range is True
    assert TailEstimate("gaussian", 4, 0.1, "lower", 1, 0, 0, 0, 1, 0, 0).in_guarantee_range is True


def test_sweep_config_validation():
    good = dict(ensemble=GAUSSIAN, n_values=(4,), k_values=(1.0,), trials=10,
                master_seed=0, direction="upper")
    with pytest.raises(ValueError):
        TailSweepConfig(**{**good, "direction": "sideways"})
    with pytest.raises(InvalidDimension):
        TailSweepConfig(**{**good, "n_values": (1,)})
    with pytest.raises(ValueError):
        TailSweepConfig(**{**good, "n_values": ()})
    with pytest.raises(ValueError):
        TailSweepConfig(**{**good, "k_values": (-1.0,)})
    with pytest.raises(ValueError):
        TailSweepConfig(**{**good, "k_values": (float("nan"), 1.0)})
    with pytest.raises(ValueError):
        TailSweepConfig(**{**good, "trials": 0})
    TailSweepConfig(**{**good, "k_values": (float("inf"),)})  # every s_n is below it


def test_sweep_worker_count_leaves_estimates_identical():
    assert _sweep("upper", [0.5, 1.5], workers=1) == _sweep("upper", [0.5, 1.5], workers=4)


def _estimates_from_values(cfg):
    """cfg's estimates counted from scaled_sn_samples' plain values, one n at a time."""
    out = []
    for n in sorted(set(cfg.n_values)):
        values, singular = scaled_sn_samples(cfg.ensemble, n, cfg.trials, cfg.master_seed)
        for k in sorted(set(cfg.k_values)):
            count = int(np.count_nonzero(values > k if cfg.direction == "upper" else values <= k))
            out.append(TailEstimate(cfg.ensemble.kind, n, k, cfg.direction, cfg.trials, count,
                                    count / cfg.trials, *wilson_interval(count, cfg.trials),
                                    singular, cfg.master_seed))
    return out


def _counting(monkeypatch, name, size=lambda *args: 1):
    """A list that gets size(args) for every call of linalg.<name>, which still runs."""
    sizes = []  # list.append is one C call, so threads count exactly
    routine = getattr(linalg, name)

    def counted(*args):
        sizes.append(size(*args))
        return routine(*args)

    monkeypatch.setattr(linalg, name, counted)
    return sizes


@pytest.mark.parametrize("ensemble, n, k_values, direction", [
    (RADEMACHER, 16, (0.05, 0.1, 0.5), "lower"),
    (GAUSSIAN, 50, (0.1, 0.2, math.inf), "lower"),
    (UNIFORM, 8, (0.25, 0.5), "upper"),
], ids=["rademacher-16-lower", "gaussian-50-lower", "uniform-8-upper"])
def test_certified_sweeps_count_like_the_plain_values(monkeypatch, ensemble, n, k_values,
                                                       direction):
    expected = _estimates_from_values(TailSweepConfig(ensemble, (n,), k_values, 600, 9108,
                                                      direction))
    potrf = _counting(monkeypatch, "_potrf")
    for workers in (1, 3):
        cfg = TailSweepConfig(ensemble, (n,), k_values, 600, 9108, direction, workers)
        assert run_tail_sweep(cfg) == expected, workers
    assert potrf  # the sweeps took the certificate


def test_certified_sweep_skips_most_svds(monkeypatch):
    # about 2,100 matrices take the SVD without the certificate: every draw plus every redraw
    svd = _counting(monkeypatch, "_smallest_by_svd", len)
    run_tail_sweep(TailSweepConfig(RADEMACHER, (16,), (0.05, 0.1, 0.5), 2000, 9105, "lower", 2))
    assert sum(svd) < 1100


@pytest.mark.parametrize("n, k_values", [(16, (0.1, 2.0)), (6, (0.05, 0.5))])
def test_sweeps_outside_the_gate_never_factor_a_gram_matrix(monkeypatch, n, k_values):
    potrf = _counting(monkeypatch, "_potrf")
    for direction in ("upper", "lower"):
        run_tail_sweep(TailSweepConfig(GAUSSIAN, (n,), k_values, 300, 9108, direction))
    assert potrf == []


# ---- wilson_interval --------------------------------------------------------

@pytest.mark.parametrize("trials", [1, 2, 7, 50, 1000, 100000])
def test_wilson_interval_matches_scipy(trials):
    for hits in sorted({0, 1, trials // 3, trials // 2, trials - 1, trials}):
        ci = binomtest(hits, trials).proportion_ci(confidence_level=0.95, method="wilson")
        lo, hi = wilson_interval(hits, trials)
        assert lo == pytest.approx(ci.low, rel=0, abs=1e-14), hits
        assert hi == pytest.approx(ci.high, rel=0, abs=1e-14), hits


def test_wilson_interval_edges_and_rejections():
    for trials in (1, 3, 1000):
        assert wilson_interval(0, trials)[0] == 0.0
        assert wilson_interval(trials, trials)[1] == 1.0
    for hits, trials in ((0, 0), (0, -1), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            wilson_interval(hits, trials)


# ---- CSV schema -------------------------------------------------------------

def test_csv_bytes_are_pinned(tmp_path):
    # golden bytes: schema and float rendering are frozen, so this file
    # must never change for a fixed seed
    est = run_tail_sweep(TailSweepConfig(
        ensemble=GAUSSIAN, n_values=(4,), k_values=(1.0, 2.0),
        trials=25, master_seed=11, direction="upper"))
    path = tmp_path / "tail.csv"
    write_tail_csv(est, path)
    expected = (
        TAIL_CSV_HEADER + "\n"
        "gaussian,4,1,upper,25,5,0.2,0.08860584687,0.3913095037,0,11\n"
        "gaussian,4,2,upper,25,0,0,0,0.1331922509,0,11\n"
    ).encode()
    assert path.read_bytes() == expected


def test_csv_rows_sorted_by_n_then_k(tmp_path):
    est = run_tail_sweep(TailSweepConfig(
        ensemble=GAUSSIAN, n_values=(8, 4), k_values=(2.0, 0.5),
        trials=10, master_seed=3, direction="lower"))
    path = tmp_path / "tail.csv"
    write_tail_csv(est, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TAIL_CSV_HEADER
    keys = [(int(l.split(",")[1]), float(l.split(",")[2])) for l in lines[1:]]
    assert keys == sorted(keys) == [(4, 0.5), (4, 2.0), (8, 0.5), (8, 2.0)]


def test_g10_rendering():
    assert fmt_g10(0.2) == "0.2"
    assert fmt_g10(1.0) == "1"
    assert fmt_g10(1.0 / 3.0) == "0.3333333333"


# ---- median scaling ---------------------------------------------------------

def test_median_scaling_rows():
    rows = median_scaling_report(GAUSSIAN, [16, 4, 8], 400, 3)
    assert [r.n for r in rows] == [4, 8, 16]
    for r in rows:
        assert r.trials == 400
        assert r.q1 <= r.median_scaled <= r.q3
        assert r.iqr == r.q3 - r.q1
        # sqrt(n) * s_n is order one uniformly in n
        assert 0.2 < r.median_scaled < 1.5
    meds = [r.median_scaled for r in rows]
    assert max(meds) / min(meds) < 2.0


# ---- distance tail ----------------------------------------------------------

def test_distance_tail_against_half_normal():
    # the distance from one column to the span of the others behaves like
    # the absolute value of a single standard normal coordinate
    rep = distance_tail_experiment(GAUSSIAN, 20, 2000, 42)
    assert rep.samples.shape == (2000,)
    assert np.all(rep.samples >= 0)
    assert ks_statistic(rep.samples, half_normal_cdf) < 0.06
    assert [u for u, _ in rep.tail] == list(DIST_THRESHOLDS)
    probs = [p for _, p in rep.tail]
    assert probs == sorted(probs, reverse=True)
    assert all(0.0 <= p <= 1.0 for p in probs)
    assert rep.tail[-1][1] < 0.02  # P(|N(0,1)| > 3) ~ 0.0027


def test_distance_tail_validation():
    with pytest.raises(InvalidDimension):
        distance_tail_experiment(GAUSSIAN, 1, 10, 0)
    with pytest.raises(ValueError):
        distance_tail_experiment(GAUSSIAN, 4, 0, 0)


def _column_distance(m):
    try:
        return dist_to_subspace(m[:, 0], orthonormalize(m[:, 1:]))
    except NumericallyDependent:
        return None


@pytest.mark.parametrize("workers", [1, 3])
def test_distance_tail_matches_per_trial_recomputation(monkeypatch, workers):
    # rademacher n=3 rejects about 3 draws in 10; blocks of 1, 5 and 1820 matrices
    expected, rejected = _per_stream(_column_distance, 200, 4, n=3)
    assert rejected > 0
    for entries in (9, 45, harness.BLOCK_ENTRIES):
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", entries)
        rep = distance_tail_experiment(RADEMACHER, 3, 200, 4, workers)
        assert rep.samples.tolist() == expected and rep.singular_count == rejected, entries


def test_distance_tail_worker_invariance():
    a = distance_tail_experiment(GAUSSIAN, 6, 60, 8, workers=1)
    b = distance_tail_experiment(GAUSSIAN, 6, 60, 8, workers=3)
    assert np.array_equal(a.samples, b.samples)
    assert a.tail == b.tail and a.singular_count == b.singular_count


# ---- averaged-tail (Markov twice) bound -------------------------------------

def test_markov_bound_hand_cases():
    # Z ~ Bernoulli(1/2): mean of two <= 1/4 iff both are zero
    assert check_markov_sum_bound([(0.0, 0.5), (1.0, 0.5)], 2, 0.25) == (0.25, 1.0)
    # n=1 and a huge threshold: lhs saturates at 1, rhs at 2
    assert check_markov_sum_bound([(0.0, 0.5), (1.0, 0.5)], 1, 1.0) == (1.0, 2.0)
    # Z in {1,3}: sum of three <= 3 only for (1,1,1), prob (3/4)^3
    lhs, rhs = check_markov_sum_bound([(1.0, 0.75), (3.0, 0.25)], 3, 1.0)
    assert lhs == 0.421875 and rhs == 1.5


def test_markov_bound_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        vals = np.sort(rng.uniform(0.0, 5.0, size=k))
        probs = rng.uniform(0.1, 1.0, size=k)
        probs /= probs.sum()
        n = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.05, 4.0))
        lhs, rhs = check_markov_sum_bound(list(zip(vals, probs)), n, eps)
        # enumeration sums floats, so probabilities carry rounding dust
        assert 0.0 <= lhs <= 1.0 + 1e-12 and 0.0 <= rhs <= 2.0 + 1e-12
        assert lhs <= rhs + 1e-12


def test_markov_bound_budget():
    dist = [(0.0, 0.25), (1.0, 0.25), (2.0, 0.25), (3.0, 0.25)]
    with pytest.raises(EnumerationTooLarge):
        check_markov_sum_bound(dist, 10, 0.5)  # 4^10 > 10^6
    check_markov_sum_bound(dist, 9, 0.5)  # 4^9 fits
    # decided without forming support^n or looping n times
    with pytest.raises(EnumerationTooLarge):
        check_markov_sum_bound([(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)], 10**18, 0.5)
    with pytest.raises(EnumerationTooLarge):
        check_markov_sum_bound([(1.0, 1.0)], 10**18, 0.5)  # one state, but n steps


def test_markov_bound_validation():
    with pytest.raises(ValueError):
        check_markov_sum_bound([], 2, 0.5)
    with pytest.raises(ValueError):
        check_markov_sum_bound([(-1.0, 1.0)], 2, 0.5)
    with pytest.raises(ValueError):
        check_markov_sum_bound([(float("inf"), 1.0)], 2, 0.5)
    with pytest.raises(ValueError):
        check_markov_sum_bound([(1.0, 0.7)], 2, 0.5)  # probs sum to 0.7
    with pytest.raises(ValueError):
        check_markov_sum_bound([(1.0, 1.0)], 0, 0.5)
    with pytest.raises(ValueError):
        check_markov_sum_bound([(1.0, 1.0)], 2, 0.0)
    with pytest.raises(ValueError):
        check_markov_sum_bound([(0.0, 0.5), (1.0, 0.5)], 2, float("nan"))
    with pytest.raises(ValueError):
        check_markov_sum_bound([(0.0, float("nan")), (1.0, 1.0)], 2, 0.5)
    assert check_markov_sum_bound([(0.0, 0.5), (1.0, 0.5)], 2, float("inf")) == (1.0, 2.0)


# ---- tail model fit ---------------------------------------------------------

def _fake(direction, k, p, n=16):
    return TailEstimate(ensemble="gaussian", n=n, k=k, direction=direction,
                        trials=1000, exceed_count=int(p * 1000), p_hat=p,
                        ci_low=0.0, ci_high=1.0, singular_count=0, master_seed=0)


def test_fit_recovers_upper_constant_exactly():
    ks = [2.0, 4.0, 8.0, 16.0]
    ests = [_fake("upper", k, 3.0 * np.log(k) / k) for k in ks]
    rep = fit_tail_model(ests)
    assert rep.constant == pytest.approx(3.0, abs=1e-9)
    assert np.max(np.abs(rep.residuals)) < 1e-12
    assert rep.predict(2.0) == pytest.approx(3.0 * np.log(2.0) / 2.0)


def test_fit_recovers_lower_constant_exactly():
    eps = [0.1, 0.2, 0.3]
    rep = fit_tail_model([_fake("lower", e, 1.4 * e) for e in eps])
    assert rep.constant == pytest.approx(1.4, abs=1e-9)
    assert rep.predict(0.5) == pytest.approx(0.7)


def test_fit_averages_duplicate_thresholds():
    ests = [_fake("lower", 0.2, 0.25), _fake("lower", 0.2, 0.35), _fake("lower", 0.4, 0.6)]
    rep = fit_tail_model(ests)
    merged = fit_tail_model([_fake("lower", 0.2, 0.30), _fake("lower", 0.4, 0.6)])
    assert rep.constant == pytest.approx(merged.constant, rel=1e-12)


def test_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_tail_model([])
    with pytest.raises(InsufficientData):
        fit_tail_model([_fake("upper", 2.0, 0.5), _fake("upper", 4.0, 0.3)])
    with pytest.raises(InsufficientData):
        fit_tail_model([_fake("lower", 0.1, 0.1)])
    with pytest.raises(InsufficientData):
        fit_tail_model([_fake("lower", 0.0, 0.1), _fake("lower", 0.0, 0.2)])


def test_fit_rejects_mixed_batches():
    with pytest.raises(ValueError):
        fit_tail_model([_fake("upper", 2.0, 0.5), _fake("lower", 4.0, 0.3)])
    with pytest.raises(ValueError):
        fit_tail_model([_fake("lower", 0.1, 0.1, n=8), _fake("lower", 0.2, 0.2, n=16)])


def test_fit_skips_infinite_thresholds():
    # TailSweepConfig accepts K = inf; its row (p_hat 0 upper, 1 lower) carries no shape
    for direction, ks in (("upper", (2.0, 3.0, 4.0)), ("lower", (0.5, 1.0))):
        cfg = TailSweepConfig(GAUSSIAN, (8,), ks + (np.inf,), 500, 3, direction)
        estimates = run_tail_sweep(cfg)
        fit = fit_tail_model(estimates)
        finite = fit_tail_model([e for e in estimates if e.k != np.inf])
        assert fit.constant > 0.0 and fit.constant == finite.constant, direction
        assert fit.thresholds.tolist() == list(ks)
    with pytest.raises(InsufficientData):
        fit_tail_model([_fake("lower", 0.5, 0.4), _fake("lower", np.inf, 1.0)])


# ---- harness vs witness cross-check -----------------------------------------

def test_witness_bound_holds_on_sweep_subsample():
    # re-audit a few of the sweep's own matrices: the witness upper bound
    # must dominate the s_n value the sweep recorded
    n, trials, seed = 6, 100, 31
    values, singular = scaled_sn_samples(GAUSSIAN, n, trials, seed)
    assert singular == 0
    for t in range(0, trials, 20):
        rep = audit(sample_matrix(GAUSSIAN, n, SeedSpec(seed, t)))
        assert rep.ok, rep.violations
        assert rep.s_n * np.sqrt(n) == pytest.approx(values[t], rel=1e-12)
        assert rep.implied_bound >= rep.s_n - 1e-10
