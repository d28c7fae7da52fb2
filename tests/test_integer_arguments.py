"""Integer arguments: one check (errors.as_int) behind every count, index and dimension.

Each entry point takes Python and numpy integers alike, with bitwise-equal
results, and meets any other value with its documented error: never a
TypeError or IndexError, never a silently truncated float.
"""

import dataclasses

import numpy as np
import pytest

from lsvkit.ensembles import (
    GAUSSIAN,
    SeedSpec,
    sample_array,
    sample_matrices,
    sample_matrix,
    sample_vector,
    stream_keys,
    uniform_stream,
)
from lsvkit.errors import DimensionMismatch, InvalidDimension, InvalidQuery, as_int
from lsvkit.harness import (
    TailSweepConfig,
    check_markov_sum_bound,
    distance_tail_experiment,
    map_trials,
    median_scaling_report,
    scaled_sn_samples,
)
from lsvkit.linalg import orthonormalize
from lsvkit.stats import wilson_interval
from lsvkit.structure import LcdQuery, lcd_subspace_sampled, small_ball_estimate
from lsvkit.witness import (
    audit,
    compute_ab,
    construct_witness_vector,
    dual_projections,
    independence_probe,
)

_SQUARE = sample_array(GAUSSIAN, (3, 3), SeedSpec(1, 0))
_FIXED = sample_array(GAUSSIAN, (4, 3), SeedSpec(205, 0))
_BASIS = orthonormalize(sample_array(GAUSSIAN, (4, 2), SeedSpec(3, 0)))
_QUERY = LcdQuery(alpha=0.5, gamma=0.5, theta_max=10.0)
_WEIGHTS = np.array([0.6, 0.8])
_MARKOV = [(0.0, 0.5), (1.0, 0.5)]


def _bytes(stack):
    return [m.tobytes() for m in stack]


def _sweep(**changes):
    return TailSweepConfig(**{**dict(ensemble=GAUSSIAN, n_values=(4,), k_values=(1.0,), trials=5,
                                     master_seed=0, direction="upper"), **changes})


# (entry point.argument, the argument's name in the error message, call with
#  the argument set to v, a valid Python int, the documented error)
_CASES = [
    ("SeedSpec.master_seed", "master_seed", lambda v: SeedSpec(v, 2), 3, ValueError),
    ("SeedSpec.stream_index", "stream_index", lambda v: SeedSpec(3, v), 2, ValueError),
    ("stream_keys.master_seed", "master_seed", lambda v: stream_keys(v, [0, 2]), 3, ValueError),
    ("stream_keys.streams", "stream index", lambda v: stream_keys(3, [0, v]), 2, ValueError),
    ("uniform_stream.start", "start", lambda v: uniform_stream(SeedSpec(0), v, 4), 2, ValueError),
    ("uniform_stream.count", "count", lambda v: uniform_stream(SeedSpec(0), 0, v), 3, ValueError),
    ("sample_array.shape", "shape entry", lambda v: sample_array(GAUSSIAN, v, SeedSpec(0)), 3,
     ValueError),
    ("sample_array.shape_entry", "shape entry",
     lambda v: sample_array(GAUSSIAN, (2, v), SeedSpec(0)), 3, ValueError),
    ("sample_array.entry_offset", "entry_offset",
     lambda v: sample_array(GAUSSIAN, 3, SeedSpec(0), entry_offset=v), 2, ValueError),
    ("sample_matrices.n", "matrix dimension n",
     lambda v: sample_matrices(GAUSSIAN, v, 0, [0, 1]), 3, InvalidDimension),
    ("sample_matrices.streams", "stream index",
     lambda v: sample_matrices(GAUSSIAN, 3, 0, [v]), 1, ValueError),
    ("sample_matrix.n", "matrix dimension n",
     lambda v: sample_matrix(GAUSSIAN, v, SeedSpec(0, 1)), 3, InvalidDimension),
    ("sample_vector.n", "vector dimension n",
     lambda v: sample_vector(GAUSSIAN, v, SeedSpec(0, 1)), 3, InvalidDimension),
    ("map_trials.n", "n", lambda v: map_trials(_bytes, GAUSSIAN, v, 5, 0), 3, InvalidDimension),
    ("map_trials.trials", "trials", lambda v: map_trials(_bytes, GAUSSIAN, 3, v, 0), 5, ValueError),
    ("map_trials.workers", "workers", lambda v: map_trials(_bytes, GAUSSIAN, 3, 5, 0, v), 2,
     ValueError),
    ("scaled_sn_samples.n", "n", lambda v: scaled_sn_samples(GAUSSIAN, v, 5, 0), 3,
     InvalidDimension),
    ("scaled_sn_samples.trials", "trials", lambda v: scaled_sn_samples(GAUSSIAN, 3, v, 0), 5,
     ValueError),
    ("TailSweepConfig.n_values", "n", lambda v: _sweep(n_values=(v,)), 4, InvalidDimension),
    ("TailSweepConfig.trials", "trials", lambda v: _sweep(trials=v), 5, ValueError),
    ("TailSweepConfig.workers", "workers", lambda v: _sweep(workers=v), 2, ValueError),
    ("check_markov_sum_bound.n", "n", lambda v: check_markov_sum_bound(_MARKOV, v, 0.3), 3,
     ValueError),
    ("wilson_interval.hits", "hits", lambda v: wilson_interval(v, 10), 3, ValueError),
    ("wilson_interval.trials", "trials", lambda v: wilson_interval(1, v), 2, ValueError),
    ("lcd_subspace_sampled.samples", "samples",
     lambda v: lcd_subspace_sampled(_BASIS, _QUERY, v, SeedSpec(0, 1)), 3, InvalidQuery),
    ("small_ball_estimate.trials", "trials",
     lambda v: small_ball_estimate(_WEIGHTS, GAUSSIAN, 0.5, v, SeedSpec(0)), 100, InvalidQuery),
    ("audit.column", "column", lambda v: audit(_SQUARE, v), 1, DimensionMismatch),
    ("construct_witness_vector.column", "column",
     lambda v: construct_witness_vector(_SQUARE, v), 1, DimensionMismatch),
    ("dual_projections.column", "column", lambda v: dual_projections(_SQUARE, v), 1,
     DimensionMismatch),
    ("compute_ab.column", "column", lambda v: compute_ab(_SQUARE, v), 1, DimensionMismatch),
    ("independence_probe.column", "column",
     lambda v: independence_probe(_FIXED, 3, 0, column=v), 1, DimensionMismatch),
    ("independence_probe.trials", "trials", lambda v: independence_probe(_FIXED, v, 0), 3,
     ValueError),
]
_IDS = [case[0] for case in _CASES]


def _exact(x):
    """x down to types and bytes: equal exactly when the values are bitwise equal."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(_exact(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, *map(_exact, x))
    if isinstance(x, dict):
        return ("dict", *((k, _exact(v)) for k, v in x.items()))
    if isinstance(x, float):
        return (type(x).__name__, x.hex())
    return (type(x).__name__, x)


@pytest.mark.parametrize("case, name, call, good, error", _CASES, ids=_IDS)
def test_non_integers_raise_the_documented_error(case, name, call, good, error):
    for value in (2.5, 2.0, np.float64(2.0), "2", None):
        with pytest.raises(error, match=f"^{name} must be an integer"):
            call(value)


@pytest.mark.parametrize("case, name, call, good, error", _CASES, ids=_IDS)
def test_numpy_integers_give_bitwise_equal_results(case, name, call, good, error):
    expected = _exact(call(good))
    for kind in (np.int64, np.uint8):
        assert _exact(call(kind(good))) == expected, kind


def test_as_int_bounds_and_messages():
    assert as_int("n", 2, 2) == 2 and as_int("k", 5, 0, 5) == 5  # both bounds inclusive
    for value in (np.uint64(2**64 - 1), np.int8(-3), True):
        got = as_int("v", value, -3, 2**64 - 1)
        assert type(got) is int and got == value
    with pytest.raises(InvalidDimension, match=r"^n must be >= 2, got 1$"):
        as_int("n", 1, 2, error=InvalidDimension)
    with pytest.raises(ValueError, match=r"^k must be in \[0, 5\], got 6$"):
        as_int("k", np.int64(6), 0, 5)
    with pytest.raises(ValueError, match=r"^k must be an integer in \[0, 5\], got 2\.5$"):
        as_int("k", 2.5, 0, 5)


def test_stream_lists_reach_the_last_uint64_stream():
    # np.asarray([0, 2**64 - 1]) is float64; the list is read element by element
    streams = [0, 2**63, 2**64 - 1]
    assert (stream_keys(7, streams).tobytes()
            == stream_keys(7, np.array(streams, dtype=np.uint64)).tobytes()
            == np.array([SeedSpec(7, s).key() for s in streams], dtype=np.uint64).tobytes())
    grid = [[0, 2**63], [5, 2**64 - 1]]  # nested lists keep their shape
    assert stream_keys(7, grid).tolist() == [stream_keys(7, row).tolist() for row in grid]
    for streams in ([2**64], [-1], [[1, 2], [3]], np.array([-1]), np.array([1.0]), 1.5, None):
        with pytest.raises(ValueError, match="stream index"):
            stream_keys(7, streams)


def test_reports_hold_python_ints():
    # the reports keep n and trials as converted, like every other entry point
    distance = _exact(distance_tail_experiment(GAUSSIAN, 3, 5, 0))
    scaling = _exact(median_scaling_report(GAUSSIAN, [3, 4], 5, 0))
    for kind in (np.int64, np.uint8):
        assert _exact(distance_tail_experiment(GAUSSIAN, kind(3), kind(5), 0)) == distance, kind
        assert _exact(median_scaling_report(GAUSSIAN, [kind(4), 3], kind(5), 0)) == scaling, kind
    with pytest.raises(InvalidDimension, match=r"^n must be >= 2, got 1$"):
        median_scaling_report(GAUSSIAN, [3, 1], 5, 0)
    with pytest.raises(ValueError, match="^trials must be an integer"):
        distance_tail_experiment(GAUSSIAN, 3, 2.5, 0)
