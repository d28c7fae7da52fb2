"""Sampling layer: determinism, counter addressing, distribution moments."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsvkit.ensembles import (
    ENSEMBLES,
    GAUSSIAN,
    RADEMACHER,
    STUDENT_T5,
    UNIFORM,
    SeedSpec,
    get_ensemble,
    sample_array,
    sample_matrices,
    sample_matrix,
    sample_vector,
    stream_keys,
    uniform_stream,
)
from lsvkit.errors import InvalidDimension
from lsvkit.harness import scaled_sn_samples

# Regression pins for the frozen generation scheme.  If any of these move,
# every archived seed in every manifest silently means something else, so
# they are asserted bit-exactly.
_KEY_0_0 = 9206327630398885983
_KEY_1_2 = 6422034521767081036
_UNIFORMS_1_2 = [0.5904264981575295, 0.37364347710508483,
                 0.9373766889413174, 0.36754463030131734]
_GAUSSIAN_1_2 = [0.22864222405646564, -0.3222187852635538, 1.5331186547383568]
_RADEMACHER_1_2 = [1.0, -1.0, 1.0, -1.0, -1.0, 1.0]
_UNIFORM_1_2 = [0.31324657831874897, -0.4377118350434663, 1.515117294585221]
_T5_1_2 = [0.22614423355384253, 0.6477665934761796, -0.405284604626183]


def test_stream_key_pins():
    assert SeedSpec(0, 0).key() == _KEY_0_0
    assert SeedSpec(1, 2).key() == _KEY_1_2


def test_uniform_stream_pins_and_range():
    u = uniform_stream(SeedSpec(1, 2), 0, 4)
    assert u.tolist() == _UNIFORMS_1_2
    big = uniform_stream(SeedSpec(9, 9), 0, 100_000)
    assert big.min() > 0.0 and big.max() < 1.0


def test_entry_transform_pins():
    sd = SeedSpec(1, 2)
    assert sample_array(GAUSSIAN, (3,), sd).tolist() == _GAUSSIAN_1_2
    assert sample_array(RADEMACHER, (6,), sd).tolist() == _RADEMACHER_1_2
    assert sample_array(UNIFORM, (3,), sd).tolist() == _UNIFORM_1_2
    assert sample_array(STUDENT_T5, (3,), sd).tolist() == _T5_1_2


def test_repeat_sampling_is_bitwise_identical():
    sd = SeedSpec(123456789, 42)
    a = sample_matrix(GAUSSIAN, 8, sd)
    b = sample_matrix(GAUSSIAN, 8, sd)
    assert np.array_equal(a, b)


def test_distinct_streams_and_seeds_differ():
    a = sample_matrix(GAUSSIAN, 6, SeedSpec(5, 0))
    b = sample_matrix(GAUSSIAN, 6, SeedSpec(5, 1))
    c = sample_matrix(GAUSSIAN, 6, SeedSpec(6, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_entry_counter_is_row_major():
    sd = SeedSpec(7, 3)
    m = sample_matrix(GAUSSIAN, 5, sd)
    flat = sample_array(GAUSSIAN, (25,), sd)
    assert np.array_equal(m.reshape(-1), flat)
    # entry (i, j) individually addressable via its offset
    assert sample_array(GAUSSIAN, (1,), sd, entry_offset=2 * 5 + 4)[0] == m[2, 4]


@settings(max_examples=30, deadline=None)
@given(offset=st.integers(min_value=0, max_value=500), count=st.integers(min_value=1, max_value=64),
       kind=st.sampled_from(sorted(ENSEMBLES)))
def test_chunked_generation_matches_full_stream(offset, count, kind):
    ens = get_ensemble(kind)
    sd = SeedSpec(2024, 17)
    full = sample_array(ens, (offset + count,), sd)
    part = sample_array(ens, (count,), sd, entry_offset=offset)
    assert np.array_equal(full[offset:offset + count], part)


# stream + 2*G wraps mod 2**64 for the last stream
_BLOCK_STREAMS = [0, 5, 2**32 + 3, 2**64 - 1]


def test_stream_keys_match_seedspec_keys():
    for seed in (0, 2**64 - 1):
        keys = stream_keys(seed, _BLOCK_STREAMS)
        assert keys.tolist() == [SeedSpec(seed, s).key() for s in _BLOCK_STREAMS]


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_block_sampling_matches_per_stream_sampling(kind):
    ens = get_ensemble(kind)
    stack = sample_matrices(ens, 4, 2024, _BLOCK_STREAMS)
    assert stack.shape == (len(_BLOCK_STREAMS), 4, 4)
    for b, s in enumerate(_BLOCK_STREAMS):
        assert stack[b].tobytes() == sample_matrix(ens, 4, SeedSpec(2024, s)).tobytes()


# Pure-Python-int reference of the scheme in the ensembles docstring: every
# sum and product is reduced mod 2**64 explicitly, so it shares no code and
# no wraparound behaviour with the in-place uint64 arrays it checks.
_MASK = 2**64 - 1
_G_INT = 0x9E3779B97F4A7C15


def _ref_mix(z):
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _ref_key(master_seed, stream_index):
    return _ref_mix(_ref_mix((master_seed + _G_INT) & _MASK)
                    ^ _ref_mix((stream_index + 2 * _G_INT) & _MASK))


def _ref_uniforms(key, start, count):
    words = (_ref_mix((key + (m + 1) * _G_INT) & _MASK) for m in range(start, start + count))
    return np.array([((w >> 12) + 0.5) * 2.0**-52 for w in words])


@pytest.mark.parametrize("start", [0, 1, 2**32 - 3, 2**63 - 2, 2**64 - 40])
def test_uniform_stream_matches_python_int_reference(start):
    # (m + 1) * G passes 2**64 for every m >= 1; near 2**63 and 2**64 it wraps many times
    for seed in (SeedSpec(0, 0), SeedSpec(2**64 - 1, 2**64 - 1), SeedSpec(7, 2**63)):
        got = uniform_stream(seed, start, 37)
        assert got.tobytes() == _ref_uniforms(_ref_key(seed.master_seed, seed.stream_index),
                                              start, 37).tobytes()


@pytest.mark.parametrize("streams", [[5], [0, 1, 2**63, 2**64 - 1]])
def test_sample_matrices_uniforms_match_python_int_reference(streams):
    # the uniform ensemble is an exact affine map of u, so the uniforms show
    # through; streams become a (b, 1) key block, b = 1 included
    n = 3
    stack = sample_matrices(UNIFORM, n, 2**64 - 1, np.array(streams, dtype=np.uint64))
    for b, s in enumerate(streams):
        u = _ref_uniforms(_ref_key(2**64 - 1, s), 0, n * n)
        assert stack[b].tobytes() == (np.sqrt(3.0) * (2.0 * u - 1.0)).reshape(n, n).tobytes()


def test_dimension_validation():
    with pytest.raises(InvalidDimension):
        sample_matrix(GAUSSIAN, 1, SeedSpec(0, 0))
    with pytest.raises(InvalidDimension):
        sample_vector(GAUSSIAN, 0, SeedSpec(0, 0))
    with pytest.raises(InvalidDimension):
        sample_matrices(GAUSSIAN, 1, 0, [0])


def test_seedspec_validation():
    with pytest.raises(ValueError):
        SeedSpec(-1, 0)
    with pytest.raises(ValueError):
        SeedSpec(0, 1 << 64)
    with pytest.raises(ValueError):
        SeedSpec(0.5, 0)


@pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int32, np.uint8])
def test_numpy_integer_seeds_draw_like_python_ints(kind):
    spec = SeedSpec(kind(3), kind(2))
    assert spec == SeedSpec(3, 2)
    assert type(spec.master_seed) is int and type(spec.stream_index) is int
    assert stream_keys(kind(3), [0, 2]).tobytes() == stream_keys(3, [0, 2]).tobytes()
    assert (sample_matrices(GAUSSIAN, 3, kind(3), [0, 2]).tobytes()
            == sample_matrices(GAUSSIAN, 3, 3, [0, 2]).tobytes())
    assert (scaled_sn_samples(GAUSSIAN, 4, 3, kind(3))[0].tobytes()
            == scaled_sn_samples(GAUSSIAN, 4, 3, 3)[0].tobytes())


@pytest.mark.parametrize("seed", [3.0, np.float64(3.0), "3", -1, np.int64(-1), 1 << 64, None])
def test_non_integer_or_out_of_range_seeds_raise_value_error(seed):
    with pytest.raises(ValueError):
        SeedSpec(seed)
    with pytest.raises(ValueError):
        stream_keys(seed, [0])


@pytest.mark.parametrize("call", [
    lambda: stream_keys(0, [2**64]),
    lambda: stream_keys(0, [-1]),
    lambda: sample_matrices(GAUSSIAN, 2, 0, [-1]),
    lambda: sample_array(STUDENT_T5, 1, SeedSpec(0, 0), entry_offset=2**62),
], ids=["stream-2**64", "stream-negative", "matrices-stream-negative", "t5-counter-past-2**64"])
def test_out_of_range_streams_and_counters_raise_value_error(call):
    # the same error SeedSpec raises for a stream index outside uint64
    with pytest.raises(ValueError):
        call()


def test_counter_bound_is_exact():
    # counter m hashes m + 1 as a uint64, so the last counter is 2**64 - 2
    seed = SeedSpec(0, 0)
    for start, count in ((2**63 - 1, 1), (2**64 - 2, 1), (2**64 - 6, 5)):
        got = uniform_stream(seed, start, count)
        assert got.tobytes() == _ref_uniforms(_ref_key(0, 0), start, count).tobytes()
    for start, count in ((2**64 - 2, 2), (2**64 - 1, 1), (2**64 - 5, 5), (2**64 - 2, 5)):
        with pytest.raises(ValueError):
            uniform_stream(seed, start, count)


def test_get_ensemble_rejects_unknown():
    with pytest.raises(ValueError):
        get_ensemble("cauchy")


def test_rademacher_support_is_exact():
    vals = sample_array(RADEMACHER, (10_000,), SeedSpec(8, 0))
    assert set(np.unique(vals)) == {-1.0, 1.0}


def test_uniform_support_bound():
    vals = sample_array(UNIFORM, (10_000,), SeedSpec(8, 1))
    assert np.abs(vals).max() <= np.sqrt(3.0)


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
def test_million_draw_moments(kind):
    # mean within 0.01 and variance within 0.02 of the nominal 0/1 at 1e6 draws
    ens = get_ensemble(kind)
    vals = sample_array(ens, (1_000_000,), SeedSpec(314159, 0))
    assert abs(float(vals.mean())) <= 0.01
    assert abs(float(vals.var()) - 1.0) <= 0.02


@pytest.mark.parametrize("kind", ["gaussian", "rademacher", "uniform"])
def test_fourth_moment_within_five_percent(kind):
    # student_t5 is excluded: its 4th-moment estimator has infinite variance
    # (the 8th moment diverges), so no fixed trial count certifies 5%
    ens = get_ensemble(kind)
    vals = sample_array(ens, (1_000_000,), SeedSpec(271828, 0))
    m4 = float(np.mean(vals**4))
    assert abs(m4 - ens.fourth_moment) <= 0.05 * ens.fourth_moment


def test_declared_fourth_moments():
    assert GAUSSIAN.fourth_moment == 3.0
    assert RADEMACHER.fourth_moment == 1.0
    assert UNIFORM.fourth_moment == 9.0 / 5.0
    assert STUDENT_T5.fourth_moment == 9.0
    assert not STUDENT_T5.subgaussian
    assert all(ENSEMBLES[k].subgaussian for k in ("gaussian", "rademacher", "uniform"))


def test_scalar_stream_index_gives_the_list_key_without_a_warning():
    # the mod-2**64 wraparound must not warn on numpy's 0-d scalar path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        key = stream_keys(0, [5]).tobytes()
        matrix = sample_matrices(GAUSSIAN, 2, 0, [5]).tobytes()
        for stream in (5, np.uint64(5), np.array(5, dtype=np.uint64)):
            assert stream_keys(0, stream).tobytes() == key
            assert sample_matrices(GAUSSIAN, 2, 0, stream).tobytes() == matrix
