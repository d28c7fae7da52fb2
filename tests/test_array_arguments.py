"""Array arguments: one float64 conversion (in linalg) behind every real array.

Real arrays of any dtype pass, with the values a float64 cast gives them.
Complex entries raise ValueError at every entry point, whatever their
imaginary part and whether they come as a complex array or inside an
object array: never a ComplexWarning with the imaginary part dropped,
never a bare TypeError.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from lsvkit.ensembles import GAUSSIAN, SeedSpec, sample_array
from lsvkit.harness import check_markov_sum_bound
from lsvkit.linalg import (
    BiorthogonalSystem,
    OrthonormalBasis,
    as_matrix,
    as_square,
    as_vector,
    dist_to_subspace,
    dual_basis,
    inverse,
    leave_one_out_distances,
    lu_factorization,
    lu_solve,
    orthonormalize,
    project_onto,
    smallest_singular_value,
    smallest_singular_values,
)
from lsvkit.structure import LcdQuery, dist_to_lattice, lcd_vector, small_ball_estimate
from lsvkit.witness import (
    audit,
    compute_ab,
    construct_witness_vector,
    dual_projections,
    independence_probe,
)

_SQUARE = sample_array(GAUSSIAN, (3, 3), SeedSpec(1, 0))
_VECTOR = _SQUARE[:, 0].copy()
_FIXED = sample_array(GAUSSIAN, (4, 3), SeedSpec(205, 0))
_BASIS = orthonormalize(sample_array(GAUSSIAN, (3, 2), SeedSpec(3, 0)))
_QUERY = LcdQuery(alpha=0.5, gamma=0.5, theta_max=10.0)
_MARKOV = np.array([[0.0, 0.5], [1.0, 0.5]])

# (entry point.argument, call with the argument set to v, a valid real value)
_CASES = [
    ("as_vector", as_vector, _VECTOR),
    ("as_matrix", as_matrix, _SQUARE),
    ("as_square", as_square, _SQUARE),
    ("lu_factorization", lu_factorization, _SQUARE),
    ("lu_solve.a", lambda v: lu_solve(v, _VECTOR), _SQUARE),
    ("lu_solve.b", lambda v: lu_solve(_SQUARE, v), _VECTOR),
    ("LuFactorization.solve", lu_factorization(_SQUARE).solve, _VECTOR),
    ("inverse", inverse, _SQUARE),
    ("smallest_singular_value", smallest_singular_value, _SQUARE),
    ("smallest_singular_values", smallest_singular_values, _SQUARE[None]),
    ("OrthonormalBasis.vectors", lambda v: OrthonormalBasis(ambient_dim=3, vectors=v),
     np.eye(3)[:2]),
    ("orthonormalize.matrix", orthonormalize, _SQUARE),
    ("orthonormalize.vectors", lambda v: orthonormalize([v, np.ones(3)]), _VECTOR),
    ("project_onto", lambda v: project_onto(_BASIS, v), _VECTOR),
    ("dist_to_subspace", lambda v: dist_to_subspace(v, _BASIS), _VECTOR),
    ("leave_one_out_distances", leave_one_out_distances, _SQUARE),
    ("BiorthogonalSystem.primal",
     lambda v: BiorthogonalSystem(ambient_dim=3, primal=v, dual=np.eye(3)), _SQUARE),
    ("BiorthogonalSystem.dual",
     lambda v: BiorthogonalSystem(ambient_dim=3, primal=np.eye(3), dual=v), _SQUARE),
    ("dual_basis", dual_basis, _SQUARE),
    ("construct_witness_vector", construct_witness_vector, _SQUARE),
    ("dual_projections", dual_projections, _SQUARE),
    ("compute_ab", compute_ab, _SQUARE),
    ("audit", audit, _SQUARE),
    ("independence_probe.fixed_columns", lambda v: independence_probe(v, 2, 0), _FIXED),
    ("dist_to_lattice", dist_to_lattice, _VECTOR),
    ("lcd_vector", lambda v: lcd_vector(v, _QUERY), _VECTOR),
    ("small_ball_estimate.weights",
     lambda v: small_ball_estimate(v, GAUSSIAN, 0.1, 10, SeedSpec(0)), np.array([0.6, 0.8])),
    ("check_markov_sum_bound.distribution", lambda v: check_markov_sum_bound(v, 2, 0.3),
     _MARKOV),
]
_IDS = [case[0] for case in _CASES]


def _complex_forms(good: np.ndarray):
    """The valid value as a complex array (zero and nonzero imaginary part) and with
    one complex entry inside an object array."""
    in_object = good.astype(object)
    in_object.flat[0] = complex(good.flat[0], 1.0)
    return [good.astype(complex), good + 1j, in_object]


@pytest.mark.parametrize("case, call, good", _CASES, ids=_IDS)
def test_complex_input_raises_value_error(case, call, good):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)  # the real value passes without a warning
        for value in _complex_forms(good):
            with pytest.raises(ValueError, match="must be real"):
                call(value)


def test_real_object_entries_still_convert():
    assert as_vector(np.array([Fraction(1, 2), 3], dtype=object)).tolist() == [0.5, 3.0]
    assert as_vector([True, 2**70]).tolist() == [1.0, 2.0**70]
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, None])  # None casts to NaN
