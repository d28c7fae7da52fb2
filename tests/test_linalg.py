"""Dense operations vs independent oracles (cofactor inverse, closed forms)."""

import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import inverse_cofactor, solve_cofactor

from lsvkit import linalg
from lsvkit.ensembles import (
    ENSEMBLES,
    GAUSSIAN,
    RADEMACHER,
    SeedSpec,
    sample_array,
    sample_matrices,
    sample_matrix,
)
from lsvkit.errors import (
    DimensionMismatch,
    NonSquare,
    NumericallyDependent,
    SingularMatrix,
)
from lsvkit.linalg import (
    BiorthogonalSystem,
    OrthonormalBasis,
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


def _matrix(seed, n=6):
    return sample_matrix(GAUSSIAN, n, SeedSpec(seed, 0))


def _vector(seed, n=6):
    return sample_array(GAUSSIAN, (n,), SeedSpec(seed, 1))


def _is_singular(a) -> bool:
    try:
        lu_factorization(a)
    except SingularMatrix:
        return True
    return False


# ---- leave_one_out_distances -----------------------------------------------

def test_leave_one_out_distances_match_inverse_row_norms():
    # for invertible A, dist(column k, span of the others) = 1 / ||row k of A^{-1}||
    a = _matrix(21, n=7)
    expected = 1.0 / np.linalg.norm(inverse_cofactor(a), axis=1)
    assert np.allclose(leave_one_out_distances(a), expected, rtol=1e-10, atol=0.0)


def test_leave_one_out_distances_of_one_column_is_its_norm():
    col = np.array([[3.0], [4.0]])
    assert leave_one_out_distances(col).tolist() == [5.0]


def _leave_one_out_reference(cols):
    # one QR per deleted column, each distance projected on its own
    m = linalg.as_matrix(cols)
    n, k = m.shape
    out = np.empty(k)
    for j in range(k):
        others = np.delete(m, j, axis=1)
        if others.shape[1]:
            basis = orthonormalize(others)
        else:
            basis = OrthonormalBasis(ambient_dim=n, vectors=np.empty((0, n)))
        out[j] = dist_to_subspace(m[:, j], basis)
    return out


def _outcome(f, a):
    # the distances' bytes, or the exception's type, message and index
    try:
        return f(a).tobytes()
    except Exception as e:  # every outcome is compared, whatever it raises
        return type(e), str(e), getattr(e, "index", None)


@pytest.mark.parametrize("kind", sorted(ENSEMBLES))
@pytest.mark.parametrize("n", [2, 3, 5, 20, 60])
def test_leave_one_out_distances_match_per_column_route_bitwise(kind, n):
    # small sign matrices are often singular, so some outcomes are exceptions
    for seed in range(40):
        a = sample_matrix(ENSEMBLES[kind], n, SeedSpec(seed, 0))
        assert _outcome(leave_one_out_distances, a) == _outcome(_leave_one_out_reference, a)


@pytest.mark.parametrize("entries", [1, 84, 126, 210, 1 << 15])
def test_leave_one_out_groups_split_anywhere(monkeypatch, entries):
    # at n = 7 one column deletion of an m-column input holds 7 * (m - 1)
    # entries, so 7 and 6 columns split into groups of 1, 2, 3, 5 or 6, and all
    monkeypatch.setattr(linalg, "LOO_QR_ENTRIES", entries)
    a = _matrix(31, n=7)
    for cols in (a, a[:, 1:], a[:, :1], a.T):
        assert leave_one_out_distances(cols).tobytes() == _leave_one_out_reference(cols).tobytes()


@pytest.mark.parametrize("entries", [1, 48, 72, 1 << 15])
def test_leave_one_out_raises_as_per_column_route(monkeypatch, entries):
    # groups of 1, 2, 3 and all 5 column deletions (24 entries each)
    monkeypatch.setattr(linalg, "LOO_QR_ENTRIES", entries)
    base = _matrix(32, n=6)[:, :5]
    cases = [np.ones((3, 5)), np.ones((3, 4)), np.zeros((0, 1))]
    for i in range(5):
        zero = base.copy()
        zero[:, i] = 0.0
        cases.append(zero)
        for j in range(5):
            if j != i:
                dup = base.copy()
                dup[:, j] = dup[:, i]
                cases.append(dup)
                # a zero column whose own deletion is clean, then a dependence elsewhere
                both = zero.copy()
                both[:, (j + 1) % 5] = both[:, j]
                cases.append(both)
    for cols in cases:
        expected = _outcome(_leave_one_out_reference, cols)
        assert isinstance(expected, tuple)  # every case raises
        assert _outcome(leave_one_out_distances, cols) == expected


def test_leave_one_out_raises_orthonormality_defect_as_per_column_route(monkeypatch):
    # Householder Q is orthonormal to rounding, so a stretched Q stands in for a defect
    qr = np.linalg.qr

    def stretched_qr(a, mode="reduced"):
        q, r = qr(a, mode=mode)
        return 2.0 * q, r

    monkeypatch.setattr(np.linalg, "qr", stretched_qr)
    a = _matrix(33, n=5)
    expected = _outcome(_leave_one_out_reference, a)
    assert expected[:2] == (ValueError, "rows are not orthonormal (defect 3.000e+00)")
    assert _outcome(leave_one_out_distances, a) == expected


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_lu_solve_matches_cofactor_oracle(seed):
    a = _matrix(seed)
    b = _vector(seed)
    y = lu_solve(a, b)
    y_oracle = solve_cofactor(a, b)
    assert np.allclose(y, y_oracle, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("n", [2, 6, 20, 50])
def test_lu_solve_residual_contract(n):
    a = sample_matrix(GAUSSIAN, n, SeedSpec(n, 5))
    b = sample_array(GAUSSIAN, (n,), SeedSpec(n, 6))
    y = lu_solve(a, b)
    resid = np.linalg.norm(a @ y - b)
    assert resid <= 1e-9 * np.linalg.norm(a, "fro") * np.linalg.norm(y)


def test_lu_solve_shape_errors():
    with pytest.raises(NonSquare):
        lu_solve(np.ones((2, 3)), np.ones(2))
    with pytest.raises(DimensionMismatch):
        lu_solve(np.eye(3), np.ones(2))


def test_singularity_policy():
    with pytest.raises(SingularMatrix):
        lu_solve(np.zeros((3, 3)), np.ones(3))
    rank1 = np.outer(np.arange(1.0, 4.0), np.arange(1.0, 4.0))
    with pytest.raises(SingularMatrix):
        lu_solve(rank1, np.ones(3))
    dup = _matrix(9).copy()
    dup[:, 2] = dup[:, 0]
    assert _is_singular(dup)
    # pivot threshold is relative to the largest column norm
    assert _is_singular(np.diag([1.0, 1e-14]))
    assert not _is_singular(np.diag([1.0, 1e-12]))


def test_inverse_matches_cofactor_oracle():
    a = _matrix(11, n=5)
    assert np.allclose(inverse(a), inverse_cofactor(a), rtol=1e-10, atol=1e-12)


def test_lu_factorization_solve_rejects_non_finite_rhs():
    # as lu_solve does through as_vector: a NaN or inf rhs is an error, not a NaN solution
    fac = lu_factorization(np.eye(2))
    for rhs in ([np.nan, 1.0], [1.0, np.inf], np.array([[1.0, -np.inf], [0.0, 1.0]])):
        with pytest.raises(ValueError, match="finite"):
            fac.solve(rhs)
    with pytest.raises(ValueError, match="finite"):
        lu_solve(np.eye(2), [np.nan, 1.0])


def test_lu_factorization_reuse():
    a = _matrix(12)
    fac = lu_factorization(a)
    b1, b2 = _vector(12), _vector(13)
    assert np.allclose(a @ fac.solve(b1), b1, atol=1e-10)
    assert np.allclose(a @ fac.solve(b2), b2, atol=1e-10)
    assert np.allclose(fac.inverse() @ a, np.eye(6), atol=1e-10)


# ---- smallest_singular_value ----------------------------------------------

def test_smallest_singular_value_diagonal():
    assert smallest_singular_value(np.diag([3.0, 0.5, 2.0])) == pytest.approx(0.5, rel=1e-12)


def test_smallest_singular_value_closed_form_2x2():
    # [[1,1],[0,1]] has singular values sqrt((3 +/- sqrt(5))/2)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    expected = (np.sqrt(5.0) - 1.0) / 2.0
    assert smallest_singular_value(a) == pytest.approx(expected, rel=1e-12)


def test_smallest_singular_value_zero_on_singular():
    assert smallest_singular_value(np.zeros((4, 4))) == 0.0
    rank1 = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 5.0))
    assert smallest_singular_value(rank1) == 0.0


def test_smallest_singular_values_of_a_stack():
    # singular members give 0.0 and leave the others' stacked SVD alone
    stack = np.stack([np.diag([3.0, 0.5, 2.0]), np.zeros((3, 3)), np.eye(3)])
    assert smallest_singular_values(stack) == pytest.approx([0.5, 0.0, 1.0], rel=1e-12)
    with pytest.raises(DimensionMismatch):
        smallest_singular_values(np.eye(3))
    with pytest.raises(NonSquare):
        smallest_singular_values(np.ones((2, 2, 3)))


def test_smallest_singular_values_of_empty_stacks():
    # no matrices gives no values; an n = 0 matrix has no nonzero column, so 0.0
    assert smallest_singular_values(np.zeros((0, 3, 3))).shape == (0,)
    assert smallest_singular_values(np.zeros((0, 0, 0))).shape == (0,)
    assert smallest_singular_values(np.zeros((2, 0, 0))).tolist() == [0.0, 0.0]
    assert smallest_singular_value(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 16])
def test_stack_pivot_test_matches_per_matrix_route(n):
    # sign matrices are singular with positive probability, so both outcomes occur
    stack = sample_matrices(RADEMACHER, n, 3, np.arange(400, dtype=np.uint64))
    values = smallest_singular_values(stack)
    singular = np.array([_is_singular(m) for m in stack])
    assert 0 < singular.sum() < len(stack)
    assert np.array_equal(values == 0.0, singular)
    assert values[~singular].tolist() == [smallest_singular_value(m) for m in stack[~singular]]
    for m in stack[~singular]:
        lu, piv = lu_factorization(m)._factors
        ref_lu, ref_piv = sla.lu_factor(m)
        assert lu.tobytes() == ref_lu.tobytes() and piv.tobytes() == ref_piv.tobytes()


def test_pivot_test_raises_instead_of_warning():
    exact_zero_pivot = np.array([[1.0, 2.0], [2.0, 4.0]])  # getrf reports info > 0
    zero_column = np.array([[1.0, 0.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a LinAlgWarning or RuntimeWarning would raise
        for a in (exact_zero_pivot, zero_column, np.zeros((2, 2))):
            with pytest.raises(SingularMatrix):
                lu_factorization(a)
        stack = np.stack([exact_zero_pivot, zero_column, np.zeros((2, 2)), np.eye(2)])
        assert smallest_singular_values(stack).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_stack_is_validated_before_any_factorization(monkeypatch):
    def refuse(m):
        raise AssertionError("factorized before the stack was validated")

    monkeypatch.setattr(linalg, "_getrf", refuse)
    with pytest.raises(NonSquare):
        smallest_singular_values(np.ones((3, 2, 3)))
    stack = np.stack([np.eye(3)] * 3)
    stack[2, 1, 1] = np.nan
    with pytest.raises(ValueError):
        smallest_singular_values(stack)


def test_smallest_singular_value_nonsquare():
    with pytest.raises(NonSquare):
        smallest_singular_value(np.ones((2, 3)))


def test_smallest_singular_value_inverse_norm_identity():
    # s_n(A) * ||A^{-1}||_2 = 1; the inverse norm goes through an
    # independent LU route, so this cross-checks the SVD value
    a = sample_matrix(GAUSSIAN, 128, SeedSpec(77, 0))
    s = smallest_singular_value(a)
    inv_norm = np.linalg.norm(inverse(a), 2)
    assert abs(s * inv_norm - 1.0) <= 1e-8


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_smallest_singular_value_orthogonal_invariance(seed):
    a = sample_matrix(GAUSSIAN, 12, SeedSpec(seed, 0))
    q = orthonormalize(sample_matrix(GAUSSIAN, 12, SeedSpec(seed, 1))).vectors.T
    assert smallest_singular_value(q @ a) == pytest.approx(
        smallest_singular_value(a), rel=1e-8)


def test_operational_inverse_bound():
    # ||A^{-1} y|| <= ||y|| / s_n within rounding
    a = _matrix(21, n=30)
    s = smallest_singular_value(a)
    y = _vector(21, n=30)
    assert s * np.linalg.norm(lu_solve(a, y)) <= np.linalg.norm(y) * (1.0 + 1e-6)


# ---- orthonormalize / projections ------------------------------------------

def test_orthonormalize_pairwise_inner_products():
    cols = sample_array(GAUSSIAN, (20, 12), SeedSpec(31, 0))
    basis = orthonormalize(cols)
    gram = basis.vectors @ basis.vectors.T
    assert np.abs(gram - np.eye(12)).max() <= 1e-12
    assert basis.ambient_dim == 20 and basis.size == 12


def test_orthonormalize_preserves_span_and_order():
    cols = sample_array(GAUSSIAN, (7, 3), SeedSpec(32, 0))
    basis = orthonormalize(cols)
    for j in range(3):
        v = cols[:, j]
        assert dist_to_subspace(v, basis) <= 1e-10 * np.linalg.norm(v)
    # leading vector keeps its direction (positive alignment)
    lead = cols[:, 0] / np.linalg.norm(cols[:, 0])
    assert np.allclose(basis.vectors[0], lead, atol=1e-12)
    assert basis.vectors[0] @ cols[:, 0] > 0


def test_orthonormalize_accepts_vector_sequence():
    vs = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])]
    basis = orthonormalize(vs)
    assert basis.size == 2
    assert np.allclose(basis.vectors[1], [0.0, 1.0, 0.0], atol=1e-14)


def test_orthonormalize_reports_dependent_index():
    cols = sample_array(GAUSSIAN, (6, 2), SeedSpec(33, 0))
    stacked = np.column_stack([cols[:, 0], cols[:, 1], cols[:, 0] + cols[:, 1]])
    with pytest.raises(NumericallyDependent) as err:
        orthonormalize(stacked)
    assert err.value.index == 2
    with pytest.raises(NumericallyDependent) as err:
        orthonormalize(np.column_stack([cols[:, 0], np.zeros(6)]))
    assert err.value.index == 1


def test_orthonormalize_too_many_vectors():
    with pytest.raises(DimensionMismatch):
        orthonormalize(np.ones((2, 3)))


def test_empty_basis_projects_to_zero():
    basis = OrthonormalBasis(ambient_dim=4, vectors=np.empty((0, 4)))
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(project_onto(basis, v), np.zeros(4))
    assert dist_to_subspace(v, basis) == pytest.approx(np.linalg.norm(v))


def test_basis_type_rejects_non_orthonormal_rows():
    with pytest.raises(ValueError):
        OrthonormalBasis(ambient_dim=3, vectors=np.array([[1.0, 1.0, 0.0]]))


def test_basis_type_rejects_non_finite_rows():
    for row in ([np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="not orthonormal"):
            OrthonormalBasis(ambient_dim=2, vectors=np.array([row]))
    assert OrthonormalBasis(ambient_dim=2, vectors=np.empty((0, 2))).size == 0


def test_project_dimension_mismatch():
    basis = orthonormalize(np.eye(3)[:, :2])
    with pytest.raises(DimensionMismatch):
        project_onto(basis, np.ones(4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=1, max_value=5))
def test_projection_idempotent_and_self_adjoint(seed, k):
    cols = sample_array(GAUSSIAN, (8, k), SeedSpec(seed, 2))
    basis = orthonormalize(cols)
    u = sample_array(GAUSSIAN, (8,), SeedSpec(seed, 3))
    v = sample_array(GAUSSIAN, (8,), SeedSpec(seed, 4))
    pu = project_onto(basis, u)
    assert np.linalg.norm(project_onto(basis, pu) - pu) <= 1e-10
    assert abs(pu @ v - u @ project_onto(basis, v)) <= 1e-10
    # Pythagoras: ||v||^2 = ||Pv||^2 + dist(v)^2
    pv = project_onto(basis, v)
    assert np.linalg.norm(v) ** 2 == pytest.approx(
        np.linalg.norm(pv) ** 2 + dist_to_subspace(v, basis) ** 2, rel=1e-10)


# ---- dual_basis -------------------------------------------------------------

def test_dual_basis_biorthogonality_and_products():
    a = _matrix(41, n=8)
    system = dual_basis(a)
    assert system.biorthogonality_defect() <= 1e-8
    products = system.norm_distance_products()
    assert np.abs(products - 1.0).max() <= 1e-6
    # primal rows are exactly the columns of A
    assert np.array_equal(system.primal, a.T)


def test_dual_rows_match_cofactor_inverse():
    a = _matrix(42, n=5)
    system = dual_basis(a)
    assert np.allclose(system.dual, inverse_cofactor(a), rtol=1e-9, atol=1e-12)


def test_dual_basis_identity_matrix_is_self_dual():
    system = dual_basis(np.eye(4))
    assert np.array_equal(system.primal, np.eye(4))
    assert np.array_equal(system.dual, np.eye(4))


def test_dual_basis_rejects_singular():
    with pytest.raises(SingularMatrix):
        dual_basis(np.zeros((3, 3)))


def test_dual_basis_rejects_untrusted_biorthogonality():
    # the 9x9 Hilbert matrix passes the pivot test, but its computed inverse
    # misses <X_j*, X_k> = delta_jk by far more than BIORTHOGONALITY_TOL
    h = sla.hilbert(9)
    assert not _is_singular(h)
    with pytest.raises(SingularMatrix, match="biorthogonality defect .* exceeds 1.0e-08"):
        dual_basis(h)


def test_biorthogonal_type_shape_validation():
    with pytest.raises(DimensionMismatch):
        BiorthogonalSystem(ambient_dim=3, primal=np.eye(3), dual=np.eye(2))
