"""Dense linear algebra with explicit failure contracts.

Factorizations are delegated to LAPACK (via numpy/scipy); this module
owns the validation, the singularity policy and the basis/duality types
the rest of the library builds on.

Singularity policy: a square matrix is treated as singular exactly when
LU with partial pivoting produces a pivot smaller than
``PIVOT_RTOL * max_j ||column_j||_2`` (or when it has a zero column).
All routines that need invertibility apply this one test, through the
one LAPACK ``getrf`` call in ``_pivoted_lu``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DimensionMismatch,
    NonSquare,
    NumericallyDependent,
    SingularMatrix,
)

PIVOT_RTOL = 1e-13
ORTHONORMALITY_TOL = 1e-10
DEPENDENCE_RTOL = 1e-12
BIORTHOGONALITY_TOL = 1e-8
# Stacked entries per np.linalg.qr call in leave_one_out_distances (9
# column deletions at n = 60): qr holds about three times its input.
LOO_QR_ENTRIES = 1 << 15

# the float64 LAPACK routine scipy.linalg.lu_factor would look up on every call
_getrf = sla.get_lapack_funcs("getrf", dtype=np.float64)


def as_vector(v) -> np.ndarray:
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1 or out.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def as_matrix(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def as_square(a) -> np.ndarray:
    out = as_matrix(a)
    if out.shape[0] != out.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class LuFactorization:
    """Reusable pivoted LU factors of a matrix that passed the pivot test."""

    dim: int
    _factors: tuple

    def solve(self, b) -> np.ndarray:
        rhs = np.asarray(b, dtype=np.float64)
        if rhs.shape[0] != self.dim:
            raise DimensionMismatch(f"rhs has leading dim {rhs.shape[0]}, expected {self.dim}")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs entries must be finite")
        return sla.lu_solve(self._factors, rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.dim))


def _pivoted_lu(m: np.ndarray, scale: float) -> tuple:
    """(lu, piv) of a validated square matrix, or SingularMatrix per the pivot rule.

    ``scale`` is the largest column norm; 0.0 means no nonzero column.
    An exact zero pivot (getrf's info > 0) falls under the same rule.
    """
    if scale == 0.0:
        raise SingularMatrix("matrix has no nonzero column")
    lu, piv, info = _getrf(m)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    pivot = np.abs(lu.diagonal()).min()
    if pivot < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {pivot:.3e} below threshold {PIVOT_RTOL * scale:.3e}")
    return lu, piv


def _column_scales(mats: np.ndarray) -> np.ndarray:
    """Largest column norm of each matrix in a (..., n, n) array; 0.0 when n == 0."""
    return np.linalg.norm(mats, axis=-2).max(axis=-1, initial=0.0)


def lu_factorization(a) -> LuFactorization:
    """LU with partial pivoting plus the module's singularity test.

    Every routine here that needs invertibility goes through this one.
    """
    m = as_square(a)
    return LuFactorization(dim=m.shape[0], _factors=_pivoted_lu(m, float(_column_scales(m))))


def lu_solve(a, b) -> np.ndarray:
    """Solve A y = b by LU with partial pivoting.

    Raises SingularMatrix per the module pivot policy, NonSquare /
    DimensionMismatch on shape violations.
    """
    return lu_factorization(a).solve(as_vector(b))


def inverse(a) -> np.ndarray:
    return lu_factorization(a).inverse()


def smallest_singular_values(stack) -> np.ndarray:
    """s_n of every matrix in a (b, n, n) stack; 0.0 where the pivot test flags it singular.

    The stack is validated once, every matrix is pivot-tested by
    _pivoted_lu, and the survivors share one stacked SVD.
    """
    mats = np.asarray(stack, dtype=np.float64)
    if mats.ndim != 3:
        raise DimensionMismatch(f"expected a (b, n, n) stack, got shape {mats.shape}")
    if mats.shape[1] != mats.shape[2]:
        raise NonSquare(f"expected square matrices, got a stack of shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    regular = np.ones(mats.shape[0], dtype=bool)
    for i, scale in enumerate(_column_scales(mats).tolist()):
        try:
            _pivoted_lu(mats[i], scale)
        except SingularMatrix:
            regular[i] = False
    out = np.zeros(mats.shape[0])
    # min is the last of LAPACK's descending values; initial= admits n == 0
    out[regular] = np.linalg.svd(mats[regular], compute_uv=False).min(axis=1, initial=np.inf)
    return out


def smallest_singular_value(a) -> float:
    """min_{||x||=1} ||A x||_2; returns 0.0 when the pivot test flags A singular."""
    return float(smallest_singular_values(as_matrix(a)[None])[0])


@dataclass(frozen=True)
class OrthonormalBasis:
    """Rows of ``vectors`` are orthonormal vectors in R^ambient_dim.

    size == 0 (an empty basis spanning {0}) is allowed; arrays are
    frozen read-only at construction.
    """

    ambient_dim: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"vectors must have shape (k, {self.ambient_dim}), got {v.shape}"
            )
        if v.shape[0] > self.ambient_dim:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        defect = float(np.abs(v @ v.T - np.eye(v.shape[0])).max(initial=0.0))
        if not defect <= ORTHONORMALITY_TOL:
            raise ValueError(f"rows are not orthonormal (defect {defect:.3e})")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def _orthonormal_rows(stack: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Sign-fixed Q factors of a (g, n, k) stack of columns as (g, k, n) C-contiguous rows.

    norms holds the (g, k) column norms.  Each matrix passes, in stack
    order, the checks orthonormalize documents; the first failure raises.
    """
    q, r = np.linalg.qr(stack, mode="reduced")
    diag = r.diagonal(axis1=1, axis2=2).copy()
    del r
    rows = np.multiply(q.transpose(0, 2, 1), np.sign(diag)[:, :, None], order="C")
    del q
    gram = rows @ rows.transpose(0, 2, 1)
    gram -= np.eye(gram.shape[-1])
    defects = np.abs(gram, out=gram).max(axis=(1, 2), initial=0.0)
    for col_norms, d, defect in zip(norms, diag, defects.tolist()):
        if np.any(col_norms == 0.0):
            raise NumericallyDependent(int(np.argmin(col_norms)), "zero input vector")
        bad = np.abs(d) < DEPENDENCE_RTOL * col_norms
        if np.any(bad):
            raise NumericallyDependent(int(np.argmax(bad)))
        if defect > ORTHONORMALITY_TOL:
            raise ValueError(f"rows are not orthonormal (defect {defect:.3e})")
    return rows


def orthonormalize(vectors) -> OrthonormalBasis:
    """Orthonormal basis of span(vectors) preserving input order.

    Accepts a sequence of 1-d vectors or an (n, k) matrix of columns.
    Equivalent to Gram-Schmidt with re-orthogonalization; computed via
    Householder QR for backward stability, with signs fixed so vector j
    keeps a positive component along its own orthogonalized direction.
    Raises NumericallyDependent(index=j) when vector j is zero or its
    residual falls below DEPENDENCE_RTOL times its norm.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        cols = as_matrix(vectors)
    else:
        vs = [as_vector(v) for v in vectors]
        if not vs:
            raise DimensionMismatch("need at least one vector")
        if len({v.shape[0] for v in vs}) != 1:
            raise DimensionMismatch("vectors must share one ambient dimension")
        cols = np.column_stack(vs)
    n, k = cols.shape
    if k > n:
        raise DimensionMismatch(f"{k} vectors cannot be independent in dimension {n}")
    norms = np.linalg.norm(cols, axis=0)
    return OrthonormalBasis(ambient_dim=n, vectors=_orthonormal_rows(cols[None], norms[None])[0])


def project_onto(basis: OrthonormalBasis, v) -> np.ndarray:
    """Orthogonal projection of v onto span(basis)."""
    w = as_vector(v)
    if w.shape[0] != basis.ambient_dim:
        raise DimensionMismatch(
            f"vector dim {w.shape[0]} != basis ambient dim {basis.ambient_dim}"
        )
    return basis.vectors.T @ (basis.vectors @ w)


def dist_to_subspace(v, basis: OrthonormalBasis) -> float:
    w = as_vector(v)
    return float(np.linalg.norm(w - project_onto(basis, w)))


def leave_one_out_distances(cols) -> np.ndarray:
    """dist(column k, span of the other columns) for every column k of an (n, m) matrix.

    The span of no columns is {0}, so a single column's distance is its norm.
    The column-deleted matrices are orthonormalized by stacked QRs of at
    most LOO_QR_ENTRIES entries, raising what orthonormalize would for the
    first failing column; each distance is then projected on its own, as
    dist_to_subspace does.
    """
    m = as_matrix(cols)
    n, k = m.shape
    if k <= 1:
        empty = OrthonormalBasis(ambient_dim=n, vectors=np.empty((0, n)))
        return np.array([dist_to_subspace(m[:, j], empty) for j in range(k)])
    if k - 1 > n:
        raise DimensionMismatch(f"{k - 1} vectors cannot be independent in dimension {n}")
    norms = np.linalg.norm(m, axis=0)
    others = np.array([[c for c in range(k) if c != j] for j in range(k)])
    group = max(1, LOO_QR_ENTRIES // (n * (k - 1)))
    out = np.empty(k)
    for g0 in range(0, k, group):
        idx = others[g0:g0 + group]
        rows = _orthonormal_rows(m[:, idx].transpose(1, 0, 2), norms[idx])
        for j, v in enumerate(rows, start=g0):
            w = m[:, j]
            out[j] = np.linalg.norm(w - v.T @ (v @ w))
    return out


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Primal rows X_k (columns of A) and dual rows X_k* (rows of A^{-1}).

    Defining property: <X_j*, X_k> = delta_jk.  Consequence used all
    over the witness module: ||X_k*|| * dist(X_k, span of the other
    primal vectors) == 1.
    """

    ambient_dim: int
    primal: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        for name in ("primal", "dual"):
            m = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if m.shape != (self.ambient_dim, self.ambient_dim):
                raise DimensionMismatch(f"{name} must be square of dim {self.ambient_dim}")
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    def biorthogonality_defect(self) -> float:
        gram = self.dual @ self.primal.T
        return float(np.abs(gram - np.eye(self.ambient_dim)).max())

    def norm_distance_products(self) -> np.ndarray:
        """||X_k*|| * dist(X_k, span_{j != k} X_j) for every k; all should be 1."""
        return np.linalg.norm(self.dual, axis=1) * leave_one_out_distances(self.primal.T)


def dual_basis(a) -> BiorthogonalSystem:
    """Biorthogonal system of A's columns: primal[k] = A e_k, dual[k] = (A^{-1})^T e_k.

    Raises SingularMatrix either on pivot failure or when the computed
    system misses biorthogonality by more than BIORTHOGONALITY_TOL
    (i.e. A is too ill-conditioned for the duals to be trusted).
    """
    m = as_square(a)
    inv = inverse(m)
    gram_defect = float(np.abs(inv @ m - np.eye(m.shape[0])).max())
    if gram_defect > BIORTHOGONALITY_TOL:
        raise SingularMatrix(
            f"biorthogonality defect {gram_defect:.3e} exceeds {BIORTHOGONALITY_TOL:.1e}"
        )
    return BiorthogonalSystem(ambient_dim=m.shape[0], primal=m.T.copy(), dual=inv)
