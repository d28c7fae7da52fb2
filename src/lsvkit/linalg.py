"""Dense linear algebra with explicit failure contracts.

Factorizations are delegated to LAPACK (via numpy/scipy); this module
owns the validation, the singularity policy and the basis/duality types
the rest of the library builds on.

Singularity policy: a square matrix is treated as singular exactly when
LU with partial pivoting produces a pivot smaller than
``PIVOT_RTOL * max_j ||column_j||_2`` (or when it has a zero column).
All routines that need invertibility apply this one test.
"""

from __future__ import annotations

import warnings
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
        return sla.lu_solve(self._factors, rhs, check_finite=False)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.dim))


def lu_factorization(a) -> LuFactorization:
    """LU with partial pivoting plus the module's singularity test.

    Every routine here that needs invertibility goes through this one.
    """
    m = as_square(a)
    col_norms = np.linalg.norm(m, axis=0)
    scale = float(col_norms.max()) if col_norms.size else 0.0
    if scale == 0.0:
        raise SingularMatrix("matrix has no nonzero column")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exact zero pivots; we raise instead
        lu, piv = sla.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < PIVOT_RTOL * scale:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_RTOL * scale:.3e}"
        )
    return LuFactorization(dim=m.shape[0], _factors=(lu, piv))


def lu_solve(a, b) -> np.ndarray:
    """Solve A y = b by LU with partial pivoting.

    Raises SingularMatrix per the module pivot policy, NonSquare /
    DimensionMismatch on shape violations.
    """
    return lu_factorization(a).solve(as_vector(b))


def inverse(a) -> np.ndarray:
    return lu_factorization(a).inverse()


def is_singular(a) -> bool:
    try:
        lu_factorization(a)
    except SingularMatrix:
        return True
    return False


def smallest_singular_values(stack) -> np.ndarray:
    """s_n of every matrix in a (b, n, n) stack; 0.0 where the pivot test flags it singular.

    Every matrix is validated and pivot-tested by lu_factorization; the
    survivors share one stacked SVD.
    """
    mats = np.asarray(stack, dtype=np.float64)
    if mats.ndim != 3:
        raise DimensionMismatch(f"expected a (b, n, n) stack, got shape {mats.shape}")
    regular = np.array([not is_singular(m) for m in mats], dtype=bool)
    out = np.zeros(mats.shape[0])
    if regular.any():
        out[regular] = np.linalg.svd(mats[regular], compute_uv=False)[:, -1]
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
        if v.shape[0]:
            gram = v @ v.T
            defect = float(np.abs(gram - np.eye(v.shape[0])).max())
            if defect > ORTHONORMALITY_TOL:
                raise ValueError(f"rows are not orthonormal (defect {defect:.3e})")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def orthonormalize(vectors) -> OrthonormalBasis:
    """Orthonormal basis of span(vectors) preserving input order.

    Accepts a sequence of 1-d vectors or an (n, k) matrix of columns.
    Equivalent to Gram-Schmidt with re-orthogonalization; computed via
    Householder QR for backward stability, with signs fixed so vector j
    keeps a positive component along its own orthogonalized direction.
    Raises NumericallyDependent(index=j) when vector j's residual falls
    below DEPENDENCE_RTOL times its norm.
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
    if np.any(norms == 0.0):
        raise NumericallyDependent(int(np.argmin(norms)), "zero input vector")
    q, r = np.linalg.qr(cols, mode="reduced")
    diag = np.diag(r)
    bad = np.abs(diag) < DEPENDENCE_RTOL * norms
    if np.any(bad):
        raise NumericallyDependent(int(np.argmax(bad)))
    q = q * np.sign(diag)[None, :]
    return OrthonormalBasis(ambient_dim=n, vectors=q.T)


def project_onto(basis: OrthonormalBasis, v) -> np.ndarray:
    """Orthogonal projection of v onto span(basis)."""
    w = as_vector(v)
    if w.shape[0] != basis.ambient_dim:
        raise DimensionMismatch(
            f"vector dim {w.shape[0]} != basis ambient dim {basis.ambient_dim}"
        )
    if basis.size == 0:
        return np.zeros_like(w)
    return basis.vectors.T @ (basis.vectors @ w)


def dist_to_subspace(v, basis: OrthonormalBasis) -> float:
    w = as_vector(v)
    return float(np.linalg.norm(w - project_onto(basis, w)))


def leave_one_out_distances(cols) -> np.ndarray:
    """dist(column k, span of the other columns) for every column k of an (n, m) matrix.

    The span of no columns is {0}, so a single column's distance is its norm.
    """
    m = as_matrix(cols)
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
