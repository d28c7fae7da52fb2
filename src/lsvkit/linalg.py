"""Dense linear algebra with explicit failure contracts.

Factorizations are delegated to LAPACK: QR and SVD through numpy, LU
through ``dgetrf``/``dgetrs`` and Cholesky through ``dpotrf`` bound from
the OpenBLAS that scipy bundles (the copy ``scipy.linalg`` calls, so the
bits are the same, without importing ``scipy.linalg``).  This module owns
the validation, the singularity policy and the basis/duality types the
rest of the library builds on.

Singularity policy: a square matrix is treated as singular exactly when
LU with partial pivoting produces a pivot smaller than
``PIVOT_RTOL * max_j ||column_j||_2`` (or when it has a zero column).
All routines that need invertibility apply this one test, through the
one LAPACK ``getrf`` call in ``_pivoted_lu``, which tests a whole stack
at once.  ``smallest_singular_values`` skips the LU only for a matrix
whose computed s_n proves, by the error bounds in its docstring, that the
test passes; every other matrix takes it.  Asked for values above a
threshold only, it also skips the SVD of every matrix whose shifted Gram
matrix factors by Cholesky, which proves, by the bounds in
``_certified_above``, that the SVD's value exceeds the threshold.  The
leave-one-out kernel works each group of column deletions as one stack,
with no Python loop per deletion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

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


def _bundled_lapack(**arities: int) -> list:
    """The LAPACK routines named in arities, bound from scipy's bundled OpenBLAS.

    Each takes its arity of arguments, every one an address (a Python
    int), and returns nothing.  Symbols carry the bundle's scipy_ prefix,
    or none.
    """
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        for prefix in ("scipy_", ""):
            try:
                lib = np.ctypeslib.load_library(path.name, libs)
                routines = [lib[prefix + name] for name in arities]
            except (OSError, AttributeError):
                continue
            for routine, arity in zip(routines, arities.values()):
                routine.argtypes = [np.ctypeslib.c_intp] * arity
                routine.restype = None
            return routines
    raise ImportError(f"no OpenBLAS in {libs} exports {', '.join(arities)}")


# getrf(m, n, a, lda, ipiv, info), getrs(trans, n, nrhs, a, lda, ipiv, b, ldb, info)
# and potrf(uplo, n, a, lda, info)
_getrf, _getrs, _potrf = _bundled_lapack(dgetrf_=6, dgetrs_=9, dpotrf_=5)


def _real(a) -> np.ndarray:
    """a as a float64 array; ValueError on complex entries, which a cast drops or chokes on."""
    arr = np.asarray(a)
    if arr.dtype.kind == "c" or arr.dtype == object and any(map(np.iscomplexobj, arr.flat)):
        raise ValueError("entries must be real, got complex input")
    return np.asarray(arr, dtype=np.float64)


def as_vector(v) -> np.ndarray:
    out = _real(v)
    if out.ndim != 1 or out.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-d vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError("vector entries must be finite")
    return out


def as_matrix(a) -> np.ndarray:
    out = _real(a)
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

    def __post_init__(self):
        # solve hands these to getrs as raw addresses, so their layout is checked once here
        lu, piv = self._factors
        if not (lu.dtype == np.float64 and lu.shape == (self.dim, self.dim)
                and lu.flags.f_contiguous and piv.dtype == np.int32 and piv.shape == (self.dim,)
                and 0 <= piv.min(initial=0) and piv.max(initial=0) < self.dim):
            raise ValueError("factors must be a Fortran-ordered float64 (dim, dim) lu "
                             "and int32 pivots in [0, dim)")

    def solve(self, b) -> np.ndarray:
        """x with A x = b for a (dim,) or (dim, k) rhs b, by getrs on a private copy."""
        rhs = _real(b)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.dim:
            raise DimensionMismatch(f"rhs has shape {rhs.shape}, expected ({self.dim},) or "
                                    f"({self.dim}, k)")
        if not np.all(np.isfinite(rhs)):
            raise ValueError("rhs entries must be finite")
        x = np.array(rhs, order="F")
        if x.size == 0:
            return x
        lu, piv = self._factors
        ipiv = piv + 1  # getrs counts rows from 1
        trans = np.array(b"N")
        n_nrhs_info = np.array([self.dim, x.size // self.dim, 0], dtype=np.int32)
        n, nrhs, info = (n_nrhs_info.ctypes.data + 4 * j for j in range(3))
        _getrs(trans.ctypes.data, n, nrhs, lu.ctypes.data, n, ipiv.ctypes.data, x.ctypes.data,
               n, info)
        if n_nrhs_info[2] < 0:
            raise ValueError(f"illegal value in argument {-n_nrhs_info[2]} of getrs")
        return x

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.dim))


def _column_scales(mats: np.ndarray) -> np.ndarray:
    """Largest column norm of each matrix in a (..., n, n) array; 0.0 when n == 0."""
    return np.linalg.norm(mats, axis=-2).max(axis=-1, initial=0.0)


def _pivoted_lu(mats: np.ndarray, scales: np.ndarray) -> tuple:
    """getrf's LU of every matrix in a validated (b, n, n) stack, and the pivot rule.

    scales holds _column_scales(mats).  Returns (lu, piv, singular,
    pivot, threshold): mats[i] has factors (lu[i].T, piv[i]), smallest
    |U_jj| pivot[i] and PIVOT_RTOL times its largest column norm
    threshold[i], and fails the rule where singular[i].
    A matrix with no nonzero column is not factored, and an exact zero
    pivot (getrf's info > 0) falls under the rule.  getrf works in place in
    a private transposed copy, never in the caller's array: a C-ordered
    float64 copy, so that matrix i is the Fortran-ordered work[i].T at
    one address.
    """
    work = np.array(mats.transpose(0, 2, 1), dtype=np.float64, order="C")
    piv = np.ones(mats.shape[:2], dtype=np.int32)
    info = np.zeros(mats.shape[0], dtype=np.int32)
    n = np.array(mats.shape[1], dtype=np.int32)
    a, ipiv, status, dim = (x.ctypes.data for x in (work, piv, info, n))
    a_step, ipiv_step, status_step = work.strides[0], piv.strides[0], info.strides[0]
    for i in np.flatnonzero(scales).tolist():
        _getrf(dim, dim, a + i * a_step, dim, ipiv + i * ipiv_step, status + i * status_step)
    if info.min(initial=0) < 0:
        raise ValueError(f"illegal value in argument {-info.min()} of getrf")
    piv -= 1  # scipy's 0-based pivots; a matrix left unfactored keeps zeros
    pivot = np.abs(work.diagonal(axis1=1, axis2=2)).min(axis=1, initial=np.inf)
    threshold = PIVOT_RTOL * scales
    singular = (scales == 0.0) | (pivot < threshold)
    return work, piv, singular, pivot, threshold


def lu_factorization(a) -> LuFactorization:
    """LU with partial pivoting plus the module's singularity test.

    Every routine here that needs invertibility goes through this one.
    """
    m = as_square(a)[None]
    lu, piv, singular, pivot, threshold = _pivoted_lu(m, _column_scales(m))
    if singular[0]:
        # no pivot is below 0.0, so a threshold of 0.0 fails only for lack of a nonzero column
        raise SingularMatrix("matrix has no nonzero column" if threshold[0] == 0.0 else
                             f"pivot {pivot[0]:.3e} below threshold {threshold[0]:.3e}")
    return LuFactorization(dim=m.shape[1], _factors=(lu[0].T, piv[0]))


def lu_solve(a, b) -> np.ndarray:
    """Solve A y = b by LU with partial pivoting.

    Raises SingularMatrix per the module pivot policy, NonSquare /
    DimensionMismatch on shape violations.
    """
    return lu_factorization(a).solve(as_vector(b))


def inverse(a) -> np.ndarray:
    return lu_factorization(a).inverse()


def _pivot_cutoff(n: int) -> float:
    """c such that a computed s_n above c * scale proves _pivoted_lu's rule passes.

    The bound is derived in smallest_singular_values.
    """
    u = 2.0 ** -53
    if n > 1024:  # 2.0 ** 1024 raises; the cutoff is far above 1 already
        return math.inf
    gamma = n * u / (1.0 - n * u)
    return n * PIVOT_RTOL + 1e3 * (gamma * n * n * 2.0 ** (n - 1) + 10.0 * n ** 2.5 * u)


def _clears_pivot_rule(s: np.ndarray, scales: np.ndarray, n: int) -> np.ndarray:
    """True where a computed s_n proves that its matrix, of largest column norm scale, passes.

    The rule is _pivoted_lu's.  A NaN s_n proves nothing, and neither
    does any s_n at scale below 2**-511, which the derivation in
    smallest_singular_values leaves out for underflow.
    """
    return (scales >= 2.0 ** -511) & (s > _pivot_cutoff(n) * scales)


def _smallest_by_svd(mats: np.ndarray) -> np.ndarray:
    # min is the last of LAPACK's descending values; initial= admits n == 0
    return np.linalg.svd(mats, compute_uv=False).min(axis=1, initial=np.inf)


def _certified_above(mats: np.ndarray, scales: np.ndarray, t: float) -> np.ndarray:
    """True where a Cholesky of fl(A^T A) - c I proves that _smallest_by_svd(A) exceeds t.

    scales holds _column_scales(mats) and t >= 0.  A certified matrix's
    SVD value s exceeds t (1 + 2**-41), so a caller that takes
    t = K / sqrt(n) and scales s by sqrt(n), in floating point both times,
    gets a value above K.  Nothing is certified at scale below 2**-511 or
    above 2**450, where the trace T of G = fl(A^T A) is not finite or
    exceeds 2**900, where c is not below every diagonal entry of G, where
    potrf (on the triangle of G - c I it reads) reports info != 0, or where
    its factor has a diagonal entry that is not finite.

    Why a certified matrix's value exceeds t.  Write u = 2**-53 and
    gamma_k = k u / (1 - k u).
    - The Gram rounding.  Each entry of G is an n-term inner product, so
      |G - A^T A| <= gamma_n |A|^T |A| entrywise in any summation order
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      Sec. 3.5), and ||G - A^T A||_2 <= gamma_n ||A||_F**2.  The same
      bound on the diagonal and on the sum T gives ||A||_F**2 <= 2 T, and
      every g_ii <= 2 T.
    - The shift.  Where c < g_ii, the computed H = fl(G - c I) is
      G - c I + D with D diagonal and ||D||_2 <= u max g_ii <= 2 u T.
    - The Cholesky bound.  A potrf that completes returns R with
      R^T R = H + dH, |dH| <= gamma_{n+1} |R^T| |R| (ibid. Thm 10.3; the
      blocked and recursive orders of OpenBLAS's potrf reorder the same
      operations and have the same bound up to its constant).  Its
      diagonal gives ||R||_F**2 <= tr H / (1 - gamma_{n+1}), and
      R^T R is positive semidefinite, so
      lambda_min(H) >= -gamma_{n+1} / (1 - gamma_{n+1}) tr H >= -6 gamma_{n+1} T.
      A finite diagonal of R rules out an overflow on the way: an
      infinite or NaN entry of R reaches the diagonal of its column.
    Together, lambda_min(A^T A) >= c - 10 gamma_{n+1} T.
    - The gesdd bound.  The SVD route's value s satisfies
      s >= s_n(A) - 10 n**2 u ||A||_F, with its underflow treated, in
      smallest_singular_values, and ||A||_F <= sqrt(2 T).
    So s > t (1 + 2**-41) once
    c >= (t (1 + 2**-41) + 10 n**2 u sqrt(2 T))**2 + 10 gamma_{n+1} T.
    The shift used takes t (1 + 2**-40), a relative slack that also
    absorbs the roundings of its own computation and leaves 2**-41 for
    the caller's K / sqrt(n) and s * sqrt(n) (four roundings of at most u
    each), and multiplies the rounding terms by a safety factor of 1e3.
    That factor also covers the roundings of T, of the shift and of the
    comparison with g_ii, each within a few u of c < 2 T.  The bounds
    assume no underflow.  An underflowing product or quotient errs by at
    most 2**-1075 more; those in G and in the updates of R add at most
    2 n**2 2**-1075 in norm, which the shift's absolute term n**2 2**-1074
    covers, and the divisions by R's diagonal, at most sqrt(2 T) each,
    add at most n sqrt(2 T) 2**-1075, far below 10 gamma_{n+1} T since
    T >= 2**-1023 once scale >= 2**-511.  The scale and trace limits keep
    G, H and R finite.
    """
    n = mats.shape[1]
    u = 2.0 ** -53
    gamma = (n + 1) * u / (1.0 - (n + 1) * u)
    kept = np.flatnonzero((scales >= 2.0 ** -511) & (scales <= 2.0 ** 450))
    a = mats if len(kept) == len(mats) else mats[kept]
    # C-ordered, so that diag is a view and potrf reads gram[i], as its Fortran-ordered
    # transpose, at one address; either triangle obeys the bounds
    gram = np.matmul(a.transpose(0, 2, 1), a, out=np.empty((len(kept), n, n)))
    diag = gram.reshape(len(kept), n * n)[:, ::n + 1]
    trace = diag.sum(axis=1)
    margin = t * (1.0 + 2.0 ** -40) + 1e3 * 10.0 * n * n * u * np.sqrt(2.0 * trace)
    shift = margin * margin + 1e3 * (10.0 * gamma * trace + n * n * 2.0 ** -1074)
    tried = np.flatnonzero((trace <= 2.0 ** 900) & (shift < diag.min(axis=1, initial=np.inf)))
    diag -= shift[:, None]
    info = np.zeros(len(kept), dtype=np.int32)
    uplo, dim = np.array(b"U"), np.array(n, dtype=np.int32)
    h, status, up, d = (x.ctypes.data for x in (gram, info, uplo, dim))
    h_step, status_step = gram.strides[0], info.strides[0]
    for i in tried.tolist():
        _potrf(up, d, h + i * h_step, d, status + i * status_step)
    if info.min(initial=0) < 0:
        raise ValueError(f"illegal value in argument {-info.min()} of potrf")
    factored = tried[(info[tried] == 0) & np.isfinite(diag[tried]).all(axis=1)]
    certified = np.zeros(len(mats), dtype=bool)
    certified[kept[factored]] = True
    return certified


def smallest_singular_values(stack, above: float | None = None) -> np.ndarray:
    """s_n of every matrix in a (b, n, n) stack; 0.0 where the pivot test flags it singular.

    The stack is validated once and every matrix's s_n computed by one
    stacked SVD.  Only the matrices whose computed s_n does not clear
    _pivot_cutoff(n) * scale, scale being the largest column norm the
    pivot rule uses, then take the pivot test (one _pivoted_lu call), as
    do those with scale 0 or below 2**-511; a flagged one gets 0.0.  So
    every value is the one the LU-first route gives, with getrf run only
    where it can decide something.  If the stacked SVD raises
    LinAlgError, the stack takes that route: the pivot test on all, then
    the SVD of the matrices that pass.

    Given above = t >= 0, a matrix that _certified_above proves to have
    an SVD value above t skips the SVD and gets +inf, or 0.0 where the
    pivot test flags it.  It takes that test unless t itself clears the
    cutoff, so the same matrices get 0.0 as without above.  Every other
    value is unchanged.

    Why a cleared matrix passes.  Write u = 2**-53, gamma_n = n u / (1 - n u)
    and rho_n for the growth factor.  getrf's computed factors satisfy
    P A + dA = L U with |dA| <= gamma_n |L| |U| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 9.3; a blocked LU
    with conventional matrix products reorders the same operations, and
    ibid. Sec. 13.1 gives it the same bound up to its constant).
    Partial pivoting keeps |l_ij| <= 1, so ||L||_2 <= ||L||_F <= n.  It
    also keeps rho_n <= 2**(n-1) (ibid. Sec. 9.3), and |a_ij| <= scale,
    so |u_ij| <= 2**(n-1) scale and ||U||_F <= n 2**(n-1) scale.  Hence
    ||dA||_2 <= gamma_n ||L||_F ||U||_F <= gamma_n n**2 2**(n-1) scale.
    By Weyl's inequality sigma_min(L U) >= sigma_min(A) - ||dA||_2, and
    sigma_min(L U) <= ||L||_2 sigma_min(U), so
    sigma_min(U) >= (sigma_min(A) - ||dA||_2) / n.  Each pivot U_jj is
    an eigenvalue of the triangular U, and no eigenvalue is smaller in
    modulus than sigma_min(U), so |U_jj| >= sigma_min(U).
    gesdd's computed s is the exact s_n of A + E with
    ||E||_2 <= p(n) u ||A||_2 for a modest p (LAPACK Users' Guide,
    3rd ed., Sec. 4.9; Demmel, Applied Numerical Linear Algebra,
    Sec. 5.4), and ||A||_2 <= ||A||_F <= sqrt(n) scale, so
    sigma_min(A) >= s - p(n) u sqrt(n) scale.  Together, every pivot is
    at least the rounded threshold PIVOT_RTOL scale (1 + u) once
    s > scale (n PIVOT_RTOL (1 + u) + gamma_n n**2 2**(n-1) + p(n) u sqrt(n)).
    _pivot_cutoff takes p(n) = 10 n**2 and multiplies the rounding terms
    by 1e3.  That margin, at least 999 n**3 u scale, also covers the
    roundings of scale, of the threshold, of the growth bound and of the
    cutoff test itself.  The bounds above assume no underflow; an
    operation that underflows errs by at most 2**-1074 more, which in
    either factorization adds far less than that margin once
    scale >= 2**-511.
    """
    mats = _real(stack)
    if mats.ndim != 3:
        raise DimensionMismatch(f"expected a (b, n, n) stack, got shape {mats.shape}")
    if mats.shape[1] != mats.shape[2]:
        raise NonSquare(f"expected square matrices, got a stack of shape {mats.shape}")
    if not np.all(np.isfinite(mats)):
        raise ValueError("matrix entries must be finite")
    if above is not None and not above >= 0:
        raise ValueError(f"above must be nonnegative, got {above}")
    scales = _column_scales(mats)
    n = mats.shape[1]
    s = np.empty(len(mats))
    certified = np.zeros(len(mats), dtype=bool)
    if above is not None:
        certified = _certified_above(mats, scales, above)
        s[certified] = above  # the SVD value it stands for is larger
    try:
        s[~certified] = _smallest_by_svd(mats[~certified] if certified.any() else mats)
    except np.linalg.LinAlgError:
        # gesdd failed, perhaps on a matrix the rule rejects: pivot-test first
        regular = ~_pivoted_lu(mats, scales)[2]
        s[certified] = np.inf
        s[~regular] = 0.0
        s[regular & ~certified] = _smallest_by_svd(mats[regular & ~certified])
        return s
    doubtful = np.flatnonzero(~_clears_pivot_rule(s, scales, n))
    s[certified] = np.inf
    s[doubtful[_pivoted_lu(mats[doubtful], scales[doubtful])[2]]] = 0.0
    return s


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
        v = _real(self.vectors)
        if v.ndim != 2 or v.shape[1] != self.ambient_dim:
            raise DimensionMismatch(
                f"vectors must have shape (k, {self.ambient_dim}), got {v.shape}"
            )
        if v.shape[0] > self.ambient_dim:
            raise DimensionMismatch("more basis vectors than ambient dimensions")
        if not np.all(np.isfinite(v)):
            raise ValueError("vectors entries must be finite: such rows are not orthonormal")
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
    zero = (norms == 0.0).any(axis=1)
    dependent = np.abs(diag) < DEPENDENCE_RTOL * norms
    failing = zero | dependent.any(axis=1) | (defects > ORTHONORMALITY_TOL)
    if failing.any():
        i = int(np.argmax(failing))
        if zero[i]:
            raise NumericallyDependent(int(np.argmin(norms[i])), "zero input vector")
        if dependent[i].any():
            raise NumericallyDependent(int(np.argmax(dependent[i])))
        raise ValueError(f"rows are not orthonormal (defect {defects[i]:.3e})")
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
    first failing column, and each group's distances are projected by
    stacked matmuls with the bits dist_to_subspace gives.
    """
    m = as_matrix(cols)
    n, k = m.shape
    if k <= 1:
        empty = OrthonormalBasis(ambient_dim=n, vectors=np.empty((0, n)))
        return np.array([dist_to_subspace(m[:, j], empty) for j in range(k)])
    if k - 1 > n:
        raise DimensionMismatch(f"{k - 1} vectors cannot be independent in dimension {n}")
    norms = np.linalg.norm(m, axis=0)
    # row j lists every column but j
    others = np.arange(1, k) - np.tri(k, k - 1, -1, dtype=np.intp)
    group = max(1, LOO_QR_ENTRIES // (n * (k - 1)))
    out = np.empty(k)
    for g0 in range(0, k, group):
        idx = others[g0:g0 + group]
        rows = _orthonormal_rows(m[:, idx].transpose(1, 0, 2), norms[idx])
        w = m[:, g0:g0 + group].T[:, :, None]
        r = w - rows.transpose(0, 2, 1) @ (rows @ w)
        # per-item dots: norm(axis=...) sums pairwise and would change the bits
        out[g0:g0 + group] = np.sqrt(r.transpose(0, 2, 1) @ r)[:, 0, 0]
    return out


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Primal rows X_k (columns of A) and dual rows X_k* (rows of A^{-1}).

    Defining property: <X_j*, X_k> = delta_jk.  Consequence used all
    over the witness module: ||X_k*|| * dist(X_k, span of the other
    primal vectors) == 1.  Both arrays are copied and frozen read-only at
    construction; the caller's inputs stay as they were.
    """

    ambient_dim: int
    primal: np.ndarray
    dual: np.ndarray

    def __post_init__(self):
        for name in ("primal", "dual"):
            m = _real(getattr(self, name)).copy()
            if m.shape != (self.ambient_dim, self.ambient_dim):
                raise DimensionMismatch(f"{name} must be square of dim {self.ambient_dim}")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} entries must be finite")
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
    system = BiorthogonalSystem(ambient_dim=m.shape[0], primal=m.T, dual=inverse(m))
    defect = system.biorthogonality_defect()
    if defect > BIORTHOGONALITY_TOL:
        raise SingularMatrix(
            f"biorthogonality defect {defect:.3e} exceeds {BIORTHOGONALITY_TOL:.1e}")
    return system
