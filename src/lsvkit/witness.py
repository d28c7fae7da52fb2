"""Witness vectors and projected dual systems for smallest-singular-value bounds.

Fix a distinguished column c of an invertible A (columns X_0..X_{n-1});
write H for the span of the other columns and P for the orthogonal
projection onto H.  The module computes

* the witness  x = X_c - P X_c,  whose norm is dist(X_c, H) and which
  certifies   s_n(A) <= ||x|| / ||A^{-1} x||;
* the projected duals  Y_k = P X_k*  (k != c), where X_k* are the rows
  of A^{-1}; these form a biorthogonal system with (X_k)_{k != c}
  inside H and satisfy  ||Y_k|| = 1 / dist(X_k, H_k),  H_k being the
  span of the columns other than c and k;
* the pair  a_k = |<Y_k/||Y_k||, X_c>|,  b_k = dist(X_k, H_k),  whose
  ratios bound the inverse image from below:
  ||A^{-1} x||^2 >= sum_k (a_k / b_k)^2.

audit() recomputes all of these along independent routes and reports
tolerance violations instead of crashing, so Monte Carlo sweeps can
log rare numerical trouble without dying mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .ensembles import GAUSSIAN, Ensemble, SeedSpec, sample_vector
from .errors import DegenerateGeometry, DimensionMismatch, InvalidDimension, SingularMatrix, as_int
from .linalg import (
    OrthonormalBasis,
    as_matrix,
    as_square,
    dist_to_subspace,
    leave_one_out_distances,
    lu_factorization,
    orthonormalize,
    project_onto,
    smallest_singular_value,
)

DEGENERATE_EPS = 1e-12
WITNESS_NORM_RTOL = 1e-8
KERNEL_RTOL = 1e-9
REDUCED_BIORTHO_TOL = 1e-8
NORM_DISTANCE_RTOL = 1e-6
LOWER_BOUND_TOL = 1e-8
UPPER_BOUND_RTOL = 1e-8


def _witness_parts(a, column: int):
    """(matrix, column, other column indices, LU factors, basis of H, witness x) after the LU gate."""
    m = as_square(a)
    n = m.shape[0]
    if n < 2:
        raise InvalidDimension(f"witness construction needs n >= 2, got n = {n}")
    column = as_int("column", column, 0, n - 1, DimensionMismatch)
    others = [k for k in range(n) if k != column]
    fac = lu_factorization(m)
    basis = orthonormalize(m[:, others])
    xc = m[:, column]
    return m, column, others, fac, basis, xc - project_onto(basis, xc)


def construct_witness_vector(a, column: int = 0) -> np.ndarray:
    """x = X_c - P X_c; raises SingularMatrix when A fails the pivot test."""
    return _witness_parts(a, column)[-1]


def _duals(fac, basis: OrthonormalBasis, others: list) -> tuple[np.ndarray, np.ndarray]:
    """(all rows of A^{-1}, the projected rows Y_k = P X_k* for k in others)."""
    duals = np.ascontiguousarray(fac.inverse())
    return duals, ((duals @ basis.vectors.T) @ basis.vectors)[others]


def dual_projections(a, column: int = 0) -> np.ndarray:
    """Rows Y_k = P X_k* for k != column, in increasing k order."""
    _, _, others, fac, basis, _ = _witness_parts(a, column)
    return _duals(fac, basis, others)[1]


def _norms_ab(m: np.ndarray, column: int, others: list,
              projected: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(||Y_k||, a_k, b_k); DegenerateGeometry when a ||Y_k|| or b_k is below DEGENERATE_EPS."""
    y_norms = np.linalg.norm(projected, axis=1)
    if y_norms.min() <= DEGENERATE_EPS:
        raise DegenerateGeometry(f"projected dual norm {y_norms.min():.3e} below trust threshold")
    a_vals = np.abs(projected @ m[:, column]) / y_norms
    b_vals = leave_one_out_distances(m[:, others])
    if b_vals.min() <= DEGENERATE_EPS:
        raise DegenerateGeometry(f"column distance {b_vals.min():.3e} below trust threshold")
    return y_norms, a_vals, b_vals


def compute_ab(a, column: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(a_k, b_k) for k != column, ascending k.

    a_k is the normalized-dual alignment |<Y_k/||Y_k||, X_c>| and b_k the
    leave-two-out column distance; 1/||Y_k|| must reproduce b_k, which
    audit() verifies at NORM_DISTANCE_RTOL.
    """
    m, column, others, fac, basis, _ = _witness_parts(a, column)
    return _norms_ab(m, column, others, _duals(fac, basis, others)[1])[1:]


@dataclass(frozen=True)
class WitnessReport:
    """Everything audit() measured on one matrix, plus tolerance breaches."""

    n: int
    column: int
    norm_x: float
    ainv_x_norm: float
    implied_bound: float
    s_n: float
    ratio_sum_sq: float
    a_values: np.ndarray
    b_values: np.ndarray
    witness: np.ndarray
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        """The fields in declaration order, arrays as lists, with "ok" just before "violations"."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        for name in ("a_values", "b_values", "witness"):
            doc[name] = [float(v) for v in doc[name]]
        violations = list(doc.pop("violations"))
        return {**doc, "ok": self.ok, "violations": violations}


def audit(a, column: int = 0) -> WitnessReport:
    """Run every witness-system consistency check on one matrix.

    Raises SingularMatrix / DegenerateGeometry on precondition failures;
    tolerance breaches go into WitnessReport.violations.
    """
    m, column, others, fac, basis, x = _witness_parts(a, column)
    duals, projected = _duals(fac, basis, others)
    y_norms, a_vals, b_vals = _norms_ab(m, column, others, projected)
    violations: list[dict] = []

    def check(name: str, observed: float, allowed: float):
        if observed > allowed:
            violations.append({"check": name, "observed": float(observed), "allowed": float(allowed)})

    # the distinguished dual is orthogonal to H with <X_c*, X_c> = 1, so its
    # norm is 1/dist(X_c, H) = 1/||x||: the LU inverse against the QR projection
    dual_c = duals[column]
    dual_c_norm = float(np.linalg.norm(dual_c))
    norm_x = dist_to_subspace(m[:, column], basis)
    check("witness_norm_equals_distance", abs(1.0 / dual_c_norm - norm_x), WITNESS_NORM_RTOL * norm_x)

    # the distinguished dual spans the orthogonal complement of H, so its
    # projection onto H must vanish
    kernel_resid = float(np.linalg.norm(project_onto(basis, dual_c)))
    check("kernel_annihilation", kernel_resid, KERNEL_RTOL * dual_c_norm)

    gram = projected @ m[:, others]
    gram_defect = float(np.abs(gram - np.eye(len(others))).max())
    check("reduced_biorthogonality", gram_defect, REDUCED_BIORTHO_TOL)

    product_defect = float(np.abs(y_norms * b_vals - 1.0).max())
    check("dual_norm_distance_product", product_defect, NORM_DISTANCE_RTOL)

    ainv_x_norm = float(np.linalg.norm(fac.solve(x)))
    ratio_sum_sq = float(np.sum((a_vals / b_vals) ** 2))
    shortfall = ratio_sum_sq - ainv_x_norm**2
    check("inverse_image_lower_bound", shortfall, LOWER_BOUND_TOL * (1.0 + ratio_sum_sq))

    s_n = smallest_singular_value(m)
    implied = norm_x / ainv_x_norm
    check("variational_upper_bound", s_n, implied * (1.0 + UPPER_BOUND_RTOL))

    return WitnessReport(
        n=m.shape[0],
        column=column,
        norm_x=norm_x,
        ainv_x_norm=ainv_x_norm,
        implied_bound=implied,
        s_n=s_n,
        ratio_sum_sq=ratio_sum_sq,
        a_values=a_vals,
        b_values=b_vals,
        witness=x,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class IndependenceProbe:
    n: int
    trials: int
    completed: int
    singular_skipped: int
    max_deviation: float


def independence_probe(fixed_columns, trials: int, master_seed: int,
                       ensemble: Ensemble = GAUSSIAN, column: int = 0) -> IndependenceProbe:
    """Resample the distinguished column; the Y_k must not move.

    fixed_columns is (n, n-1): the columns that stay put.  Each trial t
    draws a fresh distinguished column from stream t of master_seed,
    rebuilds the matrix and recomputes the projected duals.
    max_deviation is the largest 2-norm change of any Y_k relative to
    the first nonsingular trial; functional independence from the
    distinguished column means it stays at rounding level (<= 1e-9).

    The loop is its own, not harness.map_trials: a trial resamples one
    column rather than a whole matrix, and a singular draw is skipped
    and counted in singular_skipped rather than redrawn, so the probe
    compares exactly the trials it was asked for.
    """
    cols = as_matrix(fixed_columns)
    if cols.shape[1] != cols.shape[0] - 1:
        raise DimensionMismatch(f"fixed_columns must be (n, n-1), got {cols.shape}")
    n = cols.shape[0]
    column = as_int("column", column, 0, n - 1, DimensionMismatch)
    trials = as_int("trials", trials, 1)

    reference = None
    max_dev = 0.0
    skipped = 0
    for t in range(trials):
        xc = sample_vector(ensemble, n, SeedSpec(master_seed, t))
        m = np.insert(cols, column, xc, axis=1)
        try:
            y = dual_projections(m, column)
        except SingularMatrix:
            skipped += 1
            continue
        if reference is None:
            reference = y
        max_dev = max(max_dev, float(np.linalg.norm(y - reference, axis=1).max()))
    return IndependenceProbe(
        n=n,
        trials=trials,
        completed=trials - skipped,
        singular_skipped=skipped,
        max_deviation=max_dev,
    )
