"""Feasibility of systems ``Ax <= b`` with variable bounds, decided behind one seam.

Every feasibility question in disttest goes through :func:`solve_feasibility`.
It takes the rows as a dense matrix or as COO :class:`Triplets` and decides
the system with HiGHS's dual simplex, through
``scipy.optimize.linprog(method="highs")``.  scipy is imported inside the
seam, at the first system the start point does not already satisfy, so
importing disttest does not load it.

Singleton rows should be folded into variable bounds with
:func:`extract_bounds` first; the seam handles general lower/upper bounds,
including free variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

FEAS_TOL = 1e-9

_HIGHS_MIN_TOL = 1e-10  # the smallest primal feasibility tolerance HiGHS accepts


@dataclass(frozen=True)
class FeasibilityResult:
    """A feasibility verdict.

    ``violation`` is the least total row violation ``sum(max(Ax - b, 0))``
    over the points within the bounds; when the bounds themselves cross, it
    is the widest crossing instead.  A feasible result reports the residual
    left at ``x``.  On infeasible systems one extra elastic solve measures
    the minimum, and it is ``nan`` when the caller skipped that solve.
    ``iterations`` counts simplex iterations of the feasibility solve.
    """

    feasible: bool
    violation: float
    x: np.ndarray | None
    iterations: int


@dataclass(frozen=True, eq=False)
class Triplets:
    """A sparse matrix of ``shape`` in coordinate form: entry ``(rows[k], cols[k])`` is ``vals[k]``.

    Duplicate coordinates add up.  ``A @ x`` and ``np.asarray(A)`` (the dense
    scatter) work as they do on the dense matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @classmethod
    def from_dense(cls, A) -> "Triplets":
        A = np.asarray(A, dtype=np.float64)
        rows, cols = np.nonzero(A != 0.0)
        return cls(rows, cols, A[rows, cols], A.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        A = np.zeros(self.shape)
        np.add.at(A, (self.rows, self.cols), self.vals)
        return A if dtype is None else A.astype(dtype, copy=False)


def _pinch(lower: np.ndarray, upper: np.ndarray, tol: float) -> float:
    """Pin each variable whose bounds cross by at most ``tol``; return the widest crossing.

    Nothing is pinned when some crossing is wider than ``tol``.
    """
    gap = lower - upper
    crossed = gap > 0
    widest = float(gap[crossed].max()) if crossed.any() else 0.0
    if widest <= tol:
        upper[crossed] = lower[crossed]
    return widest


def extract_bounds(A: Triplets, b: np.ndarray, tol: float = FEAS_TOL):
    """Fold singleton rows of ``Ax <= b`` into per-variable bounds.

    ``A`` is :class:`Triplets` with no duplicate coordinates or zeros.  Returns
    ``(A2, b2, lower, upper, consistent)`` where ``A2 x <= b2`` keeps the
    multi-variable rows, renumbered in order, and ``consistent`` is False when
    the folded bounds (or a constant row) are already contradictory.  Bounds
    that cross by at most ``tol`` pin the variable.
    """
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    count = np.bincount(A.rows, minlength=m)
    consistent = not np.any(b[count == 0] < -tol)
    single = count[A.rows] == 1
    j, a = A.cols[single], A.vals[single]
    bound = b[A.rows[single]] / a
    up = a > 0
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    np.minimum.at(upper, j[up], bound[up])
    np.maximum.at(lower, j[~up], bound[~up])
    consistent &= _pinch(lower, upper, tol) <= tol
    keep = count > 1
    multi = keep[A.rows]
    rows = (np.cumsum(keep) - 1)[A.rows[multi]]
    A2 = Triplets(rows, A.cols[multi], A.vals[multi], (int(keep.sum()), n))
    return A2, b[keep], lower, upper, consistent


def _initial_point(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    x = np.zeros(lower.size)
    below = lower > 0
    above = upper < 0
    x[below] = lower[below]
    x[above] = upper[above]
    return x


def _name(digest) -> str:
    return digest() if callable(digest) else digest


def _check_residual(A, x, b, lower, upper, tol, digest) -> float:
    """Total violation of ``x``; raises when a point reported feasible is not."""
    total = float(np.clip(A @ x - b, 0.0, None).sum())
    total += float(np.clip(lower - x, 0.0, None).sum())
    total += float(np.clip(x - upper, 0.0, None).sum())
    if total > max(100 * tol, 1e-6):
        raise SolverError("feasible vertex fails residual check", _name(digest))
    return total


def solve_feasibility(
    A,
    b: np.ndarray,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
    tol: float = FEAS_TOL,
    max_iter: int = 10**6,
    digest="",
    measure_violation: bool = True,
) -> FeasibilityResult:
    """Decide whether ``{x : Ax <= b, lower <= x <= upper}`` is nonempty.

    ``A`` is a dense matrix or :class:`Triplets`.  Bounds that cross by at
    most ``tol`` pin the variable, as in :func:`extract_bounds`.  ``digest``
    names the instance in a :class:`SolverError`; a callable is only called
    when one is raised.

    HiGHS decides, holding every row within ``tol`` (its primal feasibility
    tolerance, at least 1e-10).  Reaching ``max_iter`` iterations raises
    :class:`SolverError`, and so does a feasible point whose total violation
    exceeds ``max(100 * tol, 1e-6)``.

    ``violation`` is described on :class:`FeasibilityResult`.  With
    ``measure_violation`` false, the elastic solve that measures it on
    infeasible systems is skipped.
    """
    if not isinstance(A, Triplets):
        A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    lower = np.full(n, -np.inf) if lower is None else np.array(lower, dtype=np.float64)
    upper = np.full(n, np.inf) if upper is None else np.array(upper, dtype=np.float64)
    widest = _pinch(lower, upper, tol)
    if widest > tol:
        return FeasibilityResult(False, widest, None, 0)

    x0 = _initial_point(lower, upper)
    beta0 = b - A @ x0
    if m == 0 or not np.any(beta0 < 0.0):
        return FeasibilityResult(True, 0.0, x0, 0)
    return _highs(A, b, lower, upper, tol, max_iter, digest, measure_violation)


def _highs(A, b, lower, upper, tol, max_iter, digest, measure_violation):
    # Imported here: loading scipy.optimize costs more than importing disttest.
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    options = {"primal_feasibility_tolerance": max(tol, _HIGHS_MIN_TOL), "maxiter": max_iter}

    def solve(t: Triplets, c, lo, hi):
        res = linprog(
            c,
            A_ub=csr_array((t.vals, (t.rows, t.cols)), shape=t.shape),
            b_ub=b,
            bounds=np.column_stack([lo, hi]),
            method="highs",
            options=options,
        )
        if res.status == 1:
            raise SolverError(f"iteration cap {max_iter} exceeded", _name(digest))
        if res.status not in (0, 2):
            raise SolverError(f"HiGHS: {res.message}", _name(digest))
        return res

    t = A if isinstance(A, Triplets) else Triplets.from_dense(A)
    m, n = t.shape
    res = solve(t, np.zeros(n), lower, upper)
    if res.status == 0:
        violation = _check_residual(t, res.x, b, lower, upper, tol, digest)
        return FeasibilityResult(True, violation, res.x, int(res.nit))
    violation = math.nan
    if measure_violation:
        # Elastic form: Ax - s <= b with s >= 0, minimising sum(s).
        k = np.arange(m)
        elastic = Triplets(
            np.concatenate([t.rows, k]),
            np.concatenate([t.cols, n + k]),
            np.concatenate([t.vals, np.full(m, -1.0)]),
            (m, n + m),
        )
        cost = np.concatenate([np.zeros(n), np.ones(m)])
        least = solve(
            elastic,
            cost,
            np.concatenate([lower, np.zeros(m)]),
            np.concatenate([upper, np.full(m, np.inf)]),
        )
        if least.status != 0:
            raise SolverError("elastic solve found no point within the bounds", _name(digest))
        violation = float(least.fun)
    return FeasibilityResult(False, violation, None, int(res.nit))

