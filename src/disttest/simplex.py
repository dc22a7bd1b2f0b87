"""Feasibility of systems ``Ax <= b`` with variable bounds, decided behind one seam.

Every feasibility question in disttest goes through :func:`solve_feasibility`.
It takes the rows as a dense matrix or as COO :class:`Triplets` and decides
the system with the first backend that imports:

- HiGHS's dual simplex, through ``scipy.optimize.linprog(method="highs")``
  (the optional ``fast`` extra).  scipy is imported inside the seam, so
  importing disttest does not load it.
- Otherwise the dense phase-1 simplex in this module, which needs only numpy.
  The tests also use it as the reference the HiGHS verdicts are compared to.

The dense phase 1 is the classic artificial-variable method: start from the
slack basis, give every violated row an artificial variable equal to its
violation, and minimize the total artificial mass.  The system is feasible
exactly when that minimum is (numerically) zero.  Pivoting uses Dantzig
pricing for speed and switches to Bland's rule when the objective stalls,
which guarantees termination on degenerate instances.

Singleton rows should be folded into variable bounds with
:func:`extract_bounds` first; both backends handle general lower/upper
bounds, including free variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError

FEAS_TOL = 1e-9

_RTOL = 1e-10       # reduced-cost threshold for entering columns
_PTOL = 1e-10       # pivot magnitude threshold
_STALL_LIMIT = 64   # iterations without progress before switching to Bland
_REFRESH_EVERY = 128
_HIGHS_MIN_TOL = 1e-10  # the smallest primal feasibility tolerance HiGHS accepts


@dataclass(frozen=True)
class FeasibilityResult:
    """A feasibility verdict.

    ``violation`` is the least total row violation ``sum(max(Ax - b, 0))``
    over the points within the bounds; when the bounds themselves cross, it
    is the widest crossing instead.  A feasible result reports the residual
    left at ``x``.  On infeasible systems HiGHS measures the minimum with one
    extra elastic solve, and reports ``nan`` when the caller skipped it.  The
    dense phase 1 keeps the rows satisfied at its starting point satisfied,
    so its value there is an upper bound on the minimum, not the minimum.
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

    HiGHS decides when scipy imports, the dense phase 1 otherwise.  HiGHS
    holds every row within ``tol`` (its primal feasibility tolerance, at
    least 1e-10); phase 1 holds the total violation within ``tol``.  On
    either backend, reaching ``max_iter`` iterations raises
    :class:`SolverError`, and so does a feasible point whose total violation
    exceeds ``max(100 * tol, 1e-6)``.

    ``violation`` is described on :class:`FeasibilityResult`.  With
    ``measure_violation`` false, HiGHS skips the elastic solve that measures
    it on infeasible systems.
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
    try:
        from scipy.optimize import linprog
    except ImportError:
        return _phase1(np.asarray(A), b, lower, upper, x0, beta0, tol, max_iter, digest)
    return _highs(linprog, A, b, lower, upper, tol, max_iter, digest, measure_violation)


def _highs(linprog, A, b, lower, upper, tol, max_iter, digest, measure_violation):
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


def _phase1(A, b, lower, upper, x0, beta0, tol, max_iter, digest) -> FeasibilityResult:
    """The dense phase-1 simplex from the start point ``x0`` with residuals ``beta0 = b - A x0``."""
    m, n = A.shape
    bad = np.flatnonzero(beta0 < 0.0)

    k = bad.size
    ncols = n + m + k
    tab = np.zeros((m, ncols))
    tab[:, :n] = A
    tab[np.arange(m), n + np.arange(m)] = 1.0
    rhs = b.astype(np.float64).copy()
    tab[bad] *= -1.0
    rhs[bad] *= -1.0
    art_cols = n + m + np.arange(k)
    tab[bad, art_cols] = 1.0

    lower_all = np.concatenate([lower, np.zeros(m + k)])
    upper_all = np.concatenate([upper, np.full(m + k, np.inf)])
    is_art = np.zeros(ncols, dtype=bool)
    is_art[n + m :] = True
    frozen = np.zeros(ncols, dtype=bool)

    vals = np.zeros(ncols)
    vals[:n] = x0
    vals[n : n + m] = np.maximum(beta0, 0.0)
    vals[n + np.asarray(bad)] = 0.0
    vals[art_cols] = -beta0[bad]

    basis = (n + np.arange(m)).astype(np.int64)
    basis[bad] = art_cols
    in_basis = np.zeros(ncols, dtype=bool)
    in_basis[basis] = True
    beta = vals[basis].copy()

    cost = is_art.astype(np.float64)

    def refresh_nonbasic():
        nz = np.flatnonzero((~in_basis) & (vals != 0.0))
        return rhs - tab[:, nz] @ vals[nz] if nz.size else rhs.copy()

    def refresh_cost_row():
        rows = np.flatnonzero(is_art[basis])
        return cost - tab[rows].sum(axis=0) if rows.size else cost.copy()

    r = refresh_cost_row()
    z = float(beta[is_art[basis]].sum())
    best_z = z
    stall = 0
    bland = False
    iters = 0

    while True:
        if z <= tol:
            beta = refresh_nonbasic()
            z = float(beta[is_art[basis]].sum())
            if z <= tol:
                break

        movable_up = (~in_basis) & (~frozen) & (vals < upper_all) & (r < -_RTOL)
        movable_dn = (~in_basis) & (~frozen) & (vals > lower_all) & (r > _RTOL)
        candidates = movable_up | movable_dn
        if not candidates.any():
            beta = refresh_nonbasic()
            z = float(beta[is_art[basis]].sum())
            break

        idx = np.flatnonzero(candidates)
        j = int(idx[0]) if bland else int(idx[np.argmax(np.abs(r[idx]))])
        d = 1.0 if movable_up[j] else -1.0

        y = tab[:, j]
        rate = d * y
        theta = upper_all[j] - vals[j] if d > 0 else vals[j] - lower_all[j]
        blocker = -1  # -1: own bound, else blocking row
        hit_upper = False

        lo_rows = np.flatnonzero((rate > _PTOL) & np.isfinite(lower_all[basis]))
        if lo_rows.size:
            th = (beta[lo_rows] - lower_all[basis[lo_rows]]) / rate[lo_rows]
            i_rel = int(np.argmin(th))
            if th[i_rel] < theta:
                theta = th[i_rel]
                blocker = int(lo_rows[i_rel])
                hit_upper = False
        up_rows = np.flatnonzero((rate < -_PTOL) & np.isfinite(upper_all[basis]))
        if up_rows.size:
            th = (upper_all[basis[up_rows]] - beta[up_rows]) / (-rate[up_rows])
            i_rel = int(np.argmin(th))
            if th[i_rel] < theta:
                theta = th[i_rel]
                blocker = int(up_rows[i_rel])
                hit_upper = True

        if not np.isfinite(theta):
            raise SolverError("phase-1 descent direction is unblocked", _name(digest))
        theta = max(theta, 0.0)

        if blocker >= 0:
            tie = np.flatnonzero(
                (rate > _PTOL)
                & np.isfinite(lower_all[basis])
                & (beta - lower_all[basis] <= theta * rate + 1e-12)
            )
            tie_up = np.flatnonzero(
                (rate < -_PTOL)
                & np.isfinite(upper_all[basis])
                & (upper_all[basis] - beta <= -theta * rate + 1e-12)
            )
            if bland:
                # Bland: leave the tied basic variable of smallest index.
                best_key = int(basis[blocker])
                for cand in tie:
                    if int(basis[cand]) < best_key:
                        blocker, best_key, hit_upper = int(cand), int(basis[cand]), False
                for cand in tie_up:
                    if int(basis[cand]) < best_key:
                        blocker, best_key, hit_upper = int(cand), int(basis[cand]), True
            else:
                # Among (near-)ties prefer the largest pivot magnitude.
                best_mag = abs(rate[blocker])
                for cand in tie:
                    if abs(rate[cand]) > best_mag:
                        blocker, best_mag, hit_upper = int(cand), abs(rate[cand]), False
                for cand in tie_up:
                    if abs(rate[cand]) > best_mag:
                        blocker, best_mag, hit_upper = int(cand), abs(rate[cand]), True

        delta = d * theta
        r_j = r[j]
        if blocker < 0:
            vals[j] += delta
            beta -= theta * rate
            z += r_j * delta
        else:
            leave = int(basis[blocker])
            piv = tab[blocker, j]
            beta -= theta * rate
            entering_val = vals[j] + delta
            col = tab[:, j].copy()
            tab[blocker] /= piv
            rhs[blocker] /= piv
            col[blocker] = 0.0
            nzr = np.flatnonzero(col)
            if nzr.size:
                tab[nzr] -= np.outer(col[nzr], tab[blocker])
                rhs[nzr] -= col[nzr] * rhs[blocker]
            r = r - r_j * tab[blocker]
            basis[blocker] = j
            in_basis[j] = True
            in_basis[leave] = False
            vals[leave] = upper_all[leave] if hit_upper else lower_all[leave]
            beta[blocker] = entering_val
            if is_art[leave]:
                frozen[leave] = True
            z += r_j * delta

        iters += 1
        if z < best_z - 1e-13:
            best_z = z
            stall = 0
        else:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True
        if iters % _REFRESH_EVERY == 0:
            beta = refresh_nonbasic()
            r = refresh_cost_row()
            z = float(beta[is_art[basis]].sum())
        if iters > max_iter:
            raise SolverError(f"iteration cap {max_iter} exceeded", _name(digest))

    x = vals[:n].copy()
    struct_rows = np.flatnonzero(basis < n)
    x[basis[struct_rows]] = beta[struct_rows]
    feasible = z <= tol
    if feasible:
        _check_residual(A, x, b, lower, upper, tol, digest)
    return FeasibilityResult(bool(feasible), float(max(z, 0.0)), x if feasible else None, iters)
