"""Feasibility of a :class:`disttest.linprop.Polyhedron`, decided behind one seam.

Every feasibility question in disttest goes through :func:`solve_feasibility`.
It takes a ``Polyhedron``, whose constructor has checked ``b`` and the bounds
and stored ``A`` as the row-major triplets of :func:`_canonical` (the one
canonicalizer), so the seam checks nothing again and hands the rows to HiGHS
row-wise as they are.  HiGHS's dual simplex (Huangfu & Hall, Math. Prog.
Comp. 2018) decides, called through the bindings scipy ships as
``scipy.optimize._highspy`` with the options ``linprog(method="highs")``
would set, so verdicts and points are the ones linprog gives.  scipy is
imported inside the seam, at the first system the start point does not
already satisfy, so it loads only when an LP is needed: importing disttest
does not load it, and neither does a tester call that the property's known
member or its Farkas vector decides
(:class:`disttest.linprop.LinearPropertyOracle`), since that call never
reaches the seam.

The layer has fixed settings: every row and bound holds within
:data:`FEAS_TOL`, a solve stops with :class:`SolverError` after
:data:`MAX_ITER` simplex iterations, and a point reported feasible must miss
no row or bound by more than 1e-6.

:func:`refutes` checks an infeasibility certificate for a ``Polyhedron``
apart from any solver: an integral Farkas vector ``y >= 0`` with
``A^T y = 0`` exactly and ``y^T b`` below zero, with a stated margin for
rounding, in O(nnz) with numpy only.  A malformed matrix, ``b`` or bound
raises :class:`StructureError` when its :class:`Triplets` or ``Polyhedron``
is built, so none reaches the seam.

A ``Triplets`` shape is at most ``_SHAPE_MAX`` = 2**31 - 1 rows and
columns, the 32-bit index HiGHS counts in: the seam hands it int32 column
indices and row starts.  Below 2**31 on both sides, the row-major key
``row * N + col`` that :func:`_canonical` sorts by stays below 2**62, inside
int64, so no two coordinates share a key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import _integer, _numbers, _reals
from .errors import SolverError, StructureError

if TYPE_CHECKING:
    from .linprop import Polyhedron

FEAS_TOL = 1e-9
MAX_ITER = 10**6
_SCIPY_FLOOR = "1.15"  # the first scipy that ships scipy.optimize._highspy
_SHAPE_MAX = 2**31 - 1


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

    Duplicate coordinates add up, and ``A @ x`` works as it does on the dense
    matrix; nothing scatters the triplets into a dense array, so
    ``np.asarray(A)`` is not that matrix.  ``rows`` and ``cols`` are
    stored as int64, ``vals`` as float64; :class:`StructureError` is raised
    unless ``shape`` holds two integers in ``[0, 2**31 - 1]`` (not booleans
    or fractions), all three are 1-D and of one length, every coordinate is
    an integer (not a boolean, even among integers, as
    :func:`disttest.core._numbers` reads them) inside ``shape`` and every
    value is a finite real number (not a boolean or string), as
    :func:`disttest.core._reals` reads them.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    def __post_init__(self):
        try:
            M, N = (_integer(d, "shape", 0, _SHAPE_MAX) for d in self.shape)
        except (TypeError, ValueError):  # ParameterError is a ValueError
            raise StructureError(f"shape must be two integers in [0, {_SHAPE_MAX}], not {self.shape!r}") from None
        coordinates = f"coordinates must be integers inside the {M}x{N} shape"
        rows, cols = (_numbers(part, StructureError, coordinates) for part in (self.rows, self.cols))
        vals = _reals(self.vals, "matrix", StructureError, finite=True)
        if not rows.shape == cols.shape == vals.shape == (vals.size,):
            raise StructureError("rows, cols and vals must be 1-D arrays of one length")
        # A dtype check, not core._integers: that reader takes integral
        # floats, and a test pins float coordinates as refused here.
        if vals.size and not (
            rows.dtype.kind in "iu" and cols.dtype.kind in "iu"
            and 0 <= rows.min() <= rows.max() < M and 0 <= cols.min() <= cols.max() < N
        ):
            raise StructureError(coordinates)
        object.__setattr__(self, "rows", rows.astype(np.int64, copy=False))
        object.__setattr__(self, "cols", cols.astype(np.int64, copy=False))
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "shape", (M, N))

    @classmethod
    def from_dense(cls, A) -> "Triplets":
        """The nonzero entries of a dense 2-D matrix; a flat ``A`` reads as one row.

        A ragged nesting, or a matrix of more than two dimensions, raises
        :class:`StructureError`.
        """
        A = np.atleast_2d(_reals(A, "a dense matrix", StructureError))
        if A.ndim != 2:
            raise StructureError(f"a dense matrix must be 2-D, not of shape {A.shape}")
        rows, cols = np.nonzero(A != 0.0)
        return cls(rows, cols, A[rows, cols], A.shape)

    @property
    def nnz(self) -> int:
        return int(self.vals.size)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])


def _canonical(A) -> Triplets:
    """``A``, dense or :class:`Triplets`, as row-major triplets.

    Duplicate coordinates are summed and zeros dropped, by one sort unless an
    O(nnz) check finds them so already.  A malformed matrix raises
    :class:`StructureError` when its :class:`Triplets` are built.  This is
    the form every :class:`disttest.linprop.Polyhedron` stores, and so the
    form :func:`solve_feasibility` hands HiGHS.
    """
    if not isinstance(A, Triplets):
        A = Triplets.from_dense(A)
    N = A.shape[1]
    key = A.rows * N + A.cols
    if (key[1:] > key[:-1]).all() and A.vals.all():
        return Triplets(A.rows.copy(), A.cols.copy(), A.vals.copy(), A.shape)
    # A stable sort and an adjacent-difference mask, as in core._index_set; bincount adds in given order.
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.concatenate([[True], key[1:] != key[:-1]])
    vals = np.bincount(np.cumsum(new) - 1, weights=A.vals[order])
    nonzero = vals != 0.0
    return Triplets(*np.divmod(key[new][nonzero], N), vals[nonzero], A.shape)


def _pinch(lower: np.ndarray, upper: np.ndarray) -> float:
    """Pin each variable whose bounds cross by at most ``FEAS_TOL``; return the widest crossing.

    Nothing is pinned when some crossing is wider than ``FEAS_TOL``.
    """
    gap = lower - upper
    crossed = gap > 0
    widest = float(gap[crossed].max()) if crossed.any() else 0.0
    if widest <= FEAS_TOL:
        upper[crossed] = lower[crossed]
    return widest


def extract_bounds(A: Triplets, b: np.ndarray):
    """Fold singleton rows of ``Ax <= b`` into per-variable bounds.

    ``A`` is :class:`Triplets` with no duplicate coordinates or zeros.  Returns
    ``(A2, b2, lower, upper, consistent)`` where ``A2 x <= b2`` keeps the
    multi-variable rows, renumbered in order, and ``consistent`` is False when
    the folded bounds (or a constant row) are already contradictory.  Bounds
    that cross by at most ``FEAS_TOL`` pin the variable.
    """
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    count = np.bincount(A.rows, minlength=m)
    consistent = not np.any(b[count == 0] < -FEAS_TOL)
    single = count[A.rows] == 1
    j, a = A.cols[single], A.vals[single]
    bound = b[A.rows[single]] / a
    up = a > 0
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    np.minimum.at(upper, j[up], bound[up])
    np.maximum.at(lower, j[~up], bound[~up])
    consistent &= _pinch(lower, upper) <= FEAS_TOL
    keep = count > 1
    multi = keep[A.rows]
    rows = (np.cumsum(keep) - 1)[A.rows[multi]]
    A2 = Triplets(rows, A.cols[multi], A.vals[multi], (int(keep.sum()), n))
    return A2, b[keep], lower, upper, consistent


def _check_residual(A, x, b, lower, upper) -> float:
    """Total violation of ``x``; raises when a point reported feasible misses
    some row or bound by more than 1e-6."""
    excess = (
        np.clip(A @ x - b, 0.0, None),
        np.clip(lower - x, 0.0, None),
        np.clip(x - upper, 0.0, None),
    )
    if max(float(e.max(initial=0.0)) for e in excess) > 1e-6:
        raise SolverError("feasible vertex fails residual check")
    return sum(float(e.sum()) for e in excess)


_UNIT_ROUNDOFF = 2.0**-53  # float64 rounds to nearest with at most this relative error
_EXACT_INTEGERS = 2.0**53  # float64 holds every integer of smaller magnitude


def refutes(poly: "Polyhedron", y) -> bool:
    """Whether the Farkas vector ``y`` proves that no x meets ``A x <= b`` within ``FEAS_TOL``.

    ``A`` and ``b`` are the rows of ``poly`` and ``y`` holds one multiplier
    per row.  True means: no x has every row ``A_i x <= b_i + FEAS_TOL``, so
    no point :func:`solve_feasibility` looks for exists, whatever the bounds.
    False means only that ``y`` proves nothing.  The check is numpy only,
    O(nnz + M + N), and never calls a solver; it is the infeasible-side
    counterpart of :func:`_check_residual`.

    False is also the answer when ``y`` is not finite, non-negative and of
    length M; when an entry of ``A`` or ``y`` is not an integer, or
    ``max|A| * sum(y)`` reaches 2^53; and when ``A^T y`` is not 0.

    Why True is sound.  With ``A^T y = 0`` and y >= 0, any such x gives

        ``0 = y^T A x <= y^T b + FEAS_TOL * sum(y)``,

    so a right side below 0 rules every x out (Schrijver, *Theory of Linear
    and Integer Programming*, 1986, ch. 7).

    Rounding.  With integral ``A`` and ``y`` and ``max|A| * sum(y) < 2^53``,
    every product and partial sum of ``A^T y`` is an integer that float64
    holds, so its test against 0 is exact.  The right side rounds within
    ``gamma = 2 K u`` of the sum of the magnitudes it adds up, with u the
    unit roundoff and K the longest sum taken (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, section 3.1); it is compared
    with 0 with that margin.
    """
    A, b = poly.A, poly.b
    m, n = A.shape
    try:
        y = np.asarray(y, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    if y.shape != (m,):
        return False
    # y >= 0 is False at nan, and a sum of non-negatives is finite only when every one is.
    total = float(y.sum())
    if not ((y >= 0).all() and math.isfinite(total)):
        return False
    if not (
        (y == np.round(y)).all()
        and (A.vals == np.round(A.vals)).all()
        and float(np.abs(A.vals).max(initial=0.0)) * total < _EXACT_INTEGERS
    ):
        return False
    if np.bincount(A.cols, weights=A.vals * y[A.rows], minlength=n).any():
        return False
    ceiling = float(y @ b) + FEAS_TOL * total
    margin = 2 * (m + 4) * _UNIT_ROUNDOFF * (float(y @ np.abs(b)) + FEAS_TOL * total)
    return ceiling + margin < 0.0


def solve_feasibility(poly: "Polyhedron", measure_violation: bool = True) -> FeasibilityResult:
    """Decide whether ``{x : Ax <= b, lower <= x <= upper}`` of ``poly`` is nonempty.

    ``poly``'s strict rows are not read; :func:`disttest.linprop.lp_feasible`
    folds them first.  Its constructor has checked ``b`` and the bounds and
    stored ``A`` canonical, so the start point, the residual check and HiGHS
    all read the triplets as they are.  Bounds that cross by at most
    ``FEAS_TOL`` pin the variable, as in :func:`extract_bounds`.

    HiGHS decides, holding every row within ``FEAS_TOL`` (its primal
    feasibility tolerance).  Reaching ``MAX_ITER`` iterations raises
    :class:`SolverError`, and so does a feasible point that misses a single
    row or bound by more than 1e-6.

    ``violation`` is described on :class:`FeasibilityResult`.  With
    ``measure_violation`` false, the elastic solve that measures it on
    infeasible systems is skipped.
    """
    A, b, lower, upper = poly.A, poly.b, poly.lower, poly.upper.copy()
    widest = _pinch(lower, upper)
    if widest > FEAS_TOL:
        return FeasibilityResult(False, widest, None, 0)

    # The start point: 0, moved onto the nearer bound when it lies outside them.
    x0 = np.where(upper < 0, upper, np.where(lower > 0, lower, 0.0))
    if A.shape[0] == 0 or not np.any(b - A @ x0 < 0.0):
        return FeasibilityResult(True, 0.0, x0, 0)
    return _highs(A, b, lower, upper, measure_violation)


def _highs(A: Triplets, b, lower, upper, measure_violation):
    # Imported here: loading scipy.optimize costs more than importing disttest.
    # The bindings are called directly because linprog's Python layer (option
    # checks, sparse format conversions, dual bookkeeping we discard) took
    # longer per call than the solve itself.  They take the canonical triplets
    # of a Polyhedron as they are, in HiGHS's row-wise format.
    try:
        from scipy.optimize._highspy import _core as highs
    except ImportError as exc:
        raise ImportError(f"disttest needs scipy>={_SCIPY_FLOOR}, which ships the HiGHS bindings") from exc

    status = highs.HighsModelStatus
    options = highs.HighsOptions()
    options.presolve = "on"
    options.output_flag = False
    options.log_to_console = False
    options.primal_feasibility_tolerance = FEAS_TOL
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.simplex_iteration_limit = options.ipm_iteration_limit = MAX_ITER

    def solve(t: Triplets, cost, lo, hi):
        """``(x, iterations, objective)`` for the canonical ``t``; ``x`` is None when the system is infeasible."""
        m, n = t.shape
        start = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(t.rows, minlength=m), out=start[1:])
        solver = highs._Highs()  # one per solve, so concurrent callers share nothing
        if solver.passOptions(options) != highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS rejects tol={FEAS_TOL} or max_iter={MAX_ITER}")
        # The array form of passModel: every column continuous, no objective offset.
        passed = solver.passModel(
            n, m, t.nnz, highs.MatrixFormat.kRowwise, highs.ObjSense.kMinimize, 0.0,
            cost, lo, hi, np.full(m, -np.inf), b, start, t.cols.astype(np.int32), t.vals,
            np.zeros(n, dtype=np.int32),
        )
        if passed == highs.HighsStatus.kError:
            # HiGHS refuses, say, an entry beyond 1e15; linprog calls that infeasible too.
            return None, 0, math.nan
        solver.run()
        model = solver.getModelStatus()
        if model in (status.kIterationLimit, status.kTimeLimit):
            raise SolverError(f"iteration cap {MAX_ITER} exceeded")
        # HiGHS calls a model without columns empty; one reaches here only with some b < 0.
        if model not in (status.kOptimal, status.kInfeasible, status.kModelError, status.kModelEmpty):
            raise SolverError(f"HiGHS: {solver.modelStatusToString(model)}")
        info = solver.getInfo()
        if model != status.kOptimal:
            # An empty model leaves the count at -1.
            return None, max(info.simplex_iteration_count, 0), math.nan
        x = np.array(solver.getSolution().col_value)
        return x, info.simplex_iteration_count, info.objective_function_value

    m, n = A.shape
    x, iterations, _ = solve(A, np.zeros(n), lower, upper)
    if x is not None:
        violation = _check_residual(A, x, b, lower, upper)
        return FeasibilityResult(True, violation, x, iterations)
    violation = math.nan
    if measure_violation:
        # Elastic form: Ax - s <= b with s >= 0, minimising sum(s).  Slack i is
        # the last column of row i, so inserting it at the row's end keeps the
        # triplets canonical.
        ends, k = np.cumsum(np.bincount(A.rows, minlength=m)), np.arange(m)
        elastic = Triplets(
            np.insert(A.rows, ends, k),
            np.insert(A.cols, ends, n + k),
            np.insert(A.vals, ends, -1.0),
            (m, n + m),
        )
        cost = np.concatenate([np.zeros(n), np.ones(m)])
        least, _, fun = solve(
            elastic,
            cost,
            np.concatenate([lower, np.zeros(m)]),
            np.concatenate([upper, np.full(m, np.inf)]),
        )
        if least is None:
            raise SolverError("elastic solve found no point within the bounds")
        violation = float(fun)
    return FeasibilityResult(False, violation, None, iterations)
