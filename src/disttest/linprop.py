"""Linear properties of distributions and the tester's feasibility question.

A linear property is the projection of a :class:`Polyhedron` ``A x <= b,
lower <= x <= upper`` onto its first ``n`` coordinates, which are read as a
pmf.  ``A`` is stored as row-major COO :class:`~disttest.simplex.Triplets`,
so storage and set-up cost O(nnz), and a :class:`LinearProperty` folds any
singleton rows into bounds once, at construction.

Given the tester's high-mass estimate, :func:`build_feasibility_lp` validates
its inputs once and returns the step-5 question as one
:class:`FeasibilityInstance`: "is there a member of the property close to the
surrogate distribution with its heavy elements inside H?".  The instance
answers the question for one point in O(n) (:meth:`~FeasibilityInstance.met_by`)
and assembles the slack-linearized LP that answers it in general, written
canonical like every system the library builds, only when its ``poly`` or
``farkas`` is first read.  :func:`lp_feasible` and :func:`feasibility_report`
hand every system, as a ``Polyhedron``, to the solve seam
:func:`disttest.simplex.solve_feasibility`, with its fixed tolerance and
iteration cap; a :class:`~disttest.errors.SolverError` from the seam is raised
again here with the digest of the instance that caused it.

A property may carry one known member, checked against its system at
construction; :func:`uniformity_polyhedron` carries its centre.  The step-5
oracle asks the question of that member first and answers True, with no LP
assembled or solved, when the member meets it.  A property may also declare
the rows that keep its members within an L1 ball around a centre (its
``ball``); the instance's LP then carries a closed-form Farkas vector, and the
oracle answers False without a solve when :func:`disttest.simplex.refutes`
accepts it.  scipy is loaded only when neither the member nor its certificate
decides.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import (
    Distribution, _check_masses, _integer, _integers, _is_int, _numbers, _read_json, _real, _reals, _write_json
)
from .errors import DimensionError, ParameterError, SolverError, StructureError
from .simplex import FEAS_TOL, Triplets, _canonical, extract_bounds, refutes, solve_feasibility

EPS_STRICT = 1e-12


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """The solution set of ``A x <= b, lower <= x <= upper`` (rows in ``strict_rows`` are ``<``).

    ``A`` is stored as the triplets of :func:`disttest.simplex._canonical`,
    the form the solve seam hands HiGHS; they, ``b`` and the bounds (-inf,
    +inf by default) are read-only, unless :meth:`_assembled` stored them.  A
    ``b`` that is not a finite real vector of length M, a strict row that is
    not an integer (a boolean, fraction, string or nan) or lies outside
    ``[0, M)``, or a bound that is not a real number (a boolean or string),
    nan, of the wrong length, a lower +inf or an upper -inf, raises
    :class:`StructureError`; ``b`` and the bounds are read by
    :func:`disttest.core._reals` and the strict rows by
    :func:`disttest.core._integers`.  The solve seam trusts these checks.
    """

    A: Triplets
    b: np.ndarray
    strict_rows: frozenset = frozenset()
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        A = _canonical(self.A)
        M, N = A.shape
        b = _reals(self.b, "b", StructureError, copy=True, finite=True)
        if b.shape != (M,):
            raise StructureError(f"A has {M} rows but b has shape {b.shape}")
        strict = frozenset(_integers(self.strict_rows, "strict rows", 0, M - 1, StructureError).tolist())
        lower = np.full(N, -np.inf) if self.lower is None else _reals(self.lower, "lower", StructureError, copy=True)
        upper = np.full(N, np.inf) if self.upper is None else _reals(self.upper, "upper", StructureError, copy=True)
        if lower.shape != (N,) or upper.shape != (N,) or not ((lower < np.inf).all() and (upper > -np.inf).all()):
            raise StructureError(f"lower and upper must hold N = {N} bounds, none nan, +inf below or -inf above")
        for part in (A.rows, A.cols, A.vals, b, lower, upper):
            part.flags.writeable = False
        self.__dict__.update(A=A, b=b, strict_rows=strict, lower=lower, upper=upper)

    @classmethod
    def _assembled(cls, A: Triplets, b, lower, upper, strict_rows=frozenset()) -> "Polyhedron":
        """A system canonical by construction, stored as given: no check, sort, copy or flag."""
        poly = object.__new__(cls)
        poly.__dict__.update(A=A, b=b, strict_rows=strict_rows, lower=lower, upper=upper)
        return poly

    @property
    def M(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    def digest(self) -> str:
        A, strict = self.A, np.array(sorted(self.strict_rows), dtype=np.int64)
        h = hashlib.sha256(repr(A.shape).encode())
        for part in (A.rows, A.cols, A.vals, self.b, self.lower, self.upper, strict):
            h.update(part.tobytes())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Polyhedron(M={self.M}, N={self.N}, strict={len(self.strict_rows)})"


def _fold(poly: Polyhedron) -> Polyhedron:
    """Shave strict rows by ``EPS_STRICT`` and fold singleton rows into the declared bounds.

    A system without strict or singleton rows is returned as it is.  When the
    bounds from the rows, or a constant row, contradict each other, every row
    stays a row and only the declared bounds are set, so the violation
    reported for the system still measures the raw rows.
    """
    if not poly.strict_rows and np.bincount(poly.A.rows, minlength=poly.M).min(initial=2) > 1:
        return poly
    b = poly.b.copy()
    b[list(poly.strict_rows)] -= EPS_STRICT
    A, b2, lower, upper, consistent = extract_bounds(poly.A, b)
    if not consistent:
        return Polyhedron._assembled(poly.A, b, poly.lower, poly.upper)
    return Polyhedron._assembled(A, b2, np.maximum(lower, poly.lower), np.minimum(upper, poly.upper))


class LinearProperty:
    """A distribution property: the first-n-coordinate projection of a polyhedron.

    The two inequality rows encoding ``sum_{i<n} z_i = 1`` are appended at
    construction, since members of a property are distributions, and the
    result is folded once by :func:`_fold` into ``poly``; appended after
    canonical rows, the two leave them canonical, so nothing is sorted again.
    Non-negativity of the pmf coordinates is the author's responsibility
    (standard property encodings, like the approximate-uniformity system,
    already carry it).

    ``member`` is an optional point x of length N known to lie in the
    property; it is stored read-only as ``member`` (None when not given).
    Its entries must be finite real numbers, as :func:`disttest.core._reals`
    reads them, every row and bound of ``poly`` must hold at x within
    ``FEAS_TOL``, and its first n entries must pass :class:`Distribution`'s
    checks, or :class:`ParameterError` is raised; the check costs O(nnz).

    ``ball = (budget, up, down)`` declares rows of ``poly`` that put the pmf
    within L1 distance r of a centre c: for each i < n, row ``up[i]`` reads
    ``z_i - s_i <= c_i`` and row ``down[i]`` reads ``-z_i - s_i <= -c_i`` for
    some variable s_i, and row ``budget`` reads ``sum_i s_i <= r``.  It is
    stored as ``ball`` (None when not given), with ``up`` and ``down``
    read-only int64 arrays.  From it :func:`build_feasibility_lp` writes a
    Farkas vector for the step-5 system.  A ball is accepted only with a
    member; an index that is not an integer inside ``[0, poly.M)`` (a
    boolean among integers included), or ``up``/``down`` not of length n,
    raises :class:`ParameterError`.  Nothing checks that the rows read as
    declared: a wrong ball only yields a vector that
    :func:`disttest.simplex.refutes` rejects.
    """

    def __init__(self, poly: Polyhedron, n: int, member=None, ball=None):
        n = _integer(n, "n", 1, poly.N)
        A, M, k = poly.A, poly.M, np.arange(n)
        A = Triplets(
            np.concatenate([A.rows, np.full(n, M), np.full(n, M + 1)]),
            np.concatenate([A.cols, k, k]),
            np.concatenate([A.vals, np.ones(n), -np.ones(n)]),
            (M + 2, poly.N),
        )
        b = np.concatenate([poly.b, [1.0, -1.0]])
        self.poly = _fold(Polyhedron._assembled(A, b, poly.lower, poly.upper, poly.strict_rows))
        self.n = n
        self.member = None if member is None else self._checked_member(member)
        self.ball = None if ball is None else self._checked_ball(ball)

    def _checked_member(self, member) -> np.ndarray:
        x = _reals(member, "member", copy=True, finite=True)
        if x.shape != (self.poly.N,):
            raise ParameterError(f"member must be a point of length {self.poly.N}, not shape {x.shape}")
        _check_masses(x[: self.n])
        s = self.poly
        if (
            np.any(s.A @ x > s.b + FEAS_TOL)
            or np.any(x < s.lower - FEAS_TOL)
            or np.any(x > s.upper + FEAS_TOL)
        ):
            raise ParameterError(f"member misses a row or bound of the property by more than {FEAS_TOL:g}")
        x.flags.writeable = False
        return x

    def _checked_ball(self, ball) -> tuple:
        # A dtype gate before core._integers, which reads integral floats as
        # integers: a test pins them as refused here.
        if self.member is None:
            raise ParameterError("a ball is accepted only together with a member")
        parts = f"ball must be a triple (budget, up, down) of integer rows of shapes (), ({self.n},), ({self.n},)"
        try:
            budget, up, down = (_numbers(part, ParameterError, parts) for part in ball)
        except (TypeError, ValueError):  # not a triple, or a part _numbers refuses
            raise ParameterError(parts) from None
        for part, shape in ((budget, ()), (up, (self.n,)), (down, (self.n,))):
            if part.shape != shape or part.dtype.kind not in "iu":
                raise ParameterError(parts)
            _integers(part.reshape(-1), "ball rows", 0, self.poly.M - 1)
        up, down = (part.astype(np.int64) for part in (up, down))
        up.flags.writeable = down.flags.writeable = False
        return int(budget), up, down

    def contains(self, d: Distribution) -> bool:
        """Whether an explicit pmf belongs to the property (bounds pin z_{1..n} = pmf).

        A pmf on another domain than the property's raises :class:`DimensionError`.
        """
        if d.n != self.n:
            raise DimensionError(f"pmf has {d.n} entries; property projects to {self.n}")
        s = self.poly
        lower, upper = s.lower.copy(), s.upper.copy()
        lower[: self.n] = np.maximum(lower[: self.n], d.pmf)
        upper[: self.n] = np.minimum(upper[: self.n], d.pmf)
        return lp_feasible(Polyhedron._assembled(s.A, s.b, lower, upper))


def uniformity_polyhedron(n: int, eps: float) -> LinearProperty:
    """The property of being within L1 distance ``eps`` of uniform over [n].

    Variables are ``z_1..z_n`` (the pmf) and ``z_{n+1}..z_{2n}`` (slacks
    bounding each ``|z_i - 1/n|``); the slack total is capped at ``eps``.
    The known member is the centre: ``z = 1/n`` and every slack 0.  Every
    variable has the lower bound 0.  Row 0 is the slack budget and rows
    ``1 + 2i`` and ``2 + 2i`` the pair of coordinate i, which the property
    declares as its ``ball``.  At n = 1 the budget row is a singleton and
    folds into a bound, so that property carries no ball.
    """
    n, eps = _integer(n, "n", 1), _real(eps, "eps")
    if not 0.0 <= eps <= 2.0:
        raise ParameterError("eps must lie in [0, 2]")
    N = 2 * n
    # Rows, written canonical: the budget, then for each i z_i - s_i <= 1/n and -z_i - s_i <= -1/n.
    i = np.arange(n)
    pairs = 1 + 2 * i[:, None] + [0, 0, 1, 1]
    rows = np.concatenate([np.zeros(n, np.int64), pairs.ravel()])
    cols = np.concatenate([n + i, np.column_stack([i, n + i, i, n + i]).ravel()])
    vals = np.concatenate([np.ones(n), np.tile([1.0, -1.0, -1.0, -1.0], n)])
    b = np.concatenate([[eps], np.tile([1.0 / n, -1.0 / n], n)])
    centre = np.concatenate([np.full(n, 1.0 / n), np.zeros(n)])
    ball = (0, 1 + 2 * i, 2 + 2 * i) if n > 1 else None
    poly = Polyhedron(Triplets(rows, cols, vals, (1 + 2 * n, N)), b, lower=np.zeros(N))
    return LinearProperty(poly, n, member=centre, ball=ball)


@dataclass(frozen=True, eq=False)
class FeasibilityInstance:
    """One tester step-5 question, validated, and the system that answers it, built on first read.

    ``Hs`` and ``comp`` are H and the rest of [0, n), ascending; ``ref`` is
    d_tilde on ``Hs`` and ``tail_ref`` its total on ``comp``; ``cap`` is the
    off-H upper bound ``1/q^2 - EPS_STRICT`` and ``bound`` the slack budget.
    :meth:`met_by` asks the question of one point in O(n).  ``poly``, the
    system :func:`build_feasibility_lp` documents, written canonical and
    stored unchecked, and ``farkas``, its candidate Farkas vector (None when
    the property declares no ``ball``), are assembled together on the first
    read of either and kept, so a question that :meth:`met_by` settles builds
    no LP.  :meth:`refuted` checks the vector.
    """

    prop: LinearProperty
    Hs: np.ndarray
    comp: np.ndarray
    ref: np.ndarray
    tail_ref: float
    cap: float
    bound: float

    def met_by(self, z: np.ndarray) -> bool:
        """Whether a property member with pmf part ``z`` is a point of ``poly``.

        Give slack k the value ``|z[Hs[k]] - ref[k]|`` and the tail slack
        ``|sum(z[comp]) - tail_ref|``.  Both rows of each slack then hold,
        one with equality, and every slack is >= 0, so what is left of the
        system is the budget row (slack total <= ``bound``) and the off-H cap
        (``z[comp] <= cap``), tested here.  The property's own rows and bounds
        hold at a member within ``FEAS_TOL``, so True exhibits a point of the
        system within ``FEAS_TOL``: what :func:`lp_feasible` answers True on.
        """
        z_off = z[self.comp]
        if z_off.size and z_off.max() > self.cap:
            return False
        spent = float(np.abs(z[self.Hs] - self.ref).sum()) + abs(float(z_off.sum()) - self.tail_ref)
        return spent <= self.bound

    @cached_property
    def _lp(self) -> tuple:
        Hs, comp, ref, tail_ref = self.Hs, self.comp, self.ref, self.tail_ref
        base, h = self.prop.poly, Hs.size
        N = base.N
        tail_col = N + h
        V = tail_col + 1

        # Rows, written canonical: row m0 is the budget; rows up[k] and dn[k] = up[k]+1
        # read z_Hs[k] - s_k <= ref[k] and -z_Hs[k] - s_k <= -ref[k], so pair k's
        # entries are (Hs[k], 1), (s_k, -1), (Hs[k], -1), (s_k, -1); the last two rows
        # bound the off-H total by the tail slack.
        m0 = base.M
        up = m0 + 1 + 2 * np.arange(h)
        dn = up + 1
        slack = N + np.arange(h)
        tail_up = m0 + 1 + 2 * h
        tail_len = comp.size + 1
        pair_vals = np.full(4 * h, -1.0)
        pair_vals[::4] = 1.0
        ones_c = np.ones(comp.size)
        rows = np.concatenate(
            [base.A.rows, np.full(h + 1, m0), np.arange(m0 + 1, tail_up).repeat(2)]
            + [np.full(tail_len, tail_up), np.full(tail_len, tail_up + 1)]
        )
        cols = np.concatenate(
            [base.A.cols, np.arange(N, V), np.column_stack([Hs, slack, Hs, slack]).ravel()]
            + [comp, [tail_col], comp, [tail_col]]
        )
        vals = np.concatenate([base.A.vals, np.ones(h + 1), pair_vals, ones_c, [-1.0], -ones_c, [-1.0]])
        b = np.concatenate(
            [base.b, [self.bound], np.column_stack([ref, -ref]).ravel(), [tail_ref, -tail_ref]]
        )
        lower = np.concatenate([base.lower, np.zeros(h + 1)])
        upper = np.concatenate([base.upper, np.full(h + 1, np.inf)])
        upper[comp] = np.minimum(upper[comp], self.cap)
        A = Triplets(rows, cols, vals, (m0 + 3 + 2 * h, V))
        farkas = None
        if self.prop.ball is not None:
            budget, c_up, c_dn = self.prop.ball
            c = base.b[c_up]
            above = c[Hs] >= ref
            tail_above = c[comp].sum() >= tail_ref
            farkas = np.zeros(A.shape[0])
            farkas[[m0, tail_up if tail_above else tail_up + 1, budget]] = 1.0
            farkas[np.where(above, up, dn)] = 1.0
            # A step-5 row with +z_i meets the ball row with -z_i, and vice versa.
            step5_up = np.empty(self.prop.n, dtype=bool)
            step5_up[Hs], step5_up[comp] = above, tail_above
            farkas[np.where(step5_up, c_dn, c_up)] = 1.0
        return Polyhedron._assembled(A, b, lower, upper), farkas

    @property
    def poly(self) -> Polyhedron:
        return self._lp[0]

    @property
    def farkas(self) -> np.ndarray | None:
        return self._lp[1]

    def refuted(self) -> bool:
        """Whether ``farkas`` proves that no point meets ``poly`` within ``FEAS_TOL``.

        The check is :func:`disttest.simplex.refutes`, numpy only and O(nnz);
        False without a vector or when the vector proves nothing.
        """
        if self.farkas is None:
            return False
        return refutes(self.poly, self.farkas)


def build_feasibility_lp(
    prop: LinearProperty,
    H: Iterable[int],
    d_tilde: Distribution,
    q: int,
    bound: float,
) -> FeasibilityInstance:
    """The step-5 question for the property, its inputs validated once.

    H, read by :func:`disttest.core._integers`, must hold integers inside
    ``[0, n)``; an H that does not, a ``bound`` that is not a real number
    >= 0, or a ``q`` that is not an integer >= 1 raises
    :class:`ParameterError`, and a ``d_tilde`` on another domain than the
    property :class:`DimensionError`.  This costs O(n + |H|); the LP is
    assembled only when ``poly`` or ``farkas`` is first read.

    The system ``poly`` has the property's N coordinates as variables, one
    slack per member of H (bounding ``|z_i - d_tilde(i)|``), and one tail
    slack bounding the aggregate deviation off H.  Off-H pmf coordinates are
    forced below ``1/q^2``; that strict constraint is encoded closed with an
    ``EPS_STRICT`` shave.  Slack nonnegativity and the off-H cap are variable
    bounds; the rows are the property's rows, the slack budget, two rows per
    member of H and the two tail rows.

    When the property declares a ``ball`` with centre c and radius r,
    ``farkas`` is written in O(n + |H|).  It puts a 1 on the step-5 budget
    row; for each H[k], on row ``up`` when ``c_H[k] >= ref_k`` and on row
    ``dn`` otherwise; on the tail row chosen the same way from
    ``sum(c[off-H])``; on the ball's budget row; and for each i < n on the
    ball row whose ``z_i`` coefficient cancels the step-5 row's.  Every
    column of ``A^T y`` then sums to 0 exactly, and ``y^T b = bound + r -
    D(c)`` with ``D(c)`` the step-5 distance of the centre, ``sum_H |c - ref|
    + |sum(c[off-H]) - tail_ref|``; so the vector refutes the system once
    ``D(c)`` exceeds ``bound + r`` by more than ``FEAS_TOL`` per multiplier.
    """
    n = prop.n
    if d_tilde.n != n:
        raise DimensionError(f"d_tilde has {d_tilde.n} entries; property projects to {n}")
    bound = _real(bound, "bound")
    if not bound >= 0:  # also False for nan
        raise ParameterError(f"bound must be a number >= 0, not {bound}")
    q = _integer(q, "q", 1)
    in_h = np.zeros(n, dtype=bool)
    in_h[_integers(H, "H", 0, n - 1)] = True
    Hs, comp = np.flatnonzero(in_h), np.flatnonzero(~in_h)
    pmf = d_tilde.pmf
    return FeasibilityInstance(prop, Hs, comp, pmf[Hs], float(pmf[comp].sum()), 1.0 / (q * q) - EPS_STRICT, bound)


def _solve(inst, measure_violation: bool):
    if not isinstance(inst, (FeasibilityInstance, Polyhedron)):
        raise ParameterError("expected a FeasibilityInstance or Polyhedron")
    inst, s = (inst.poly, inst.poly) if isinstance(inst, FeasibilityInstance) else (inst, _fold(inst))
    try:
        return solve_feasibility(s, measure_violation=measure_violation)
    except SolverError as exc:
        raise SolverError(str(exc), inst.digest()) from None


def lp_feasible(inst) -> bool:
    """True iff the system has a point satisfying every row within ``FEAS_TOL``.

    A :class:`Polyhedron` is folded first (:func:`_fold`); the system of a
    :class:`FeasibilityInstance` goes to the solve seam
    :func:`disttest.simplex.solve_feasibility` as it is.  The seam computes
    only the verdict.  A :class:`SolverError` carries the digest of the
    polyhedron given, or of the instance's system.
    """
    return _solve(inst, measure_violation=False).feasible


def feasibility_report(inst):
    """Like :func:`lp_feasible` but returns the full solver result, violation measured."""
    return _solve(inst, measure_violation=True)


class LinearPropertyOracle:
    """Step-5 oracle for a linear property.

    A call asks :func:`build_feasibility_lp`, looked up as this module's
    attribute, for the question, which validates its inputs once.  When the
    property's known member passes :meth:`FeasibilityInstance.met_by`, the
    answer is True; no LP is assembled or solved, so scipy is not imported.
    Otherwise reading the instance's LP assembles it.  When the property
    declares a ball and the Farkas vector passes
    :meth:`FeasibilityInstance.refuted`, no point meets the system within
    ``FEAS_TOL``, so the answer is False, again without a solve.  Otherwise
    :func:`lp_feasible` decides; the first such solve loads scipy.  Each way
    the answer is the one :func:`lp_feasible` documents for the system.

    Instances are deterministic for fixed inputs and safe for concurrent
    read-only use.
    """

    def __init__(self, prop: LinearProperty):
        self.prop = prop

    def __call__(self, H, d_tilde: Distribution, q: int, bound: float) -> bool:
        inst, member = build_feasibility_lp(self.prop, H, d_tilde, q, bound), self.prop.member
        if member is not None and inst.met_by(member[: self.prop.n]):
            return True
        return not inst.refuted() and lp_feasible(inst)


def linear_property_oracle(prop: LinearProperty) -> LinearPropertyOracle:
    """Property oracle answering step-5 feasibility: the known member, its certificate, else the LP."""
    return LinearPropertyOracle(prop)


def save_polyhedron(poly: Polyhedron, path) -> None:
    """Write a polyhedron file: JSON with M, N, the triplets of ``A`` as
    ``rows``, ``cols`` and ``vals``, ``b`` and ``strict_rows``; O(nnz).

    Each finite bound is written as a singleton row after the rows of ``A``
    (``-x_j <= -lower_j``, then ``x_j <= upper_j``); the fold of
    :class:`LinearProperty` and :func:`lp_feasible` reads it back."""
    A, M = poly.A, poly.M
    lo, up = (np.flatnonzero(np.isfinite(bound)) for bound in (poly.lower, poly.upper))
    rows = np.concatenate([A.rows, M + np.arange(lo.size + up.size)])
    cols = np.concatenate([A.cols, lo, up])
    vals = np.concatenate([A.vals, -np.ones(lo.size), np.ones(up.size)])
    b = np.concatenate([poly.b, -poly.lower[lo], poly.upper[up]])
    doc = {"M": M + lo.size + up.size, "N": poly.N, "rows": rows.tolist(), "cols": cols.tolist()}
    _write_json({**doc, "vals": vals.tolist(), "b": b.tolist(), "strict_rows": sorted(poly.strict_rows)}, path)


def load_polyhedron(path) -> Polyhedron:
    """Read a polyhedron file: ``A`` as triplets, as :func:`save_polyhedron`
    writes it, or as a dense row-major list ``A`` of M*N numbers.

    ``M``, ``N`` and each strict row must be JSON integers.  The other
    fields go through the readers the constructors use: ``b`` and the
    strict rows through :class:`Polyhedron`, the triplets through
    :class:`Triplets`, and a dense ``A`` through
    :func:`disttest.core._reals`, so a boolean anywhere among them raises
    :class:`StructureError`.  So does a file that carries both forms of
    ``A``, or neither, or a dense ``A`` that does not hold M*N numbers.
    """
    doc = _read_json(path, "polyhedron", ("M", "N", "b"))
    M, N = doc["M"], doc["N"]
    if not (_is_int(M) and _is_int(N)) or M < 0 or N < 1:
        raise StructureError("fields 'M' and 'N' must be non-negative integers")
    strict = doc.get("strict_rows", [])
    if not isinstance(strict, list) or not all(_is_int(i) for i in strict):
        raise StructureError("'strict_rows' must be a list of row indices")
    if ("A" in doc) == any(key in doc for key in ("rows", "cols", "vals")):
        raise StructureError("polyhedron file must carry either 'A' or 'rows', 'cols' and 'vals'")
    if "A" in doc:
        A = _reals(doc["A"], "A", StructureError)
        if A.shape != (M * N,):
            raise StructureError(f"'A' must hold M*N = {M * N} numbers in row-major order")
        A = A.reshape(M, N)
    else:
        A = Triplets(doc.get("rows"), doc.get("cols"), doc.get("vals"), (M, N))
    return Polyhedron(A, doc["b"], frozenset(strict))
