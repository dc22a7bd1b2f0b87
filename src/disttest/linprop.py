"""Linear properties of distributions and the tester's feasibility question.

A linear property is the projection of a polyhedron ``Ax <= b`` onto its first
``n`` coordinates, which are read as a pmf.  :func:`fold_property` folds the
property's singleton rows into variable bounds once and keeps the other rows
as sparse triplets.  Given the tester's high-mass estimate,
:func:`build_feasibility_lp` appends the slack-linearized rows whose
feasibility answers "is there a member of the property close to the
surrogate distribution with its heavy elements inside H?".
:func:`lp_feasible` and :func:`feasibility_report` pass every system to the
solve seam :func:`disttest.simplex.solve_feasibility`, which picks the
backend.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import Distribution
from .errors import ParameterError, StructureError
from .simplex import FEAS_TOL, Triplets, extract_bounds, solve_feasibility

EPS_STRICT = 1e-12

# Auxiliary dimensions are capped at this multiple of the pmf dimension to
# keep feasibility solves tractable; override per property when needed.
DEFAULT_DIM_CAP = 10


@dataclass(frozen=True, eq=False)
class Polyhedron:
    """The solution set of ``A x <= b`` (rows listed in ``strict_rows`` are ``<``)."""

    A: np.ndarray
    b: np.ndarray
    strict_rows: frozenset = frozenset()

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64).ravel()
        if A.shape[0] != b.size:
            raise StructureError(f"A has {A.shape[0]} rows but b has {b.size} entries")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise StructureError("polyhedron entries must be finite")
        strict = frozenset(int(i) for i in self.strict_rows)
        if any(i < 0 or i >= A.shape[0] for i in strict):
            raise StructureError("strict row index outside [0, M)")
        A = A.copy()
        b = b.copy()
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "strict_rows", strict)

    @property
    def M(self) -> int:
        return int(self.A.shape[0])

    @property
    def N(self) -> int:
        return int(self.A.shape[1])

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.A.tobytes())
        h.update(self.b.tobytes())
        h.update(repr(sorted(self.strict_rows)).encode())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return f"Polyhedron(M={self.M}, N={self.N}, strict={len(self.strict_rows)})"


class LinearProperty:
    """A distribution property: the first-n-coordinate projection of a polyhedron.

    The two inequality rows encoding ``sum_{i<n} z_i = 1`` are appended at
    construction, since members of a property are distributions.
    Non-negativity of the pmf coordinates is the author's responsibility
    (standard property encodings, like the approximate-uniformity system,
    already carry it).
    """

    def __init__(self, poly: Polyhedron, n: int, dim_cap: int = DEFAULT_DIM_CAP):
        n = int(n)
        if n < 1:
            raise ParameterError("n must be >= 1")
        if n > poly.N:
            raise ParameterError(f"projection dimension {n} exceeds variable count {poly.N}")
        if poly.N > dim_cap * n:
            raise ParameterError(
                f"polyhedron has {poly.N} variables; cap is {dim_cap}*n = {dim_cap * n} "
                "(raise dim_cap to override)"
            )
        ones = np.zeros((2, poly.N))
        ones[0, :n] = 1.0
        ones[1, :n] = -1.0
        A = np.vstack([poly.A, ones])
        b = np.concatenate([poly.b, [1.0, -1.0]])
        self.poly = Polyhedron(A, b, poly.strict_rows)
        self.n = n

    def contains(self, d: Distribution) -> bool:
        """Whether an explicit pmf belongs to the property (pins z_{1..n} = pmf)."""
        if d.n != self.n:
            raise ParameterError(f"pmf has {d.n} entries; property projects to {self.n}")
        pin = np.zeros((2 * self.n, self.poly.N))
        pin[: self.n, : self.n] = np.eye(self.n)
        pin[self.n :, : self.n] = -np.eye(self.n)
        rhs = np.concatenate([d.pmf, -d.pmf])
        merged = Polyhedron(
            np.vstack([self.poly.A, pin]),
            np.concatenate([self.poly.b, rhs]),
            self.poly.strict_rows,
        )
        return lp_feasible(merged)


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """The system ``A x <= b, lower <= x <= upper``, with ``A`` as COO :class:`Triplets`."""

    A: Triplets
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def M(self) -> int:
        return int(self.A.shape[0])

    @property
    def N(self) -> int:
        return int(self.A.shape[1])

    def digest(self) -> str:
        h = hashlib.sha256(repr(self.A.shape).encode())
        for part in (self.A.rows, self.A.cols, self.A.vals, self.b, self.lower, self.upper):
            h.update(np.ascontiguousarray(part).tobytes())
        return h.hexdigest()[:16]


def fold_polyhedron(poly: Polyhedron, tol: float = FEAS_TOL) -> SparseSystem:
    """Shave strict rows by ``EPS_STRICT`` and fold singleton rows into bounds.

    When the folded bounds or a constant row contradict each other, every row
    stays a row and no bound is set, so the violation reported for the
    system still measures the raw rows.
    """
    b = poly.b.copy()
    if poly.strict_rows:
        b[list(poly.strict_rows)] -= EPS_STRICT
    A, b2, lower, upper, consistent = extract_bounds(poly.A, b, tol=tol)
    if not consistent:
        A, b2 = poly.A, b
        lower = np.full(poly.N, -np.inf)
        upper = np.full(poly.N, np.inf)
    return SparseSystem(Triplets.from_dense(A), b2, lower, upper)


@dataclass(frozen=True, eq=False)
class FoldedProperty:
    """A linear property whose polyhedron has been folded by :func:`fold_polyhedron`."""

    n: int
    system: SparseSystem


def fold_property(prop: LinearProperty, tol: float = FEAS_TOL) -> FoldedProperty:
    return FoldedProperty(prop.n, fold_polyhedron(prop.poly, tol))


@dataclass(frozen=True)
class FeasibilityInstance:
    """The assembled slack-variable system for one tester step-5 question."""

    poly: SparseSystem


def uniformity_polyhedron(n: int, eps: float) -> LinearProperty:
    """The property of being within L1 distance ``eps`` of uniform over [n].

    Variables are ``z_1..z_n`` (the pmf) and ``z_{n+1}..z_{2n}`` (slacks
    bounding each ``|z_i - 1/n|``); the slack total is capped at ``eps``.
    """
    n = int(n)
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 <= eps <= 2.0:
        raise ParameterError("eps must lie in [0, 2]")
    N = 2 * n
    # Rows: the slack budget, -z_j <= 0 for every variable, then for each i
    # the pair z_i - s_i <= 1/n and -z_i - s_i <= -1/n.
    A = np.zeros((1 + N + 2 * n, N))
    b = np.zeros(A.shape[0])
    A[0, n:] = 1.0
    b[0] = float(eps)
    A[1 + np.arange(N), np.arange(N)] = -1.0
    i = np.arange(n)
    up = 1 + N + 2 * i
    dn = up + 1
    A[up, i] = 1.0
    A[dn, i] = -1.0
    A[up, n + i] = -1.0
    A[dn, n + i] = -1.0
    target = 1.0 / n
    b[up] = target
    b[dn] = -target
    return LinearProperty(Polyhedron(A, b), n)


def build_feasibility_lp(
    prop: LinearProperty | FoldedProperty,
    H: Iterable[int],
    d_tilde: Distribution,
    q: int,
    bound: float,
) -> FeasibilityInstance:
    """Assemble the step-5 system over the property variables plus slacks.

    Variables: the property's N coordinates, one slack per member of H
    (bounding ``|z_i - d_tilde(i)|``), and one tail slack bounding the
    aggregate deviation off H.  Off-H pmf coordinates are forced below
    ``1/q^2``; that strict constraint is encoded closed with an ``EPS_STRICT``
    shave.  Slack nonnegativity and the off-H cap are variable bounds; the
    rows are the folded property's rows, the slack budget, two rows per
    member of H and the two tail rows.  A :class:`LinearProperty` is folded
    here; pass a :class:`FoldedProperty` to fold it once for many calls.
    """
    folded = prop if isinstance(prop, FoldedProperty) else fold_property(prop)
    n = folded.n
    if d_tilde.n != n:
        raise ParameterError(f"d_tilde has {d_tilde.n} entries; property projects to {n}")
    if bound < 0:
        raise ParameterError("bound must be >= 0")
    q = int(q)
    if q < 1:
        raise ParameterError("q must be >= 1")
    Hs = np.unique(np.fromiter(H, dtype=np.int64))
    if Hs.size and (Hs[0] < 0 or Hs[-1] >= n):
        raise IndexError(f"H contains indices outside [0, {n})")
    base = folded.system
    h = Hs.size
    N = base.N
    V = N + h + 1
    tail_col = N + h
    comp = np.setdiff1d(np.arange(n), Hs)
    tail_ref = float(d_tilde.pmf[comp].sum())
    ref = d_tilde.pmf[Hs]

    # Row m0 is the budget; rows m0+1+2k and m0+2+2k bound |z_Hs[k] - ref[k]|
    # by slack k; the last two rows bound the off-H total by the tail slack.
    m0 = base.M
    up = m0 + 1 + 2 * np.arange(h)
    dn = up + 1
    slack = N + np.arange(h)
    tail_up = m0 + 1 + 2 * h
    tail_len = comp.size + 1
    ones_h = np.ones(h)
    ones_c = np.ones(comp.size)
    rows = np.concatenate(
        [base.A.rows, np.full(h + 1, m0), up, up, dn, dn]
        + [np.full(tail_len, tail_up), np.full(tail_len, tail_up + 1)]
    )
    cols = np.concatenate(
        [base.A.cols, np.arange(N, V), Hs, slack, Hs, slack, comp, [tail_col], comp, [tail_col]]
    )
    vals = np.concatenate(
        [base.A.vals, np.ones(h + 1), ones_h, -ones_h, -ones_h, -ones_h]
        + [ones_c, [-1.0], -ones_c, [-1.0]]
    )
    b = np.concatenate(
        [base.b, [float(bound)], np.column_stack([ref, -ref]).ravel(), [tail_ref, -tail_ref]]
    )
    lower = np.concatenate([base.lower, np.zeros(h + 1)])
    upper = np.concatenate([base.upper, np.full(h + 1, np.inf)])
    upper[comp] = np.minimum(upper[comp], 1.0 / (q * q) - EPS_STRICT)
    A = Triplets(rows, cols, vals, (m0 + 3 + 2 * h, V))
    return FeasibilityInstance(SparseSystem(A, b, lower, upper))


def _solve(inst, tol: float, max_iter: int, measure_violation: bool):
    if isinstance(inst, FeasibilityInstance):
        system, digest = inst.poly, inst.poly.digest
    elif isinstance(inst, Polyhedron):
        system, digest = fold_polyhedron(inst, tol), inst.digest
    else:
        raise ParameterError("expected a FeasibilityInstance or Polyhedron")
    return solve_feasibility(
        system.A,
        system.b,
        system.lower,
        system.upper,
        tol=tol,
        max_iter=max_iter,
        digest=digest,
        measure_violation=measure_violation,
    )


def lp_feasible(inst, tol: float = FEAS_TOL, max_iter: int = 10**6) -> bool:
    """True iff the system has a point satisfying every row within ``tol``.

    Strict rows are relaxed by ``EPS_STRICT`` and singleton rows folded into
    bounds before the system goes to the solve seam
    :func:`disttest.simplex.solve_feasibility`; only the verdict is computed.
    """
    return _solve(inst, tol, max_iter, measure_violation=False).feasible


def feasibility_report(inst, tol: float = FEAS_TOL, max_iter: int = 10**6):
    """Like :func:`lp_feasible` but returns the full solver result, violation measured."""
    return _solve(inst, tol, max_iter, measure_violation=True)


class LinearPropertyOracle:
    """Step-5 oracle for a linear property: assemble the system and decide it.

    The property is folded once, at construction.  Instances are
    deterministic for fixed inputs and safe for concurrent read-only use.
    """

    def __init__(self, prop: LinearProperty, tol: float = FEAS_TOL, max_iter: int = 10**6):
        self.prop = prop
        self.tol = tol
        self.max_iter = max_iter
        self.folded = fold_property(prop, tol)

    def __call__(self, H, d_tilde: Distribution, q: int, bound: float) -> bool:
        inst = build_feasibility_lp(self.folded, H, d_tilde, q, bound)
        return lp_feasible(inst, tol=self.tol, max_iter=self.max_iter)


def linear_property_oracle(prop: LinearProperty) -> LinearPropertyOracle:
    """Property oracle answering step-5 feasibility via the LP route."""
    return LinearPropertyOracle(prop)


def save_polyhedron(poly: Polyhedron, path) -> None:
    """Write a polyhedron file: JSON with M, N, row-major A, b, strict_rows."""
    doc = {
        "M": poly.M,
        "N": poly.N,
        "A": [float(x) for x in poly.A.ravel()],
        "b": [float(x) for x in poly.b],
        "strict_rows": sorted(poly.strict_rows),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_polyhedron(path) -> Polyhedron:
    """Read a polyhedron file written by :func:`save_polyhedron`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructureError(f"not a valid polyhedron file: {exc}") from exc
    for key in ("M", "N", "A", "b"):
        if not isinstance(doc, dict) or key not in doc:
            raise StructureError(f"polyhedron file must carry field '{key}'")
    M, N = doc["M"], doc["N"]
    if not isinstance(M, int) or not isinstance(N, int) or M < 0 or N < 1:
        raise StructureError("fields 'M' and 'N' must be non-negative integers")
    flat = doc["A"]
    if not isinstance(flat, list) or len(flat) != M * N:
        raise StructureError(f"'A' must hold M*N = {M * N} numbers in row-major order")
    b = doc["b"]
    if not isinstance(b, list) or len(b) != M:
        raise StructureError(f"'b' must hold M = {M} numbers")
    strict = doc.get("strict_rows", [])
    if not isinstance(strict, list) or not all(isinstance(i, int) for i in strict):
        raise StructureError("'strict_rows' must be a list of row indices")
    A = np.asarray(flat, dtype=np.float64).reshape(M, N)
    return Polyhedron(A, np.asarray(b, dtype=np.float64), frozenset(strict))
