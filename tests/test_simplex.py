import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disttest.simplex as simplex
from disttest.errors import SolverError
from disttest.linprop import Polyhedron
from disttest.reference import vertex_enumeration_feasible
from disttest.simplex import FEAS_TOL, Triplets, _check_residual, extract_bounds, refutes, solve_feasibility

from conftest import holds_dense


def check_against_oracle(A, b, box=1e4):
    A2, b2, lower, upper, consistent = extract_bounds(Triplets.from_dense(A), b)
    if consistent:
        res = solve_feasibility(Polyhedron(A2, b2, lower=lower, upper=upper))
        got = res.feasible
    else:
        got = False
    want = vertex_enumeration_feasible(A, b, box=box)
    assert got == want, f"solver={got} oracle={want}\nA={A}\nb={b}"
    return got


def extract_bounds_rows(A, b, tol=1e-9):
    """Row-by-row singleton folding, the reference for the vectorised ``extract_bounds``."""
    m, n = A.shape
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    keep = []
    consistent = True
    for i in range(m):
        nz = np.flatnonzero(A[i] != 0.0)
        if nz.size == 0:
            consistent &= not b[i] < -tol
        elif nz.size == 1:
            j = int(nz[0])
            if A[i, j] > 0:
                upper[j] = min(upper[j], b[i] / A[i, j])
            else:
                lower[j] = max(lower[j], b[i] / A[i, j])
        else:
            keep.append(i)
    gap = lower - upper
    if np.any(gap > tol):
        consistent = False
    else:
        upper[gap > 0] = lower[gap > 0]
    return A[keep], b[keep], lower, upper, consistent


class TestExtractBounds:
    def test_matches_row_by_row_folding(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            m, n = int(rng.integers(0, 10)), int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.4)
            b = rng.uniform(-2, 2, size=m)
            if m and rng.random() < 0.3:
                # Two opposite singletons on one variable, crossing by about tol.
                A[0], A[-1] = 0.0, 0.0
                A[0, 0], A[-1, 0] = 1.0, -1.0
                b[-1] = -b[0] - rng.choice([0.0, 5e-10, 2e-9])
            got = extract_bounds(Triplets.from_dense(A), b)
            want = extract_bounds_rows(A, b)
            assert holds_dense(got[0], want[0])
            for g, w in zip(got[1:4], want[1:4]):
                assert np.array_equal(g, w)
            assert got[4] == want[4]

    def test_entry_order_does_not_change_the_fold(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            m, n = int(rng.integers(0, 10)), int(rng.integers(1, 5))
            A = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.4)
            b = rng.uniform(-2, 2, size=m)
            t = Triplets.from_dense(A)
            order = rng.permutation(t.nnz)
            shuffled = Triplets(t.rows[order], t.cols[order], t.vals[order], t.shape)
            got = extract_bounds(shuffled, b)
            want = extract_bounds_rows(A, b)
            assert holds_dense(got[0], want[0])
            for g, w in zip(got[1:4], want[1:4]):
                assert np.array_equal(g, w)
            assert got[4] == want[4]

    def test_singleton_rows_become_bounds(self):
        A = np.array([[2.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        b = np.array([4.0, -3.0, 10.0])
        A2, b2, lower, upper, consistent = extract_bounds(Triplets.from_dense(A), b)
        assert consistent
        assert A2.shape == (1, 2)
        assert upper[0] == 2.0 and lower[1] == 3.0

    def test_contradictory_singletons(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, -1.0])  # z <= 0 and z >= 1
        *_, consistent = extract_bounds(Triplets.from_dense(A), b)
        assert not consistent

    def test_zero_row_negative_rhs(self):
        A = np.zeros((1, 2))
        b = np.array([-0.5])
        *_, consistent = extract_bounds(Triplets.from_dense(A), b)
        assert not consistent

    def test_pinched_bounds_within_tolerance(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([1.0, -1.0 - 1e-10])  # z <= 1 and z >= 1 + 1e-10
        *_, consistent = extract_bounds(Triplets.from_dense(A), b)
        assert consistent


class TestSolveFeasibility:
    def test_trivial_box(self):
        res = solve_feasibility(Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])))
        assert res.feasible and res.violation <= 1e-9

    def test_trivial_infeasible(self):
        res = solve_feasibility(Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])))
        assert not res.feasible
        assert res.violation == pytest.approx(1.0, abs=1e-9)

    def test_equality_pair(self):
        # x + y = 1, x >= 0.6, y >= 0.6 -> infeasible by 0.2
        A = np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]])
        b = np.array([1.0, -1.0, -0.6, -0.6])
        res = solve_feasibility(Polyhedron(A, b))
        assert not res.feasible
        assert res.violation == pytest.approx(0.2, abs=1e-8)

    def test_free_variables(self):
        # x - y <= -5 and y - x <= -5 is infeasible even for free vars.
        A = np.array([[1.0, -1.0], [-1.0, 1.0]])
        b = np.array([-5.0, -5.0])
        assert not solve_feasibility(Polyhedron(A, b)).feasible
        # One of the two alone is fine.
        assert solve_feasibility(Polyhedron(A[:1], b[:1])).feasible

    def test_feasible_point_is_returned_and_valid(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-2, 2, size=(6, 4))
        x_star = rng.uniform(-1, 1, size=4)
        b = A @ x_star + rng.uniform(0.1, 1.0, size=6)
        res = solve_feasibility(Polyhedron(A, b))
        assert res.feasible
        assert np.all(A @ res.x - b <= 1e-9)

    def test_random_systems_match_vertex_enumeration(self):
        rng = np.random.default_rng(42)
        feasible = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            A = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-2, 2, size=m)
            feasible += check_against_oracle(A, b)
        # Both verdicts occur often enough for the agreement to mean something.
        assert 30 <= feasible <= 120 - 30

    def test_random_systems_with_singletons(self):
        rng = np.random.default_rng(43)
        for _ in range(80):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 8))
            A = rng.uniform(-2, 2, size=(m, n))
            # Sparsify some rows down to singletons to exercise bound folding.
            for i in range(m):
                if rng.random() < 0.5:
                    keep = int(rng.integers(0, n))
                    row = np.zeros(n)
                    row[keep] = A[i, keep] if A[i, keep] != 0 else 1.0
                    A[i] = row
            b = rng.uniform(-2, 2, size=m)
            check_against_oracle(A, b)

    def test_degenerate_stack(self):
        # Many coincident constraints through the origin.
        A = np.array(
            [
                [1.0, 1.0],
                [2.0, 2.0],
                [1.0, -1.0],
                [-1.0, 1.0],
                [-1.0, -1.0],
                [-3.0, -3.0],
            ]
        )
        b = np.zeros(6)
        assert solve_feasibility(Polyhedron(A, b)).feasible

    def test_medium_scale_known_feasible(self):
        # b = A x* + nonnegative margin guarantees feasibility.
        rng = np.random.default_rng(99)
        for _ in range(15):
            m, n = int(rng.integers(20, 120)), int(rng.integers(10, 60))
            A = rng.uniform(-3, 3, size=(m, n))
            x_star = rng.uniform(-2, 2, size=n)
            b = A @ x_star + rng.uniform(0.0, 0.5, size=m)
            assert solve_feasibility(Polyhedron(A, b)).feasible

    def test_medium_scale_farkas_infeasible(self):
        # y >= 0 with y^T A = 0 and y^T b = -1 certifies infeasibility.
        rng = np.random.default_rng(100)
        for _ in range(15):
            m, n = int(rng.integers(20, 120)), int(rng.integers(10, 60))
            A = rng.uniform(-3, 3, size=(m - 1, n))
            y = rng.uniform(0.1, 1.0, size=m)
            last = -(y[:-1] @ A) / y[-1]
            b = rng.uniform(-1, 1, size=m)
            b[-1] = (-1.0 - y[:-1] @ b[:-1]) / y[-1]
            assert not solve_feasibility(Polyhedron(np.vstack([A, last]), b)).feasible

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_ITER", 1)
        rng = np.random.default_rng(5)
        A = rng.uniform(-2, 2, size=(8, 4))
        b = -np.abs(rng.uniform(1, 2, size=8))
        with pytest.raises(SolverError) as info:
            solve_feasibility(Polyhedron(A, b))
        # The seam knows no instance name; linprop adds the digest.
        assert (str(info.value), info.value.digest) == ("iteration cap 1 exceeded", "")

    def test_bounds_only_no_rows(self):
        res = solve_feasibility(
            Polyhedron(np.zeros((0, 2)), np.zeros(0), lower=np.array([1.0, -np.inf]), upper=np.array([2.0, 0.0]))
        )
        assert res.feasible
        assert res.x[0] == 1.0


class TestCheckResidual:
    """A point reported feasible is judged row by row, not by its summed violation."""

    @staticmethod
    def rows_over(excess):
        # Row i reads x_0 <= -excess[i], so x = 0 misses it by excess[i].
        m = len(excess)
        A = Triplets(np.arange(m), np.zeros(m, dtype=np.int64), np.ones(m), (m, 1))
        return A, np.zeros(1), -np.asarray(excess, dtype=np.float64)

    def test_many_rows_each_within_tolerance_pass(self):
        A, x, b = self.rows_over(np.full(2000, 9e-10))
        total = _check_residual(A, x, b, np.full(1, -np.inf), np.full(1, np.inf))
        assert total == pytest.approx(2000 * 9e-10)

    def test_one_row_beyond_the_bound_raises(self):
        A, x, b = self.rows_over([0.0, 2e-6, 0.0])
        with pytest.raises(SolverError, match="residual check"):
            _check_residual(A, x, b, np.full(1, -np.inf), np.full(1, np.inf))

    def test_one_bound_beyond_the_bound_raises(self):
        A, x, b = self.rows_over([0.0])
        with pytest.raises(SolverError, match="residual check"):
            _check_residual(A, x, b, np.full(1, 2e-6), np.full(1, np.inf))
        with pytest.raises(SolverError, match="residual check"):
            _check_residual(A, x, b, np.full(1, -np.inf), np.full(1, -2e-6))


@st.composite
def systems_with_a_point(draw):
    """``(A, b, y)``: a system that some x0 meets exactly, and any y >= 0.

    Rows come in part as equality pairs ``a x <= a x0``, ``-a x <= -a x0``,
    so some y cancel columns the way a certificate does.  A and y are
    integers, the only vectors ``refutes`` examines.
    """
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=6))
    A = np.array(rows)
    if draw(st.booleans()):
        A = np.vstack([A, -A])
    m = A.shape[0]
    x0 = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    gap = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    b = A @ x0 + np.array(draw(st.lists(gap, min_size=m, max_size=m)))
    weight = st.one_of(st.integers(0, 3), st.integers(0, 10**6)).map(float)
    y = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
    return A, b, y


class TestRefutes:
    """Farkas vectors, checked without a solver: integral y >= 0 with ``A^T y = 0`` and ``y^T b < 0``."""

    @given(systems_with_a_point())
    @settings(max_examples=300, deadline=None)
    def test_no_vector_refutes_a_system_with_a_known_point(self, system):
        A, b, y = system
        assert not refutes(Polyhedron(A, b), y)

    @staticmethod
    def below_zero(delta):
        """``x <= -delta`` and ``-x <= 0``: y = (1, 1) refutes once delta > 2 tol."""
        return Polyhedron([[1.0], [-1.0]], [-delta, 0.0]), np.ones(2)

    @staticmethod
    def pair(delta, a, box):
        """``a x <= beta`` and ``-a x <= -beta - delta``: y = (1, 1) refutes once delta > 2 tol."""
        a = np.asarray(a)
        beta = 0.7
        bound = np.full(a.size, box)
        return Polyhedron(np.vstack([a, -a]), [beta, -beta - delta], lower=-bound, upper=bound), np.ones(2)

    @pytest.mark.parametrize(
        "system",
        [
            lambda d: TestRefutes.below_zero(d),
            lambda d: TestRefutes.pair(d, [1.0, -2.0, 3.0], np.inf),
            lambda d: TestRefutes.pair(d, [1.0, -2.0, 3.0], 1.0),
        ],
        ids=["below-zero", "pair-free", "pair-boxed"],
    )
    def test_known_certificates(self, system):
        # Two rows each held within tol leave a point up to a gap of
        # 2 tol = tol * sum(y); past it, plus the rounding margin, none.  The
        # seam, which also sees the bounds, agrees.
        for delta in (0.0, 0.5 * FEAS_TOL, 1.9 * FEAS_TOL):
            poly, y = system(delta)
            assert not refutes(poly, y)
        for delta in (2.1 * FEAS_TOL, 1e-6, 1.0):
            poly, y = system(delta)
            assert refutes(poly, y) is True
            assert not solve_feasibility(poly).feasible

    @pytest.mark.parametrize(
        "y", [[1.0, -0.5], [1.0, np.nan], [1.0, np.inf], [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]],
        ids=["negative", "nan", "inf", "short", "long", "2-d"],
    )
    def test_malformed_vector_proves_nothing(self, y):
        poly, good = self.pair(1.0, [1.0, -2.0], np.inf)
        assert refutes(poly, good)
        assert not refutes(poly, y)

    def test_fractional_or_too_large_entries_prove_nothing(self):
        # The same certificate with half a multiplier, half a matrix, or
        # multipliers whose sums could pass 2^53: none is examined.
        poly, y = self.pair(1.0, [1.0, -2.0], np.inf)
        assert refutes(poly, y)
        assert not refutes(poly, 0.5 * y)
        A = poly.A
        halved = Polyhedron(Triplets(A.rows, A.cols, 0.5 * A.vals, A.shape), 0.5 * poly.b)
        assert not refutes(halved, y)
        assert not refutes(poly, 2.0**52 * y)

    def test_uncancelled_column_proves_nothing(self):
        # x <= -1 and -x <= 0: y = (1, 1) cancels x and refutes.  y = (1, 0)
        # leaves A^T y = 1 and y = (0, 1) leaves -1, though y^T b < 0 or = 0;
        # a bound x >= 0 would make y = (1, 0) a proof, but bounds play no
        # part in the check, so neither proves anything.
        poly = Polyhedron([[1.0], [-1.0]], [-1.0, 0.0])
        assert refutes(poly, [1.0, 1.0])
        assert not refutes(poly, [1.0, 0.0])
        assert not refutes(poly, [0.0, 1.0])
        assert not solve_feasibility(Polyhedron([[1.0]], [-1.0], lower=np.zeros(1))).feasible
