import json

import numpy as np
import pytest

import disttest.linprop as linprop
import disttest.simplex as simplex
from disttest.core import Distribution
from disttest.errors import ParameterError, StructureError
from disttest.linprop import (
    LinearProperty,
    Polyhedron,
    build_feasibility_lp,
    feasibility_report,
    linear_property_oracle,
    load_polyhedron,
    lp_feasible,
    save_polyhedron,
    uniformity_polyhedron,
)
from disttest.reference import simplex_grid, vertex_enumeration_feasible
from disttest.simplex import Triplets
from disttest.tester import HighEstimate, check_conditions

from conftest import holds_dense, random_pmf


def synthetic_estimate(rng, n, h_size) -> HighEstimate:
    """A HighEstimate-shaped object with uniform off-H mass."""
    pmf = random_pmf(rng, n)
    H = sorted(rng.choice(n, size=h_size, replace=False).tolist())
    rest = [i for i in range(n) if i not in set(H)]
    low = float(pmf[rest].sum())
    if rest:
        pmf[rest] = low / len(rest)
    return HighEstimate(H=frozenset(int(i) for i in H), d_tilde=Distribution(pmf), low_mass=low)


def uniformity_polyhedron_rows(n: int, eps: float) -> LinearProperty:
    """Row-by-row construction of the uniformity property, the reference for the vectorised one."""
    N = 2 * n
    budget = np.zeros(N)
    budget[n:] = 1.0
    rows, rhs = [budget], [float(eps)]
    for i in range(N):
        row = np.zeros(N)
        row[i] = -1.0
        rows.append(row)
        rhs.append(0.0)
    for i in range(n):
        up = np.zeros(N)
        up[i], up[n + i] = 1.0, -1.0
        dn = np.zeros(N)
        dn[i], dn[n + i] = -1.0, -1.0
        rows += [up, dn]
        rhs += [1.0 / n, -1.0 / n]
    return LinearProperty(Polyhedron(np.asarray(rows), np.asarray(rhs)), n)


def setdiff_feasibility_lp(prop, H, d_tilde, q, bound):
    """The step-5 system with the off-H set from ``setdiff1d``, the reference for the mask-based builder."""
    n = prop.n
    Hs = np.unique(np.fromiter(H, dtype=np.int64))
    base, h = prop.poly, Hs.size
    N = base.N
    tail_col = N + h
    V = tail_col + 1
    comp = np.setdiff1d(np.arange(n), Hs)
    tail_ref = float(d_tilde.pmf[comp].sum())
    ref = d_tilde.pmf[Hs]
    m0 = base.M
    up = m0 + 1 + 2 * np.arange(h)
    dn = up + 1
    slack = N + np.arange(h)
    tail_up = m0 + 1 + 2 * h
    tail_len = comp.size + 1
    ones_h, ones_c = np.ones(h), np.ones(comp.size)
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
    upper[comp] = np.minimum(upper[comp], 1.0 / (q * q) - linprop.EPS_STRICT)
    return Triplets(rows, cols, vals, (m0 + 3 + 2 * h, V)), b, lower, upper


class TestUniformityPolyhedron:
    @pytest.mark.parametrize("n", [1, 4, 400])
    def test_system_equals_the_folded_row_construction(self, n):
        # The reference writes -z_j <= 0 as rows, which the fold turns into
        # lower bounds of -0.0; the emitted system carries 0.0 as bounds.
        for eps in (0.0, 0.3):
            want = uniformity_polyhedron_rows(n, eps).poly
            got = uniformity_polyhedron(n, eps).poly
            assert got.A.shape == want.A.shape and got.strict_rows == want.strict_rows == frozenset()
            for mine, theirs in zip((got.A.rows, got.A.cols, got.A.vals, got.b, got.upper),
                                    (want.A.rows, want.A.cols, want.A.vals, want.b, want.upper)):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
            assert np.array_equal(got.lower, want.lower)
            if n >= 2:
                assert np.bincount(got.A.rows).min() == 2

    def test_set_up_never_sorts_its_rows(self, monkeypatch):
        # Rows emitted in canonical order pass _canonical's O(nnz) check;
        # sorting them instead costs seconds of set-up at n=10^6.
        def refuse(*args, **kwargs):
            raise AssertionError("set-up reached the sort in _canonical")

        monkeypatch.setattr(linprop.np, "argsort", refuse)
        with pytest.raises(AssertionError, match="reached the sort"):
            linprop._canonical(Triplets(np.array([1, 0]), np.array([0, 0]), np.array([1.0, 1.0]), (2, 1)))
        for n in (2, 200):
            for eps in (0.0, 0.1):
                prop = uniformity_polyhedron(n, eps)
                assert prop.contains(Distribution.uniform(n))

    def test_eps_zero_projects_to_uniform_only(self):
        prop = uniformity_polyhedron(4, 0.0)
        assert prop.contains(Distribution.uniform(4))
        assert not prop.contains(Distribution(np.array([0.26, 0.24, 0.25, 0.25])))

    def test_eps_small_classification(self):
        prop = uniformity_polyhedron(4, 0.1)
        assert prop.contains(Distribution.uniform(4))
        # Distance of (1,0,0,0) to uniform is 1.5 > 0.1 (direct summation).
        point = Distribution.point_mass(4, 0)
        direct = abs(1 - 0.25) + 3 * 0.25
        assert direct == 1.5
        assert not prop.contains(point)

    def test_eps_two_admits_everything(self, rng):
        prop = uniformity_polyhedron(2, 2.0)
        for _ in range(10):
            assert prop.contains(Distribution(random_pmf(rng, 2)))

    def test_parameter_checks(self):
        with pytest.raises(ParameterError):
            uniformity_polyhedron(0, 0.1)
        with pytest.raises(ParameterError):
            uniformity_polyhedron(4, 2.5)


class TestBuildFeasibilityLP:
    def test_degenerate_empty_h(self):
        # With H empty the system is the property plus the tail sandwich; it
        # is feasible exactly when some member has all masses below 1/q^2.
        prop = uniformity_polyhedron(4, 2.0)
        dt = Distribution.uniform(4)
        inst_ok = build_feasibility_lp(prop, frozenset(), dt, q=1, bound=2.0)
        assert inst_ok.poly.N == prop.poly.N + 1
        assert lp_feasible(inst_ok)
        inst_bad = build_feasibility_lp(prop, frozenset(), dt, q=10, bound=2.0)
        assert not lp_feasible(inst_bad)

    def test_uniform_everything_zero_slack(self):
        n = 6
        prop = uniformity_polyhedron(n, 0.0)
        dt = Distribution.uniform(n)
        inst = build_feasibility_lp(prop, frozenset(range(n)), dt, q=3, bound=0.0)
        assert lp_feasible(inst)

    def test_infeasible_example_confirmed_by_grid_search(self):
        prop = uniformity_polyhedron(4, 0.0)
        dt = Distribution(np.array([0.7, 0.1, 0.1, 0.1]))
        est = HighEstimate(H=frozenset({0}), d_tilde=dt, low_mass=0.3)
        inst = build_feasibility_lp(prop, est.H, dt, q=10, bound=0.2)
        assert not lp_feasible(inst)
        # Grid search at resolution 0.01: no pmf on the simplex lies in the
        # property and satisfies both conditions.
        uniform = Distribution.uniform(4)
        found = False
        for point in simplex_grid(4, 100):
            if np.abs(point - uniform.pmf).sum() > 0.0:
                continue  # eps = 0: only the uniform point is in the property
            if check_conditions(Distribution(point), est, q=10, bound=0.2):
                found = True
        assert not found

    def test_system_equals_the_setdiff_construction_byte_for_byte(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 60))
            prop = uniformity_polyhedron(n, float(rng.uniform(0.0, 0.5)))
            est = synthetic_estimate(rng, n, int(rng.integers(0, n + 1)))
            q, bound = int(rng.integers(1, 6)), float(rng.uniform(0.0, 1.0))
            got = build_feasibility_lp(prop, est.H, est.d_tilde, q, bound).poly
            A, b, lower, upper = setdiff_feasibility_lp(prop, est.H, est.d_tilde, q, bound)
            # The reference writes its rows in block order; the builder writes them canonical.
            A = linprop._canonical(A)
            assert got.A.shape == A.shape
            for mine, theirs in zip((got.A.rows, got.A.cols, got.A.vals, got.b, got.lower, got.upper),
                                    (A.rows, A.cols, A.vals, b, lower, upper)):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()

    def test_h_outside_domain_raises(self):
        # As check_conditions does: a ParameterError, from the builder and
        # from the oracle's member check alike.
        prop = uniformity_polyhedron(4, 0.1)
        for H in ({7}, {-1}):
            with pytest.raises(ParameterError, match="outside"):
                build_feasibility_lp(prop, H, Distribution.uniform(4), 2, 0.5)
            with pytest.raises(ParameterError, match="outside"):
                linear_property_oracle(prop)(H, Distribution.uniform(4), 2, 0.5)

    @pytest.mark.parametrize(
        "q, bound",
        [(2, np.nan), (2, -0.1), (2.5, 0.5), (np.float64(1.5), 0.5), (True, 0.5), (0, 0.5), (np.inf, 0.5)],
        ids=["nan-bound", "negative-bound", "fractional-q", "numpy-fractional-q", "boolean-q", "zero-q", "inf-q"],
    )
    def test_bad_bound_or_q_raises(self, q, bound):
        # A nan bound used to reach b (and the witness said False); q = 2.5 was read as 2.
        prop = uniformity_polyhedron(4, 0.1)
        oracle = linear_property_oracle(prop)
        d = Distribution.uniform(4)
        for ask in (lambda *a: build_feasibility_lp(prop, *a), oracle.witness, oracle):
            with pytest.raises(ParameterError):
                ask({0}, d, q, bound)

    def test_integral_q_of_any_type_reads_as_that_integer(self):
        prop = uniformity_polyhedron(4, 0.1)
        d = Distribution(np.array([0.4, 0.2, 0.2, 0.2]))
        want = build_feasibility_lp(prop, {0}, d, 2, 0.5).poly.digest()
        for q in (2.0, np.int32(2), np.float64(2.0)):
            assert build_feasibility_lp(prop, {0}, d, q, 0.5).poly.digest() == want

    @pytest.mark.parametrize(
        "H", [[0.7, 1], [np.float64(2.5)], [True]], ids=["fraction", "numpy-fraction", "boolean"]
    )
    def test_h_of_non_integers_raises(self, H):
        # Read as int64, these would be truncated to {0, 1}, {2} and {1}.
        prop = uniformity_polyhedron(4, 0.1)
        oracle = linear_property_oracle(prop)
        d = Distribution.uniform(4)
        with pytest.raises(ParameterError):
            build_feasibility_lp(prop, H, d, 2, 0.5)
        for ask in (oracle.witness, oracle):
            with pytest.raises(ParameterError):
                ask(H, d, 2, 0.5)


class TestLPFeasible:
    def test_trivial_examples(self):
        assert lp_feasible(Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])))
        assert not lp_feasible(Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])))

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 9))
            A = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-2, 2, size=m)
            assert lp_feasible(Polyhedron(A, b)) == vertex_enumeration_feasible(A, b)

    def test_strict_rows_relaxed_by_eps(self):
        # z < 1 strict alone is satisfiable.
        poly = Polyhedron(np.array([[1.0]]), np.array([1.0]), strict_rows=frozenset({0}))
        assert lp_feasible(poly)
        # A strict conflict wider than the feasibility tolerance is rejected;
        # one at exactly the boundary resolves feasible because the strict
        # shave (1e-12) sits inside the 1e-9 tolerance.
        poly2 = Polyhedron(
            np.array([[1.0], [-1.0]]), np.array([1.0, -1.0 - 1e-6]), strict_rows=frozenset({0})
        )
        assert not lp_feasible(poly2)
        poly3 = Polyhedron(
            np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), strict_rows=frozenset({0})
        )
        assert lp_feasible(poly3)


    @pytest.mark.parametrize("strict", [[0.7], [True], [np.nan], [2], [-1]], ids=["fraction", "bool", "nan", "past-m", "negative"])
    def test_strict_row_that_is_not_a_row_index_raises(self, strict):
        # 0.7 and True used to read as rows 0 and 1, and nan as a bare ValueError.
        with pytest.raises(StructureError, match="strict rows"):
            Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), strict_rows=strict)

    def test_strict_rows_of_numpy_integers_are_kept(self):
        poly = Polyhedron(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), strict_rows=np.array([1]))
        assert poly.strict_rows == frozenset({1})

    def test_declared_bounds_decide_and_enter_the_digest(self):
        A, b = [[1.0, 1.0]], [1.0]
        free, boxed = Polyhedron(A, b), Polyhedron(A, b, lower=[0.6, 0.6])
        assert free.lower.tolist() == [-np.inf, -np.inf] and free.upper.tolist() == [np.inf, np.inf]
        assert not boxed.lower.flags.writeable and not boxed.upper.flags.writeable
        assert lp_feasible(free) and not lp_feasible(boxed)
        assert free.digest() != boxed.digest()

    @pytest.mark.parametrize(
        "lower, upper",
        [([np.nan, 0.0], None), (None, [0.0, np.nan]), ([np.inf, 0.0], None), (None, [-np.inf, 0.0]),
         ([0.0], None), (None, [[0.0, 1.0]])],
        ids=["nan-lower", "nan-upper", "lower-plus-inf", "upper-minus-inf", "short", "2-d"],
    )
    def test_malformed_bounds_raise(self, lower, upper):
        with pytest.raises(StructureError, match="bounds"):
            Polyhedron([[1.0, 1.0]], [1.0], lower=lower, upper=upper)

    def test_fold_intersects_row_bounds_with_declared_ones(self):
        # x0 <= 2 and x1 >= 0 as rows, x0 <= 1 and x1 >= -1 declared; the two-variable row stays.
        A, b = [[1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [2.0, 0.0, 3.0]
        poly = Polyhedron(A, b, lower=[-np.inf, -1.0], upper=[1.0, np.inf])
        folded = linprop._fold(poly)
        assert (folded.M, folded.A.cols.tolist(), folded.b.tolist()) == (1, [0, 1], [3.0])
        assert folded.lower.tolist() == [-np.inf, 0.0] and folded.upper.tolist() == [1.0, np.inf]
        assert linprop._fold(folded) is folded

    # Empty systems read feasible: a strict row is shaved by EPS_STRICT = 1e-12, below FEAS_TOL = 1e-9,
    # and any point meets a row scaled by 1e-10 within FEAS_TOL.
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 6: strict and scaled rows are decided within FEAS_TOL")
    @pytest.mark.parametrize(
        "A, b, strict",
        [([[1.0]], [0.0], {0}), ([[1.0, 1.0]], [0.0], {0}), ([[1e-10, 1e-10]], [-1e-10], set())],
        ids=["x<0", "x+y<0", "scaled-x+y<=-1"],
    )
    def test_empty_strict_or_scaled_probe_is_infeasible(self, A, b, strict):
        assert not lp_feasible(Polyhedron(A, b, strict_rows=strict, lower=np.zeros(len(A[0]))))

    def test_unscaled_probe_is_infeasible(self):
        # The scaled probe at unit scale: x + y <= -1 with x, y >= 0.
        assert not lp_feasible(Polyhedron([[1.0, 1.0]], [-1.0], lower=[0.0, 0.0]))


class TestOracleInvariants:
    def test_monotone_in_bound(self, rng):
        prop = uniformity_polyhedron(8, 0.3)
        for _ in range(15):
            est = synthetic_estimate(rng, 8, int(rng.integers(1, 8)))
            b1, b2 = sorted(rng.uniform(0.0, 1.5, size=2))
            f1 = lp_feasible(build_feasibility_lp(prop, est.H, est.d_tilde, 4, b1))
            f2 = lp_feasible(build_feasibility_lp(prop, est.H, est.d_tilde, 4, b2))
            assert f2 or not f1

    def test_column_permutation_soundness(self, rng):
        n = 6
        prop = uniformity_polyhedron(n, 0.2)
        for _ in range(10):
            est = synthetic_estimate(rng, n, int(rng.integers(1, n)))
            Hs = sorted(est.H)
            rest = [i for i in range(n) if i not in est.H]
            old_of = Hs + rest  # new pmf label k corresponds to old label old_of[k]
            perm = old_of + [n + i for i in old_of]
            A = prop.poly.A
            moved = Triplets(A.rows, np.argsort(perm)[A.cols], A.vals, A.shape)
            # The constructor appends the (permuted) sum rows once more,
            # which leaves the feasible set as it is.
            poly = prop.poly
            prop_perm = LinearProperty(
                Polyhedron(moved, poly.b, poly.strict_rows, poly.lower[perm], poly.upper[perm]), n
            )
            dt_perm = Distribution(est.d_tilde.pmf[old_of])
            h_perm = frozenset(range(len(Hs)))
            bound = float(rng.uniform(0.0, 1.0))
            direct = lp_feasible(build_feasibility_lp(prop, est.H, est.d_tilde, 3, bound))
            fronted = lp_feasible(build_feasibility_lp(prop_perm, h_perm, dt_perm, 3, bound))
            assert direct == fronted

    def test_everything_property_accepts_any_compatible_estimate(self, rng):
        # eps = 2 admits every pmf, so the oracle answers true whenever the
        # heavy-element condition can be met (q = 1 caps coordinates at 1).
        prop = uniformity_polyhedron(6, 2.0)
        oracle = linear_property_oracle(prop)
        for _ in range(10):
            est = synthetic_estimate(rng, 6, int(rng.integers(1, 7)))
            assert oracle(est.H, est.d_tilde, 1, float(rng.uniform(0.0, 2.0)))

    def test_oracle_matches_direct_conditions_for_exact_uniformity(self, rng):
        # For eps = 0 the property is the single uniform point, so the LP
        # answer must coincide with evaluating both conditions directly.
        for _ in range(50):
            n = int(rng.integers(4, 11))
            prop = uniformity_polyhedron(n, 0.0)
            oracle = linear_property_oracle(prop)
            q = int(np.ceil(np.sqrt(n))) + 1  # q^2 > n
            est = synthetic_estimate(rng, n, int(rng.integers(1, n + 1)))
            bound = float(rng.uniform(0.0, 1.2))
            direct = check_conditions(Distribution.uniform(n), est, q, bound)
            assert oracle(est.H, est.d_tilde, q, bound) == direct
            assert lp_feasible(build_feasibility_lp(prop, est.H, est.d_tilde, q, bound)) == direct

    def test_eps_strict_relaxation_stable_on_margined_instances(self, rng, monkeypatch):
        prop = uniformity_polyhedron(6, 0.25)
        kept = 0
        for _ in range(20):
            est = synthetic_estimate(rng, 6, int(rng.integers(1, 6)))
            bound = float(rng.uniform(0.0, 1.0))
            inst = build_feasibility_lp(prop, est.H, est.d_tilde, 3, bound)
            rep = feasibility_report(inst)
            margin = rep.violation if not rep.feasible else np.inf
            if rep.feasible or margin > 1e-6:
                kept += 1
                for eps in (0.0, 1e-13, 1e-10):
                    monkeypatch.setattr(linprop, "EPS_STRICT", eps)
                    inst2 = build_feasibility_lp(prop, est.H, est.d_tilde, 3, bound)
                    assert lp_feasible(inst2) == rep.feasible
                monkeypatch.setattr(linprop, "EPS_STRICT", 1e-12)
        assert kept >= 10


class TestWitness:
    def test_witness_implies_the_lp_and_the_oracle_equals_it(self, rng):
        hits = misses = 0
        for _ in range(150):
            n = int(rng.integers(4, 11))
            prop = uniformity_polyhedron(n, float(rng.choice([0.0, 0.1, 0.3])))
            oracle = linear_property_oracle(prop)
            est = synthetic_estimate(rng, n, int(rng.integers(0, n + 1)))
            q, bound = int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.2))
            lp = lp_feasible(build_feasibility_lp(prop, est.H, est.d_tilde, q, bound))
            fired = oracle.witness(est.H, est.d_tilde, q, bound)
            assert lp or not fired
            assert oracle(est.H, est.d_tilde, q, bound) == lp
            hits += fired
            misses += not fired
        assert hits >= 1 and misses >= 1

    def test_oracle_reads_a_one_shot_h_twice(self):
        # The centre misses bound 0, so the LP reads H again; read from an
        # exhausted iterator, H would be empty and the system feasible.
        prop = uniformity_polyhedron(4, 0.2)
        dt = Distribution(np.array([0.4, 0.2, 0.2, 0.2]))
        oracle = linear_property_oracle(prop)
        assert not oracle.witness({0}, dt, 1, 0.0)
        assert not lp_feasible(build_feasibility_lp(prop, {0}, dt, 1, 0.0))
        assert not oracle(iter([0]), dt, 1, 0.0)

    def test_property_without_member_never_witnesses(self):
        prop = LinearProperty(uniformity_polyhedron(4, 0.0).poly, 4)
        assert prop.member is None
        oracle = linear_property_oracle(prop)
        dt = Distribution.uniform(4)
        assert not oracle.witness(range(4), dt, 3, 0.0)
        assert oracle(range(4), dt, 3, 0.0)


def centre_distance(n, est) -> float:
    """D(c) for the uniformity centre c = 1/n: its step-5 distance on H plus the off-H total's."""
    H = sorted(est.H)
    rest = np.setdiff1d(np.arange(n), H)
    pmf = est.d_tilde.pmf
    return float(np.abs(1.0 / n - pmf[H]).sum() + abs(rest.size / n - pmf[rest].sum()))


class TestFarkas:
    def test_certificate_cancels_every_column_and_prices_the_centre(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 30))
            eps = float(rng.choice([0.0, 0.1, 0.5]))
            prop = uniformity_polyhedron(n, eps)
            est = synthetic_estimate(rng, n, int(rng.integers(0, n + 1)))
            q, bound = int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.0))
            inst = build_feasibility_lp(prop, est.H, est.d_tilde, q, bound)
            y, s = inst.farkas, inst.poly
            assert set(np.unique(y)) <= {0.0, 1.0} and y.sum() == n + len(est.H) + 3
            assert not np.any(np.bincount(s.A.cols, weights=s.A.vals * y[s.A.rows], minlength=s.N))
            assert y @ s.b == pytest.approx(bound + eps - centre_distance(n, est), abs=1e-12)

    def test_refutation_implies_the_lp_and_the_oracle_equals_it(self, rng):
        refuted = 0
        for _ in range(150):
            n = int(rng.integers(2, 11))
            prop = uniformity_polyhedron(n, float(rng.choice([0.0, 0.1, 0.3])))
            oracle = linear_property_oracle(prop)
            est = synthetic_estimate(rng, n, int(rng.integers(0, n + 1)))
            q, bound = int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.2))
            inst = build_feasibility_lp(prop, est.H, est.d_tilde, q, bound)
            lp = lp_feasible(inst)
            assert not (inst.refuted() and lp)
            assert oracle(est.H, est.d_tilde, q, bound) == lp
            refuted += inst.refuted()
        assert refuted >= 10

    def test_property_with_a_member_but_no_ball_never_refutes(self, rng):
        ruled_out = 0
        for _ in range(40):
            n = int(rng.integers(2, 11))
            with_ball = uniformity_polyhedron(n, 0.1)
            bare = LinearProperty(with_ball.poly, n, member=with_ball.member)
            assert bare.ball is None
            est = synthetic_estimate(rng, n, int(rng.integers(0, n + 1)))
            call = (est.H, est.d_tilde, 2, float(rng.uniform(0.0, 0.5)))
            inst = build_feasibility_lp(bare, *call)
            assert inst.farkas is None and not inst.refuted()
            lp = lp_feasible(inst)
            assert linear_property_oracle(bare)(*call) == lp
            ruled_out += build_feasibility_lp(with_ball, *call).refuted()
        assert ruled_out >= 5

    def test_a_wrong_ball_only_fails_the_check(self):
        # Declare the budget as row 1, the first pair row: every row index is
        # in range, so the ball is accepted, but its vector proves nothing and
        # the LP decides.
        right = uniformity_polyhedron(4, 0.0)
        _, up, down = right.ball
        wrong = LinearProperty(right.poly, 4, member=right.member, ball=(1, up, down))
        d = Distribution(np.array([0.7, 0.1, 0.1, 0.1]))
        assert build_feasibility_lp(right, {0}, d, 10, 0.2).refuted()
        inst = build_feasibility_lp(wrong, {0}, d, 10, 0.2)
        assert not inst.refuted() and not lp_feasible(inst)
        assert not linear_property_oracle(wrong)({0}, d, 10, 0.2)


class TestBall:
    def test_uniformity_declares_its_rows(self):
        prop = uniformity_polyhedron(5, 0.1)
        budget, up, down = prop.ball
        assert (budget, up.tolist(), down.tolist()) == (0, [1, 3, 5, 7, 9], [2, 4, 6, 8, 10])
        assert up.dtype == down.dtype == np.int64
        assert not up.flags.writeable and not down.flags.writeable
        # The budget and pair rows read as the ball says, over z_i and s_i = column 5 + i.
        A, b = prop.poly.A, prop.poly.b
        rows = {}
        for r, c, v in zip(A.rows.tolist(), A.cols.tolist(), A.vals.tolist()):
            rows.setdefault(r, {})[c] = v
        assert rows[budget] == {5 + i: 1.0 for i in range(5)} and b[budget] == 0.1
        for i in range(5):
            assert rows[up[i]] == {i: 1.0, 5 + i: -1.0} and b[up[i]] == 0.2
            assert rows[down[i]] == {i: -1.0, 5 + i: -1.0} and b[down[i]] == -0.2

    def test_single_element_uniformity_has_no_ball(self):
        # Its budget row holds one slack and folds into a bound.
        assert uniformity_polyhedron(1, 0.1).ball is None

    def test_ball_needs_a_member(self):
        prop = uniformity_polyhedron(4, 0.1)
        with pytest.raises(ParameterError):
            LinearProperty(prop.poly, 4, ball=prop.ball)

    @pytest.mark.parametrize(
        "ball",
        [
            (0, [1, 3, 5], [2, 4, 6, 8]),
            (0, [1, 3, 5, 7], [2, 4, 6, 99]),
            (-1, [1, 3, 5, 7], [2, 4, 6, 8]),
            (0.0, [1, 3, 5, 7], [2, 4, 6, 8]),
            (0, [1.0, 3, 5, 7], [2, 4, 6, 8]),
            (0, [True, True, False, True], [2, 4, 6, 8]),
            (0, [[1, 3, 5, 7]], [2, 4, 6, 8]),
            (0, [1, 3, 5, 7]),
            7,
        ],
        ids=["short", "out-of-range", "negative", "float-budget", "float-rows", "boolean", "2-d", "pair", "scalar"],
    )
    def test_malformed_ball_raises(self, ball):
        prop = uniformity_polyhedron(4, 0.1)
        with pytest.raises(ParameterError):
            LinearProperty(prop.poly, 4, member=prop.member, ball=ball)


class TestMember:
    # z_0 <= 0.6 and z >= 0 over two coordinates, all of them pmf.
    POLY = Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([0.6, 0.0, 0.0]))

    def test_uniformity_carries_its_centre(self):
        prop = uniformity_polyhedron(5, 0.1)
        assert prop.member.tolist() == [0.2] * 5 + [0.0] * 5
        assert not prop.member.flags.writeable

    def test_member_within_tolerance_is_kept(self):
        prop = LinearProperty(self.POLY, 2, member=[0.6 + 5e-10, 0.4 - 5e-10])
        assert prop.member.tolist() == [0.6 + 5e-10, 0.4 - 5e-10]

    @pytest.mark.parametrize(
        "member",
        [[0.7, 0.3], [0.6 + 2e-9, 0.4 - 2e-9], [0.5, 0.6], [1.1, -0.1]],
        ids=["row", "row-past-tol", "not-a-pmf", "negative"],
    )
    def test_non_member_raises(self, member):
        with pytest.raises(ParameterError):
            LinearProperty(self.POLY, 2, member=member)

    @pytest.mark.parametrize("member", [[0.5], [0.5, 0.5, 0.0], [[0.5, 0.5]]], ids=["short", "long", "2-d"])
    def test_wrong_length_raises(self, member):
        with pytest.raises(ParameterError):
            LinearProperty(self.POLY, 2, member=member)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        with pytest.raises(ParameterError):
            LinearProperty(self.POLY, 2, member=[0.5, bad])


class TestLinearPropertyValidation:
    def test_dim_cap(self):
        poly = Polyhedron(np.zeros((1, 25)), np.zeros(1))
        with pytest.raises(ParameterError):
            LinearProperty(poly, n=2)

    def test_projection_dim_exceeds_columns(self):
        poly = Polyhedron(np.zeros((1, 3)), np.zeros(1))
        with pytest.raises(ParameterError):
            LinearProperty(poly, n=4)

    @pytest.mark.parametrize("n", [2.5, True, np.bool_(True)], ids=["fraction", "bool", "numpy-bool"])
    def test_n_must_be_an_integer(self, n):
        # int() read 4.9 as 4 and True as 1.
        poly = Polyhedron(np.zeros((1, 4)), np.zeros(1))
        for build in (lambda: LinearProperty(poly, n), lambda: uniformity_polyhedron(n, 0.0)):
            with pytest.raises(ParameterError, match="n must be an integer"):
                build()
        assert LinearProperty(poly, 2.0).n == uniformity_polyhedron(np.int64(2), 0.0).n == 2


class TestTripletStorage:
    def test_duplicates_summed_and_zeros_dropped(self):
        A = Triplets(
            np.array([1, 0, 1, 0, 1, 0]),
            np.array([0, 1, 0, 0, 1, 1]),
            np.array([2.0, 1.0, 3.0, 0.0, 4.0, -1.0]),
            (2, 2),
        )
        poly = Polyhedron(A, [1.0, 2.0])
        # Row 0 holds only zeros once (0,1) sums to 0; row 1 is (5, 4).
        assert poly.A.rows.tolist() == [1, 1]
        assert poly.A.cols.tolist() == [0, 1]
        assert poly.A.vals.tolist() == [5.0, 4.0]
        assert poly.A.shape == (2, 2)
        for part in (poly.A.rows, poly.A.cols, poly.A.vals, poly.b):
            assert not part.flags.writeable

    @pytest.mark.parametrize(
        "rows, cols, vals, dense",
        [
            ([0, 2], [0, 1], [1.0, 1.0], None),
            ([0, 1], [0, 2], [1.0, 1.0], None),
            ([0, -1], [0, 0], [1.0, 1.0], None),
            ([0, 1], [0, 1], [1.0, np.nan], [[1.0, 0.0], [0.0, np.nan]]),
            ([0, 1], [0, 1], [np.inf, 1.0], [[np.inf, 0.0], [0.0, 1.0]]),
            ([0.0, 1.0], [0, 1], [1.0, 1.0], None),
            ([0, 1], [0.5, 1], [1.0, 1.0], None),
            ([0, 1], [True, False], [1.0, 1.0], None),
            ([0, 1], [0], [1.0, 1.0], None),
            ([[0, 1]], [[0, 1]], [[1.0, 1.0]], None),
        ],
        ids=[
            "row-out", "col-out", "negative", "nan", "inf", "float-rows", "fractional-cols", "bool-cols",
            "lengths", "2-d",
        ],
    )
    def test_malformed_triplets_rejected(self, rows, cols, vals, dense):
        # The matrix checks itself when built, so every route that builds one
        # raises the same error: Polyhedron and LinearProperty hold triplets,
        # and the solve seam takes a Polyhedron.
        with pytest.raises(StructureError):
            Triplets(np.array(rows), np.array(cols), np.array(vals), (2, 2))
        if dense is not None:
            for build in (
                lambda: Polyhedron(dense, [0.0, 0.0]),
                lambda: LinearProperty(Polyhedron(dense, [0.0, 0.0]), 2),
            ):
                with pytest.raises(StructureError):
                    build()

    @pytest.mark.parametrize(
        "shape", [(2.5, 1.9), (True, 1), (2, np.bool_(False)), (2, -1), (2,), (2, 2, 2), None],
        ids=["fractions", "bool-rows", "numpy-bool-cols", "negative", "one-dimension", "three-dimensions", "none"],
    )
    def test_shape_must_be_two_integers_at_least_zero(self, shape):
        # int() read (2.5, 1.9) as (2, 1) and True as 1.
        with pytest.raises(StructureError, match="shape must be two integers"):
            Triplets(np.array([0]), np.array([0]), np.array([1.0]), shape)
        assert Triplets(np.array([1]), np.array([0]), np.array([1.0]), (2.0, np.int64(1))).shape == (2, 1)

    @pytest.mark.parametrize(
        "build",
        [Triplets.from_dense, lambda A: Polyhedron(A, [1.0, 1.0])],
        ids=["from_dense", "Polyhedron"],
    )
    @pytest.mark.parametrize(
        "A", [np.ones((1, 1, 1)), [[1.0], [1.0, 2.0]], [[1.0, 2.0], [[3.0], 4.0]]], ids=["3-d", "ragged", "nested"]
    )
    def test_dense_matrix_that_is_not_2d_raises(self, build, A):
        # These raised numpy's bare ValueError.
        with pytest.raises(StructureError):
            build(A)

    def test_flat_dense_matrix_is_one_row(self):
        assert Polyhedron([1.0, 2.0], [1.0]).A.shape == (1, 2)
        t = Triplets.from_dense([1.0, 0.0, 2.0])
        assert t.shape == (1, 3)
        assert (t.rows.tolist(), t.cols.tolist(), t.vals.tolist()) == ([0, 0], [0, 2], [1.0, 2.0])

    def test_dense_and_triplet_forms_agree(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            dense = rng.uniform(-2, 2, size=(m, n)) * (rng.random((m, n)) < 0.5)
            b = rng.uniform(-2, 2, size=m)
            t = Triplets.from_dense(dense)
            # Out of order, every entry split into two halves, plus an explicit zero.
            rows = np.concatenate([t.rows, t.rows, [m - 1]])
            cols = np.concatenate([t.cols, t.cols, [n - 1]])
            vals = np.concatenate([t.vals / 2, t.vals / 2, [0.0]])
            order = rng.permutation(rows.size)
            scrambled = Triplets(rows[order], cols[order], vals[order], (m, n))
            a, c = Polyhedron(dense, b), Polyhedron(scrambled, b)
            assert a.digest() == c.digest()
            assert holds_dense(c.A, dense)
            assert LinearProperty(a, 1).poly.digest() == LinearProperty(c, 1).poly.digest()

    def test_uniformity_at_n_10_4_is_stored_sparse(self):
        n = 10**4
        prop = uniformity_polyhedron(n, 0.0)
        # The budget, 2n pair rows and two sum rows hold n, 4n and 2n
        # entries; every variable's sign is a bound, not a row.
        assert prop.poly.A.shape == (2 * n + 3, 2 * n)
        assert prop.poly.A.nnz == 7 * n
        assert np.all(prop.poly.lower == 0.0)


def assert_canonical(poly: Polyhedron) -> None:
    """``poly.A`` is, byte for byte, what ``_canonical`` makes of it: row-major, unique, no zeros."""
    got, want = poly.A, linprop._canonical(poly.A)
    assert got.shape == want.shape
    for mine, theirs in zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals)):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


class TestCanonicalSystems:
    """Every system the library builds is canonical, so the solve seam and ``refutes`` read it as it is."""

    @pytest.mark.parametrize("n", [1, 2, 200])
    def test_uniformity_property(self, n):
        assert_canonical(uniformity_polyhedron(n, 0.1).poly)

    def test_property_loaded_from_its_file(self, tmp_path):
        save_polyhedron(uniformity_polyhedron(50, 0.1).poly, tmp_path / "u.json")
        loaded = load_polyhedron(tmp_path / "u.json")
        assert_canonical(loaded)
        assert_canonical(LinearProperty(loaded, 50).poly)

    @pytest.mark.parametrize(
        "b, consistent", [([2.0, -1.0, 5.0, 1.0], True), ([0.0, -1.0, 5.0, 1.0], False)],
        ids=["consistent", "contradictory"],
    )
    def test_fold_of_singleton_rows(self, b, consistent):
        # x <= b0 and x >= -b1 fold into bounds unless they cross; the other
        # two rows, one of them strict, stay rows either way.
        poly = Polyhedron([[1.0, 0.0], [-1.0, 0.0], [1.0, 1.0], [2.0, -1.0]], b, frozenset({3}))
        folded = linprop._fold(poly)
        assert folded.M == (2 if consistent else 4)
        assert_canonical(folded)

    def test_system_contains_solves(self, monkeypatch):
        seen = []

        def record(poly, measure_violation=True):
            seen.append(poly)
            return solve(poly, measure_violation)

        solve = linprop.solve_feasibility
        monkeypatch.setattr(linprop, "solve_feasibility", record)
        prop = uniformity_polyhedron(20, 0.1)
        assert prop.contains(Distribution.uniform(20))
        assert not prop.contains(Distribution.point_mass(20, 0))
        assert len(seen) == 2
        for poly in seen:
            assert_canonical(poly)

    @pytest.mark.parametrize("h_size", [0, 7, 30], ids=["empty", "partial", "full"])
    def test_step5_instance(self, rng, h_size):
        prop = uniformity_polyhedron(30, 0.1)
        est = synthetic_estimate(rng, 30, h_size)
        assert_canonical(build_feasibility_lp(prop, est.H, est.d_tilde, 3, 0.4).poly)

    def test_solving_a_step5_instance_never_canonicalizes(self, monkeypatch):
        # The seam trusts the instance's rows, so neither verdict nor the
        # elastic solve that measures the violation sorts them again.
        prop = uniformity_polyhedron(8, 0.0)
        near = build_feasibility_lp(prop, range(4), Distribution.uniform(8), 2, 0.5)
        far = build_feasibility_lp(prop, [0], Distribution.point_mass(8, 0), 2, 0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("the solve reached _canonical")

        monkeypatch.setattr(simplex, "_canonical", refuse)
        monkeypatch.setattr(linprop, "_canonical", refuse)
        assert lp_feasible(near) and feasibility_report(near).feasible
        assert not lp_feasible(far)
        report = feasibility_report(far)
        assert not report.feasible and report.violation > 0.1


class TestPolyhedronFiles:
    def test_round_trip(self, tmp_path):
        poly = Polyhedron(
            np.array([[1.0, -2.0], [0.5, 0.25]]),
            np.array([1.0, -0.5]),
            strict_rows=frozenset({1}),
        )
        path = tmp_path / "p.json"
        save_polyhedron(poly, path)
        loaded = load_polyhedron(path)
        assert loaded.digest() == poly.digest()
        assert loaded.strict_rows == poly.strict_rows

    def test_file_holds_the_triplets(self, tmp_path):
        path = tmp_path / "p.json"
        save_polyhedron(Polyhedron([[0.0, 2.0], [-1.0, 0.0]], [1.0, 0.5], frozenset({0})), path)
        assert json.loads(path.read_text()) == {
            "M": 2, "N": 2, "rows": [0, 1], "cols": [1, 0], "vals": [2.0, -1.0], "b": [1.0, 0.5], "strict_rows": [0],
        }

    def test_bounds_are_written_as_singleton_rows(self, tmp_path):
        path = tmp_path / "p.json"
        poly = Polyhedron([[1.0, 1.0]], [1.0], lower=[0.0, -np.inf], upper=[np.inf, 0.5])
        save_polyhedron(poly, path)
        assert json.loads(path.read_text()) == {
            "M": 3, "N": 2, "rows": [0, 0, 1, 2], "cols": [0, 1, 0, 1], "vals": [1.0, 1.0, -1.0, 1.0],
            "b": [1.0, 0.0, 0.5], "strict_rows": [],
        }
        # The fold reads the rows back as the bounds they were written from.
        assert linprop._fold(load_polyhedron(path)).digest() == poly.digest()

    @pytest.mark.parametrize("M", [0, 1, 5, 40])
    def test_round_trip_keeps_digest(self, tmp_path, M):
        rng = np.random.default_rng(M)
        for _ in range(10):
            N = int(rng.integers(1, 30))
            nnz = int(rng.integers(0, M * N + 1))
            A = Triplets(rng.integers(0, max(M, 1), nnz), rng.integers(0, N, nnz), rng.normal(size=nnz), (M, N))
            strict = frozenset(rng.choice(M, size=int(rng.integers(0, M + 1)), replace=False).tolist())
            poly = Polyhedron(A, rng.normal(size=M), strict)
            path = tmp_path / "p.json"
            save_polyhedron(poly, path)
            loaded = load_polyhedron(path)
            assert loaded.digest() == poly.digest()
            assert loaded.strict_rows == poly.strict_rows

    def test_dense_file_loads_to_the_triplet_files_digest(self, tmp_path):
        rng = np.random.default_rng(7)
        for _ in range(10):
            M, N = int(rng.integers(0, 8)), int(rng.integers(1, 6))
            dense = rng.normal(size=(M, N)) * (rng.random((M, N)) < 0.4)
            b, strict = rng.normal(size=M).tolist(), [0][:M]
            dense_path, triplet_path = tmp_path / "dense.json", tmp_path / "triplets.json"
            doc = {"M": M, "N": N, "A": dense.ravel().tolist(), "b": b, "strict_rows": strict}
            dense_path.write_text(json.dumps(doc))
            digest = load_polyhedron(dense_path).digest()
            assert digest == Polyhedron(dense, b, frozenset(strict)).digest()
            save_polyhedron(load_polyhedron(dense_path), triplet_path)
            assert load_polyhedron(triplet_path).digest() == digest

    @pytest.mark.parametrize(
        "change",
        [
            {"vals": [1.0]},
            {"rows": [0, True]},
            {"cols": [0, 0.5]},
            {"cols": [0, 1.0]},
            {"rows": [0, 2]},
            {"cols": [-1, 1]},
            {"vals": [1.0, float("nan")]},
            {"vals": [1.0, "HUGE"]},
            {"vals": None},
            {"A": [1.0, 0.0, 0.0, 1.0]},
            {"rows": None, "cols": None, "vals": None},
            {"rows": "01"},
        ],
        ids=[
            "lengths", "boolean-row", "fractional-col", "float-col", "row-outside", "negative-col", "nan", "1e400",
            "missing-vals", "both-forms", "neither-form", "not-an-array",
        ],
    )
    def test_reader_rejects_malformed_triplets(self, tmp_path, change):
        doc = {"M": 2, "N": 2, "rows": [0, 1], "cols": [0, 1], "vals": [1.0, 1.0], "b": [0.0, 1.0]}
        doc.update(change)
        doc = {key: value for key, value in doc.items() if value is not None}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1e400"))
        with pytest.raises(StructureError):
            load_polyhedron(path)

    def test_uniformity_file_at_n_10_4_is_small(self, tmp_path):
        poly = uniformity_polyhedron(10**4, 0.1).poly
        path = tmp_path / "u.json"
        save_polyhedron(poly, path)
        assert path.stat().st_size < 2 * 2**20
        # The file writes the 2n lower bounds as rows, and the fold reads them back.
        assert load_polyhedron(path).M == poly.M + 2 * 10**4
        assert linprop._fold(load_polyhedron(path)).digest() == poly.digest()

    def test_reader_rejects_wrong_lengths(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"M": 2, "N": 2, "A": [1.0, 2.0, 3.0], "b": [0.0, 1.0]}))
        with pytest.raises(StructureError):
            load_polyhedron(path)

    def test_reader_rejects_bad_strict_rows(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(
            json.dumps({"M": 1, "N": 1, "A": [1.0], "b": [0.0], "strict_rows": [4]})
        )
        with pytest.raises(StructureError):
            load_polyhedron(path)

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[1, 2")
        with pytest.raises(StructureError):
            load_polyhedron(path)

    @pytest.mark.parametrize("field", ["A", "b"])
    def test_reader_rejects_integer_beyond_float64(self, tmp_path, field):
        doc = {"M": 1, "N": 1, "A": [1.0], "b": [0.0]}
        doc[field] = ["HUGE"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 400))
        with pytest.raises(StructureError, match="finite"):
            load_polyhedron(path)
