"""The solve seam: HiGHS (scipy's bindings) behind ``simplex.solve_feasibility``.

scipy is imported inside the seam, so importing disttest, the learner, the
tester's set-up path, a tester call that the property's known member
accepts and one that the member's Farkas vector rejects leave it unloaded.  ``scipy.optimize.linprog``, which
drives the same HiGHS through its own Python layer, is the reference the seam
must match bit for bit.
"""

import os
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import disttest.simplex as simplex
from disttest.core import Distribution, SamplingOracle
from disttest.errors import ParameterError, SolverError, StructureError
from disttest.linprop import (
    LinearPropertyOracle,
    Polyhedron,
    build_feasibility_lp,
    feasibility_report,
    fold_polyhedron,
    lp_feasible,
    uniformity_polyhedron,
)
from disttest.simplex import FEAS_TOL, Triplets, solve_feasibility
from disttest.tester import derive_params, estimate_high_part

SRC = Path(__file__).resolve().parents[1] / "src"

TRIVIAL = (np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), 1.0)
EQUALITY_PAIR = (
    np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([1.0, -1.0, -0.6, -0.6]),
    0.2,
)


def criterion_06_systems(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nv = int(rng.integers(1, 6))
        mr = int(rng.integers(1, 9))
        yield rng.uniform(-2, 2, size=(mr, nv)), rng.uniform(-2, 2, size=mr)


def linprog_reference(A: Triplets, b, lower, upper, cost=None):
    """The seam's HiGHS solve made through ``linprog``, with the seam's tolerance and iteration cap."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    return linprog(
        np.zeros(A.shape[1]) if cost is None else cost,
        A_ub=csr_array((A.vals, (A.rows, A.cols)), shape=A.shape),
        b_ub=b,
        bounds=np.column_stack([lower, upper]),
        method="highs",
        options={"primal_feasibility_tolerance": FEAS_TOL, "maxiter": simplex.MAX_ITER},
    )


def elastic_reference(system) -> float:
    """Least total row violation of a folded system, by ``linprog`` on its elastic form."""
    m, n = system.A.shape
    k = np.arange(m)
    elastic = Triplets(
        np.concatenate([system.A.rows, k]),
        np.concatenate([system.A.cols, n + k]),
        np.concatenate([system.A.vals, np.full(m, -1.0)]),
        (m, n + m),
    )
    res = linprog_reference(
        elastic,
        system.b,
        np.concatenate([system.lower, np.zeros(m)]),
        np.concatenate([system.upper, np.full(m, np.inf)]),
        cost=np.concatenate([np.zeros(n), np.ones(m)]),
    )
    assert res.status == 0
    return float(res.fun)


def step5_estimates(n: int, lam: int):
    """Tester parameters and six H estimates: three on uniform input, three on half-support input."""
    params = derive_params(lam, 0.1, 0.3, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        estimates = [
            estimate_high_part(SamplingOracle(dist, seed), params, n)
            for dist in (Distribution.uniform(n), Distribution.uniform_on(range(n // 2), n))
            for seed in range(3)
        ]
    return params, estimates


NAN, INF = float("nan"), float("inf")
# Each system is feasible at the start point but for the bad entry, so a
# missing check shows as a feasible verdict.  A malformed matrix raises
# StructureError when its Triplets are built, so "triplet-outside" is built in
# the test body; the seam raises ParameterError on b and the bounds.
BAD_INPUTS = {
    "nan-in-b": ([[1.0]], [NAN], None, None, ParameterError),
    "inf-in-b": ([[1.0]], [INF], None, None, ParameterError),
    "nan-in-A": ([[NAN]], [1.0], None, None, StructureError),
    "inf-in-A": ([[-INF]], [1.0], None, None, StructureError),
    "nan-lower": ([[1.0]], [1.0], [NAN], None, ParameterError),
    "nan-upper": ([[1.0]], [1.0], None, [NAN], ParameterError),
    "lower-plus-inf": ([[1.0]], [1.0], [INF], None, ParameterError),
    "upper-minus-inf": ([[1.0]], [1.0], None, [-INF], ParameterError),
    "b-too-short": ([[1.0], [1.0]], [1.0], None, None, ParameterError),
    "lower-too-long": ([[1.0]], [1.0], [0.0, 0.0], None, ParameterError),
    "triplet-outside": (
        lambda: Triplets(np.array([0]), np.array([1]), np.array([1.0]), (1, 1)), [1.0], None, None, StructureError
    ),
}


class TestSeam:
    @pytest.mark.parametrize("system", [TRIVIAL, EQUALITY_PAIR], ids=["trivial", "equality-pair"])
    def test_infeasible_violation_on_both_backends(self, system):
        A, b, want = system
        res = solve_feasibility(A, b)
        assert not res.feasible
        assert res.violation == pytest.approx(want, abs=1e-8)

    def test_violation_skipped_when_not_asked(self):
        A, b, _ = EQUALITY_PAIR
        res = solve_feasibility(A, b, measure_violation=False)
        assert not res.feasible and np.isnan(res.violation)

    def test_triplets_and_dense_rows_agree(self):
        for A, b in criterion_06_systems(7, 60):
            t = simplex.Triplets.from_dense(A)
            assert np.array_equal(np.asarray(t), A)
            x = np.linspace(-1.0, 1.0, A.shape[1])
            assert np.allclose(t @ x, A @ x, rtol=0, atol=1e-12)
            # Every entry split into two halves at one coordinate, which add up exactly.
            halves = simplex.Triplets(
                np.concatenate([t.rows, t.rows]),
                np.concatenate([t.cols, t.cols]),
                np.concatenate([t.vals / 2, t.vals / 2]),
                t.shape,
            )
            assert np.array_equal(np.asarray(halves), A)
            dense = solve_feasibility(A, b)
            for sparse in (solve_feasibility(t, b), solve_feasibility(halves, b)):
                assert sparse.feasible == dense.feasible
                if not dense.feasible:
                    assert sparse.violation == dense.violation

    def test_system_without_variables(self):
        # HiGHS calls a model without columns empty rather than infeasible.
        res = solve_feasibility(np.zeros((3, 0)), [-1.0, 2.0, -0.5])
        assert (res.feasible, res.violation, res.x, res.iterations) == (False, 1.5, None, 0)
        assert solve_feasibility(np.zeros((2, 0)), [0.0, 2.0]).feasible

    @pytest.mark.parametrize("A, b, lower, upper, error", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    def test_bad_input_is_rejected_before_any_solve(self, A, b, lower, upper, error):
        with pytest.raises(error):
            solve_feasibility(A() if callable(A) else A, b, lower, upper)

    def test_iteration_cap_names_the_polyhedron_lazily(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_ITER", 1)
        rng = np.random.default_rng(5)
        poly = Polyhedron(rng.uniform(-2, 2, size=(8, 4)), -np.abs(rng.uniform(1, 2, size=8)))
        with pytest.raises(SolverError) as info:
            lp_feasible(poly)
        digest = poly.digest()
        assert info.value.digest == digest
        # The seam raises without a digest; lp_feasible adds it, once.
        assert str(info.value) == f"iteration cap 1 exceeded [instance {digest}]"


class TestBackendsAgree:
    @pytest.mark.parametrize("n, lam", [(64, 30), (200, 50)])
    def test_step5_instances_from_the_tester(self, n, lam):
        params, estimates = step5_estimates(n, lam)
        prop = uniformity_polyhedron(n, 0.0)
        verdicts = []
        for est in estimates:
            inst = build_feasibility_lp(prop, est.H, est.d_tilde, params.q, params.bound)
            verdicts.append(lp_feasible(inst))
            system = inst.poly
            got = solve_feasibility(system.A, system.b, system.lower, system.upper, measure_violation=False)
            want = linprog_reference(system.A, system.b, system.lower, system.upper)
            assert got.feasible == (want.status == 0) and want.status in (0, 2)
            assert got.iterations == want.nit
            if got.feasible:
                assert got.x.tobytes() == want.x.tobytes()
        assert verdicts == [True] * 3 + [False] * 3

    def test_violation_matches_linprog_on_random_systems(self):
        infeasible = 0
        for A, b in criterion_06_systems(11, 120):
            poly = Polyhedron(A, b)
            report = feasibility_report(poly)
            if not report.feasible:
                infeasible += 1
                assert report.violation == elastic_reference(fold_polyhedron(poly))
        assert infeasible >= 20

    @pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.3])
    def test_witness_implies_the_lp_on_tester_estimates(self, eps):
        # The step5_estimates instances plus estimates on mixtures of uniform
        # and half-support input.
        n = 200
        params, estimates = step5_estimates(n, 50)
        half = Distribution.uniform_on(range(n // 2), n).pmf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for t in (0.05, 0.2, 0.5):
                mixed = Distribution((1 - t) / n + t * half)
                estimates += [estimate_high_part(SamplingOracle(mixed, seed), params, n) for seed in (0, 1)]
        oracle = LinearPropertyOracle(uniformity_polyhedron(n, eps))
        fired, refuted = [], []
        for est in estimates:
            call = (est.H, est.d_tilde, params.q, params.bound)
            inst = build_feasibility_lp(oracle.prop, *call)
            lp = lp_feasible(inst)
            fired.append(oracle.witness(*call))
            refuted.append(inst.refuted())
            assert lp or not fired[-1]
            assert not (lp and refuted[-1])
            assert oracle(*call) == lp
        assert any(fired) and not all(fired)
        assert any(refuted)
        # With a positive radius some call needs the LP: on the 0.2 mixtures
        # the centre misses, yet the LP finds a member.
        assert eps == 0 or not all(f or r for f, r in zip(fired, refuted))

    def test_one_oracle_shared_by_two_threads_gives_the_serial_verdicts(self):
        n = 200
        params, estimates = step5_estimates(n, 50)
        oracle = LinearPropertyOracle(uniformity_polyhedron(n, 0.0))
        calls = [(est.H, est.d_tilde, params.q, params.bound) for est in estimates] * 4
        serial = [oracle(*call) for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(oracle, *call) for call in calls]
                shared = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert serial == [True] * 3 + [False] * 3 + serial[:6] * 3
        assert shared == serial


def test_import_learner_and_tester_setup_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import disttest\n"
        "from disttest import Distribution, SamplingOracle, learn_adaptive\n"
        "from disttest.linprop import linear_property_oracle, uniformity_polyhedron\n"
        "from disttest.tester import Verdict, derive_params, tolerant_test\n"
        "learn_adaptive(SamplingOracle(Distribution.uniform_on(range(8), 1000), 1), 0.0, 0.5, 1000)\n"
        "prop = linear_property_oracle(uniformity_polyhedron(400, 0.0))\n"
        "params = derive_params(50, 0.1, 0.3, 400)\n"
        "oracle = SamplingOracle(Distribution.uniform(400), 1)\n"
        "assert tolerant_test(oracle, prop, params, 400) is Verdict.ACCEPT\n"
        "oracle = SamplingOracle(Distribution.uniform_on(range(200), 400), 1)\n"
        "assert tolerant_test(oracle, prop, params, 400) is Verdict.REJECT\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
