"""The two backends behind the solve seam: HiGHS (scipy) and the dense phase 1.

HiGHS decides whenever ``scipy.optimize`` imports; hiding it from
``sys.modules`` makes the seam fall back to the dense phase-1 simplex, which
is the reference the HiGHS verdicts are compared against.
"""

import os
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import disttest.simplex as simplex
from disttest.core import Distribution, SamplingOracle
from disttest.errors import SolverError
from disttest.linprop import (
    Polyhedron,
    build_feasibility_lp,
    feasibility_report,
    lp_feasible,
    uniformity_polyhedron,
)
from disttest.simplex import solve_feasibility
from disttest.tester import derive_params, estimate_high_part

pytest.importorskip("scipy.optimize")

SRC = Path(__file__).resolve().parents[1] / "src"

TRIVIAL = (np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]), 1.0)
EQUALITY_PAIR = (
    np.array([[1.0, 1.0], [-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]]),
    np.array([1.0, -1.0, -0.6, -0.6]),
    0.2,
)


@contextmanager
def dense_backend(monkeypatch):
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "scipy.optimize", None)
        yield


def both(monkeypatch, solve):
    """``solve()`` on HiGHS, then on the dense fallback."""
    highs = solve()
    with dense_backend(monkeypatch):
        dense = solve()
    return highs, dense


def criterion_06_systems(seed: int, count: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nv = int(rng.integers(1, 6))
        mr = int(rng.integers(1, 9))
        yield rng.uniform(-2, 2, size=(mr, nv)), rng.uniform(-2, 2, size=mr)


class TestSeam:
    def test_fallback_runs_with_scipy_hidden(self, monkeypatch):
        calls = []
        phase1 = simplex._phase1

        def spy(*args):
            calls.append(args)
            return phase1(*args)

        monkeypatch.setattr(simplex, "_phase1", spy)
        A, b, _ = EQUALITY_PAIR
        assert not solve_feasibility(A, b).feasible
        assert not calls
        with dense_backend(monkeypatch):
            assert not solve_feasibility(A, b).feasible
            assert solve_feasibility(A[:1], b[:1]).feasible is True
        assert len(calls) == 1  # A[:1] x <= b[:1] holds at the start point

    @pytest.mark.parametrize("system", [TRIVIAL, EQUALITY_PAIR], ids=["trivial", "equality-pair"])
    def test_infeasible_violation_on_both_backends(self, monkeypatch, system):
        A, b, want = system
        highs, dense = both(monkeypatch, lambda: solve_feasibility(A, b))
        for res in (highs, dense):
            assert not res.feasible
            assert res.violation == pytest.approx(want, abs=1e-8)

    def test_violation_skipped_when_not_asked(self):
        A, b, _ = EQUALITY_PAIR
        res = solve_feasibility(A, b, measure_violation=False)
        assert not res.feasible and np.isnan(res.violation)

    def test_triplets_and_dense_rows_agree(self, monkeypatch):
        for A, b in criterion_06_systems(7, 60):
            t = simplex.Triplets.from_dense(A)
            assert np.array_equal(np.asarray(t), A)
            x = np.linspace(-1.0, 1.0, A.shape[1])
            assert np.allclose(t @ x, A @ x, rtol=0, atol=1e-12)
            highs, dense = both(
                monkeypatch,
                lambda: (solve_feasibility(A, b).feasible, solve_feasibility(t, b).feasible),
            )
            assert highs[0] == highs[1] and dense[0] == dense[1]

    def test_iteration_cap_names_the_polyhedron_lazily(self, monkeypatch):
        rng = np.random.default_rng(5)
        poly = Polyhedron(rng.uniform(-2, 2, size=(8, 4)), -np.abs(rng.uniform(1, 2, size=8)))
        for hide in (False, True):
            with monkeypatch.context() as m:
                if hide:
                    m.setitem(sys.modules, "scipy.optimize", None)
                with pytest.raises(SolverError) as info:
                    lp_feasible(poly, max_iter=1)
            assert info.value.digest == poly.digest()


class TestBackendsAgree:
    def test_criterion_06_style_systems(self, monkeypatch):
        infeasible = 0
        for A, b in criterion_06_systems(2024, 400):
            poly = Polyhedron(A, b)
            highs, dense = both(monkeypatch, lambda: feasibility_report(poly))
            assert highs.feasible == dense.feasible, f"A={A}\nb={b}"
            if not highs.feasible:
                infeasible += 1
                # The dense phase 1 only bounds the least violation from above.
                assert highs.violation <= dense.violation + 1e-8
        assert infeasible >= 50

    @pytest.mark.parametrize("n, lam", [(64, 30), (200, 50)])
    def test_step5_instances_from_the_tester(self, monkeypatch, n, lam):
        params = derive_params(lam, 0.1, 0.3, n)
        prop = uniformity_polyhedron(n, 0.0)
        verdicts = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for dist in (Distribution.uniform(n), Distribution.uniform_on(range(n // 2), n)):
                for seed in range(3):
                    est = estimate_high_part(SamplingOracle(dist, seed), params, n)
                    inst = build_feasibility_lp(prop, est.H, est.d_tilde, params.q, params.bound)
                    highs, dense = both(monkeypatch, lambda: lp_feasible(inst))
                    assert highs == dense
                    verdicts.append(highs)
        assert verdicts == [True] * 3 + [False] * 3


def test_import_and_learner_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import disttest\n"
        "from disttest import Distribution, SamplingOracle, learn_adaptive\n"
        "learn_adaptive(SamplingOracle(Distribution.uniform_on(range(8), 1000), 1), 0.0, 0.5, 1000)\n"
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
