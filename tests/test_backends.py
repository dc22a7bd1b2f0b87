"""The solve seam: HiGHS (scipy) behind ``simplex.solve_feasibility``.

scipy is imported inside the seam, so importing disttest, the learner and the
tester's set-up path leave it unloaded.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import disttest.simplex as simplex
from disttest.core import Distribution, SamplingOracle
from disttest.errors import SolverError
from disttest.linprop import (
    Polyhedron,
    build_feasibility_lp,
    lp_feasible,
    uniformity_polyhedron,
)
from disttest.simplex import solve_feasibility
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
            assert solve_feasibility(A, b).feasible == solve_feasibility(t, b).feasible

    def test_iteration_cap_names_the_polyhedron_lazily(self):
        rng = np.random.default_rng(5)
        poly = Polyhedron(rng.uniform(-2, 2, size=(8, 4)), -np.abs(rng.uniform(1, 2, size=8)))
        with pytest.raises(SolverError) as info:
            lp_feasible(poly, max_iter=1)
        assert info.value.digest == poly.digest()


class TestBackendsAgree:
    @pytest.mark.parametrize("n, lam", [(64, 30), (200, 50)])
    def test_step5_instances_from_the_tester(self, n, lam):
        params = derive_params(lam, 0.1, 0.3, n)
        prop = uniformity_polyhedron(n, 0.0)
        verdicts = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for dist in (Distribution.uniform(n), Distribution.uniform_on(range(n // 2), n)):
                for seed in range(3):
                    est = estimate_high_part(SamplingOracle(dist, seed), params, n)
                    inst = build_feasibility_lp(prop, est.H, est.d_tilde, params.q, params.bound)
                    verdicts.append(lp_feasible(inst))
        assert verdicts == [True] * 3 + [False] * 3


def test_import_learner_and_tester_setup_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import disttest\n"
        "from disttest import Distribution, SamplingOracle, learn_adaptive\n"
        "from disttest.linprop import linear_property_oracle, uniformity_polyhedron\n"
        "from disttest.tester import derive_params\n"
        "learn_adaptive(SamplingOracle(Distribution.uniform_on(range(8), 1000), 1), 0.0, 0.5, 1000)\n"
        "linear_property_oracle(uniformity_polyhedron(400, 0.0))\n"
        "derive_params(50, 0.1, 0.3, 400)\n"
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
