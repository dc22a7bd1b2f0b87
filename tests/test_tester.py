import math
import warnings

import numpy as np
import pytest

from disttest.core import Distribution, SamplingOracle
from disttest.errors import DimensionError, ParameterError
from disttest.linprop import linear_property_oracle, uniformity_polyhedron
# TesterParams is reached through the module: a class named Test* at module level is one pytest tries to collect.
from disttest import tester
from disttest.tester import (
    HighEstimate,
    Verdict,
    check_conditions,
    derive_params,
    estimate_high_part,
    tolerant_test,
)


class TestDeriveParams:
    def test_q_ceiling(self):
        p = derive_params(10, 0.1, 0.3, 500)
        assert p.q == 1
        assert derive_params(50, 0.1, 0.3, 500).q == 5

    def test_eta_prime_and_bound(self):
        p = derive_params(10, 0.1, 0.74, 500)
        assert p.eta_prime == pytest.approx(0.01, abs=1e-15)
        assert p.bound == pytest.approx(0.36, abs=1e-12)

    def test_budget_formulas_recomputed_independently(self):
        lam, g1, g2 = 50, 0.05, 0.25
        p = derive_params(lam, g1, g2, 10**6)
        eta_prime = (g2 - g1) / 64.0
        q = max(1, math.ceil(lam / 10.0))
        w = math.ceil(4.0 * q * q * math.log(q + 2) / eta_prime)
        z = math.ceil(4.0 * w * math.log(w + 2) / eta_prime**2)
        assert (p.q, p.W, p.Z_size) == (q, w, z)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            derive_params(50, 0.3, 0.1, 500)
        with pytest.raises(ParameterError):
            derive_params(0, 0.1, 0.3, 500)

    def test_tester_params_invariants(self):
        with pytest.raises(ParameterError):
            tester.TesterParams(q=0, zeta=0.1, eta=0.2, W=10, Z_size=10)
        with pytest.raises(ParameterError):
            tester.TesterParams(q=1, zeta=0.3, eta=1.8, W=10, Z_size=10)
        with pytest.raises(ParameterError):
            tester.TesterParams(q=4, zeta=0.1, eta=0.2, W=10, Z_size=10)
        with pytest.raises(ParameterError):
            tester.TesterParams(q=1, zeta=0.1, eta=0.2, W=10, Z_size=9)

    def test_eta_prime_and_bound_follow_eta_and_zeta(self):
        p = tester.TesterParams(q=1, zeta=0.1, eta=0.2, W=10, Z_size=10)
        assert p.eta_prime == 0.2 / 64.0
        assert p.bound == 26.0 * (0.2 / 64.0) + 0.1

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), 50.7, True, np.bool_(True), "50", 0, -3])
    def test_lambda_must_be_an_integer_at_least_one(self, lam):
        # nan raised a bare ValueError and inf a bare OverflowError; 50.7 ran with q=6 and True with q=1.
        with pytest.raises(ParameterError, match="lambda must be an integer >= 1"):
            derive_params(lam, 0.1, 0.3, 500)

    def test_integral_lambda_of_any_integer_type(self):
        want = derive_params(50, 0.1, 0.3, 500)
        assert derive_params(50.0, 0.1, 0.3, 500) == derive_params(np.int64(50), 0.1, 0.3, 500) == want


def small_params() -> tester.TesterParams:
    # q = 2 keeps W and the LP footprint small for unit tests.
    return derive_params(20, 0.1, 0.74, 500)


class TestEstimateHighPart:
    def test_point_mass_source(self):
        params = small_params()
        oracle = SamplingOracle(Distribution.point_mass(100, 7), seed=1)
        est = estimate_high_part(oracle, params, 100)
        assert 7 in est.H
        assert est.d_tilde.pmf[7] == pytest.approx(1.0)
        others = [i for i in est.H if i != 7]
        assert all(est.d_tilde.pmf[i] == 0.0 for i in others)
        # Padding is deterministic: the smallest indices never seen.
        assert sorted(others) == [i for i in range(100) if i != 7][: len(others)]

    def test_precondition_on_domain_size(self):
        params = small_params()
        oracle = SamplingOracle(Distribution.uniform(16), seed=1)
        with pytest.raises(ParameterError, match="4\\*q\\^2"):
            estimate_high_part(oracle, params, 16)

    def test_mass_identity_and_h_size(self):
        params = small_params()
        oracle = SamplingOracle(Distribution.uniform(400), seed=3)
        with pytest.warns(RuntimeWarning, match="unused indices"):
            est = estimate_high_part(oracle, params, 400)
        on_h = sum(est.d_tilde.pmf[i] for i in est.H)
        assert on_h + est.low_mass == pytest.approx(1.0, abs=1e-9)
        assert len(est.H) <= params.W + params.q**2
        off = [i for i in range(400) if i not in est.H]
        if off:
            masses = {est.d_tilde.pmf[i] for i in off}
            assert len(masses) == 1

    def test_warning_when_padding_unavailable(self):
        # A domain just over 4q^2 gets fully sampled, leaving no padding.
        params = small_params()
        oracle = SamplingOracle(Distribution.uniform(20), seed=2)
        with pytest.warns(RuntimeWarning, match="padding"):
            est = estimate_high_part(oracle, params, 20)
        assert len(est.H) == 20

    def test_statistical_guarantees_uniform_200(self):
        # Relative mass accuracy on heavy elements and the summed-error bound,
        # each in at least 95% of seeded runs.
        params = derive_params(50, 0.1, 0.3, 200)
        d = Distribution.uniform(200)
        seeds = range(40)
        ok_rel, ok_sum, ok_contain = 0, 0, 0
        threshold = params.eta_prime / (10 * params.W)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for seed in seeds:
                oracle = SamplingOracle(d, seed=seed)
                est = estimate_high_part(oracle, params, 200)
                heavy = [i for i in est.H if d.pmf[i] >= threshold]
                rel = all(
                    (1 - params.eta_prime) * d.pmf[i]
                    <= est.d_tilde.pmf[i]
                    <= (1 + params.eta_prime) * d.pmf[i]
                    for i in heavy
                )
                ok_rel += rel
                total = sum(abs(d.pmf[i] - est.d_tilde.pmf[i]) for i in est.H)
                ok_sum += total <= 10 * params.eta_prime
                high = {i for i in range(200) if d.pmf[i] >= params.eta_prime / params.q**2}
                ok_contain += high <= est.H
        assert ok_rel >= 38
        assert ok_sum >= 38
        assert ok_contain >= 38


class TestCheckConditions:
    def test_d_tilde_itself_depends_only_on_b(self):
        dt = Distribution(np.array([0.5, 0.3, 0.1, 0.1]))
        est = HighEstimate(H=frozenset({0, 1}), d_tilde=dt, low_mass=0.2)
        # Condition (A) holds with slack 0; q=1 puts every index above 1/q^2
        # only at mass >= 1, so (B) holds here.
        assert check_conditions(dt, est, q=1, bound=0.0)
        # With q=2 the 0.3 element is >= 1/4 and sits inside H: still fine.
        assert check_conditions(dt, est, q=2, bound=0.0)

    def test_heavy_element_outside_h_fails(self):
        n = 8
        q = 2
        pmf = np.full(n, (1 - 2 / q**2) / (n - 1))
        pmf[5] = 2 / q**2
        pmf[0] += 1.0 - pmf.sum()
        d1 = Distribution(pmf)
        est = HighEstimate(H=frozenset({0, 1}), d_tilde=d1, low_mass=float(pmf[2:].sum()))
        assert not check_conditions(d1, est, q=q, bound=2.0)

    def test_matches_direct_evaluation(self, rng):
        from conftest import random_distribution

        for _ in range(25):
            n = 8
            d1 = random_distribution(rng, n)
            dt = random_distribution(rng, n)
            H = frozenset(int(i) for i in rng.choice(n, size=3, replace=False))
            est = HighEstimate(H=H, d_tilde=dt, low_mass=float(sum(dt.pmf[i] for i in range(n) if i not in H)))
            q = int(rng.integers(1, 5))
            bound = float(rng.uniform(0, 1.5))
            on_h = sum(abs(d1.pmf[i] - dt.pmf[i]) for i in H)
            off_h = abs(
                sum(d1.pmf[i] for i in range(n) if i not in H)
                - sum(dt.pmf[i] for i in range(n) if i not in H)
            )
            cond_a = on_h + off_h <= bound
            cond_b = all(i in H for i in range(n) if d1.pmf[i] >= 1.0 / q**2)
            assert check_conditions(d1, est, q, bound) == (cond_a and cond_b)

    @pytest.mark.parametrize("H", [{-1}, {7}], ids=["negative", "past-n"])
    def test_h_outside_domain_raises(self, H):
        # A point mass at 3 is heavy and outside H; indexing a mask with H={-1}
        # would mark index 3 and accept it.
        d1 = Distribution.point_mass(4, 3)
        est = HighEstimate(H=frozenset(H), d_tilde=d1, low_mass=0.0)
        with pytest.raises(ParameterError):
            check_conditions(d1, est, q=2, bound=2.0)

    def test_dimension_error(self):
        dt = Distribution.uniform(4)
        est = HighEstimate(H=frozenset({0}), d_tilde=dt, low_mass=0.75)
        with pytest.raises(DimensionError):
            check_conditions(Distribution.uniform(5), est, 2, 1.0)


class TestTolerantTest:
    def test_always_feasible_oracle_dominates(self):
        params = small_params()
        # Uniform(100) leaves no unseen index to pad H with.
        with pytest.warns(RuntimeWarning, match="unused indices"):
            for d in (Distribution.uniform(100), Distribution.point_mass(100, 3)):
                oracle = SamplingOracle(d, seed=5)
                assert tolerant_test(oracle, lambda *args: True, params, 100) is Verdict.ACCEPT

    def test_deterministic_and_exact_sample_count(self):
        params = small_params()
        d = Distribution.uniform(100)
        verdicts = []
        for _ in range(2):
            oracle = SamplingOracle(d, seed=11)
            prop = linear_property_oracle(uniformity_polyhedron(100, 0.0))
            with pytest.warns(RuntimeWarning, match="unused indices"):
                verdicts.append(tolerant_test(oracle, prop, params, 100))
            assert oracle.samples_drawn == params.W + params.Z_size
        assert verdicts[0] is verdicts[1]

    def test_end_to_end_uniform_vs_half_support(self):
        params = derive_params(50, 0.1, 0.3, 200)
        prop = linear_property_oracle(uniformity_polyhedron(200, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            accepts = sum(
                tolerant_test(SamplingOracle(Distribution.uniform(200), seed=s), prop, params, 200)
                is Verdict.ACCEPT
                for s in range(5)
            )
            rejects = sum(
                tolerant_test(
                    SamplingOracle(Distribution.uniform_on(range(100), 200), seed=s),
                    prop,
                    params,
                    200,
                )
                is Verdict.REJECT
                for s in range(5)
            )
        assert accepts == 5
        assert rejects == 5
