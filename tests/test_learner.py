import math
import tracemalloc

import numpy as np
import pytest

from disttest.core import Distribution, SamplingOracle, _checked_ceil, empirical_distribution, l1_distance
from disttest.errors import DimensionError, ParameterError
from disttest.learner import (
    IdentityTestParams,
    IterationRecord,
    contract_indices,
    identity_test_sample_size,
    learn_adaptive,
    learn_known_support,
    tol_identity_test,
)
from disttest.tester import Verdict

from conftest import random_pmf


def uniform_on_first(s, n):
    return Distribution.uniform_on(range(s), n)


class TestLearnKnownSupport:
    def test_point_mass_recovered_exactly(self):
        oracle = SamplingOracle(Distribution.point_mass(50, 9), seed=0)
        learned = learn_known_support(oracle, s=1, delta=0.5)
        assert l1_distance(learned, Distribution.point_mass(50, 9)) == 0.0

    def test_draw_budget(self):
        oracle = SamplingOracle(Distribution.uniform(10), seed=0)
        learn_known_support(oracle, s=4, delta=0.5)
        assert oracle.samples_drawn == math.ceil(8 * (4 + 5) / 0.25)

    def test_uniform_16_of_large_domain(self):
        d = uniform_on_first(16, 10**4)
        ok = sum(
            l1_distance(learn_known_support(SamplingOracle(d, seed=s), 16, 0.5), d) <= 0.5
            for s in range(20)
        )
        assert ok >= 18

    def test_eta_slack_case(self):
        # 1 - eta/2 = 0.8 of the mass on 8 elements, the rest spread wide.
        eta = 0.4
        n = 10**4
        pmf = np.zeros(n)
        pmf[:8] = 0.8 / 8
        pmf[8:] = 0.2 / (n - 8)
        d = Distribution(pmf)
        ok = sum(
            l1_distance(learn_known_support(SamplingOracle(d, seed=s), 8, 0.5), d) <= eta + 0.5
            for s in range(20)
        )
        assert ok >= 18

    def test_equals_the_empirical_distribution_of_its_draws(self):
        # The tally path gives the pmf, bit for bit, and the draw count that
        # empirical_distribution gives on draw(m) from a twin oracle.
        rng = np.random.default_rng(3)
        sources = [
            Distribution.point_mass(50, 9),
            Distribution.uniform(10),
            uniform_on_first(16, 10**4),
            Distribution(random_pmf(rng, 300)),
            Distribution.uniform_on(range(0, 10**5, 997), 10**5),
        ]
        for case in range(10):
            d = sources[case % len(sources)]
            s, delta = int(rng.integers(1, 40)), float(rng.choice([0.25, 0.5, 1.0]))
            m = _checked_ceil(8.0 * (s + 5) / (delta * delta))
            oracle, twin = SamplingOracle(d, seed=case), SamplingOracle(d, seed=case)
            got = learn_known_support(oracle, s, delta)
            want = empirical_distribution(twin.draw(m), d.n)
            assert got.pmf.tobytes() == want.pmf.tobytes()
            assert oracle.samples_drawn == twin.samples_drawn == m

    def test_parameter_errors(self):
        oracle = SamplingOracle(Distribution.uniform(4), seed=0)
        with pytest.raises(ParameterError):
            learn_known_support(oracle, 0, 0.5)
        with pytest.raises(ParameterError):
            learn_known_support(oracle, 2, 0.0)


class TestIdentityTestParams:
    def test_validation(self):
        IdentityTestParams(0.0, 2.0, 0.5)
        with pytest.raises(ParameterError):
            IdentityTestParams(0.5, 0.5, 0.1)
        with pytest.raises(ParameterError):
            IdentityTestParams(0.0, 2.1, 0.1)
        with pytest.raises(ParameterError):
            IdentityTestParams(0.0, 1.0, 0.0)


class TestTolIdentityTest:
    def test_sample_size_monotonicity(self):
        p = IdentityTestParams(0.1, 0.5, 0.05)
        sizes = [identity_test_sample_size(s, p) for s in (1, 5, 10, 50)]
        assert sizes == sorted(sizes)
        p_small_kappa = IdentityTestParams(0.1, 0.5, 0.005)
        assert identity_test_sample_size(10, p_small_kappa) >= identity_test_sample_size(10, p)

    def test_consumes_exactly_its_budget(self):
        d_k = uniform_on_first(10, 50)
        p = IdentityTestParams(0.1, 0.5, 0.05)
        oracle = SamplingOracle(d_k, seed=1)
        tol_identity_test(oracle, d_k, p)
        assert oracle.samples_drawn == identity_test_sample_size(10, p)

    def test_contraction_map(self):
        d_k = Distribution(np.array([0.0, 0.4, 0.0, 0.6]))
        slots = contract_indices(d_k)
        assert list(slots) == [2, 0, 2, 1]

    def test_equal_pair_accepted(self):
        d_k = uniform_on_first(10, 50)
        p = IdentityTestParams(0.1, 0.5, 0.05)
        accepts = sum(
            tol_identity_test(SamplingOracle(d_k, seed=s), d_k, p) is Verdict.ACCEPT
            for s in range(30)
        )
        assert accepts >= 29

    def test_distant_pair_rejected(self):
        d_k = uniform_on_first(10, 50)
        far = Distribution.uniform_on(range(5, 15), 50)  # distance 1.0
        p = IdentityTestParams(0.1, 0.5, 0.05)
        rejects = sum(
            tol_identity_test(SamplingOracle(far, seed=s), d_k, p) is Verdict.REJECT
            for s in range(30)
        )
        assert rejects >= 29

    def test_extreme_gap(self):
        d_k = uniform_on_first(4, 20)
        disjoint = Distribution.uniform_on(range(10, 14), 20)
        p = IdentityTestParams(0.0, 2.0, 0.05)
        assert tol_identity_test(SamplingOracle(disjoint, seed=3), d_k, p) is Verdict.REJECT
        assert tol_identity_test(SamplingOracle(d_k, seed=3), d_k, p) is Verdict.ACCEPT

    def test_acceptance_probability_matches_exact_law(self):
        # Contracted domain of size 4; the midpoint rule's acceptance
        # probability is computed exactly by enumerating the multinomial law
        # and compared against a 1000-seed run of the real tester.
        n = 8
        d_k = uniform_on_first(3, n)
        params = IdentityTestParams(0.0, 2.0, 0.5)
        m = identity_test_sample_size(3, params)
        ref = np.array([1 / 3, 1 / 3, 1 / 3, 0.0])
        # d_u sits exactly at the decision threshold distance 1.0.
        pmf = np.zeros(n)
        pmf[:3] = 1 / 6
        pmf[4] = 1 / 2
        d_u = Distribution(pmf)
        probs = np.array([1 / 6, 1 / 6, 1 / 6, 1 / 2])

        grid = np.indices((m + 1, m + 1, m + 1)).reshape(3, -1).T
        grid = grid[grid.sum(axis=1) <= m]
        counts = np.column_stack([grid, m - grid.sum(axis=1)])
        log_pmf = (
            math.lgamma(m + 1)
            - sum(np.vectorize(math.lgamma)(counts[:, i] + 1) for i in range(4))
            + counts @ np.log(probs)
        )
        accept = np.abs(counts / m - ref).sum(axis=1) <= 1.0
        exact = float(np.exp(log_pmf[accept]).sum())

        hits = sum(
            tol_identity_test(SamplingOracle(d_u, seed=s), d_k, params) is Verdict.ACCEPT
            for s in range(1000)
        )
        empirical = hits / 1000
        sigma = math.sqrt(exact * (1 - exact) / 1000)
        assert abs(empirical - exact) <= 3 * sigma


def fresh_index_stream(n):
    """Opaque non-i.i.d. source: each call returns a point mass on a rotating
    index, so no empirical snapshot ever matches the next batch."""
    state = {"call": 0}

    def proc(gen, size):
        idx = state["call"] % n
        state["call"] += 1
        return np.full(size, idx, dtype=np.int64)

    return proc


class TestLearnAdaptive:
    def test_point_mass_terminates_at_one(self):
        d = Distribution.point_mass(100, 42)
        ok = 0
        for s in range(20):
            res = learn_adaptive(SamplingOracle(d, seed=s), eta=0.0, delta=0.5, n=100)
            if res.learned and res.final_guess == 1:
                ok += 1
                assert l1_distance(res.distribution, d) == 0.0
        assert ok >= 19

    def test_uniform_support_32(self):
        d = uniform_on_first(32, 10**5)
        successes = 0
        guesses = []
        for s in range(10):
            res = learn_adaptive(
                SamplingOracle(d, seed=s), eta=0.0, delta=0.5, n=10**5, c_test=0.25
            )
            if res.learned and l1_distance(res.distribution, d) <= 0.5:
                successes += 1
                guesses.append(res.final_guess)
        assert successes >= 7
        assert sum(g <= 16 * 32 for g in guesses) >= 0.9 * len(guesses)

    def test_wide_eta_sanity(self):
        d = Distribution.uniform(64)
        done = sum(
            learn_adaptive(SamplingOracle(d, seed=s), eta=1.9, delta=0.1, n=64).learned
            for s in range(10)
        )
        assert done >= 7

    def test_failure_on_moving_target(self):
        n = 8
        oracle = SamplingOracle(fresh_index_stream(n), seed=0, n=n)
        res = learn_adaptive(oracle, eta=0.0, delta=0.5, n=n)
        assert not res.learned
        assert res.outcome == "Failure"
        assert [r.guess for r in res.iterations] == [1, 2, 4, 8, 16]
        assert res.final_guess == 16

    def test_sample_accounting_recomputable_from_log(self):
        d = uniform_on_first(8, 1000)
        oracle = SamplingOracle(d, seed=5)
        res = learn_adaptive(oracle, eta=0.0, delta=0.5, n=1000)
        assert res.total_samples == sum(r.learn_draws + r.test_draws for r in res.iterations)
        assert res.total_samples == oracle.samples_drawn
        for rec in res.iterations:
            assert rec.learn_draws == math.ceil(8 * rec.guess / 0.25)

    def test_kappa_budget_stays_under_one_tenth(self):
        assert sum(1.0 / (100.0 * k * k) for k in range(1, 10**6)) < 0.1

    def test_parameter_errors(self):
        oracle = SamplingOracle(Distribution.uniform(4), seed=0)
        with pytest.raises(ParameterError):
            learn_adaptive(oracle, eta=2.0, delta=0.5, n=4)
        with pytest.raises(ParameterError):
            learn_adaptive(oracle, eta=1.9, delta=0.5, n=4)  # eta + delta > 2


def dense_identity_test(oracle, d_k, params, c_test=8.0):
    """The plug-in identity test over a dense candidate and a length-n slot map."""
    supp = d_k.support()
    m = identity_test_sample_size(int(supp.size), params, c_test)
    counts = np.bincount(contract_indices(d_k)[oracle.draw(m)], minlength=supp.size + 1)
    reference = np.concatenate([d_k.pmf[supp], [0.0]])
    estimate = float(np.abs(counts / m - reference).sum())
    return Verdict.ACCEPT if estimate <= (params.eps1 + params.eps2) / 2.0 else Verdict.REJECT


def dense_learn_adaptive(oracle, eta, delta, n):
    """The adaptive learner with a dense empirical candidate on every guess."""
    records, total, k, s = [], 0, 0, 1
    while s <= 2 * n:
        k += 1
        params = IdentityTestParams(eta + delta / 2.0, eta + delta, 1.0 / (100.0 * k * k))
        m_learn = _checked_ceil(8.0 * s / (delta * delta))
        candidate = empirical_distribution(oracle.draw(m_learn), n)
        before = oracle.samples_drawn
        accepted = dense_identity_test(oracle, candidate, params) is Verdict.ACCEPT
        test_draws = oracle.samples_drawn - before
        records.append(IterationRecord(s, m_learn, test_draws, accepted))
        total += m_learn + test_draws
        if accepted:
            return candidate, total, s, tuple(records)
        s *= 2
    return None, total, records[-1].guess, tuple(records)


class TestSparseMatchesDense:
    @pytest.mark.parametrize("source", ["support-64-of-10k", "uniform-64", "moving-target"])
    def test_learn_adaptive_matches_dense_loop(self, source):
        for seed in range(4):
            if source == "support-64-of-10k":
                n = 10**4
                support = np.random.default_rng(seed).choice(n, size=64, replace=False)
                make = lambda: SamplingOracle(Distribution.uniform_on(support, n), seed=seed)
            elif source == "uniform-64":
                n = 64
                make = lambda: SamplingOracle(Distribution.uniform(n), seed=seed)
            else:
                n = 8
                make = lambda: SamplingOracle(fresh_index_stream(n), seed=seed, n=n)
            sparse_oracle, dense_oracle = make(), make()
            res = learn_adaptive(sparse_oracle, eta=0.0, delta=0.5, n=n)
            dist, total, final_guess, records = dense_learn_adaptive(dense_oracle, 0.0, 0.5, n)
            assert res.iterations == records
            assert res.total_samples == total == sparse_oracle.samples_drawn
            assert res.final_guess == final_guess
            assert res.learned == (dist is not None) == (source != "moving-target")
            if dist is not None:
                assert res.distribution.pmf.tobytes() == dist.pmf.tobytes()

    def test_tol_identity_test_matches_dense_with_interior_zeros(self):
        pmf = np.zeros(12)
        pmf[[1, 4, 6, 9]] = [0.1, 0.2, 0.3, 0.4]
        d_k = Distribution(pmf)
        # The same masses one index below each atom: at L1 distance 2, but
        # every draw falls just below an atom of d_k.
        shadow = Distribution(np.roll(pmf, -1))
        params = IdentityTestParams(0.1, 0.5, 0.05)
        verdicts = set()
        for truth in (d_k, shadow, Distribution.uniform(12), Distribution.uniform_on([1, 3, 4, 11], 12)):
            for seed in range(10):
                sparse_oracle, dense_oracle = SamplingOracle(truth, seed), SamplingOracle(truth, seed)
                verdict = tol_identity_test(sparse_oracle, d_k, params)
                assert verdict is dense_identity_test(dense_oracle, d_k, params)
                assert sparse_oracle.samples_drawn == dense_oracle.samples_drawn
                verdicts.add(verdict)
        assert verdicts == {Verdict.ACCEPT, Verdict.REJECT}

    def test_domain_mismatch_rejected(self):
        # A domain mismatch raises DimensionError, as errors.py documents.
        oracle = SamplingOracle(Distribution.uniform(4), seed=0)
        for n in (3, 5):
            with pytest.raises(DimensionError):
                learn_adaptive(oracle, eta=0.0, delta=0.5, n=n)
        with pytest.raises(DimensionError):
            tol_identity_test(oracle, Distribution.uniform(5), IdentityTestParams(0.1, 0.5, 0.05))


def assert_reads_like(got, want, seed):
    """``got``, a candidate on atoms, answers every reader as the dense ``want`` does, and builds its pmf last."""
    assert "pmf" not in vars(got)
    assert got.n == want.n
    assert np.array_equal(got.support(), want.support())
    rng = np.random.default_rng(seed)
    supp = want.support()
    for idx in (supp, supp[::2], rng.integers(0, want.n, 40), np.r_[supp, rng.integers(0, want.n, 40)], []):
        assert got.mass(idx) == want.mass(idx)
    for m in (1, 37, 5000):
        assert np.array_equal(SamplingOracle(got, seed + m).draw(m), SamplingOracle(want, seed + m).draw(m))
        by_got, by_want = SamplingOracle(got, seed).draw_tally(m), SamplingOracle(want, seed).draw_tally(m)
        assert all(np.array_equal(a, b) for a, b in zip(by_got, by_want))
    truth = Distribution.uniform(want.n)
    params = IdentityTestParams(0.1, 0.6, 0.05)
    assert tol_identity_test(SamplingOracle(truth, seed), got, params) is tol_identity_test(
        SamplingOracle(truth, seed), want, params
    )
    assert "pmf" not in vars(got)
    assert got.pmf.tobytes() == want.pmf.tobytes()
    assert not got.pmf.flags.writeable and got.pmf is got.pmf
    assert got == want


class TestCandidateOnAtoms:
    def sources(self):
        rng = np.random.default_rng(8)
        return [
            Distribution.uniform_on(rng.choice(10**4, 64, replace=False), 10**4),
            Distribution(random_pmf(rng, 40)),
            Distribution.point_mass(30, 29),
            Distribution.uniform(16),
        ]

    def test_learn_adaptive_equals_its_dense_construction(self):
        for seed, source in enumerate(self.sources()):
            res = learn_adaptive(SamplingOracle(source, seed), eta=0.0, delta=0.5, n=source.n)
            want = dense_learn_adaptive(SamplingOracle(source, seed), 0.0, 0.5, source.n)[0]
            assert res.learned and want is not None
            assert_reads_like(res.distribution, want, seed)

    def test_learn_known_support_equals_its_dense_construction(self):
        for seed, source in enumerate(self.sources()):
            m = _checked_ceil(8.0 * (20 + 5) / 0.25)
            got = learn_known_support(SamplingOracle(source, seed), 20, 0.5)
            want = empirical_distribution(SamplingOracle(source, seed).draw(m), source.n)
            assert_reads_like(got, want, seed)

    def test_learning_in_a_domain_of_10_7_allocates_no_length_n_array(self):
        # One float64 array of length 10^7 is 80 MB; neither the source, a
        # distribution on 64 atoms, nor the learned candidate may build one.
        n = 10**7
        atoms = np.sort(np.random.default_rng(5).choice(n, 64, replace=False))
        oracle = SamplingOracle(Distribution._on_atoms(atoms, np.full(64, 1 / 64), n), seed=5)
        tracemalloc.start()
        try:
            res = learn_adaptive(oracle, eta=0.1, delta=0.5, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.learned and np.isin(res.distribution.support(), atoms).all()
        assert peak < 8 * n / 20
