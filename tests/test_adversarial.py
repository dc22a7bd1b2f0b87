import math

import numpy as np
import pytest

from disttest.adversarial import (
    AdversarialPair,
    Pairing,
    build_pairing,
    collision_rate,
    dno_general,
    dno_label_invariant,
    make_adversarial_pair,
    pair_collision_bound,
    relabel,
    verify_adversarial,
)
from disttest.core import (
    Distribution,
    NonConcentrationParams,
    SamplingOracle,
    is_non_concentrated,
)
from disttest.errors import ParameterError, StructureError

from conftest import mixture_distribution, random_pmf


def two_level_pmf(n):
    pmf = np.where(np.arange(n) % 3 == 0, 2.0, 1.0)
    return pmf / pmf.sum()


def one_tie_pmf(n):
    # Distinct masses but for one tie among the lightest few.
    raw = np.random.default_rng(5).exponential(size=n)
    order = np.argsort(raw)
    raw[order[5]] = raw[order[3]]
    return raw / raw.sum()


def many_levels_pmf(n):
    # Masses on ~100 levels: long runs of ties below any threshold.
    raw = np.ceil(np.random.default_rng(6).exponential(size=n) * 20)
    return raw / raw.sum()


# Tie patterns the partition-and-sort selection must order as a stable argsort
# does; "exponential-1e5" has no ties and takes the unstable-argsort path.
tie_heavy = pytest.mark.parametrize(
    "pmf",
    [
        np.r_[np.full(3, 0.05), np.full(10, 0.07), np.full(5, 0.018)],
        np.r_[0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25],
        np.full(40, 1 / 40),
        two_level_pmf(999),
        one_tie_pmf(2000),
        many_levels_pmf(5000),
        random_pmf(np.random.default_rng(1), 10**5),
    ],
    ids=["ties-at-threshold", "zeros", "all-equal", "two-levels", "one-tie", "many-levels", "exponential-1e5"],
)


class TestPairing:
    def test_counts(self):
        p = build_pairing(Distribution.uniform(10), beta=0.2, rng=np.random.default_rng(0))
        assert len(p.L) == 4
        assert p.size == 2

    def test_smallest_mass_elements_selected(self):
        pmf = np.arange(1, 11, dtype=np.float64)
        d = Distribution(pmf / pmf.sum())
        p = build_pairing(d, beta=0.3, rng=None)
        assert set(p.L) == {0, 1, 2, 3, 4, 5}

    def test_structure_validation(self):
        with pytest.raises(StructureError):
            Pairing((0, 1, 1, 2))
        with pytest.raises(StructureError):
            Pairing((0, 0))
        with pytest.raises(StructureError):
            Pairing((0, 1, 2))
        with pytest.raises(StructureError):
            Pairing(((0, 1), (2, 3)))
        with pytest.raises(StructureError):
            Pairing(())

    @pytest.mark.parametrize(
        "L",
        [(-1, 0), (0, 1, -2, 3), (0.7, 1.2), (0, 1.5), (0, np.nan)],
    )
    def test_negative_and_non_integral_indices_rejected(self, L):
        with pytest.raises(StructureError, match="non-negative integers"):
            Pairing(L)

    def test_boolean_indices_rejected(self):
        with pytest.raises(StructureError, match="not booleans"):
            Pairing([True, False])
        with pytest.raises(StructureError, match="not booleans"):
            Pairing(np.array([True, False, True, False]))

    def test_duplicate_rejected_when_pairs_read_as_L(self):
        with pytest.raises(StructureError, match="disjoint pairs"):
            Pairing(np.array([4, 2, 7, 2]))

    def test_fields_are_read_only_int64_copies(self):
        L = np.array([3, 1, 0, 2])
        p = Pairing(L)
        L[0] = 9
        assert p.L.dtype == p.pairs.dtype == np.int64
        assert p.L.tolist() == [3, 1, 0, 2] and p.pairs.tolist() == [[3, 1], [0, 2]]
        with pytest.raises(ValueError):
            p.pairs[0, 0] = 5
        with pytest.raises(ValueError):
            p.L[0] = 5

    @pytest.mark.parametrize("seed", [None, 3])
    def test_pairs_is_a_read_only_view_of_L(self, seed):
        d = Distribution(random_pmf(np.random.default_rng(2), 40))
        built = build_pairing(d, 0.25, None if seed is None else np.random.default_rng(seed))
        pair = make_adversarial_pair(d, NonConcentrationParams(0.1, 0.25), "general", np.random.default_rng(1))
        for p in (built, relabel(pair, np.random.default_rng(4)).pairing, Pairing((5, 2, 0, 9))):
            assert np.shares_memory(p.pairs, p.L) and not p.pairs.flags.writeable
            assert p.pairs.shape == (p.size, 2) and p.pairs.ravel().tolist() == p.L.tolist()

    def test_indices_outside_the_domain_rejected(self):
        d = Distribution.uniform(4)
        pairing = Pairing((0, 1, 2, 4))
        with pytest.raises(StructureError, match="outside the domain"):
            AdversarialPair(d_yes=d, d_no=d, pairing=pairing, params=NonConcentrationParams(0.2, 0.25))
        with pytest.raises(StructureError, match="outside the domain"):
            dno_label_invariant(d, pairing)
        with pytest.raises(StructureError, match="outside the domain"):
            dno_general(d, pairing, np.random.default_rng(0))
        with pytest.raises(StructureError, match="outside the domain"):
            collision_rate(d, pairing, 5, 10, np.random.default_rng(0))
        with pytest.raises(StructureError, match="outside the domain"):
            pair_collision_bound(d, pairing, 5)

    def test_low_mass_bound_on_non_concentrated_instances(self, rng):
        # Every element of L obeys the (1-2a)/((1-2b)n) mass cap whenever the
        # source is (a, b)-non-concentrated: generate-and-check on 100 cases.
        params = NonConcentrationParams(alpha=0.1, beta=0.3)
        n = 50
        cap = (1 - 2 * params.alpha) / ((1 - 2 * params.beta) * n)
        checked = 0
        for _ in range(100):
            d = mixture_distribution(rng, n, theta=0.5)
            if not is_non_concentrated(d, params):
                continue
            checked += 1
            p = build_pairing(d, params.beta, rng)
            assert all(d.pmf[i] <= cap + 1e-12 for i in p.L)
        assert checked >= 90

    @tie_heavy
    @pytest.mark.parametrize("beta", [0.125, 0.25, 0.49])
    def test_selection_equals_stable_argsort(self, pmf, beta):
        d = Distribution(pmf / pmf.sum())
        k = math.floor(beta * d.n)
        reference = np.argsort(d.pmf, kind="stable")[: 2 * k]
        pairing = build_pairing(d, beta)
        assert same_bytes(pairing.L, reference, np.int64)
        assert same_bytes(pairing.pairs, reference.reshape(k, 2), np.int64)

    @pytest.mark.parametrize(
        "pmf", [random_pmf(np.random.default_rng(3), 5000), two_level_pmf(300)], ids=["exponential", "two-levels"]
    )
    def test_random_matching_permutes_the_selection(self, pmf):
        d = Distribution(pmf)
        k = math.floor(0.25 * d.n)
        reference = np.argsort(d.pmf, kind="stable")[: 2 * k]
        for seed in range(3):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            pairing = build_pairing(d, 0.25, rng)
            expected = twin.permutation(reference)
            assert same_bytes(pairing.L, expected, np.int64)
            assert same_bytes(pairing.pairs, expected.reshape(k, 2), np.int64)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_beta_too_small(self):
        with pytest.raises(ParameterError):
            build_pairing(Distribution.uniform(3), beta=0.2)


class TestCachedSelection:
    # Growing, then shrinking: a miss, hits, a longer miss, then slices.
    BETAS = (0.125, 0.25, 0.49, 0.3, 0.25, 0.125)

    @tie_heavy
    def test_repeats_on_one_distribution_equal_stable_argsort(self, pmf):
        d = Distribution(pmf / pmf.sum())
        order = np.argsort(d.pmf, kind="stable")
        for seed, beta in enumerate(self.BETAS):
            k = math.floor(beta * d.n)
            assert same_bytes(build_pairing(d, beta).L, order[: 2 * k], np.int64)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_bytes(build_pairing(d, beta, rng).L, twin.permutation(order[: 2 * k]), np.int64)
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_pairings_and_cached_prefix_are_read_only(self):
        d = Distribution(random_pmf(np.random.default_rng(4), 200))
        fixed, shuffled = build_pairing(d, 0.25), build_pairing(d, 0.25, np.random.default_rng(1))
        pair = make_adversarial_pair(d, NonConcentrationParams(0.1, 0.25), "general", np.random.default_rng(2))
        moved = relabel(pair, np.random.default_rng(3)).pairing
        for array in (fixed.L, fixed.pairs, shuffled.L, moved.L, d._lightest(100), vars(d)["_lightest_prefix"]):
            with pytest.raises(ValueError):
                array[0] = 7
        assert fixed.L.tolist() == np.argsort(d.pmf, kind="stable")[:100].tolist()

    def test_repeat_at_equal_or_smaller_k_never_selects_again(self, monkeypatch):
        # The first pairing partitions and sorts the pmf; a repeat on the same
        # distribution at an equal or smaller k only slices the cached order.
        def refuse(*args, **kwargs):
            raise AssertionError("a repeat reached the selection")

        d = Distribution(many_levels_pmf(5000))
        build_pairing(d, 0.25)
        monkeypatch.setattr(np, "partition", refuse)
        monkeypatch.setattr(np, "argsort", refuse)
        for beta in (0.25, 0.1, 0.01):
            build_pairing(d, beta)
            build_pairing(d, beta, np.random.default_rng(0))
        with pytest.raises(AssertionError, match="reached the selection"):
            build_pairing(d, 0.3)


class TestTrustedPairing:
    @pytest.mark.parametrize("mode", ["label-invariant", "general"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_relabelled_pairing_equals_the_checked_one(self, mode, seed):
        d = Distribution(two_level_pmf(999))
        pair = make_adversarial_pair(d, NonConcentrationParams(0.1, 0.25), mode, np.random.default_rng(seed))
        rng, twin = np.random.default_rng(seed + 10), np.random.default_rng(seed + 10)
        moved = relabel(pair, rng)
        checked = Pairing(twin.permutation(d.n)[pair.pairing.L])
        assert same_bytes(moved.pairing.L, checked.L, np.int64)
        assert same_bytes(pair.pairing.L, Pairing(pair.pairing.L).L, np.int64)


class TestLabelInvariantConstruction:
    def test_uniform_four_merge(self):
        d = Distribution.uniform(4)
        pairing = Pairing((0, 1, 2, 3))
        d_no = dno_label_invariant(d, pairing)
        assert np.allclose(d_no.pmf, [0.5, 0.0, 0.5, 0.0])

    def test_mass_conserved_exactly(self, rng):
        for _ in range(10):
            d = mixture_distribution(rng, 30)
            pairing = build_pairing(d, 0.25, rng)
            d_no = dno_label_invariant(d, pairing)
            assert d_no.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_deficit_uniform_100(self):
        d = Distribution.uniform(100)
        pairing = build_pairing(d, 0.25, np.random.default_rng(1))
        d_no = dno_label_invariant(d, pairing)
        assert int(np.count_nonzero(d_no.pmf)) == 75


class TestGeneralConstruction:
    def test_degenerate_coin_and_zero_mass_pairs(self):
        pmf = np.zeros(6)
        pmf[0] = 0.3
        pmf[2] = 0.7
        d = Distribution(pmf)
        pairing = Pairing((0, 1, 4, 5))
        d_no = dno_general(d, pairing, np.random.default_rng(0))
        assert d_no.pmf[0] == 0.3 and d_no.pmf[1] == 0.0
        # A pair with no mass merges into its first endpoint by convention.
        assert d_no.pmf[4] == 0.0 and d_no.pmf[5] == 0.0
        assert d_no.pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_balanced_coin_frequency(self):
        d = Distribution(np.array([0.25, 0.25, 0.25, 0.25]))
        pairing = Pairing((0, 1, 2, 3))
        rng = np.random.default_rng(123)
        hits = 0
        trials = 10**4
        for _ in range(trials):
            d_no = dno_general(d, pairing, rng)
            hits += d_no.pmf[0] > 0
        assert abs(hits / trials - 0.5) < 0.02

    def test_seeded_determinism(self):
        d = Distribution.uniform(12)
        pairing = build_pairing(d, 0.25, None)
        a = dno_general(d, pairing, np.random.default_rng(9))
        b = dno_general(d, pairing, np.random.default_rng(9))
        assert a == b

    def test_distinct_seeds_vary_only_within_pairs(self, rng):
        d = mixture_distribution(rng, 24, theta=0.5)
        pairing = build_pairing(d, 0.25, None)
        a = dno_general(d, pairing, np.random.default_rng(1))
        b = dno_general(d, pairing, np.random.default_rng(2))
        off = np.ones(24, dtype=bool)
        off[list(pairing.L)] = False
        assert np.array_equal(a.pmf[off], b.pmf[off])
        for x, y in pairing.pairs:
            assert a.pmf[x] + a.pmf[y] == b.pmf[x] + b.pmf[y]

    def test_conditional_single_draw_law(self):
        # Conditioned on landing in a pair, the draw is its first endpoint
        # with probability mass(x)/(mass(x)+mass(y)) under both the source
        # and the merged ensemble.
        n = 20
        d = mixture_distribution(np.random.default_rng(2), n, theta=0.6)
        pairing = build_pairing(d, 0.25, None)
        trials = 10**5
        gen = np.random.default_rng(7)

        ids = pairing.pair_ids(n)
        firsts = np.array([x for x, _ in pairing.pairs])

        yes_draws = SamplingOracle(d, seed=7).draw(trials)

        coin_matrix = gen.random((trials, pairing.size))
        pmfs = np.tile(d.pmf, (trials, 1))
        for t, (x, y) in enumerate(pairing.pairs):
            total = d.pmf[x] + d.pmf[y]
            to_x = coin_matrix[:, t] < (d.pmf[x] / total if total > 0 else 1.0)
            pmfs[to_x, x] = total
            pmfs[to_x, y] = 0.0
            pmfs[~to_x, x] = 0.0
            pmfs[~to_x, y] = total
        cdfs = np.cumsum(pmfs, axis=1)
        u = gen.random(trials)
        no_draws = (cdfs < (u * cdfs[:, -1])[:, None]).sum(axis=1)

        for t, (x, y) in enumerate(pairing.pairs):
            expect = d.pmf[x] / (d.pmf[x] + d.pmf[y])
            for draws in (yes_draws, no_draws):
                in_pair = ids[draws] == t
                assert in_pair.sum() > 0
                freq = (draws[in_pair] == firsts[t]).mean()
                assert abs(freq - expect) < 0.02


class TestVerifyAdversarial:
    def test_uniform_checks_pass_with_stated_bound(self):
        d = Distribution.uniform(100)
        params = NonConcentrationParams(alpha=0.2, beta=0.2)
        pair = make_adversarial_pair(d, params, "label-invariant", np.random.default_rng(0))
        report = verify_adversarial(pair)
        assert report.passed
        assert report.pair_bound == pytest.approx(2 * 0.6 / (0.6 * 100), abs=1e-15)
        assert report.support_size <= report.support_limit == 80

    def test_corrupted_pair_reported(self):
        d = Distribution.uniform(4)
        pairing = Pairing((0, 1, 2, 3))
        good = dno_label_invariant(d, pairing)
        corrupted = good.pmf.copy()
        corrupted[1] = corrupted[0] / 2
        corrupted[0] /= 2
        bad_pair = AdversarialPair(
            d_yes=d,
            d_no=Distribution(corrupted),
            pairing=pairing,
            params=NonConcentrationParams(0.2, 0.25),
        )
        report = verify_adversarial(bad_pair)
        assert not report.passed
        assert "some pair does not have exactly one zero endpoint" in report.failures

    def test_concentrated_source_reported_not_thrown(self):
        pmf = np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02])
        d = Distribution(pmf)
        params = NonConcentrationParams(alpha=0.2, beta=0.34)
        pair = make_adversarial_pair(d, params, "label-invariant", np.random.default_rng(3))
        report = verify_adversarial(pair)
        assert isinstance(report.failures, tuple)

    def test_dno_not_non_concentrated(self, rng):
        params = NonConcentrationParams(alpha=0.1, beta=0.25)
        for mode in ("label-invariant", "general"):
            d = mixture_distribution(rng, 40, theta=0.6)
            pair = make_adversarial_pair(d, params, mode, np.random.default_rng(5))
            smallest = np.sort(pair.d_no.pmf)[:10].sum()
            assert smallest == 0.0
            assert not is_non_concentrated(pair.d_no, params)


class TestRelabel:
    def test_relabeled_bundle_still_verifies(self, rng):
        d = mixture_distribution(rng, 30, theta=0.6)
        pair = make_adversarial_pair(
            d, NonConcentrationParams(0.1, 0.3), "general", np.random.default_rng(2)
        )
        shuffled = relabel(pair, np.random.default_rng(11))
        assert "pair mass not conserved" not in verify_adversarial(shuffled).failures
        assert sorted(np.sort(shuffled.d_yes.pmf)) == pytest.approx(sorted(np.sort(pair.d_yes.pmf)))


    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_relabel_scatters_both_pmfs_densely(self, seed):
        # Each relabelled pmf is the dense scatter pmf[perm] = source, bit for
        # bit, built without a detour through sorted atoms.
        d = Distribution(random_pmf(np.random.default_rng(seed), 10**4))
        pair = make_adversarial_pair(d, NonConcentrationParams(0.1, 0.3), "general", np.random.default_rng(seed))
        moved = relabel(pair, np.random.default_rng(seed))
        perm = np.random.default_rng(seed).permutation(d.n)
        for got, source in ((moved.d_yes, pair.d_yes), (moved.d_no, pair.d_no)):
            want = np.zeros(d.n)
            want[perm] = source.pmf
            assert "pmf" in vars(got) and got.pmf.dtype == np.float64
            assert got.pmf.tobytes() == want.tobytes() and not got.pmf.flags.writeable
        assert np.array_equal(moved.pairing.L, perm[pair.pairing.L])


class TestCollisionRate:
    def test_point_mass_inside_pair(self):
        pmf = np.zeros(6)
        pmf[0] = 1.0
        d = Distribution(pmf)
        pairing = Pairing((0, 1, 2, 3))
        assert collision_rate(d, pairing, m=2, trials=50, rng=np.random.default_rng(0)) == 1.0

    def test_off_l_support_never_collides(self):
        d = Distribution.uniform_on([4, 5], 6)
        pairing = Pairing((0, 1, 2, 3))
        assert collision_rate(d, pairing, m=2, trials=50, rng=np.random.default_rng(0)) == 0.0

    def test_birthday_regime_under_union_bound(self):
        n = 10**4
        d = Distribution.uniform(n)
        pairing = build_pairing(d, 0.25, np.random.default_rng(8))
        m = int(np.sqrt(n)) // 4
        rate = collision_rate(d, pairing, m=m, trials=1000, rng=np.random.default_rng(9))
        bound = pair_collision_bound(d, pairing, m)
        sigma = np.sqrt(bound * (1 - bound) / 1000)
        assert rate <= bound + 3 * sigma

    def test_collision_indicator_laws_close(self):
        # Empirical L1 distance between the collision-indicator laws under the
        # source and under the merged ensemble.
        n = 10**4
        d = Distribution.uniform(n)
        pairing = build_pairing(d, 0.25, None)
        m = 25
        trials = 1000
        rate_yes = collision_rate(d, pairing, m, trials, np.random.default_rng(21))

        gen = np.random.default_rng(22)
        ids = pairing.pair_ids(n)
        hits = 0
        for _ in range(trials):
            d_no = dno_general(d, pairing, gen)
            draws = SamplingOracle(d_no, seed=int(gen.integers(2**63))).draw(m)
            pid = ids[draws]
            pid.sort()
            hits += bool(((pid[1:] == pid[:-1]) & (pid[1:] >= 0)).any())
        rate_no = hits / trials
        l1_between_indicator_laws = 2 * abs(rate_yes - rate_no)
        assert l1_between_indicator_laws <= 0.1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "n, m, trials, random_pairing",
        [(10**4, 200, 300, False), (2000, 60, 50, True), (300, 40, 17, False), (8, 2, 500, True)],
    )
    def test_draws_match_unsorted_searchsorted(self, seed, n, m, trials, random_pairing):
        # The draws as they were before keys were looked up in sorted order;
        # every shape here collides in some trials and not in others.
        d = Distribution(random_pmf(np.random.default_rng(3), n))
        pairing = build_pairing(d, 0.25, np.random.default_rng(seed) if random_pairing else None)
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        rate = collision_rate(d, pairing, m, trials, rng)

        cdf = np.cumsum(d.pmf)
        cdf /= cdf[-1]
        ids = pairing.pair_ids(n)[np.searchsorted(cdf, twin.random((trials, m)), side="right")]
        ids.sort(axis=1)
        same = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
        assert rate == float(same.any(axis=1).mean())
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_parameter_errors(self):
        d = Distribution.uniform(6)
        pairing = Pairing((0, 1, 2, 3))
        with pytest.raises(ParameterError):
            collision_rate(d, pairing, m=1, trials=10, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            collision_rate(d, pairing, m=2, trials=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize(
        "m, trials", [(2.9, 10), (True, 10), (2, 10.7), (2, np.bool_(True))],
        ids=["fractional-m", "bool-m", "fractional-trials", "bool-trials"],
    )
    def test_counts_must_be_integers(self, m, trials):
        # int() ran m=2.9 as 2 and trials=10.7 as 10.
        d = Distribution.uniform(6)
        pairing = Pairing((0, 1, 2, 3))
        with pytest.raises(ParameterError, match="must be an integer"):
            collision_rate(d, pairing, m=m, trials=trials, rng=np.random.default_rng(0))
        rate = collision_rate(d, pairing, m=2.0, trials=np.int64(10), rng=np.random.default_rng(0))
        assert rate == collision_rate(d, pairing, m=2, trials=10, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("m", [-3, 0, 1, 2.5, True], ids=["negative", "zero", "one", "fraction", "bool"])
    def test_union_bound_needs_an_integer_m_of_at_least_2(self, m):
        # m = -3 returned 0.09, a bound on no number of draws.
        d = Distribution.uniform(6)
        pairing = Pairing((0, 1, 2, 3))
        with pytest.raises(ParameterError, match="m must be an integer >= 2"):
            pair_collision_bound(d, pairing, m)
        assert pair_collision_bound(d, pairing, 2.0) == pair_collision_bound(d, pairing, 2)


# Per-pair loop versions of the adversarial layer on tuples of Python ints:
# the reference the vectorised code must reproduce bit for bit.
def loop_build_pairing(pmf, beta, rng=None):
    k = int(math.floor(beta * len(pmf)))
    L = np.lexsort((np.arange(len(pmf)), pmf))[: 2 * k]
    if rng is not None:
        L = rng.permutation(L)
    return tuple(int(i) for i in L), tuple((int(L[2 * t]), int(L[2 * t + 1])) for t in range(k))


def loop_pair_ids(pairs, n):
    ids = np.full(n, -1, dtype=np.int64)
    for t, (x, y) in enumerate(pairs):
        ids[x] = t
        ids[y] = t
    return ids


def loop_dno_label_invariant(yes, pairs):
    pmf = yes.copy()
    for x, y in pairs:
        pmf[x] = yes[x] + yes[y]
        pmf[y] = 0.0
    return pmf


def loop_dno_general(yes, pairs, rng):
    pmf = yes.copy()
    coins = rng.random(len(pairs))
    for t, (x, y) in enumerate(pairs):
        total = yes[x] + yes[y]
        if total <= 0.0 or coins[t] < yes[x] / total:
            pmf[x], pmf[y] = total, 0.0
        else:
            pmf[x], pmf[y] = 0.0, total
    return pmf


def loop_verify(yes, no, L, pairs, a, b):
    n = len(yes)
    residuals, sums, one_zero = [], [], True
    for x, y in pairs:
        merged = no[x] + no[y]
        residuals.append(abs(merged - (yes[x] + yes[y])))
        sums.append(merged)
        if (no[x] == 0.0) == (no[y] == 0.0):
            one_zero = False
    bound = 2.0 * (1.0 - 2.0 * a) / ((1.0 - 2.0 * b) * n)
    off = np.ones(n, dtype=bool)
    off[list(L)] = False
    failures = []
    if max(residuals) > 1e-12:
        failures.append("pair mass not conserved")
    if not one_zero:
        failures.append("some pair does not have exactly one zero endpoint")
    if not all(s <= bound + 1e-12 for s in sums):
        failures.append("per-pair mass bound violated")
    if not np.array_equal(yes[off], no[off]):
        failures.append("d_yes and d_no disagree off L")
    if np.count_nonzero(no) > n - int(math.floor(b * n)):
        failures.append("support size exceeds (1 - beta)n budget")
    return np.array(residuals), np.array(sums), tuple(failures)


def loop_relabel(yes, no, L, pairs, rng):
    perm = rng.permutation(len(yes))
    new_yes, new_no = np.empty(len(yes)), np.empty(len(yes))
    new_yes[perm] = yes
    new_no[perm] = no
    new_pairs = tuple((int(perm[x]), int(perm[y])) for x, y in pairs)
    return new_yes, new_no, tuple(int(perm[i]) for i in L), new_pairs


def loop_pair_collision_bound(pmf, pairs, m):
    return min(1.0, m * m * max(float(pmf[x] + pmf[y]) for x, y in pairs) / 2.0)


def same_bytes(array, reference, dtype):
    return array.dtype == dtype and array.tobytes() == np.asarray(reference, dtype=dtype).tobytes()


def assert_matches_loop(d, params, seed):
    """Run every vectorised step and its loop version on twin generators."""
    m = 25
    fast_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for shuffled in (False, True):
        pairing = build_pairing(d, params.beta, fast_rng if shuffled else None)
        L, pairs = loop_build_pairing(d.pmf, params.beta, loop_rng if shuffled else None)
        assert same_bytes(pairing.L, L, np.int64) and same_bytes(pairing.pairs, pairs, np.int64)
        assert pairing.pairs.shape == (len(pairs), 2)
        assert same_bytes(pairing.pair_ids(d.n), loop_pair_ids(pairs, d.n), np.int64)
        assert pair_collision_bound(d, pairing, m) == loop_pair_collision_bound(d.pmf, pairs, m)

        merged = dno_label_invariant(d, pairing)
        assert same_bytes(merged.pmf, loop_dno_label_invariant(d.pmf, pairs), np.float64)
        general = dno_general(d, pairing, fast_rng)
        assert same_bytes(general.pmf, loop_dno_general(d.pmf, pairs, loop_rng), np.float64)

        pair = AdversarialPair(d_yes=d, d_no=general, pairing=pairing, params=params)
        report = verify_adversarial(pair)
        residuals, sums, failures = loop_verify(d.pmf, general.pmf, L, pairs, params.alpha, params.beta)
        assert same_bytes(report.conservation_residuals, residuals, np.float64)
        assert same_bytes(report.pair_sums, sums, np.float64)
        assert report.failures == failures

        moved = relabel(pair, fast_rng)
        yes, no, moved_L, moved_pairs = loop_relabel(d.pmf, general.pmf, L, pairs, loop_rng)
        assert same_bytes(moved.d_yes.pmf, yes, np.float64)
        assert same_bytes(moved.d_no.pmf, no, np.float64)
        assert same_bytes(moved.pairing.L, moved_L, np.int64)
        assert same_bytes(moved.pairing.pairs, moved_pairs, np.int64)
    assert fast_rng.bit_generator.state == loop_rng.bit_generator.state


class TestMatchesLoopVersions:
    def test_mass_ties_keep_the_lexsort_order(self):
        pmf = np.arange(60) % 7 + 1.0
        pmf[[5, 17, 40]] = 0.0
        d = Distribution(pmf / pmf.sum())
        for seed in range(3):
            assert_matches_loop(d, NonConcentrationParams(0.1, 0.4), seed)

    def test_zero_total_pairs_merge_into_x(self):
        pmf = np.zeros(40)
        pmf[::3] = 1.0
        d = Distribution(pmf / pmf.sum())
        pairing = build_pairing(d, 0.3, None)
        x, y = pairing.pairs.T
        assert (d.pmf[x] + d.pmf[y] == 0.0).sum() >= 10
        general = dno_general(d, pairing, np.random.default_rng(4))
        reference = loop_dno_general(d.pmf, pairing.pairs.tolist(), np.random.default_rng(4))
        assert same_bytes(general.pmf, reference, np.float64)
        assert_matches_loop(d, NonConcentrationParams(0.1, 0.3), 4)

    def test_corrupted_bundle_trips_every_failure(self):
        d = Distribution.uniform(8)
        pairing = Pairing((0, 1, 2, 3))
        no = np.array([0.3, 0.1, 0.05, 0.05, 0.125, 0.125, 0.2, 0.05])
        params = NonConcentrationParams(0.25, 0.25)
        bad = AdversarialPair(d_yes=d, d_no=Distribution(no), pairing=pairing, params=params)
        report = verify_adversarial(bad)
        residuals, sums, failures = loop_verify(d.pmf, no, pairing.L, pairing.pairs.tolist(), 0.25, 0.25)
        assert len(report.failures) == 5
        assert report.failures == failures
        assert same_bytes(report.conservation_residuals, residuals, np.float64)
        assert same_bytes(report.pair_sums, sums, np.float64)
        with pytest.raises(ValueError):
            report.pair_sums[0] = 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exponential_source_at_n_10_4(self, seed):
        raw = np.random.default_rng(seed).exponential(size=10**4)
        assert_matches_loop(Distribution(raw / raw.sum()), NonConcentrationParams(0.1, 0.25), seed)
