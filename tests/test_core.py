import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disttest.core import (
    _DRAW_BLOCK,
    Distribution,
    NonConcentrationParams,
    SamplingOracle,
    _GuideTable,
    _index_set,
    _stable_order,
    additive_chernoff_bound,
    derive_seed,
    empirical_distribution,
    format_field,
    high_set,
    is_non_concentrated,
    l1_distance,
    load_distribution,
    multiplicative_chernoff_bound,
    sample_size_additive,
    save_distribution,
    sorted_l1_distance,
    top_elements,
)
from disttest.cli import ExperimentConfig
from disttest.errors import DimensionError, ParameterError, StructureError
from disttest.learner import IdentityTestParams, identity_test_sample_size, learn_adaptive, learn_known_support
from disttest.linprop import LinearProperty, Polyhedron, uniformity_polyhedron
from disttest.reference import min_permutation_l1, min_subset_mass
from disttest.tester import derive_params, estimate_high_part

from conftest import random_distribution, random_pmf


pmf_lists = st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12)

# Every public integer argument: a call that passes its argument on, and a
# value just outside its bound.
INTEGER_SITES = {
    "seed": (lambda v: SamplingOracle(Distribution.uniform(2), seed=v), 2**64),
    "opaque-n": (lambda v: SamplingOracle(lambda gen, size: gen.integers(0, 2, size), seed=1, n=v), 0),
    "draw": (lambda v: SamplingOracle(Distribution.uniform(2), seed=1).draw(v), -1),
    "draw_tally": (lambda v: SamplingOracle(Distribution.uniform(2), seed=1).draw_tally(v), -1),
    "draw_counts": (lambda v: SamplingOracle(Distribution.uniform(2), seed=1).draw_counts(v), 2**63),
    "point_mass": (lambda v: Distribution.point_mass(4, v), 4),
    "point_mass-n": (lambda v: Distribution.point_mass(v, 0), 0),
    "uniform": (lambda v: Distribution.uniform(v), 0),
    "uniform_on": (lambda v: Distribution.uniform_on([0], v), 0),
    "top_elements": (lambda v: top_elements(Distribution.uniform(4), v), 5),
    "empirical_distribution": (lambda v: empirical_distribution([0], v), 0),
    "additive_chernoff_bound": (lambda v: additive_chernoff_bound(v, 0.1), 0),
    "LinearProperty": (lambda v: LinearProperty(Polyhedron([[1.0, 1.0]], [1.0]), v), 0),
    "uniformity_polyhedron": (lambda v: uniformity_polyhedron(v, 0.1), 0),
    "derive_params": (lambda v: derive_params(v, 0.1, 0.3, 10), 2**63),
    "estimate_high_part": (
        lambda v: estimate_high_part(SamplingOracle(Distribution.uniform(8), 1), derive_params(1, 0.1, 0.3, 8), v), 0
    ),
    "learn_known_support": (lambda v: learn_known_support(SamplingOracle(Distribution.uniform(4), 1), v, 0.5), 0),
    "identity_test_sample_size": (lambda v: identity_test_sample_size(v, IdentityTestParams(0.1, 0.3, 0.1)), 0),
    "learn_adaptive": (lambda v: learn_adaptive(SamplingOracle(Distribution.uniform(4), 1), 0.0, 0.5, v), 0),
    "config-seed": (lambda v: ExperimentConfig("learn", (1, v), 1, {"dist": "x"}, None), -1),
    "config-repeats": (lambda v: ExperimentConfig("learn", (1,), v, {"dist": "x"}, None), 0),
}


def to_dist(values) -> Distribution:
    arr = np.asarray(values, dtype=np.float64)
    return Distribution(arr / arr.sum())


class TestDistribution:
    def test_valid_construction(self):
        d = Distribution(np.array([0.25, 0.75]))
        assert d.n == 2
        assert d.mass([1]) == 0.75
        assert list(d.support()) == [0, 1]

    def test_mass_counts_each_index_once(self):
        d = Distribution(np.array([0.2, 0.7, 0.1]))
        assert d.mass([2, 2]) == 0.1
        assert d.mass((i for i in [1, 0, 1, 0])) == d.mass([0, 1]) == 0.2 + 0.7
        assert d.mass([]) == 0.0

    @pytest.mark.parametrize("indices", [[-1], [5], [3], [0, -2], [1, 3], [3, 0, 3], np.array([-1, -1, 2])])
    def test_mass_rejects_indices_outside_the_domain(self, indices):
        with pytest.raises(ParameterError, match="outside the domain"):
            Distribution(np.array([0.2, 0.7, 0.1])).mass(indices)

    @pytest.mark.parametrize(
        "indices", [[1.7], [True], [False, True], np.array([0.0, 0.5]), {0, 1.5}, iter([True, True])]
    )
    def test_mass_rejects_non_integer_indices(self, indices):
        # astype(int64) would read 1.7 and True both as index 1.
        with pytest.raises(ParameterError, match="must be integers"):
            Distribution(np.array([0.2, 0.7, 0.1])).mass(indices)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ([0, 3], "outside the domain"),
            ([-1], "outside the domain"),
            ([1.5], "must be integers"),
            ([True], "must be integers"),
        ],
    )
    def test_uniform_on_rejects_bad_indices(self, indices, message):
        with pytest.raises(ParameterError, match=message):
            Distribution.uniform_on(indices, 3)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.array([7, 3, 3, 0, 9, 7]),
            lambda: range(9, -1, -3),
            lambda: {4, 1, 8},
            lambda: (i % 5 for i in range(12)),
            lambda: [2, 2, 2],
            lambda: [5, 5],
            lambda: [],
            lambda: np.array([], dtype=np.int64),
            lambda: range(0),
            lambda: range(1, 10, 4),
            lambda: range(8, -1, -2),
            lambda: range(5, 2),
        ],
        ids=[
            "ndarray", "range", "set", "generator", "repeats", "pair", "empty-list", "empty-ndarray", "empty-range",
            "range-step", "range-negative-step", "range-empty-backwards",
        ],
    )
    def test_index_set_equals_unique(self, make):
        got = _index_set(make(), 10)
        want = np.unique(np.asarray(list(make()), dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("indices", [[[3, 1], [1, 0]], np.array([[3, 1], [1, 0]])], ids=["nested-list", "2-d"])
    def test_nested_indices_raise(self, indices):
        # These raised numpy's bare ValueError from the dedupe mask.
        d = Distribution.uniform(4)
        for ask in (d.mass, lambda idx: Distribution.uniform_on(idx, 4)):
            with pytest.raises(ParameterError, match="flat"):
                ask(indices)

    def test_integral_float_indices_accepted(self):
        d = Distribution(np.array([0.2, 0.7, 0.1]))
        assert d.mass(np.array([1.0, 2.0])) == d.mass([1, 2])
        assert Distribution.uniform_on([0.0, 2.0], 3) == Distribution.uniform_on([0, 2], 3)

    @pytest.mark.parametrize(
        "pmf",
        [
            [],
            [0.5, 0.6],
            [-0.1, 1.1],
            [np.nan, 1.0],
            [0.5, 0.5 + 1e-8],
            # Not numbers: these raised a bare ValueError, TypeError or OverflowError.
            "ab",
            [0.5, "a"],
            {"a": 1.0},
            [10**400],
        ],
    )
    def test_invalid_construction(self, pmf):
        with pytest.raises(ParameterError):
            Distribution(pmf)

    def test_immutable(self):
        d = Distribution.uniform(3)
        with pytest.raises(ValueError):
            d.pmf[0] = 0.9

    def test_sum_tolerance_accepts_tiny_error(self):
        Distribution(np.array([0.5, 0.5 + 5e-10]))


class TestL1Distance:
    def test_identity(self):
        u = Distribution.uniform(4)
        assert l1_distance(u, u) == 0.0

    def test_two_point(self):
        assert l1_distance(Distribution.uniform(2), Distribution.point_mass(2, 0)) == 1.0

    def test_half_support_direct_summation(self):
        # Independent oracle: direct summation over the 10 coordinates.
        n = 10
        full = Distribution.uniform(n)
        half = Distribution.uniform_on(range(n // 2), n)
        direct = sum(abs(full.pmf[i] - half.pmf[i]) for i in range(n))
        assert l1_distance(full, half) == pytest.approx(direct, abs=1e-15)
        assert l1_distance(full, half) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            l1_distance(Distribution.uniform(3), Distribution.uniform(4))

    @given(pmf_lists, pmf_lists)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_zero_iff_equal(self, a, b):
        m = max(len(a), len(b))
        a = a + [0.5] * (m - len(a))
        b = b + [0.5] * (m - len(b))
        d1, d2 = to_dist(a), to_dist(b)
        assert l1_distance(d1, d2) == pytest.approx(l1_distance(d2, d1), abs=0)
        if l1_distance(d1, d2) == 0.0:
            assert np.all(np.abs(d1.pmf - d2.pmf) <= 1e-12)
        assert l1_distance(d1, d1) == 0.0

    @given(pmf_lists, pmf_lists, pmf_lists)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        m = max(len(a), len(b), len(c))
        a = a + [0.5] * (m - len(a))
        b = b + [0.5] * (m - len(b))
        c = c + [0.5] * (m - len(c))
        d1, d2, d3 = to_dist(a), to_dist(b), to_dist(c)
        assert l1_distance(d1, d3) <= l1_distance(d1, d2) + l1_distance(d2, d3) + 1e-12


class TestHighSet:
    def test_examples(self):
        d = Distribution(np.array([0.5, 0.3, 0.1, 0.1]))
        assert high_set(d, 0.2) == {0, 1}
        assert high_set(Distribution.uniform(10), 0.5) == frozenset()

    def test_matches_brute_force_filter(self, rng):
        for _ in range(20):
            d = random_distribution(rng, 8)
            expected = {i for i in range(8) if d.pmf[i] >= 0.1}
            assert high_set(d, 0.1) == expected

    def test_members_are_python_ints(self):
        assert all(type(i) is int for i in high_set(Distribution.uniform(5), 0.1))

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            high_set(Distribution.uniform(2), 0.0)
        with pytest.raises(ParameterError):
            high_set(Distribution.uniform(2), 1.0)

    def test_monotone_in_kappa(self, rng):
        for _ in range(20):
            d = random_distribution(rng, 9)
            k1, k2 = sorted(rng.uniform(0.01, 0.9, size=2))
            assert high_set(d, k1) >= high_set(d, k2)


class TestTopElements:
    def test_examples(self):
        d = Distribution(np.array([0.1, 0.4, 0.3, 0.2]))
        assert top_elements(d, 2) == [1, 2]
        assert top_elements(d, 0) == []

    def test_tie_break_smaller_index(self):
        d = Distribution(np.array([0.25, 0.25, 0.25, 0.25]))
        assert top_elements(d, 3) == [0, 1, 2]
        assert all(type(i) is int for i in top_elements(d, 4))

    def test_agrees_with_full_sort(self, rng):
        for _ in range(20):
            d = random_distribution(rng, 12)
            got = top_elements(d, 5)
            full = sorted(range(12), key=lambda i: (-d.pmf[i], i))
            assert got == full[:5]
            assert all(d.pmf[got[i]] >= d.pmf[got[i + 1]] for i in range(4))

    def test_parameter_error(self):
        with pytest.raises(ParameterError):
            top_elements(Distribution.uniform(3), 4)


class TestSortedL1:
    def test_permuted_pair_is_zero(self):
        d1 = Distribution(np.array([0.7, 0.3]))
        d2 = Distribution(np.array([0.3, 0.7]))
        assert sorted_l1_distance(d1, d2) == 0.0
        assert sorted_l1_distance(d1, d1) == 0.0

    def test_matches_exhaustive_minimum(self, rng):
        for n in range(2, 7):
            for _ in range(10):
                d1, d2 = random_distribution(rng, n), random_distribution(rng, n)
                assert sorted_l1_distance(d1, d2) == pytest.approx(
                    min_permutation_l1(d1.pmf, d2.pmf), abs=1e-12
                )

    def test_never_exceeds_plain_l1(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 15))
            d1, d2 = random_distribution(rng, n), random_distribution(rng, n)
            assert sorted_l1_distance(d1, d2) <= l1_distance(d1, d2) + 1e-15

    def test_equality_when_both_sorted(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 10))
            a = np.sort(random_pmf(rng, n))[::-1]
            b = np.sort(random_pmf(rng, n))[::-1]
            d1, d2 = Distribution(a), Distribution(b)
            assert sorted_l1_distance(d1, d2) == pytest.approx(l1_distance(d1, d2), abs=1e-15)


class TestNonConcentration:
    def test_uniform_is_alpha_alpha_non_concentrated(self):
        # Holds whenever floor(beta*n)/n >= alpha.  The boundary alpha is
        # checked where 1/n is dyadic (exact in floats), the interior elsewhere.
        assert is_non_concentrated(
            Distribution.uniform(8), NonConcentrationParams(alpha=0.25, beta=0.25)
        )
        for n in (5, 8, 12):
            for beta in (0.2, 0.3, 0.45):
                k = math.floor(beta * n)
                if k < 1:
                    continue
                alpha = min(beta, 0.9 * k / n)
                if not 0 < alpha <= beta < 0.5:
                    continue
                p = NonConcentrationParams(alpha=alpha, beta=beta)
                assert is_non_concentrated(Distribution.uniform(n), p)

    def test_point_mass_fails(self):
        p = NonConcentrationParams(alpha=0.1, beta=0.25)
        assert not is_non_concentrated(Distribution.point_mass(8, 3), p)

    def test_matches_subset_enumeration(self, rng):
        p = NonConcentrationParams(alpha=0.1, beta=0.3)
        for _ in range(25):
            d = random_distribution(rng, 10)
            brute = min_subset_mass(d.pmf, 3) >= p.alpha
            assert is_non_concentrated(d, p) == brute

    def test_monotone_in_alpha(self, rng):
        beta = 0.3
        for _ in range(25):
            d = random_distribution(rng, 10)
            alpha = float(rng.uniform(0.01, beta))
            if is_non_concentrated(d, NonConcentrationParams(alpha, beta)):
                smaller = alpha / 2
                assert is_non_concentrated(d, NonConcentrationParams(smaller, beta))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            NonConcentrationParams(alpha=0.4, beta=0.3)
        with pytest.raises(ParameterError):
            is_non_concentrated(Distribution.uniform(2), NonConcentrationParams(0.1, 0.3))


class TestLightestOrder:
    def test_stable_order_matches_stable_argsort(self):
        # Random tie patterns, signed zeros and the empty and one-element cases.
        rng = np.random.default_rng(7)
        for size in (0, 1, 2, 3, 50, 1000):
            for levels in (1, 2, 30, None):
                values = rng.random(size) if levels is None else rng.integers(0, levels, size) / 8.0
                values[rng.random(size) < 0.1] = -0.0
                got, want = _stable_order(values), np.argsort(values, kind="stable")
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_prefix_keeps_the_longest_request(self):
        levels = np.ceil(_exponential_pmf(1000) * 5000)  # runs of equal masses
        d = Distribution(levels / levels.sum())
        order = np.argsort(d.pmf, kind="stable")
        for count, kept in ((10, 10), (400, 400), (3, 400), (400, 400), (1000, 1000), (1, 1000)):
            got = d._lightest(count)
            assert got.tobytes() == order[:count].tobytes() and not got.flags.writeable
            assert vars(d)["_lightest_prefix"].size == kept


class TestSampleSize:
    def test_closed_form_values(self):
        assert sample_size_additive(0.1, math.exp(-2.0)) == 100
        assert sample_size_additive(0.5, 0.5) == 2
        # Independent evaluation of the closed form for the third case.
        independent = math.ceil(math.log(100.0) / (2 * 0.05**2))
        assert independent == 922
        assert sample_size_additive(0.05, 0.01) == 922

    def test_bound_actually_met(self):
        m = sample_size_additive(0.05, 0.01)
        assert math.exp(-2 * (0.05 * m) ** 2 / m) <= 0.01

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            sample_size_additive(0.0, 0.5)
        with pytest.raises(ParameterError):
            sample_size_additive(0.1, 1.0)


def _exponential_pmf(size: int) -> np.ndarray:
    raw = np.random.default_rng(3).exponential(size=size)
    return raw / raw.sum()


# pmfs that stress the guide table: CDF values exactly on bucket edges, a
# bucket holding one step, equal CDF values inside one bucket, many steps
# crowded below 1, a single atom, and a support in the 10^5s.
GUIDE_PMFS = {
    "uniform-64": np.full(64, 1 / 64),
    "dyadic": np.r_[0.5 ** np.arange(1, 10), 0.5**9],
    "one-step": np.array([0.3, 0.0, 0.7]),
    "tiny-atom-absorbed": np.array([0.3, 1e-17, 0.0, 0.7]),
    "heavy-plus-tiny": np.r_[1 - 1e-6, np.full(1000, 1e-9)],
    "s-1": np.array([0.0, 1.0, 0.0]),
    "point-mass-at-last": np.r_[np.zeros(99), 1.0],
    "exponential-1e5": _exponential_pmf(10**5),
}

# Distributions on atoms whose tables hold no CDF value inside a bucket: 2**16
# evenly spaced atoms, so s > _DRAW_BLOCK and a block is s keys, and a point mass.
ATOM_DISTS = {
    "uniform-on-2^16": lambda: Distribution.uniform_on(range(0, 2**22, 64), 2**22),
    "point-mass": lambda: Distribution.point_mass(10, 3),
}


def _dist(name: str) -> Distribution:
    return ATOM_DISTS[name]() if name in ATOM_DISTS else Distribution(GUIDE_PMFS[name])


class TestSamplingOracle:
    def test_draw_zero(self):
        o = SamplingOracle(Distribution.uniform(4), seed=1)
        assert o.draw(0).size == 0

    def test_point_mass_draws(self):
        o = SamplingOracle(Distribution.point_mass(6, 2), seed=9)
        assert list(o.draw(5)) == [2] * 5

    def test_uniform_frequencies(self):
        o = SamplingOracle(Distribution.uniform(4), seed=7)
        s = o.draw(10**5)
        freq = np.bincount(s, minlength=4) / s.size
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_determinism_and_counter(self):
        d = Distribution(np.array([0.2, 0.3, 0.5]))
        o1, o2 = SamplingOracle(d, seed=123), SamplingOracle(d, seed=123)
        assert np.array_equal(o1.draw(1000), o2.draw(1000))
        assert o1.samples_drawn == 1000
        assert np.array_equal(o1.draw_counts(500), o2.draw_counts(500))
        assert o1.samples_drawn == 1500

    def test_never_draws_zero_mass_indices(self):
        d = Distribution(np.array([0.5, 0.0, 0.5]))
        o = SamplingOracle(d, seed=3)
        assert not np.any(o.draw(20000) == 1)

    @pytest.mark.parametrize(
        "pmf",
        [
            [0.0, 0.0, 0.25, 0.75],
            [0.1, 0.0, 0.0, 0.3, 0.0, 0.6],
            [0.5, 0.5, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, 0.5, 1e-300, 0.0, 0.5, 0.0],
            list(np.arange(1.0, 65.0) / np.arange(1.0, 65.0).sum()),
            *GUIDE_PMFS.values(),
        ],
        ids=["leading", "interior", "trailing", "mass-at-0", "mass-at-last", "tiny-atom", "dense", *GUIDE_PMFS],
    )
    def test_draws_match_full_domain_table(self, pmf):
        d = Distribution(np.array(pmf))
        full = np.cumsum(d.pmf)
        full /= full[-1]
        atoms = np.flatnonzero(d.pmf > 0.0)
        cdf = np.cumsum(d.pmf[atoms])
        cdf /= cdf[-1]
        for seed in (0, 1, 2, 99, 2**63 + 5):
            oracle = SamplingOracle(d, seed=seed)
            gen = np.random.Generator(np.random.PCG64(seed))
            drawn = 0
            for m in (1, 0, 1000, 37):
                u = gen.random(m)
                expected = np.searchsorted(full, u, side="right")
                got = oracle.draw(m)
                drawn += m
                assert got.dtype == np.int64
                assert np.array_equal(got, expected)
                assert np.array_equal(got, atoms[np.searchsorted(cdf, u, side="right")])
                assert oracle.samples_drawn == drawn

    def test_draw_counts_matches_pmf_at_scale(self):
        d = Distribution(np.array([0.7, 0.3]))
        o = SamplingOracle(d, seed=11)
        counts = o.draw_counts(10**6)
        assert counts.sum() == 10**6
        assert abs(counts[0] / 10**6 - 0.7) < 0.005

    def test_opaque_source(self):
        def proc(gen, size):
            return gen.integers(0, 3, size=size)

        o = SamplingOracle(proc, seed=21, n=3)
        s = o.draw(50)
        assert s.min() >= 0 and s.max() < 3
        counts = o.draw_counts(1000)
        assert counts.sum() == 1000

    def test_seed_validation(self):
        with pytest.raises(ParameterError):
            SamplingOracle(Distribution.uniform(2), seed=-1)

    @pytest.mark.parametrize(
        "value", [2.5, True, np.bool_(True), np.nan, "3", None],
        ids=["fraction", "bool", "numpy-bool", "nan", "str", "out-of-range"],
    )
    @pytest.mark.parametrize("call, outside", INTEGER_SITES.values(), ids=INTEGER_SITES.keys())
    def test_integer_arguments_reject_fractions_and_booleans(self, call, outside, value):
        # int() read 1.9 as 1 and True as 1; point_mass read True as a mask;
        # Distribution.uniform(2.5) raised numpy's TypeError; learn_known_support
        # ran s=2.5 as 7.5 draws' worth; derive_params(10**400, ...) overflowed.
        with pytest.raises(ParameterError, match="must be an integer"):
            call(outside if value is None else value)

    @pytest.mark.parametrize("value", ["0.1", True, np.bool_(False), None, 10**400])
    @pytest.mark.parametrize(
        "call",
        [
            lambda v: derive_params(50, v, 0.3, 10),
            lambda v: derive_params(50, 0.1, v, 10),
            lambda v: NonConcentrationParams(v, 0.2),
            lambda v: NonConcentrationParams(0.1, v),
            lambda v: uniformity_polyhedron(4, v),
            lambda v: high_set(Distribution.uniform(4), v),
            lambda v: learn_adaptive(SamplingOracle(Distribution.uniform(4), 1), v, 0.5, 4),
            lambda v: learn_adaptive(SamplingOracle(Distribution.uniform(4), 1), 0.0, v, 4),
            lambda v: learn_known_support(SamplingOracle(Distribution.uniform(4), 1), 2, v),
            lambda v: sample_size_additive(v, 0.1),
            lambda v: sample_size_additive(0.1, v),
            lambda v: identity_test_sample_size(2, IdentityTestParams(0.1, 0.3, 0.1), v),
            lambda v: multiplicative_chernoff_bound(v, 0.5),
            lambda v: multiplicative_chernoff_bound(10.0, v),
            lambda v: additive_chernoff_bound(10, v),
        ],
        ids=["gamma1", "gamma2", "alpha", "beta", "eps", "kappa", "eta", "delta", "known-s-delta",
             "additive-delta", "additive-kappa", "c_test", "chernoff-mu", "chernoff-delta", "chernoff-deviation"],
    )
    def test_real_arguments_reject_strings_and_booleans(self, call, value):
        # derive_params(50, "0.1", 0.3, 10), NonConcentrationParams("a", 0.2),
        # uniformity_polyhedron(4, "0.1"), high_set(d, "0.1") and
        # learn_adaptive(oracle, "0", 0.5, 4) raised a bare TypeError from a
        # range compare, and sample_size_additive(True, 0.1) and
        # multiplicative_chernoff_bound(True, 0.5) returned a number.
        with pytest.raises(ParameterError, match="must be a real number"):
            call(value)

    @pytest.mark.parametrize(
        "c_test", [0, 0.0, -1.0, np.inf, np.nan], ids=["zero", "zero-float", "negative", "inf", "nan"]
    )
    def test_c_test_must_be_positive_and_finite(self, c_test):
        # inf overflowed in the ceiling and 0 drew no test samples, so every
        # test divided by zero and rejected.
        oracle = SamplingOracle(Distribution.uniform(4), 1)
        with pytest.raises(ParameterError, match="c_test must be positive and finite"):
            identity_test_sample_size(2, IdentityTestParams(0.1, 0.3, 0.1), c_test)
        with pytest.raises(ParameterError, match="c_test must be positive and finite"):
            learn_adaptive(oracle, 0.0, 0.5, 4, c_test)
        assert oracle.samples_drawn == 0

    @pytest.mark.parametrize("delta", [np.inf, np.nan])
    def test_additive_delta_must_be_finite(self, delta):
        with pytest.raises(ParameterError, match="delta must be positive and finite"):
            sample_size_additive(delta, 0.1)

    @pytest.mark.parametrize("m", [2**63, np.uint64(2**63), 1e19, 2**70], ids=["int", "uint64", "float", "huge"])
    @pytest.mark.parametrize("call", ["draw", "draw_tally", "draw_counts"])
    def test_draw_counts_beyond_int64_raise(self, call, m):
        # draw_counts(2**63) raised a bare OverflowError and draw(2**63) a bare ValueError.
        for source, n in ((Distribution.uniform(2), None), (lambda gen, size: gen.integers(0, 2, size), 2)):
            oracle = SamplingOracle(source, seed=1, n=n)
            with pytest.raises(ParameterError, match=r"m must be an integer in \[0, 9223372036854775807\]"):
                getattr(oracle, call)(m)
            assert oracle.samples_drawn == 0

    def test_integral_values_of_any_type_are_accepted(self):
        d = Distribution.uniform(4)
        for m in (3, 3.0, np.int64(3), np.float64(3.0), np.uint8(3)):
            assert np.array_equal(SamplingOracle(d, seed=np.uint64(5)).draw(m), SamplingOracle(d, seed=5).draw(3))
            assert top_elements(d, m) == [0, 1, 2]
            assert Distribution.point_mass(4, m) == Distribution.point_mass(4, 3)

    @pytest.mark.parametrize(
        "seed, index", [(1.5, 0), (True, 0), (-1, 0), (0, 2.5), (0, np.bool_(True)), (0, -1)],
        ids=["fractional-seed", "bool-seed", "negative-seed", "fractional-index", "bool-index", "negative-index"],
    )
    def test_derive_seed_takes_integers_at_least_zero(self, seed, index):
        # int() read 1.5 and True as 1, and -1 raised numpy's bare ValueError.
        with pytest.raises(ParameterError, match="must be an integer >= 0"):
            derive_seed(seed, index)

    def test_derive_seed_accepts_integral_values_of_any_type(self):
        want = derive_seed(3, 4)
        assert derive_seed(3.0, np.int64(4)) == derive_seed(np.uint64(3), np.float64(4.0)) == want


class TestGuideTable:
    @pytest.mark.parametrize("pmf", GUIDE_PMFS.values(), ids=GUIDE_PMFS.keys())
    def test_slots_exact_on_boundary_keys(self, pmf):
        # Random keys almost never land on a CDF value or a bucket edge; these
        # do, from both sides. A key is a raw 64-bit output x whose double is
        # k * 2**-53 for k = x >> 11, so each k comes with its 11 low bits
        # all clear and all set.
        table = Distribution(pmf)._guide
        edges = np.arange(table.buckets + 1) / table.buckets
        scaled = np.concatenate([table.cdf, edges]) * 2.0**53
        near = np.concatenate([np.floor(scaled), np.ceil(scaled)])
        k = np.clip(np.concatenate([near - 1, near, near + 1]), 0, 2**53 - 1).astype(np.uint64)
        x = np.concatenate([k << np.uint64(11), (k << np.uint64(11)) | np.uint64(2047)])
        expected = np.searchsorted(table.cdf, np.r_[k, k] * 2.0**-53, side="right")
        assert np.array_equal(table.slots(x), expected)

    def test_stress_pmfs_reach_every_bucket_kind(self):
        # hi - lo counts the CDF values strictly inside a bucket: none when
        # they all sit on edges, one for a plain compare, two or more for a
        # bisection, and ~1000 for one that takes ten rounds.
        tables = {name: Distribution(pmf)._guide for name, pmf in GUIDE_PMFS.items()}
        held = {name: table.hi - table.lo for name, table in tables.items()}
        for name, table in tables.items():
            assert table.held == held[name].max()
        assert tables["uniform-64"].held == 0
        assert tables["one-step"].held == 1
        for name in ("tiny-atom-absorbed", "heavy-plus-tiny", "exponential-1e5"):
            assert tables[name].held >= 2
            assert np.array_equal(tables[name].deep, held[name] >= 2)
        assert held["heavy-plus-tiny"].max() >= 512
        assert tables["s-1"].buckets == 2

    @pytest.mark.parametrize("pmf", GUIDE_PMFS.values(), ids=GUIDE_PMFS.keys())
    def test_counted_bounds_equal_the_searched_ones(self, pmf):
        # The reference build: two searches of the CDF for the K+1 bucket edges.
        table = Distribution(pmf)._guide
        edges = np.arange(table.buckets + 1) / table.buckets
        lo = np.searchsorted(table.cdf, edges[:-1], side="right")
        hi = np.searchsorted(table.cdf, edges[1:], side="left")
        for got, want in ((table.lo, lo), (table.hi, hi), (table.deep, hi - lo >= 2)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert table.held == (hi - lo).max()

    def test_bucket_count_depends_on_support_size_only(self):
        for s, buckets in ((1, 2), (2, 4), (3, 8), (64, 128), (65, 256)):
            small = Distribution.uniform_on(range(s), 1000)
            spread = Distribution(np.r_[np.zeros(5), _exponential_pmf(s)])
            assert small._guide.buckets == spread._guide.buckets == buckets

    @pytest.mark.parametrize("name", [*GUIDE_PMFS, *ATOM_DISTS])
    def test_tally_matches_unique_of_draw(self, name):
        d = _dist(name)
        for m in (0, 1, 20000):
            by_tally, by_draw = SamplingOracle(d, seed=11), SamplingOracle(d, seed=11)
            values, counts = by_tally.draw_tally(m)
            want_values, want_counts = np.unique(by_draw.draw(m), return_counts=True)
            assert values.dtype == want_values.dtype and counts.dtype == want_counts.dtype
            assert np.array_equal(values, want_values)
            assert np.array_equal(counts, want_counts)
            assert by_tally.samples_drawn == by_draw.samples_drawn == m
            assert np.array_equal(by_tally.draw(100), by_draw.draw(100))

    @pytest.mark.parametrize("name", ["uniform-64", "one-step", "heavy-plus-tiny", "exponential-1e5", *ATOM_DISTS])
    def test_draws_cross_block_edges(self, name):
        # A block holds max(_DRAW_BLOCK, s) keys; exponential-1e5 and
        # uniform-on-2^16 have s above _DRAW_BLOCK, so their block is the
        # support size.
        d = _dist(name)
        table = d._guide
        block = max(_DRAW_BLOCK, table.atoms.size)
        for m in (block - 1, block, block + 1, 2 * block + 7):
            gen = np.random.Generator(np.random.PCG64(m))
            oracle, by_draw, twin = (SamplingOracle(d, seed=m) for _ in range(3))
            got = oracle.draw(m)
            assert np.array_equal(got, table.atoms[np.searchsorted(table.cdf, gen.random(m), side="right")])
            values, counts = twin.draw_tally(m)
            want_values, want_counts = np.unique(by_draw.draw(m), return_counts=True)
            assert np.array_equal(values, want_values) and np.array_equal(counts, want_counts)
            assert oracle.samples_drawn == twin.samples_drawn == m
            after = oracle.draw(100)
            assert np.array_equal(after, twin.draw(100))
            assert np.array_equal(after, table.atoms[np.searchsorted(table.cdf, gen.random(100), side="right")])

    @pytest.mark.parametrize(
        "make",
        [lambda: Distribution(GUIDE_PMFS["uniform-64"]), lambda: Distribution(np.array([0.5, 1e-17, 0.0, 0.5])),
         *ATOM_DISTS.values()],
        ids=["uniform-64", "atom-absorbed-on-an-edge", *ATOM_DISTS],
    )
    def test_tally_without_slots_when_no_bucket_holds_a_cdf_value(self, make, monkeypatch):
        # With held == 0 every key of bucket b takes slot lo[b], so the tally
        # counts buckets and never asks for a key's slot. The absorbed atom's
        # CDF value equals its neighbour's, so no bucket folds onto its slot.
        d = make()
        assert d._guide.held == 0
        m = 3 * max(_DRAW_BLOCK, d._guide.atoms.size) + 5
        by_draw = SamplingOracle(d, seed=21)
        want_values, want_counts = np.unique(by_draw.draw(m), return_counts=True)

        def no_slots(self, x):
            raise AssertionError("slots() called on a table with held == 0")

        monkeypatch.setattr(_GuideTable, "slots", no_slots)
        by_tally = SamplingOracle(d, seed=21)
        values, counts = by_tally.draw_tally(m)
        assert values.dtype == counts.dtype == np.int64
        assert np.array_equal(values, want_values) and np.array_equal(counts, want_counts)
        assert by_tally._gen.bit_generator.state == by_draw._gen.bit_generator.state

    def test_tally_of_opaque_source(self):
        def proc(gen, size):
            return gen.integers(0, 5, size=size)

        by_tally, by_draw = SamplingOracle(proc, seed=4, n=5), SamplingOracle(proc, seed=4, n=5)
        values, counts = by_tally.draw_tally(300)
        want = np.unique(by_draw.draw(300), return_counts=True)
        assert np.array_equal(values, want[0]) and np.array_equal(counts, want[1])
        assert by_tally.samples_drawn == 300
        with pytest.raises(ParameterError):
            by_tally.draw_tally(-1)

    def test_table_read_only_and_shared(self):
        d = Distribution(np.array([0.2, 0.0, 0.3, 0.5]))
        SamplingOracle(d, seed=1).draw(1)
        table = d._guide
        for seed in (2, derive_seed(1, 0), derive_seed(1, 5)):
            SamplingOracle(d, seed).draw(10)
            assert d._guide is table
        for arr in (table.atoms, table.cdf, table.cut, table.lo, table.hi, table.deep):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_draw_counts_builds_no_table(self):
        d = Distribution.uniform(8)
        SamplingOracle(d, seed=1).draw_counts(100)
        assert "_guide" not in vars(d)


@st.composite
def guide_pmfs(draw) -> np.ndarray:
    """Generic pmfs with zeros, dyadic pmfs (CDF values on bucket edges) and heavy atoms beside tiny ones."""
    kind = draw(st.sampled_from(["generic", "dyadic", "heavy-tiny"]))
    if kind == "generic":
        pmf = np.array(draw(st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=40)))
        if pmf.sum() == 0.0:
            pmf[0] = 1.0
        return pmf / pmf.sum()
    if kind == "dyadic":
        pmf = [1.0]
        for at in draw(st.lists(st.integers(0, 10**6), max_size=30)):
            half = pmf.pop(at % len(pmf)) / 2.0
            pmf[at % (len(pmf) + 1):at % (len(pmf) + 1)] = [half, half]
        return np.array(pmf)
    tiny = draw(st.floats(1e-18, 1e-6))
    count = draw(st.integers(1, 300))
    pmf = np.full(count + 1, tiny)
    pmf[draw(st.integers(0, count))] = 1.0 - count * tiny
    return pmf


class TestIntegerKeys:
    @settings(max_examples=200, deadline=None)
    @given(pmf=guide_pmfs(), data=st.data())
    def test_slots_equal_the_search_on_the_double(self, pmf, data):
        table = Distribution(pmf)._guide
        # Uniform raw outputs, and outputs within two steps of a scaled CDF value.
        anywhere = st.integers(0, 2**64 - 1)
        near_cut = st.tuples(st.sampled_from(table.cut.tolist()), st.integers(-2, 2), st.integers(0, 2047)).map(
            lambda t: (min(max(t[0] + t[1], 0), 2**53 - 1) << 11) | t[2]
        )
        x = np.array(data.draw(st.lists(anywhere | near_cut, min_size=1, max_size=200)), dtype=np.uint64)
        expected = np.searchsorted(table.cdf, (x >> np.uint64(11)) * 2.0**-53, side="right")
        assert np.array_equal(table.slots(x), expected)

    @settings(max_examples=40, deadline=None)
    @given(
        pmf=guide_pmfs(),
        seed=st.integers(0, 2**64 - 1),
        calls=st.lists(
            st.tuples(
                st.sampled_from(["draw", "draw_tally", "draw_counts"]),
                st.integers(0, 300) | st.sampled_from([_DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1]),
            ),
            max_size=6,
        ),
    )
    def test_interleaved_calls_leave_the_generator_where_doubles_would(self, pmf, seed, calls):
        d = Distribution(pmf)
        oracle = SamplingOracle(d, seed)
        twin = np.random.Generator(np.random.PCG64(seed))
        atoms = np.flatnonzero(pmf > 0.0)
        cdf = np.cumsum(pmf[atoms])
        cdf /= cdf[-1]
        for call, m in calls:
            got = getattr(oracle, call)(m)
            if m == 0:
                continue
            if call == "draw_counts":
                assert np.array_equal(got, twin.multinomial(m, d.pmf / d.pmf.sum()))
                continue
            drawn = atoms[np.searchsorted(cdf, twin.random(m), side="right")]
            if call == "draw":
                assert np.array_equal(got, drawn)
            else:
                want = np.unique(drawn, return_counts=True)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert oracle._gen.bit_generator.state == twin.bit_generator.state


class TestSparseConstruction:
    def test_equals_dense_construction(self):
        atoms = np.array([2, 5, 9])
        probs = np.array([0.25, 0.5, 0.25])
        d = Distribution._on_atoms(atoms, probs, 12)
        pmf = np.zeros(12)
        pmf[atoms] = probs
        assert d == Distribution(pmf)
        assert d.pmf.dtype == np.float64 and not d.pmf.flags.writeable
        assert d.n == 12 and np.array_equal(d.support(), atoms)

    def test_zero_mass_atom_is_outside_the_support(self):
        atoms, probs = np.array([1, 3, 6]), np.array([0.5, 0.0, 0.5])
        d = Distribution._on_atoms(atoms, probs, 8)
        dense = Distribution(np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5, 0.0]))
        assert np.array_equal(d.support(), [1, 6])
        assert d.mass([3]) == 0.0 and d.mass([0, 1, 3, 7]) == dense.mass([0, 1, 3, 7]) == 0.5
        assert np.array_equal(SamplingOracle(d, 3).draw(1000), SamplingOracle(dense, 3).draw(1000))
        assert "pmf" not in vars(d)
        assert d == dense

    def test_input_arrays_are_copied(self):
        atoms, probs = np.array([0, 2]), np.array([0.5, 0.5])
        d = Distribution._on_atoms(atoms, probs, 3)
        atoms[0], probs[:] = 1, [0.25, 0.75]
        assert atoms.flags.writeable and probs.flags.writeable
        assert np.array_equal(d.support(), [0, 2]) and d.mass([0]) == 0.5
        assert d.pmf.tolist() == [0.5, 0.0, 0.5]

    def test_immutable(self):
        for d in (Distribution(np.array([0.5, 0.5])), Distribution._on_atoms(np.array([1]), np.array([1.0]), 3)):
            with pytest.raises(AttributeError):
                d.pmf = np.array([1.0, 0.0])
            with pytest.raises(AttributeError):
                d.n = 5
            with pytest.raises(AttributeError):
                del d.pmf

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan], [0.5, np.inf], [1.5, -0.5], [0.5, 0.4], [0.6, 0.6], []],
        ids=["nan", "inf", "negative", "under-sum", "over-sum", "empty"],
    )
    def test_rejects_what_the_constructor_rejects(self, probs):
        atoms = np.arange(len(probs))
        pmf = np.zeros(4)
        pmf[atoms] = probs
        with pytest.raises(ParameterError):
            Distribution(pmf)
        with pytest.raises(ParameterError):
            Distribution._on_atoms(atoms, np.array(probs, dtype=np.float64), 4)


def _dense_twin(d: Distribution) -> Distribution:
    """The distribution as a length-n pmf, built the way the dense constructors built it."""
    atoms, probs = d._sparse
    pmf = np.zeros(d.n)
    pmf[atoms] = probs
    return Distribution(pmf)


def _compact_cases():
    """Distributions on atoms, over random supports: one atom, the full domain, tied and distinct masses."""
    rng = np.random.default_rng(7)
    cases = {
        "point-mass": Distribution.point_mass(40, 17),
        "point-mass-n1": Distribution.point_mass(1, 0),
        "uniform-on-full": Distribution.uniform_on(range(40), 40),
        "uniform-on-one": Distribution.uniform_on([39], 40),
    }
    for s in (2, 7, 30):
        cases[f"uniform-on-{s}"] = Distribution.uniform_on(rng.choice(40, s, replace=False), 40)
        tied = rng.integers(1, 3, size=s).astype(np.float64)
        cases[f"tied-{s}"] = Distribution._on_atoms(np.sort(rng.choice(40, s, replace=False)), tied / tied.sum(), 40)
    raw = rng.exponential(size=40)
    cases["exponential-full"] = Distribution._on_atoms(np.arange(40), raw / raw.sum(), 40)
    return cases


COMPACT_CASES = _compact_cases()


class TestCompactEqualsDense:
    """A distribution on atoms reads as its dense twin does, byte for byte, without building its pmf."""

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_pmf_bytes(self, name):
        d = _compact_cases()[name]
        assert "pmf" not in vars(d)
        assert d.pmf.tobytes() == _dense_twin(d).pmf.tobytes()
        assert not d.pmf.flags.writeable

    def test_constructors_hold_their_atoms(self):
        pmf = np.zeros(9)
        pmf[[2, 4, 5]] = 1.0 / 3
        assert Distribution.uniform_on([5, 2, 4, 2], 9).pmf.tobytes() == pmf.tobytes()
        pmf = np.zeros(9)
        pmf[3] = 1.0
        assert Distribution.point_mass(9, 3).pmf.tobytes() == pmf.tobytes()
        for d in (Distribution.uniform_on([5, 2, 4, 2], 9), Distribution.point_mass(9, 3)):
            assert d._sparse is not None and "pmf" not in vars(d)

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_l1_distance_bit_for_bit_in_every_pairing(self, name):
        cases = _compact_cases()
        first = cases[name]
        others = [d for d in cases.values() if d.n == first.n]
        for a, b in [(first, other) for other in others] + [(other, first) for other in others]:
            want = float(np.abs(_dense_twin(a).pmf - _dense_twin(b).pmf).sum())
            for x in (a, _dense_twin(a)):
                for y in (b, _dense_twin(b)):
                    assert l1_distance(x, y) == want
        assert all("pmf" not in vars(d) for d in others)

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_readers(self, name):
        d = _compact_cases()[name]
        dense = _dense_twin(d)
        rng = np.random.default_rng(len(name))
        for size in {0, 1, min(5, d.n), d.n}:
            idx = rng.choice(d.n, size, replace=False)
            assert d.mass(idx) == dense.mass(idx)
        assert np.array_equal(d.support(), dense.support())
        masses = np.unique(dense.pmf[dense.pmf > 0.0])
        for kappa in np.r_[masses[masses < 1.0], 0.01, 0.5, 0.99]:
            assert high_set(d, kappa) == high_set(dense, kappa)
        assert "pmf" not in vars(d)
        assert d == dense and dense == d

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_file_bytes(self, name, tmp_path):
        d = COMPACT_CASES[name]
        save_distribution(d, tmp_path / "compact.json")
        save_distribution(_dense_twin(d), tmp_path / "dense.json")
        assert (tmp_path / "compact.json").read_bytes() == (tmp_path / "dense.json").read_bytes()

    @pytest.mark.parametrize("name", COMPACT_CASES)
    def test_draws_tallies_counts_and_generator(self, name):
        d = COMPACT_CASES[name]
        dense = _dense_twin(d)
        for seed in (1, derive_seed(5, 2)):
            compact_oracle, dense_oracle = SamplingOracle(d, seed), SamplingOracle(dense, seed)
            outputs = [
                [oracle.draw(300), *oracle.draw_tally(_DRAW_BLOCK + 3), oracle.draw_counts(500)]
                for oracle in (compact_oracle, dense_oracle)
            ]
            for got, want in zip(*outputs):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            assert compact_oracle._gen.bit_generator.state == dense_oracle._gen.bit_generator.state
            assert compact_oracle.samples_drawn == dense_oracle.samples_drawn

    def test_uniform_on_allocates_on_its_atoms(self):
        # The dense constructor allocated and checked a length-n pmf: 80 MB here.
        tracemalloc.start()
        try:
            d = Distribution.uniform_on(range(0, 10**7, 10**5), 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6 and np.array_equal(d.support(), np.arange(0, 10**7, 10**5))

    def test_l1_distance_allocates_one_scratch_array(self):
        # Reading both pmfs and subtracting them peaked at up to four arrays of 80 MB.
        n = 10**7
        a = Distribution.uniform_on(range(0, n, 10**5), n)
        b = Distribution.uniform_on(range(0, n, 2 * 10**5), n)
        tracemalloc.start()
        try:
            distance = l1_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 10**6
        assert distance == pytest.approx(1.0) and "pmf" not in vars(a) and "pmf" not in vars(b)


class TestEmpiricalDistribution:
    def test_examples(self):
        d = empirical_distribution(np.array([0, 0, 1, 1]), 2)
        assert np.allclose(d.pmf, [0.5, 0.5])
        d = empirical_distribution(np.array([3]), 4)
        assert np.allclose(d.pmf, [0, 0, 0, 1])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            empirical_distribution(np.array([], dtype=np.int64), 3)

    @pytest.mark.parametrize(
        "samples", [[2, 0, 2], np.array([2.0, 0.0, 2.0]), (i for i in (2, 0, 2))],
        ids=["list", "integral-floats", "generator"],
    )
    def test_repeats_are_kept(self, samples):
        assert empirical_distribution(samples, 3) == Distribution(np.array([1.0, 0.0, 2.0]) / 3)

    @pytest.mark.parametrize(
        "samples, message",
        [
            ([0.5, 1], "must be integers"),
            (np.array([0.5, 1.0]), "must be integers"),
            ([True, False], "must be integers"),
            (np.array([True]), "must be integers"),
            (["a"], "must be integers"),
            ([[0, 1]], "flat"),
            ([[0, 1], [2]], "flat"),
            (3, "flat"),
            ([0, 3], "outside the domain"),
        ],
        ids=["fraction", "fraction-ndarray", "bool", "bool-ndarray", "str", "nested", "ragged", "scalar", "outside"],
    )
    def test_bad_samples_raise(self, samples, message):
        # astype(int64) read 0.5 as index 0 and True as index 1, and [[0, 1]]
        # raised numpy's bare ValueError from bincount.
        with pytest.raises(ParameterError, match=message):
            empirical_distribution(samples, 3)

    def test_close_to_truth_at_scale(self):
        truth = Distribution(np.array([0.7, 0.3]))
        o = SamplingOracle(truth, seed=2024)
        d = empirical_distribution(o.draw(10**4), 2)
        assert l1_distance(truth, d) <= 0.05


class TestChernoffBounds:
    def test_multiplicative_envelope(self):
        # 10^4 seeded trials of a sum of 1000 Bernoulli(0.3).
        rng = np.random.default_rng(77)
        x = rng.binomial(1000, 0.3, size=10**4)
        mu = 300.0
        freq = float(np.mean(np.abs(x - mu) >= 0.1 * mu))
        assert freq <= multiplicative_chernoff_bound(mu, 0.1)

    def test_additive_envelope(self):
        rng = np.random.default_rng(78)
        n = 1000
        x = rng.binomial(n, 0.3, size=10**4)
        dev = 0.05 * n
        freq_up = float(np.mean(x >= 300 + dev))
        freq_dn = float(np.mean(x <= 300 - dev))
        bound = additive_chernoff_bound(n, dev)
        assert freq_up <= bound and freq_dn <= bound

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: multiplicative_chernoff_bound(np.nan, 0.5), "need finite mu"),
            (lambda: multiplicative_chernoff_bound(10.0, np.nan), "need finite mu"),
            (lambda: multiplicative_chernoff_bound(np.inf, 0.0), "need finite mu"),
            (lambda: multiplicative_chernoff_bound(-1.0, 0.5), "need finite mu"),
            (lambda: multiplicative_chernoff_bound(10.0, 1.5), "need finite mu"),
            (lambda: additive_chernoff_bound(10, np.nan), "deviation must be > 0"),
            (lambda: additive_chernoff_bound(10, 0.0), "deviation must be > 0"),
        ],
        ids=["nan-mu", "nan-delta", "inf-mu", "negative-mu", "delta-above-1", "nan-deviation", "zero-deviation"],
    )
    def test_out_of_range_arguments_raise(self, call, message):
        # nan passed every range compare and came back as the bound, and
        # mu=inf with delta=0 made inf * 0.
        with pytest.raises(ParameterError, match=message):
            call()


class TestDistributionFiles:
    def test_round_trip(self, tmp_path):
        d = Distribution(np.array([0.125, 0.5, 0.375]))
        path = tmp_path / "d.json"
        save_distribution(d, path)
        assert load_distribution(path) == d

    def test_file_bytes(self, tmp_path):
        # The bytes the streaming json.dump of [float(x) for x in pmf] wrote.
        pmf = np.random.default_rng(3).exponential(size=50)
        d = Distribution(pmf / pmf.sum())
        path = tmp_path / "d.json"
        save_distribution(d, path)
        assert path.read_text(encoding="utf-8") == json.dumps({"n": 50, "pmf": [float(x) for x in d.pmf]}) + "\n"
        save_distribution(Distribution(np.array([0.125, 0.5, 0.375])), path)
        assert path.read_bytes() == b'{"n": 3, "pmf": [0.125, 0.5, 0.375]}\n'

    def test_reader_rejects_bad_sum(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "pmf": [0.6, 0.6]}))
        with pytest.raises(ParameterError):
            load_distribution(path)

    def test_reader_rejects_negative(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "pmf": [-0.2, 1.2]}))
        with pytest.raises(ParameterError):
            load_distribution(path)

    def test_reader_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "pmf": [0.5, 0.5]}))
        with pytest.raises(StructureError):
            load_distribution(path)

    def test_reader_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(StructureError):
            load_distribution(path)

    def test_reader_rejects_integer_beyond_float64(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "pmf": [1' + "0" * 400 + ', 0]}')
        with pytest.raises(StructureError):
            load_distribution(path)


@pytest.mark.parametrize(
    "value, text",
    [
        (True, "True"),
        (np.bool_(False), "False"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (0.1, "1.000000000000e-01"),
        (np.float64(2.5), "2.500000000000e+00"),
        ("3f2a9c01bd7e", "3f2a9c01bd7e"),
    ],
)
def test_format_field(value, text):
    assert format_field(value) == text
