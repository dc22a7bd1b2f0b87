"""The acceptance suite: one function per verification criterion.

Every criterion runs with fixed published seeds from ``acceptance_config.json``
and reports a deterministic metrics string (wall time excluded), so two runs
of the suite are comparable byte for byte.  The same functions back both
``pytest tests/test_acceptance.py`` and the ``disttest accept`` subcommand.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .adversarial import (
    build_pairing,
    collision_rate,
    make_adversarial_pair,
    pair_collision_bound,
    verify_adversarial,
)
from .core import (
    Distribution,
    NonConcentrationParams,
    SamplingOracle,
    additive_chernoff_bound,
    derive_seed,
    format_field,
    high_set,
    is_non_concentrated,
    l1_distance,
    multiplicative_chernoff_bound,
    sorted_l1_distance,
)
from .learner import IdentityTestParams, learn_adaptive, learn_known_support, tol_identity_test
from .linprop import Polyhedron, linear_property_oracle, lp_feasible, uniformity_polyhedron
from .reference import min_permutation_l1, min_subset_mass, vertex_enumeration_feasible
from .tester import Verdict, derive_params, tolerant_test_detailed


def load_config() -> dict:
    text = resources.files("disttest").joinpath("acceptance_config.json").read_text()
    return json.loads(text)


def _metrics(**kv) -> str:
    return ";".join(f"{k}={format_field(v)}" for k, v in kv.items())


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    metrics: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.cid}  {self.name}  [{self.metrics}]  ({self.elapsed_s:.2f}s)"


def _criterion(cid: str, name: str):
    """Declare a criterion: ``check(cfg, *shared) -> (ok, metrics)`` becomes a
    runner with the same arguments that returns a :class:`CriterionResult`.

    The runner times the check and passes it only when ``ok`` holds and the
    check finished within ``cfg["budget_s"]`` (no limit when the section sets
    none); ``metrics`` is a dict, formatted with :func:`_metrics`.
    """

    def declare(check):
        @functools.wraps(check)
        def run(cfg, *shared) -> CriterionResult:
            t0 = time.perf_counter()
            ok, metrics = check(cfg, *shared)
            elapsed = time.perf_counter() - t0
            passed = bool(ok) and elapsed < cfg.get("budget_s", math.inf)
            return CriterionResult(cid, name, passed, _metrics(**metrics), elapsed)

        return run

    return declare


def _rng(seed, *key) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, key)])


def _dirichlet_pmf(rng, n) -> np.ndarray:
    raw = rng.exponential(size=n)
    return raw / raw.sum()


@_criterion("criterion-01", "sorted-distance equals exhaustive permutation minimum")
def criterion_01_sorted_distance(cfg):
    max_dev = 0.0
    for n in cfg["n_values"]:
        rng = _rng(cfg["seed"], n)
        for _ in range(cfg["pairs_per_n"]):
            a = Distribution(_dirichlet_pmf(rng, n))
            b = Distribution(_dirichlet_pmf(rng, n))
            dev = abs(sorted_l1_distance(a, b) - min_permutation_l1(a.pmf, b.pmf))
            max_dev = max(max_dev, dev)
    return max_dev <= cfg["tol"], dict(max_deviation=max_dev)


@_criterion("criterion-02", "non-concentration equals subset enumeration")
def criterion_02_non_concentration(cfg):
    rng = _rng(cfg["seed"])
    params = NonConcentrationParams(cfg["alpha"], cfg["beta"])
    k = math.floor(cfg["beta"] * cfg["n"])
    agreements = 0
    for _ in range(cfg["trials"]):
        d = Distribution(_dirichlet_pmf(rng, cfg["n"]))
        brute = min_subset_mass(d.pmf, k) >= cfg["alpha"]
        agreements += is_non_concentrated(d, params) == brute
    return agreements == cfg["trials"], dict(agreements=agreements, trials=cfg["trials"])


@_criterion("criterion-03", "empirical tails stay under both Chernoff bounds (3x3 grid)")
def criterion_03_chernoff_envelope(cfg):
    p = cfg["p"]
    trials = cfg["trials"]
    worst = -np.inf
    ok = True
    for n in cfg["grid_n"]:
        for delta in cfg["grid_delta"]:
            rng = _rng(cfg["seed"], n, int(delta * 1000))
            x = rng.binomial(n, p, size=trials)
            mu = n * p
            freq_mult = float(np.mean(np.abs(x - mu) >= delta * mu))
            bound_mult = multiplicative_chernoff_bound(mu, delta)
            dev = delta * n
            freq_up = float(np.mean(x >= mu + dev))
            freq_dn = float(np.mean(x <= mu - dev))
            bound_add = additive_chernoff_bound(n, dev)
            ok &= freq_mult <= bound_mult and freq_up <= bound_add and freq_dn <= bound_add
            worst = max(
                worst, freq_mult - bound_mult, freq_up - bound_add, freq_dn - bound_add
            )
    return ok, dict(worst_excess=worst)


def _tester_bundle(cfg) -> dict:
    """Shared runs for criteria 4 and 5."""
    n = cfg["n"]
    params = derive_params(cfg["lambda"], cfg["gamma1"], cfg["gamma2"], n)
    prop = linear_property_oracle(uniformity_polyhedron(n, 0.0))
    uniform = Distribution.uniform(n)
    half = Distribution.uniform_on(range(n // 2), n)
    threshold = params.eta_prime / params.q**2
    high_true = high_set(uniform, threshold)

    accepts = rejects = 0
    containment = lem3 = 0
    exact_consumption = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for i in range(cfg["runs"]):
            oracle = SamplingOracle(uniform, derive_seed(cfg["seed"], 2 * i))
            verdict, est = tolerant_test_detailed(oracle, prop, params, n)
            accepts += verdict is Verdict.ACCEPT
            exact_consumption &= oracle.samples_drawn == params.W + params.Z_size
            containment += high_true <= est.H
            err = sum(abs(uniform.pmf[j] - est.d_tilde.pmf[j]) for j in est.H)
            lem3 += err <= 10 * params.eta_prime

            oracle_no = SamplingOracle(half, derive_seed(cfg["seed"], 2 * i + 1))
            verdict_no, _ = tolerant_test_detailed(oracle_no, prop, params, n)
            rejects += verdict_no is Verdict.REJECT
            exact_consumption &= oracle_no.samples_drawn == params.W + params.Z_size
    return {
        "params": params,
        "runs": cfg["runs"],
        "accepts": accepts,
        "rejects": rejects,
        "containment": containment,
        "lem3": lem3,
        "exact_consumption": exact_consumption,
    }


@_criterion("criterion-04", "tolerant tester accepts uniform / rejects half-support (LP oracle)")
def criterion_04_tolerant_tester(cfg, tester_runs):
    bundle = tester_runs()
    ok = (
        bundle["accepts"] >= cfg["min_successes"]
        and bundle["rejects"] >= cfg["min_successes"]
        and bundle["exact_consumption"]
    )
    p = bundle["params"]
    return ok, dict(
        accepts=bundle["accepts"],
        rejects=bundle["rejects"],
        runs=cfg["runs"],
        W=p.W,
        Z_size=p.Z_size,
        exact_consumption=bundle["exact_consumption"],
    )


@_criterion("criterion-05", "heavy-set containment and summed-error bound during tester runs")
def criterion_05_estimator_diagnostics(cfg, tester_runs):
    bundle = tester_runs()
    need = math.ceil(cfg["min_fraction"] * bundle["runs"])
    ok = bundle["containment"] >= need and bundle["lem3"] >= need
    return ok, dict(
        containment=bundle["containment"],
        summed_error_ok=bundle["lem3"],
        needed=need,
        runs=bundle["runs"],
    )


@_criterion("criterion-06", "LP feasibility equals vertex enumeration; uniformity classification")
def criterion_06_lp_oracle(cfg):
    rng = _rng(cfg["seed"])
    agreements = 0
    for _ in range(cfg["systems"]):
        nv = int(rng.integers(1, cfg["max_vars"] + 1))
        mr = int(rng.integers(1, cfg["max_rows"] + 1))
        A = rng.uniform(-2, 2, size=(mr, nv))
        b = rng.uniform(-2, 2, size=mr)
        agreements += lp_feasible(Polyhedron(A, b)) == vertex_enumeration_feasible(A, b)
    prop = uniformity_polyhedron(4, 0.1)
    uniform_in = prop.contains(Distribution.uniform(4))
    point_out = not prop.contains(Distribution.point_mass(4, 0))
    return agreements == cfg["systems"] and uniform_in and point_out, dict(
        agreements=agreements,
        systems=cfg["systems"],
        uniform_in=uniform_in,
        point_excluded=point_out,
    )


@_criterion("criterion-07", "both adversarial constructions verify exactly (100 instances)")
def criterion_07_adversarial_structure(cfg):
    params = NonConcentrationParams(cfg["alpha"], cfg["beta"])
    n = cfg["n"]
    # With alpha = beta = 0.2 and an integral beta*n, the uniform distribution
    # is the only non-concentrated source; the randomness lives in the pairing
    # and the merge coins.
    d_yes = Distribution.uniform(n)
    support_cap = n - math.floor(cfg["beta"] * n)
    ok_label = ok_general = 0
    for i in range(cfg["instances"]):
        pair_li = make_adversarial_pair(d_yes, params, "label-invariant", _rng(cfg["seed"], i, 0))
        rep_li = verify_adversarial(pair_li)
        ok_label += rep_li.passed and rep_li.support_size <= support_cap
        pair_g = make_adversarial_pair(d_yes, params, "general", _rng(cfg["seed"], i, 1))
        rep_g = verify_adversarial(pair_g)
        ok_general += rep_g.passed and rep_g.support_size <= support_cap
    ok = ok_label == cfg["instances"] and ok_general == cfg["instances"]
    return ok, dict(label_invariant_ok=ok_label, general_ok=ok_general, instances=cfg["instances"])


@_criterion("criterion-08", "same-pair collision rate under the union bound (birthday regime)")
def criterion_08_collision_regime(cfg):
    d = Distribution.uniform(cfg["n"])
    pairing = build_pairing(d, cfg["beta"], _rng(cfg["seed"], 0))
    rate = collision_rate(d, pairing, cfg["m"], cfg["trials"], _rng(cfg["seed"], 1))
    bound = pair_collision_bound(d, pairing, cfg["m"])
    sigma = math.sqrt(bound * (1 - bound) / cfg["trials"])
    return rate <= bound + 3 * sigma, dict(rate=rate, union_bound=bound, sigma=sigma)


@_criterion("criterion-09", "within-pair conditional law matches the mass ratio (d_no ensemble)")
def criterion_09_conditional_law(cfg):
    n = cfg["n"]
    gen = _rng(cfg["seed"], 0)
    raw = gen.exponential(size=n)
    pmf = cfg["theta"] / n + (1 - cfg["theta"]) * raw / raw.sum()
    d_yes = Distribution(pmf / pmf.sum())
    pairing = build_pairing(d_yes, cfg["beta"], None)

    trials = cfg["draws"]
    draw_gen = _rng(cfg["seed"], 1)
    # Row t of ``pmfs`` is one d_no from the ensemble: pair j merges onto x
    # when coin (t, j) falls below x's share of the pair's mass.
    coins = draw_gen.random((trials, pairing.size))
    x, y = pairing.pairs.T
    px = d_yes.pmf[x]
    total = px + d_yes.pmf[y]
    with np.errstate(invalid="ignore"):
        share = px / total
    to_x = coins < np.where(total > 0, share, 1.0)
    pmfs = np.tile(d_yes.pmf, (trials, 1))
    pmfs[:, x] = np.where(to_x, total, 0.0)
    pmfs[:, y] = np.where(to_x, 0.0, total)
    cdfs = np.cumsum(pmfs, axis=1)
    u = draw_gen.random(trials)
    draws = (cdfs < (u * cdfs[:, -1])[:, None]).sum(axis=1)

    # Per pair, the fraction of the draws landing in it that hit x; pairs no
    # draw lands in have no frequency and are left out of the maximum.
    ids = pairing.pair_ids(n)[draws]
    in_l = ids >= 0
    pair_of, drawn = ids[in_l], draws[in_l]
    landed = np.bincount(pair_of, minlength=pairing.size)
    on_x = np.bincount(pair_of[drawn == x[pair_of]], minlength=pairing.size)
    hit = landed > 0
    deviation = np.abs(on_x[hit] / landed[hit] - share[hit])
    max_dev = float(deviation.max(initial=0.0))
    return max_dev <= cfg["tol"], dict(max_deviation=max_dev, tol=cfg["tol"])


@_criterion("criterion-10", "known-support learner succeeds at rate >= 9/10")
def criterion_10_known_support(cfg):
    d = Distribution.uniform_on(range(cfg["support"]), cfg["n"])
    successes = 0
    for i in range(cfg["seeds"]):
        oracle = SamplingOracle(d, derive_seed(cfg["seed"], i))
        learned = learn_known_support(oracle, cfg["support"], cfg["delta"])
        successes += l1_distance(learned, d) <= cfg["delta"]
    return successes >= cfg["min_successes"], dict(successes=successes, seeds=cfg["seeds"])


@_criterion("criterion-11", "adaptive learner: success rate, guess cap, and sample budget")
def criterion_11_adaptive_learner(cfg):
    d = Distribution.uniform_on(range(cfg["support"]), cfg["n"])
    successes = 0
    good_guesses = 0
    totals = []
    for i in range(cfg["seeds"]):
        oracle = SamplingOracle(d, derive_seed(cfg["seed"], i))
        res = learn_adaptive(
            oracle, eta=0.0, delta=cfg["delta"], n=cfg["n"], c_test=cfg["c_test"]
        )
        totals.append(res.total_samples)
        if res.learned and l1_distance(res.distribution, d) <= cfg["delta"]:
            successes += 1
            good_guesses += res.final_guess <= cfg["guess_cap_factor"] * cfg["support"]
    mean_samples = float(np.mean(totals))
    sample_cap = cfg["sample_cap_factor"] * 8.0 * cfg["support"] / cfg["delta"] ** 2
    ok = (
        successes >= cfg["min_successes"]
        and (successes == 0 or good_guesses >= cfg["guess_fraction"] * successes)
        and mean_samples <= sample_cap
    )
    return ok, dict(
        successes=successes,
        seeds=cfg["seeds"],
        good_guesses=good_guesses,
        mean_samples=mean_samples,
        sample_cap=sample_cap,
    )


@_criterion("criterion-12", "identity-test substitute: accept/reject rates >= 1 - kappa")
def criterion_12_identity_test(cfg):
    n = cfg["n"]
    s = cfg["s"]
    d_k = Distribution.uniform_on(range(s), n)
    params = IdentityTestParams(cfg["eps1"], cfg["eps2"], cfg["kappa"])
    far_pmf = np.zeros(n)
    far_pmf[:s] = (1.0 - cfg["eps2"] / 2.0) / s
    far_pmf[s] = cfg["eps2"] / 2.0
    d_far = Distribution(far_pmf)
    assert abs(l1_distance(d_far, d_k) - cfg["eps2"]) < 1e-12

    accepts = rejects = 0
    for i in range(cfg["seeds"]):
        o_eq = SamplingOracle(d_k, derive_seed(cfg["seed"], 2 * i))
        accepts += tol_identity_test(o_eq, d_k, params) is Verdict.ACCEPT
        o_far = SamplingOracle(d_far, derive_seed(cfg["seed"], 2 * i + 1))
        rejects += tol_identity_test(o_far, d_k, params) is Verdict.REJECT
    need = math.ceil((1.0 - cfg["kappa"]) * cfg["seeds"])
    return accepts >= need and rejects >= need, dict(
        accepts=accepts, rejects=rejects, needed=need, seeds=cfg["seeds"]
    )


#: Criteria 1-12 in run order, each with the key of its ``acceptance_config.json`` section.
CRITERIA = (
    ("c01", criterion_01_sorted_distance),
    ("c02", criterion_02_non_concentration),
    ("c03", criterion_03_chernoff_envelope),
    ("c04", criterion_04_tolerant_tester),
    ("c05", criterion_05_estimator_diagnostics),
    ("c06", criterion_06_lp_oracle),
    ("c07", criterion_07_adversarial_structure),
    ("c08", criterion_08_collision_regime),
    ("c09", criterion_09_conditional_law),
    ("c10", criterion_10_known_support),
    ("c11", criterion_11_adaptive_learner),
    ("c12", criterion_12_identity_test),
)


def run_all() -> list:
    """Run criteria 1 through 12 once, in order.

    Criteria 04 and 05 judge one set of tester runs, made when 04 first asks
    for them, so 04's time covers them.
    """
    cfg = load_config()["criteria"]
    tester_runs = functools.cache(lambda: _tester_bundle(cfg["c04"]))
    shared = {"c04": (tester_runs,), "c05": (tester_runs,)}
    return [criterion(cfg[key], *shared.get(key, ())) for key, criterion in CRITERIA]


def criterion_13_determinism(first: list, second: list) -> CriterionResult:
    """Byte-identical metric columns across two full runs of the suite."""
    same = [a.metrics == b.metrics for a, b in zip(first, second)]
    passed = all(same) and len(first) == len(second)
    return CriterionResult(
        "criterion-13",
        "full suite rerun produces byte-identical metric columns",
        passed,
        _metrics(identical=sum(same), criteria=len(first)),
        0.0,
    )


def run_acceptance_suite(stream=None) -> int:
    """Run every criterion, print one pass/fail line each, return an exit code."""
    out = stream or sys.stdout
    first = run_all()
    for res in first:
        print(res.line(), file=out)
    second = run_all()
    det = criterion_13_determinism(first, second)
    print(det.line(), file=out)
    all_passed = all(r.passed for r in first) and det.passed
    return 0 if all_passed else 1
