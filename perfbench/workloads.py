"""The benchmark's workloads: inputs made from the seed, one operation each, and its checks.

Every workload is a closed loop of single operations.  ``run`` is the timed
part and calls the library through module attributes, so the traced run's
wrappers see every layer call.  ``check`` is untimed: it tests the
deterministic invariants (``OpResult.ok``) and the ground truth
(``OpResult.correct``), and returns the fields compared against
``reference.json`` at the default seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from disttest import adversarial, core, learner, linprop, tester

# tolerant-*: the criterion-04 tester parameters at a size where one call
# takes about half a second with the dense solver.
TOLERANT_N = 400
TOLERANT_LAMBDA = 50
TOLERANT_GAMMA = (0.1, 0.3)

# learn-sparse: a 64-element support hidden in a million-element domain.
LEARN_N = 10**6
LEARN_SUPPORT = 64
LEARN_ETA = 0.0
LEARN_DELTA = 0.5

# adversarial-pairs: the general construction over 25,000 pairs.
ADV_N = 10**5
ADV_ALPHA = 0.1
ADV_BETA = 0.25
ADV_M = 25
ADV_TRIALS = 1000


@dataclass(frozen=True)
class OpResult:
    ok: bool
    correct: bool
    reference: dict
    counts: dict


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    setup: Callable[[int], object]
    run: Callable[[object, int, int], tuple]
    check: Callable[[object, tuple], OpResult]
    build_property: Callable[[], object] | None = None


def op_seed(seed: int, i: int) -> int:
    """64-bit oracle seed of operation ``i`` of a run at ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class TolerantInputs:
    n: int
    prop: object
    params: tester.TesterParams
    dist: core.Distribution
    expect: tester.Verdict


def build_property(n: int):
    return linprop.linear_property_oracle(linprop.uniformity_polyhedron(n, 0.0))


def setup_tolerant(seed: int, half: bool, n: int = TOLERANT_N) -> TolerantInputs:
    """The input distribution is fixed; the seed only drives the oracles."""
    del seed
    if half:
        dist = core.Distribution.uniform_on(range(n // 2), n)
    else:
        dist = core.Distribution.uniform(n)
    return TolerantInputs(
        n=n,
        prop=build_property(n),
        params=tester.derive_params(TOLERANT_LAMBDA, *TOLERANT_GAMMA, n),
        dist=dist,
        expect=tester.Verdict.REJECT if half else tester.Verdict.ACCEPT,
    )


def run_tolerant(inp: TolerantInputs, seed: int, i: int) -> tuple:
    oracle = core.SamplingOracle(inp.dist, op_seed(seed, i))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        verdict, est = tester.tolerant_test_detailed(oracle, inp.prop, inp.params, inp.n)
    padding = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return oracle, verdict, est, padding


def check_tolerant(inp: TolerantInputs, raw: tuple) -> OpResult:
    oracle, verdict, est, padding = raw
    draws = oracle.samples_drawn
    return OpResult(
        ok=draws == inp.params.W + inp.params.Z_size,
        correct=verdict is inp.expect,
        reference={"verdict": str(verdict), "draws": draws, "h_size": len(est.H)},
        counts={"core.draws": draws, "tester.h_size": len(est.H), "tester.padding_warnings": padding},
    )


def setup_learn(seed: int) -> core.Distribution:
    support = np.random.default_rng(seed).choice(LEARN_N, LEARN_SUPPORT, replace=False)
    return core.Distribution.uniform_on(support, LEARN_N)


def run_learn(dist: core.Distribution, seed: int, i: int) -> tuple:
    oracle = core.SamplingOracle(dist, op_seed(seed, i))
    return oracle, learner.learn_adaptive(oracle, LEARN_ETA, LEARN_DELTA, dist.n)


def check_learn(dist: core.Distribution, raw: tuple) -> OpResult:
    oracle, res = raw
    per_guess = [r.learn_draws + r.test_draws for r in res.iterations]
    wasted = sum(d for d, r in zip(per_guess, res.iterations) if not r.accepted)
    return OpResult(
        ok=oracle.samples_drawn == res.total_samples == sum(per_guess),
        correct=res.learned and core.l1_distance(res.distribution, dist) <= LEARN_ETA + LEARN_DELTA,
        reference={
            "learned": res.learned,
            "final_guess": res.final_guess,
            "total_samples": res.total_samples,
        },
        counts={
            "core.draws": oracle.samples_drawn,
            "learner.iterations": len(res.iterations),
            "learner.wasted_draw_fraction": wasted / res.total_samples,
        },
    )


@dataclass(frozen=True)
class AdversarialInputs:
    dist: core.Distribution
    params: core.NonConcentrationParams


def setup_adversarial(seed: int) -> AdversarialInputs:
    raw = np.random.default_rng(seed).exponential(size=ADV_N)
    return AdversarialInputs(
        dist=core.Distribution(raw / raw.sum()),
        params=core.NonConcentrationParams(ADV_ALPHA, ADV_BETA),
    )


def run_adversarial(inp: AdversarialInputs, seed: int, i: int) -> tuple:
    rng = np.random.default_rng([seed, i])
    pair = adversarial.make_adversarial_pair(inp.dist, inp.params, mode="general", rng=rng)
    report = adversarial.verify_adversarial(pair)
    moved = adversarial.relabel(pair, rng)
    rate = adversarial.collision_rate(moved.d_yes, moved.pairing, ADV_M, ADV_TRIALS, rng)
    return pair, report, moved, rate


def check_adversarial(inp: AdversarialInputs, raw: tuple) -> OpResult:
    pair, report, moved, rate = raw
    pairs = math.floor(ADV_BETA * ADV_N)
    return OpResult(
        ok=pair.pairing.size == moved.pairing.size == pairs and 0.0 <= rate <= 1.0,
        correct=report.passed,
        reference={"passed": report.passed, "collision_rate": rate},
        counts={"adversarial.pairs": pair.pairing.size},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tolerant-uniform",
            TOLERANT_N,
            lambda seed: setup_tolerant(seed, half=False),
            run_tolerant,
            check_tolerant,
            lambda: build_property(TOLERANT_N),
        ),
        Workload(
            "tolerant-half",
            TOLERANT_N,
            lambda seed: setup_tolerant(seed, half=True),
            run_tolerant,
            check_tolerant,
            lambda: build_property(TOLERANT_N),
        ),
        Workload("learn-sparse", LEARN_N, setup_learn, run_learn, check_learn),
        Workload("adversarial-pairs", ADV_N, setup_adversarial, run_adversarial, check_adversarial),
    )
}
