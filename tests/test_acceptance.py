"""The acceptance gate: every criterion at its stated tolerance.

Criteria 1-12 run once (shared across tests via a session fixture) and are
asserted individually so failures are reported by name; criterion 13 reruns
the whole suite and compares metric columns byte for byte.
"""

import warnings

import numpy as np
import pytest

import disttest.acceptance as acceptance
from disttest.acceptance import (
    CRITERIA,
    _criterion,
    _metrics,
    _rng,
    criterion_09_conditional_law,
    criterion_13_determinism,
    load_config,
    run_all,
)
from disttest.adversarial import build_pairing
from disttest.core import Distribution
from disttest.tester import derive_params


@pytest.fixture(scope="session")
def first_run():
    return run_all()


@pytest.fixture(scope="session")
def second_run():
    return run_all()


@pytest.mark.parametrize("index", range(len(CRITERIA)))
def test_criterion(first_run, index):
    key, _ = CRITERIA[index]
    result = first_run[index]
    print(result.line())
    assert result.cid == f"criterion-{key[1:]}"
    assert result.passed, result.line()


def test_every_verdict_is_a_python_bool(first_run):
    assert [type(r.passed) for r in first_run] == [bool] * len(CRITERIA)


@_criterion("criterion-99", "a check that holds")
def holds(cfg):
    return np.bool_(True), dict(checked=np.int64(3), flag=np.bool_(True))


def test_the_runner_passes_a_check_that_holds_within_its_budget():
    result = holds({"budget_s": 60.0})
    assert result.passed is True
    assert (result.cid, result.name, result.metrics) == ("criterion-99", "a check that holds", "checked=3;flag=True")
    # A section without a budget sets no time limit.
    assert holds({}).passed is True
    # Past its budget, or with a check that fails, the criterion fails.
    assert holds({"budget_s": 0.0}).passed is False
    fails = _criterion("criterion-98", "a check that fails")(lambda cfg: (False, {}))
    assert fails({"budget_s": 60.0}).passed is False


def test_criteria_04_and_05_share_one_set_of_tester_runs(monkeypatch):
    c04 = load_config()["criteria"]["c04"]
    made = []

    def fake_bundle(cfg):
        made.append(cfg)
        runs = cfg["runs"]
        params = derive_params(cfg["lambda"], cfg["gamma1"], cfg["gamma2"], cfg["n"])
        return dict(params=params, runs=runs, accepts=runs, rejects=runs, containment=runs, lem3=runs, exact_consumption=True)

    monkeypatch.setattr(acceptance, "_tester_bundle", fake_bundle)
    monkeypatch.setattr(acceptance, "CRITERIA", tuple(e for e in CRITERIA if e[0] in ("c04", "c05")))
    results = run_all()
    assert made == [c04]
    assert [(r.cid, r.passed) for r in results] == [("criterion-04", True), ("criterion-05", True)]


def test_criterion_13_determinism(first_run, second_run):
    result = criterion_13_determinism(first_run, second_run)
    print(result.line())
    assert result.passed, result.line()
    for a, b in zip(first_run, second_run):
        assert a.metrics == b.metrics, f"{a.cid}: {a.metrics} != {b.metrics}"


def loop_conditional_law_deviation(cfg):
    """Criterion 09's measurement with one Python loop per pair, the reference
    its whole-array version must reproduce bit for bit."""
    n = cfg["n"]
    raw = _rng(cfg["seed"], 0).exponential(size=n)
    pmf = cfg["theta"] / n + (1 - cfg["theta"]) * raw / raw.sum()
    d_yes = Distribution(pmf / pmf.sum())
    pairing = build_pairing(d_yes, cfg["beta"], None)
    trials = cfg["draws"]
    draw_gen = _rng(cfg["seed"], 1)
    coins = draw_gen.random((trials, pairing.size))
    pmfs = np.tile(d_yes.pmf, (trials, 1))
    for t, (x, y) in enumerate(pairing.pairs):
        total = d_yes.pmf[x] + d_yes.pmf[y]
        to_x = coins[:, t] < (d_yes.pmf[x] / total if total > 0 else 1.0)
        pmfs[to_x, x] = total
        pmfs[to_x, y] = 0.0
        pmfs[~to_x, x] = 0.0
        pmfs[~to_x, y] = total
    cdfs = np.cumsum(pmfs, axis=1)
    u = draw_gen.random(trials)
    draws = (cdfs < (u * cdfs[:, -1])[:, None]).sum(axis=1)
    ids = pairing.pair_ids(n)[draws]
    max_dev, unhit = 0.0, 0
    for t, (x, y) in enumerate(pairing.pairs):
        expect = d_yes.pmf[x] / (d_yes.pmf[x] + d_yes.pmf[y])
        in_pair = ids == t
        unhit += not in_pair.any()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            freq = float(np.mean(draws[in_pair] == x))
        # max() skips the nan of a pair no draw landed in.
        max_dev = max(max_dev, abs(freq - expect))
    return max_dev, unhit


@pytest.mark.parametrize(
    "seed, n, draws",
    [(109, 20, 100000), (3, 64, 4000), (4, 400, 200), (5, 400, 40)],
)
def test_criterion_09_matches_its_per_pair_loops(seed, n, draws):
    cfg = dict(load_config()["criteria"]["c09"], seed=seed, n=n, draws=draws)
    max_dev, unhit = loop_conditional_law_deviation(cfg)
    assert (unhit > 0) == (draws <= 200)
    assert criterion_09_conditional_law(cfg).metrics == _metrics(max_deviation=max_dev, tol=cfg["tol"])
