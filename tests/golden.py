"""Byte-identity golden: digests of the library's seeded outputs.

:func:`digests` recomputes, from fixed seeds, one SHA-256 per section:

- draw, tally and count streams of :class:`SamplingOracle`, and the generator
  state after each call;
- :func:`estimate_high_part`'s H, ``d_tilde`` and ``low_mass``;
- :func:`derive_params` on a (lambda, gamma1, gamma2) grid;
- step-5 verdicts on instances off the decision boundary, with the digest and
  Farkas vector of each :func:`build_feasibility_lp` instance;
- learner results;
- pairings, ``d_no`` and :func:`relabel` outputs.

HiGHS's point ``x`` and its iteration count are left out, since they depend on
the scipy build; only verdicts are kept.  The digests hold under the numpy
version recorded with them, since draws and sorts may change between numpy
releases.  ``tests/test_golden.py`` compares them with ``golden.json``; to
record the file again, run ``python tests/golden.py`` from the repository root
with ``src`` on ``PYTHONPATH`` (or disttest installed).
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np

from disttest.adversarial import (
    build_pairing,
    collision_rate,
    make_adversarial_pair,
    pair_collision_bound,
    relabel,
    verify_adversarial,
)
from disttest.core import Distribution, NonConcentrationParams, SamplingOracle, derive_seed
from disttest.learner import (
    IdentityTestParams,
    identity_test_sample_size,
    learn_adaptive,
    learn_known_support,
    tol_identity_test,
)
from disttest.linprop import (
    LinearProperty,
    Polyhedron,
    build_feasibility_lp,
    linear_property_oracle,
    lp_feasible,
    uniformity_polyhedron,
)
from disttest.simplex import Triplets
from disttest.tester import derive_params, estimate_high_part

GOLDEN_PATH = Path(__file__).with_name("golden.json")


class _Digest:
    """SHA-256 over a sequence of values, each written with its type and shape."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(f"{v.dtype.str}{v.shape}".encode())
                self._h.update(np.ascontiguousarray(v).tobytes())
            elif isinstance(v, (frozenset, set)):
                self.add(np.array(sorted(v), dtype=np.int64))
            elif isinstance(v, (float, np.floating)):
                self._h.update(float(v).hex().encode())
            elif isinstance(v, dict):
                self._h.update(json.dumps(v, sort_keys=True).encode())
            elif isinstance(v, (tuple, list)):
                self._h.update(b"(")
                self.add(*v)
                self._h.update(b")")
            else:
                self._h.update(repr(v).encode())
            self._h.update(b";")
        return self

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _exp_pmf(seed: int, n: int) -> np.ndarray:
    raw = np.random.default_rng(seed).exponential(size=n)
    return raw / raw.sum()


def _state(oracle: SamplingOracle) -> dict:
    return oracle._gen.bit_generator.state


def _draw_sections() -> dict:
    n_big = 10**6
    on_atoms = Distribution._on_atoms(3 + 7 * np.arange(428), _exp_pmf(5, 428), 4000)
    sources = {
        "uniform": (Distribution.uniform(1000), None),
        "exponential": (Distribution(_exp_pmf(1, 5000)), None),
        "edges": (Distribution.uniform_on(range(0, n_big, 15625), n_big), None),
        "zeros": (Distribution(np.array([0.0, 0.5, 0.0, 0.25, 0.125, 0.125, 0.0])), None),
        "on_atoms": (on_atoms, None),
        "opaque": (lambda gen, m: gen.integers(0, 777, m), 777),
    }
    out = {}
    for name, (source, n) in sources.items():
        oracle = SamplingOracle(source, derive_seed(11, len(out)), n)
        h = _Digest()
        for call, m in (("draw", 0), ("draw", 1), ("draw", 1000), ("draw", 70_000),
                        ("draw_tally", 0), ("draw_tally", 5000), ("draw_tally", 70_000),
                        ("draw_counts", 0), ("draw_counts", 10**5)):
            h.add(call, m, getattr(oracle, call)(m), _state(oracle), oracle.samples_drawn)
        out[f"draws.{name}"] = h.hexdigest()
    out["draws.derive_seed"] = _Digest().add(
        [derive_seed(s, i) for s in (0, 1, 2**64 - 1) for i in (0, 1, 7, 2**40)]
    ).hexdigest()
    return out


# (name, pmf, lambda, gamma1, gamma2) of the high-part estimates and their step-5 calls.
def _tester_inputs():
    half = np.zeros(400)
    half[:200] = 1 / 200
    mix = 0.8 / 60 + 0.2 * np.r_[np.full(30, 1 / 30), np.zeros(30)]
    sparse = np.zeros(3000)
    sparse[:1000] = _exp_pmf(3, 1000)
    return (
        ("uniform400", np.full(400, 1 / 400), 50, 0.1, 0.3),
        ("half400", half, 50, 0.1, 0.3),
        ("mix60", mix, 20, 0.05, 0.6),
        ("sparse3000", sparse, 30, 0.1, 0.4),
        ("exp2000", _exp_pmf(4, 2000), 20, 0.05, 0.4),
    )


def _estimate_sections() -> tuple:
    out, estimates = {}, {}
    for i, (name, pmf, lam, g1, g2) in enumerate(_tester_inputs()):
        d = Distribution(pmf / pmf.sum())
        params = derive_params(lam, g1, g2, d.n)
        oracle = SamplingOracle(d, derive_seed(21, i))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            est = estimate_high_part(oracle, params, d.n)
        estimates[name] = (d, params, est)
        out[f"estimate.{name}"] = _Digest().add(
            est.H, est.d_tilde.pmf, est.low_mass, len(caught), _state(oracle), oracle.samples_drawn
        ).hexdigest()
    return out, estimates


def _params_section() -> dict:
    h = _Digest()
    for lam in (1, 2, 9, 10, 11, 49, 50, 51, 99, 1000, 12345):
        for g1, g2 in ((0.0, 0.1), (0.1, 0.3), (0.05, 0.25), (0.1, 0.74), (0.5, 2.0), (0.0, 0.001)):
            p = derive_params(lam, g1, g2, 500)
            h.add(lam, g1, g2, p.q, p.zeta, p.eta, p.eta_prime, p.W, p.Z_size, p.bound)
    return {"params.grid": h.hexdigest()}


def _monotone(n: int) -> LinearProperty:
    """Non-increasing pmfs over [n]: rows z[i+1] - z[i] <= 0, lower bounds 0, no known member."""
    i = np.arange(n - 1)
    rows = np.repeat(i, 2)
    cols = np.column_stack([i, i + 1]).ravel()
    vals = np.tile([-1.0, 1.0], n - 1)
    poly = Polyhedron(Triplets(rows, cols, vals, (n - 1, n)), np.zeros(n - 1), lower=np.zeros(n))
    return LinearProperty(poly, n)


def _step5_sections(estimates: dict) -> dict:
    # (estimate, property eps, bound or None for the tester's); each verdict
    # stays the same with the bound 20 % lower or higher.
    cases = (
        ("uniform400", 0.0, None),
        ("half400", 0.0, None),
        ("half400", 0.3, None),
        ("mix60", 0.0, None),
        ("mix60", 0.1, 0.15),
        ("mix60", 0.1, 0.01),
        ("sparse3000", 0.0, None),
        ("exp2000", 0.0, None),
        ("exp2000", 1.0, None),
    )
    out = {}
    for name, eps, bound in cases:
        d, params, est = estimates[name]
        key = f"step5.{name}.eps{eps}" + ("" if bound is None else f".bound{bound}")
        bound = params.bound if bound is None else bound
        prop = uniformity_polyhedron(d.n, eps)
        inst = build_feasibility_lp(prop, est.H, est.d_tilde, params.q, bound)
        verdict = linear_property_oracle(prop)(est.H, est.d_tilde, params.q, bound)
        out[key] = _Digest().add(
            inst.poly.digest(), inst.farkas, inst.refuted(), verdict, lp_feasible(inst)
        ).hexdigest()
    # A property with no member and no ball: every verdict comes from HiGHS.
    mono = _monotone(60)
    for name, (first, last), bound in (("decreasing", (2.0, 1.0), 0.2), ("increasing", (1.0, 5.0), 0.02),
                                       ("increasing", (1.0, 5.0), 0.3)):
        pmf = np.linspace(first, last, 60)
        d_tilde = Distribution(pmf / pmf.sum())
        H = range(0, 60, 3)
        inst = build_feasibility_lp(mono, H, d_tilde, 2, bound)
        verdict = linear_property_oracle(mono)(H, d_tilde, 2, bound)
        out[f"step5.monotone.{name}.bound{bound}"] = _Digest().add(
            inst.poly.digest(), inst.farkas, verdict, lp_feasible(inst)
        ).hexdigest()
    return out


def _learner_sections() -> dict:
    out = {}
    sources = {
        "uniform64": Distribution.uniform_on(np.random.default_rng(7).choice(10**5, 64, replace=False), 10**5),
        "exp100": Distribution._on_atoms(np.arange(0, 10**5, 1000), _exp_pmf(8, 100), 10**5),
        "full50": Distribution(_exp_pmf(9, 50)),
    }
    for i, (name, d) in enumerate(sources.items()):
        h = _Digest()
        oracle = SamplingOracle(d, derive_seed(31, i))
        for c_test in (8.0, 0.25):
            res = learn_adaptive(oracle, 0.0, 0.5, d.n, c_test=c_test)
            h.add(res.distribution._atoms(), res.total_samples, res.final_guess)
            h.add([(r.guess, r.learn_draws, r.test_draws, r.accepted) for r in res.iterations])
        learned = learn_known_support(oracle, 64, 0.3)
        h.add(learned._atoms(), learned.n, _state(oracle), oracle.samples_drawn)
        params = IdentityTestParams(0.1, 0.4, 0.05)
        h.add(str(tol_identity_test(oracle, d, params)), str(tol_identity_test(oracle, learned, params)))
        h.add(_state(oracle), oracle.samples_drawn)
        out[f"learner.{name}"] = h.hexdigest()
    out["learner.sample_sizes"] = _Digest().add(
        [identity_test_sample_size(s, IdentityTestParams(0.1, 0.3, k), c)
         for s in (1, 2, 64, 1000) for k in (0.5, 0.01) for c in (8.0, 0.25)]
    ).hexdigest()
    return out


def _adversarial_sections() -> dict:
    out = {}
    mix = 0.5 / 2000 + 0.5 * _exp_pmf(12, 2000)
    sources = {"uniform1000": Distribution.uniform(1000), "mix2000": Distribution(mix / mix.sum())}
    for name, d in sources.items():
        nc = NonConcentrationParams(0.1, 0.25)
        rng = np.random.default_rng([41, len(out)])
        h = _Digest()
        h.add(build_pairing(d, 0.25, None).L, build_pairing(d, 0.1, rng).L, build_pairing(d, 0.25, rng).L)
        for mode in ("label-invariant", "general"):
            pair = make_adversarial_pair(d, nc, mode, rng)
            rep = verify_adversarial(pair)
            moved = relabel(pair, rng)
            h.add(pair.pairing.L, pair.d_no.pmf, moved.d_yes.pmf, moved.d_no.pmf, moved.pairing.L)
            h.add(rep.conservation_residuals, rep.pair_sums, rep.pair_bound, rep.support_size, rep.failures)
            h.add(collision_rate(moved.d_yes, moved.pairing, 25, 200, rng), pair_collision_bound(d, pair.pairing, 25))
        h.add(rng.bit_generator.state)
        out[f"adversarial.{name}"] = h.hexdigest()
    return out


def digests() -> dict:
    """Every section's digest, keyed by section name."""
    estimates_out, estimates = _estimate_sections()
    return {
        **_draw_sections(),
        **estimates_out,
        **_params_section(),
        **_step5_sections(estimates),
        **_learner_sections(),
        **_adversarial_sections(),
    }


def record(path: Path = GOLDEN_PATH) -> None:
    doc = {"numpy": np.__version__, "digests": digests()}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
    print(f"wrote {GOLDEN_PATH}")
