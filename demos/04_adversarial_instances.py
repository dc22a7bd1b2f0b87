"""Adversarial yes/no pairs and why small sample sets cannot tell them apart.

Run with:  python3 demos/04_adversarial_instances.py
"""

import numpy as np

from disttest import (
    Distribution,
    NonConcentrationParams,
    build_pairing,
    collision_rate,
    is_non_concentrated,
    make_adversarial_pair,
    verify_adversarial,
)
from disttest.adversarial import pair_collision_bound

params = NonConcentrationParams(alpha=0.2, beta=0.2)
d_yes = Distribution.uniform(100)

# Label-invariant construction: pair the light elements at random, then merge
# each pair's mass into its first endpoint.
pair = make_adversarial_pair(d_yes, params, mode="label-invariant", rng=np.random.default_rng(1))
print(f"|L| = {len(pair.pairing.L)}, pairs = {pair.pairing.size}")
print(f"support of d_no: {np.count_nonzero(pair.d_no.pmf)} of {d_yes.n}")
print(f"d_no still non-concentrated? {is_non_concentrated(pair.d_no, params)}")

report = verify_adversarial(pair)
print(f"structural checks pass: {report.passed}")
print(f"largest conservation residual: {report.conservation_residuals.max():.1e}")
print(f"per-pair mass cap 2(1-2a)/((1-2b)n) = {report.pair_bound:.4f}, "
      f"largest observed pair mass = {report.pair_sums.max():.4f}\n")

# General construction: the merge side is random, proportional to mass, which
# preserves the single-draw law of every pair exactly.
gen_pair = make_adversarial_pair(d_yes, params, mode="general", rng=np.random.default_rng(2))
print(f"general construction verifies: {verify_adversarial(gen_pair).passed}\n")

# Distinguishing the pair hinges on seeing two samples from the same pair.
# In the birthday regime m ~ sqrt(n)/4 that collision is rare.
n = 10_000
big = Distribution.uniform(n)
pairing = build_pairing(big, 0.25, np.random.default_rng(3))
m = int(np.sqrt(n)) // 4
rate = collision_rate(big, pairing, m=m, trials=1000, rng=np.random.default_rng(4))
bound = pair_collision_bound(big, pairing, m)
print(f"n = {n}, m = {m}: same-pair collision rate {rate:.3f} "
      f"(union bound {bound:.3f})")
print("With no collision, the yes and no sample sequences follow the same law.")
