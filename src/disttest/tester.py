"""Tolerant tester built on a non-tolerant sample budget.

Given a hypothetical non-tolerant sample complexity ``lambda`` for a
label-invariant property, the tester estimates the masses of the input's
heavy elements, builds a surrogate distribution that is uniform off the
estimated-heavy set, and asks a property oracle whether some member of the
property is both close to the surrogate and heavy only inside that set.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _COUNT_MAX, Distribution, SamplingOracle, _checked_ceil, _index_set, _integer, _real
from .errors import DimensionError, ParameterError

# The constants the paper leaves open: q = ceil(lambda / C_STAR), and the two
# phase budgets W and Z_size scale with C_W and C_Z.
C_STAR = 10.0
C_W = 4.0
C_Z = 4.0

#: A property oracle answers: is there a member of the property within the
#: stated combined distance of d_tilde whose 1/q^2-heavy elements all lie in H?
PropertyOracle = Callable[[frozenset, Distribution, int, float], bool]


class Verdict(enum.Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TesterParams:
    """Derived budgets and thresholds for one tester configuration.

    ``q`` scales with the non-tolerant budget, ``W`` and ``Z_size`` are the
    two sampling phases, ``eta_prime = eta/64``, and ``bound = 26*eta_prime +
    zeta`` is the combined distance allowance of the acceptance condition.
    """

    q: int
    zeta: float
    eta: float
    W: int
    Z_size: int

    def __post_init__(self):
        if self.q < 1:
            raise ParameterError("q must be >= 1")
        if not 0.0 <= self.zeta < self.zeta + self.eta <= 2.0:
            raise ParameterError("need 0 <= zeta < zeta + eta <= 2")
        if self.W < self.q * self.q:
            raise ParameterError("W must be at least q^2")
        if self.Z_size < self.W:
            raise ParameterError("Z_size must be at least W")

    @property
    def eta_prime(self) -> float:
        return self.eta / 64.0

    @property
    def bound(self) -> float:
        return 26.0 * self.eta_prime + self.zeta


@dataclass(frozen=True)
class HighEstimate:
    """Estimated heavy set H, the surrogate distribution, and its off-H mass."""

    H: frozenset
    d_tilde: Distribution
    low_mass: float


def derive_params(lam: int, gamma1: float, gamma2: float, n: int) -> TesterParams:
    """Tester budgets for proximity parameters (gamma1, gamma2 + epsilon).

    ``lam`` is the hypothetical non-tolerant sample complexity, an integer in
    ``[1, 2**63 - 1]``; ``n`` is accepted for interface symmetry with the
    sampling stage (the derived budgets do not depend on it).  The budgets use
    the fixed constants ``C_STAR``, ``C_W`` and ``C_Z``.
    """
    lam = _integer(lam, "lambda", 1, _COUNT_MAX)
    zeta, gamma2 = _real(gamma1, "gamma1"), _real(gamma2, "gamma2")
    if not 0.0 <= zeta < gamma2:
        raise ParameterError("need 0 <= gamma1 < gamma2")
    del n
    eta = gamma2 - zeta
    if zeta + eta > 2.0:
        raise ParameterError("gamma2 must be at most 2")
    eta_prime = eta / 64.0
    q = _checked_ceil(lam / C_STAR)  # >= 1, since lam >= 1
    W = _checked_ceil(C_W * q * q * math.log(q + 2) / eta_prime)
    Z_size = _checked_ceil(C_Z * W * math.log(W + 2) / (eta_prime * eta_prime))
    return TesterParams(q=q, zeta=zeta, eta=eta, W=W, Z_size=Z_size)


def estimate_high_part(oracle: SamplingOracle, params: TesterParams, n: int) -> HighEstimate:
    """Run the two sampling phases and build the surrogate distribution.

    Phase one draws ``W`` samples and keeps the distinct elements S; phase two
    draws ``Z_size`` samples to estimate their masses.  H is S plus ``q^2``
    padding elements (the smallest indices never seen in either phase), the
    surrogate carries the phase-two empirical mass on H, and the residual is
    split evenly off H.
    """
    n, q = _integer(n, "n", 1), params.q
    if n <= 4 * q * q:
        raise ParameterError(
            f"domain size {n} must exceed 4*q^2 = {4 * q * q} for this configuration"
        )
    if oracle.n != n:
        raise DimensionError(f"oracle domain {oracle.n} does not match n={n}")
    counts_w = oracle.draw_counts(params.W)
    counts_z = oracle.draw_counts(params.Z_size)

    seen = (counts_w > 0) | (counts_z > 0)
    s_mask = counts_w > 0
    free = np.flatnonzero(~seen)
    want = q * q
    if free.size < want:
        warnings.warn(
            f"only {free.size} unused indices available for q^2 = {want} padding; "
            "H absorbs all of them",
            RuntimeWarning,
        )
    padding = free[:want]

    h_mask = s_mask.copy()
    h_mask[padding] = True
    h_idx = np.flatnonzero(h_mask)

    pmf = np.zeros(n)
    pmf[h_idx] = counts_z[h_idx] / params.Z_size
    rest = np.flatnonzero(~h_mask)
    low_mass = float(counts_z[rest].sum() / params.Z_size) if rest.size else 0.0
    if rest.size:
        pmf[rest] = low_mass / rest.size

    return HighEstimate(
        H=frozenset(int(i) for i in h_idx),
        d_tilde=Distribution(pmf),
        low_mass=low_mass,
    )


def check_conditions(d1: Distribution, est: HighEstimate, q: int, bound: float) -> bool:
    """Direct evaluation of the two acceptance conditions for an explicit d1.

    Condition (A): the combined deviation from the surrogate — entrywise over
    H plus aggregate off H — is at most ``bound``.  Condition (B): every
    element of d1 with mass >= 1/q^2 lies in H.
    """
    dt = est.d_tilde
    if d1.n != dt.n:
        raise DimensionError(f"domain sizes differ: {d1.n} vs {dt.n}")
    h_mask = np.zeros(d1.n, dtype=bool)
    h_mask[_index_set(est.H, d1.n)] = True
    on_h = float(np.abs(d1.pmf[h_mask] - dt.pmf[h_mask]).sum())
    off_h = abs(float(d1.pmf[~h_mask].sum() - dt.pmf[~h_mask].sum()))
    cond_a = on_h + off_h <= bound
    cond_b = bool(h_mask[d1.pmf >= 1.0 / (q * q)].all())
    return cond_a and cond_b


def tolerant_test_detailed(
    oracle: SamplingOracle,
    prop: PropertyOracle,
    params: TesterParams,
    n: int,
) -> tuple:
    """Run one tester invocation and also return the high-part estimate."""
    est = estimate_high_part(oracle, params, n)
    feasible = prop(est.H, est.d_tilde, params.q, params.bound)
    return (Verdict.ACCEPT if feasible else Verdict.REJECT), est


def tolerant_test(
    oracle: SamplingOracle,
    prop: PropertyOracle,
    params: TesterParams,
    n: int,
) -> Verdict:
    """Accept iff the property oracle finds a member satisfying both conditions.

    Consumes exactly ``W + Z_size`` draws from the oracle and is deterministic
    for a fixed seed and property oracle.
    """
    verdict, _ = tolerant_test_detailed(oracle, prop, params, n)
    return verdict

