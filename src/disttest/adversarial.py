"""Adversarial instance generators for sample-complexity lower bounds.

Both constructions start from a distribution ``d_yes``, collect its low-mass
elements into a set L, match L into pairs, and move each pair's mass onto a
single endpoint to produce ``d_no``.  The label-invariant variant always
merges into the first endpoint; the general variant picks the surviving
endpoint at random with probability proportional to its mass, which keeps the
single-draw law of every pair identical between ``d_yes`` and the ``d_no``
ensemble.  ``d_no`` loses a ``floor(beta*n)``-sized chunk of its support, so
it cannot be non-concentrated.

Pairings are int64 arrays and every per-pair step is whole-array numpy work.
:func:`build_pairing` selects and orders its 2k elements in O(n + k log k) the
first time on a ``d_yes``, which caches the order, and in O(k) on a repeat at
the same or a smaller k; the rest is O(k) for k pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Distribution, NonConcentrationParams, _integer
from .errors import ParameterError, StructureError

CONSERVATION_TOL = 1e-12


def _indices(values) -> np.ndarray:
    """Read-only int64 copy of ``values``, which must be non-negative integers (not booleans)."""
    raw = np.asarray(values)
    if raw.dtype == np.bool_:
        raise StructureError("pairing indices must be non-negative integers, not booleans")
    with np.errstate(invalid="ignore"):
        idx = raw.astype(np.int64)
    if not np.array_equal(raw, idx) or (idx < 0).any():
        raise StructureError("pairing indices must be non-negative integers")
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True, eq=False)
class Pairing:
    """A perfect matching on the low-mass set L: pair i is ``(L[2i], L[2i+1])``.

    ``L`` is a read-only int64 copy of what is given, of shape (2k,);
    ``pairs`` is its read-only (k, 2) view."""

    L: np.ndarray

    def __post_init__(self):
        L = _indices(self.L)
        if L.shape != (L.size,) or not L.size or L.size % 2:
            raise StructureError("L must be a flat, nonempty list of index pairs")
        flat = np.sort(L)
        if (flat[1:] <= flat[:-1]).any():
            raise StructureError("pairs must partition L into disjoint pairs")
        object.__setattr__(self, "L", L)

    @classmethod
    def _trusted(cls, L: np.ndarray) -> "Pairing":
        """A pairing on ``L``, distinct int64 indices by construction: locked and stored as given, unchecked."""
        L.flags.writeable = False
        pairing = object.__new__(cls)
        object.__setattr__(pairing, "L", L)
        return pairing

    @property
    def pairs(self) -> np.ndarray:
        return self.L.reshape(-1, 2)

    @property
    def size(self) -> int:
        return self.L.size // 2

    def pair_ids(self, n: int) -> np.ndarray:
        """Length-n lookup: index -> pair number, or -1 off L."""
        ids = np.full(n, -1, dtype=np.int64)
        ids[self.pairs] = np.arange(self.size)[:, None]
        return ids


def _check_domain(pairing: Pairing, n: int) -> None:
    if pairing.L.min() < 0 or pairing.L.max() >= n:
        raise StructureError("pairing indices outside the domain")


@dataclass(frozen=True)
class AdversarialPair:
    """A (d_yes, d_no) instance bundled with its pairing and parameters.

    Mass invariants are checked by :func:`verify_adversarial` rather than at
    construction so corrupted bundles can be built as negative controls.
    """

    d_yes: Distribution
    d_no: Distribution
    pairing: Pairing
    params: NonConcentrationParams

    def __post_init__(self):
        if self.d_yes.n != self.d_no.n:
            raise StructureError("d_yes and d_no must share a domain")
        _check_domain(self.pairing, self.d_yes.n)


def build_pairing(d_yes: Distribution, beta: float, rng: np.random.Generator | None = None) -> Pairing:
    """Collect the 2*floor(beta*n) lightest elements and match them into pairs.

    Ties in mass are broken toward the smaller index.  With ``rng`` the
    matching is uniformly random (the label-invariant construction); without
    it, elements adjacent in the (mass, index) order are paired, a fixed
    choice standing in for "arbitrary".

    The selection equals ``argsort(pmf, kind="stable")[:2k]``, read from the
    lightest-first order ``d_yes`` caches (``Distribution._lightest``).
    """
    if not 0.0 < beta < 0.5:
        raise ParameterError("beta must lie in (0, 1/2)")
    k = int(math.floor(beta * d_yes.n))
    if k < 1:
        raise ParameterError(f"beta*n rounds below one pair (beta={beta}, n={d_yes.n})")
    L = d_yes._lightest(2 * k)
    if rng is not None:
        L = rng.permutation(L)
    return Pairing._trusted(L)


def dno_label_invariant(d_yes: Distribution, pairing: Pairing) -> Distribution:
    """Merge each pair's mass into its first endpoint, zeroing the second."""
    _check_domain(pairing, d_yes.n)
    x, y = pairing.pairs.T
    pmf = d_yes.pmf.copy()
    pmf[x] = d_yes.pmf[x] + d_yes.pmf[y]
    pmf[y] = 0.0
    return Distribution(pmf)


def dno_general(d_yes: Distribution, pairing: Pairing, rng: np.random.Generator) -> Distribution:
    """Merge each pair's mass onto one endpoint chosen proportionally to mass.

    Each pair flips an independent coin: the merged mass lands on ``x`` with
    probability ``d_yes(x) / (d_yes(x) + d_yes(y))``.  Pairs with zero total
    mass merge into ``x`` by convention.
    """
    _check_domain(pairing, d_yes.n)
    coins = rng.random(pairing.size)
    x, y = pairing.pairs.T
    px = d_yes.pmf[x]
    total = px + d_yes.pmf[y]
    with np.errstate(invalid="ignore"):
        to_x = (total <= 0.0) | (coins < px / total)
    pmf = d_yes.pmf.copy()
    pmf[x] = np.where(to_x, total, 0.0)
    pmf[y] = np.where(to_x, 0.0, total)
    return Distribution(pmf)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Structural checks for an adversarial pair; failures are reported, not thrown.

    ``failures`` holds one message per check that failed, in the order
    :func:`verify_adversarial` lists them, and ``passed`` is True when it is
    empty.  ``conservation_residuals`` and ``pair_sums`` are read-only float64
    arrays of shape (k,), one entry per row of ``pairing.pairs``."""

    conservation_residuals: np.ndarray
    pair_bound: float
    pair_sums: np.ndarray
    support_size: int
    support_limit: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_adversarial(pair: AdversarialPair) -> VerificationReport:
    """Check conservation, the one-zero-per-pair rule, the per-pair mass bound
    ``2(1-2a)/((1-2b)n)``, off-L agreement, and the support-size deficit."""
    yes = pair.d_yes.pmf
    no = pair.d_no.pmf
    n = pair.d_yes.n
    a, b = pair.params.alpha, pair.params.beta

    x, y = pair.pairing.pairs.T
    sums = no[x] + no[y]
    residuals = np.abs(sums - (yes[x] + yes[y]))
    sums.flags.writeable = residuals.flags.writeable = False
    bound = 2.0 * (1.0 - 2.0 * a) / ((1.0 - 2.0 * b) * n)
    differ = yes != no
    differ[pair.pairing.L] = False
    support_size = int(np.count_nonzero(no))
    support_limit = n - int(math.floor(b * n))

    checks = (
        (residuals.max() <= CONSERVATION_TOL, "pair mass not conserved"),
        (((no[x] == 0.0) != (no[y] == 0.0)).all(), "some pair does not have exactly one zero endpoint"),
        ((sums <= bound + CONSERVATION_TOL).all(), "per-pair mass bound violated"),
        (not differ.any(), "d_yes and d_no disagree off L"),
        (support_size <= support_limit, "support size exceeds (1 - beta)n budget"),
    )

    return VerificationReport(
        conservation_residuals=residuals,
        pair_bound=bound,
        pair_sums=sums,
        support_size=support_size,
        support_limit=support_limit,
        failures=tuple(message for ok, message in checks if not ok),
    )


def make_adversarial_pair(
    d_yes: Distribution,
    params: NonConcentrationParams,
    mode: str = "label-invariant",
    rng: np.random.Generator | None = None,
) -> AdversarialPair:
    """Build a full (d_yes, d_no, pairing) bundle in one call.

    ``label-invariant`` uses a random matching (when ``rng`` is given) and the
    deterministic merge; ``general`` uses the fixed adjacent matching and the
    proportional random merge, which requires ``rng``.
    """
    if mode == "label-invariant":
        pairing = build_pairing(d_yes, params.beta, rng)
        d_no = dno_label_invariant(d_yes, pairing)
    elif mode == "general":
        if rng is None:
            raise ParameterError("the general construction needs an rng for its coins")
        pairing = build_pairing(d_yes, params.beta, None)
        d_no = dno_general(d_yes, pairing, rng)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    return AdversarialPair(d_yes=d_yes, d_no=d_no, pairing=pairing, params=params)


def relabel(pair: AdversarialPair, rng: np.random.Generator) -> AdversarialPair:
    """Apply one uniformly random relabeling of the domain to the whole bundle.

    ``perm`` is a permutation, so ``perm[L]`` is as distinct as ``L`` and
    the relabelled pairing needs no check.
    """
    perm = rng.permutation(pair.d_yes.n)
    return AdversarialPair(
        d_yes=pair.d_yes._relabelled(perm),
        d_no=pair.d_no._relabelled(perm),
        pairing=Pairing._trusted(perm[pair.pairing.L]),
        params=pair.params,
    )


def collision_rate(
    d: Distribution,
    pairing: Pairing,
    m: int,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Fraction of m-sample trials in which two draws land in the same pair.

    A repeated element counts as a collision when it belongs to L.  This is
    the empirical probability of the event whose rarity makes the yes/no
    ensembles indistinguishable at small sample sizes.

    The draws are ``searchsorted(cdf, rng.random((trials, m)), side="right")``
    bit for bit, but the keys are looked up in ascending order, where numpy
    narrows each bisection from the previous hit.  That is faster once the
    cdf outgrows the cache (from n of about 10^4), about even for small n,
    and holds three more arrays of ``trials * m`` entries while it runs.
    """
    m = _integer(m, "m", 2)
    trials = _integer(trials, "trials", 1)
    _check_domain(pairing, d.n)
    cdf = np.cumsum(d.pmf)
    cdf /= cdf[-1]
    keys = rng.random(trials * m)
    order = np.argsort(keys)
    draws = np.empty(keys.size, dtype=np.intp)
    draws[order] = np.searchsorted(cdf, keys[order], side="right")
    ids = pairing.pair_ids(d.n)[draws.reshape(trials, m)]
    ids.sort(axis=1)
    same = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
    return float(same.any(axis=1).mean())


def pair_collision_bound(d: Distribution, pairing: Pairing, m: int) -> float:
    """Union bound m^2 * p_max / 2 on the same-pair collision probability; ``m`` is an integer >= 2."""
    m = _integer(m, "m", 2)
    _check_domain(pairing, d.n)
    x, y = pairing.pairs.T
    p_max = float((d.pmf[x] + d.pmf[y]).max())
    return min(1.0, m * m * p_max / 2.0)
