"""Learning concentrated distributions with a support-size-adaptive budget.

If an unknown distribution puts all but ``eta/2`` of its mass on some set of
``s`` elements, its empirical distribution from O(s) draws is already close in
L1.  :func:`learn_known_support` is exactly that; :func:`learn_adaptive` makes
it work without knowing ``s`` by guessing 1, 2, 4, ... and letting a tolerant
identity test decide when the current empirical guess is close enough.

Candidates stay sparse while the guess grows: a guess that makes m draws
tallies its learn draws into (support, counts) through
:meth:`SamplingOracle.draw_tally` and maps the distinct values of its test
draws onto that support by binary search, so over a source supported on s
elements it costs O(m + s) time and nothing proportional to n.  The
accepted candidate is a :class:`Distribution` on its s atoms, with checks on
its s masses only; it builds a length-n pmf only when its ``pmf`` is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# empirical_distribution is not called here; perfbench/spans.py wraps it under this module's name.
from .core import Distribution, SamplingOracle, _checked_ceil, _integer, _real, empirical_distribution  # noqa: F401
from .errors import DimensionError, ParameterError
from .tester import Verdict

C_LEARN = 8.0  # learn draws per unit of support, at delta = 1
DEFAULT_C_TEST = 8.0


@dataclass(frozen=True)
class IdentityTestParams:
    """Accept below eps1, reject above eps2, err with probability at most kappa.

    Each is read by :func:`disttest.core._real`, and the float it returns is stored.
    """

    eps1: float
    eps2: float
    kappa: float

    def __post_init__(self):
        eps1, eps2, kappa = _real(self.eps1, "eps1"), _real(self.eps2, "eps2"), _real(self.kappa, "kappa")
        if not 0.0 <= eps1 < eps2 <= 2.0:
            raise ParameterError("need 0 <= eps1 < eps2 <= 2")
        if not 0.0 < kappa < 1.0:
            raise ParameterError("kappa must lie in (0, 1)")
        vars(self).update(eps1=eps1, eps2=eps2, kappa=kappa)


@dataclass(frozen=True)
class IterationRecord:
    guess: int
    learn_draws: int
    test_draws: int
    accepted: bool


@dataclass(frozen=True)
class LearnResult:
    """Outcome of an adaptive learn: a distribution, or Failure past the 2n cap.

    ``iterations`` holds one :class:`IterationRecord` per guess, at least
    one; the draws and the last guess are read from them.
    """

    distribution: Distribution | None
    iterations: tuple

    @property
    def total_samples(self) -> int:
        return sum(r.learn_draws + r.test_draws for r in self.iterations)

    @property
    def final_guess(self) -> int:
        return self.iterations[-1].guess

    @property
    def learned(self) -> bool:
        return self.distribution is not None

    @property
    def outcome(self) -> str:
        return "Learned" if self.learned else "Failure"


def learn_known_support(oracle: SamplingOracle, s: int, delta: float) -> Distribution:
    """Empirical distribution from ``ceil(C_LEARN*(s+5)/delta^2)`` draws.

    If some set S of size ``s`` carries mass >= 1 - eta/2, the result is
    within ``eta + delta`` of the truth with probability at least 9/10.
    The draws are tallied with :meth:`SamplingOracle.draw_tally`, so the
    result is the one :func:`empirical_distribution` gives on them, at
    O(m + s) cost: it holds its atoms and masses until its ``pmf`` is read.
    """
    s, delta = _integer(s, "s", 1), _real(delta, "delta")
    if not 0.0 < delta <= 2.0:
        raise ParameterError("delta must lie in (0, 2]")
    m = _checked_ceil(C_LEARN * (s + 5) / (delta * delta))
    atoms, hits = oracle.draw_tally(m)
    return Distribution._on_atoms(atoms, hits / m, oracle.n)


def _c_test(value) -> float:
    """The identity test's budget constant as a float, or :class:`ParameterError` unless finite and > 0."""
    c_test = _real(value, "c_test")
    if not 0.0 < c_test < math.inf:
        raise ParameterError(f"c_test must be positive and finite, not {c_test!r}")
    return c_test


def identity_test_sample_size(s: int, params: IdentityTestParams, c_test: float = DEFAULT_C_TEST) -> int:
    """Draw budget of the plug-in identity test for a support of size ``s``; ``c_test`` is finite and > 0."""
    s, c_test = _integer(s, "s", 1), _c_test(c_test)
    gap = (params.eps2 - params.eps1) / 4.0
    return _checked_ceil(c_test * (s + 1 + math.log(1.0 / params.kappa)) / (gap * gap))


def contract_indices(d_k: Distribution) -> np.ndarray:
    """Length-n map sending Supp(d_k) to slots 0..s-1 and everything else to slot s."""
    supp = d_k.support()
    slots = np.full(d_k.n, supp.size, dtype=np.int64)
    slots[supp] = np.arange(supp.size)
    return slots


def tol_identity_test(oracle: SamplingOracle, d_k: Distribution, params: IdentityTestParams) -> Verdict:
    """Plug-in tolerant identity test against a fully known distribution.

    The domain outside Supp(d_k) is contracted to a single bucket (which
    leaves the L1 distance to d_k unchanged), the empirical contracted
    distribution is built from the draw budget at ``DEFAULT_C_TEST``, and the
    verdict thresholds its plug-in L1 distance at the midpoint (eps1 + eps2)/2.
    Correct with probability at least 1 - kappa by an additive Chernoff bound
    unioned over the 2^(s+1) contracted events.  An oracle on another domain
    than d_k raises :class:`DimensionError`.
    """
    supp, probs = d_k._atoms()
    if supp.size < 1:
        raise ParameterError("d_k must have nonempty support")
    if oracle.n != d_k.n:
        raise DimensionError(f"oracle domain {oracle.n} does not match d_k ({d_k.n})")
    return _identity_verdict(oracle, supp, probs, params, DEFAULT_C_TEST)


def _identity_verdict(
    oracle: SamplingOracle,
    supp: np.ndarray,
    probs: np.ndarray,
    params: IdentityTestParams,
    c_test: float,
) -> Verdict:
    """The test of :func:`tol_identity_test` against mass ``probs`` on the ascending atoms ``supp``.

    The draws are tallied by value, and each distinct value lands in the slot
    of its atom, found by binary search, or in slot ``s`` when it misses the
    support.
    """
    s = int(supp.size)
    m = identity_test_sample_size(s, params, c_test)
    values, hits = oracle.draw_tally(m)
    slots = np.searchsorted(supp, values)
    slots[supp[np.minimum(slots, s - 1)] != values] = s
    counts = np.bincount(slots, weights=hits, minlength=s + 1)
    reference = np.concatenate([probs, [0.0]])
    estimate = float(np.abs(counts / m - reference).sum())
    threshold = (params.eps1 + params.eps2) / 2.0
    return Verdict.ACCEPT if estimate <= threshold else Verdict.REJECT


def learn_adaptive(
    oracle: SamplingOracle,
    eta: float,
    delta: float,
    n: int,
    c_test: float = DEFAULT_C_TEST,
) -> LearnResult:
    """Learn without knowing the support size, doubling a guess until accepted.

    Iteration k guesses ``s = 2^(k-1)``, draws ``ceil(C_LEARN*s/delta^2)``
    samples into an empirical candidate, and runs the identity test at
    proximity ``(eta + delta/2, eta + delta)`` with failure budget
    ``kappa_k = 1/(100 k^2)``; over all iterations these sum to at most
    ``pi^2/600 ~ 0.016``.  The first accepted candidate is returned
    verbatim; guesses stop at the first value above ``2n``.  If some S has
    mass >= 1 - eta/2 the output is within ``eta + delta`` with probability
    at least 2/3, at an expected total of O(|S|/delta^2) draws.
    ``n`` must equal ``oracle.n``, or :class:`DimensionError` is raised.
    """
    eta, delta, c_test = _real(eta, "eta"), _real(delta, "delta"), _c_test(c_test)
    if not 0.0 <= eta < 2.0:
        raise ParameterError("eta must lie in [0, 2)")
    if not 0.0 < delta <= 2.0:
        raise ParameterError("delta must lie in (0, 2]")
    if eta + delta > 2.0:
        raise ParameterError("eta + delta must be at most 2 (the L1 diameter)")
    n = _integer(n, "n", 1)
    if oracle.n != n:
        raise DimensionError(f"oracle domain {oracle.n} does not match n ({n})")

    eps1 = eta + delta / 2.0
    eps2 = eta + delta
    records = []
    k = 0
    s = 1
    while s <= 2 * n:
        k += 1
        kappa = 1.0 / (100.0 * k * k)
        m_learn = _checked_ceil(C_LEARN * s / (delta * delta))
        supp, hits = oracle.draw_tally(m_learn)
        probs = hits / m_learn
        before = oracle.samples_drawn
        verdict = _identity_verdict(
            oracle, supp, probs, IdentityTestParams(eps1, eps2, kappa), c_test
        )
        test_draws = oracle.samples_drawn - before
        accepted = verdict is Verdict.ACCEPT
        records.append(
            IterationRecord(guess=s, learn_draws=m_learn, test_draws=test_draws, accepted=accepted)
        )
        if accepted:
            return LearnResult(Distribution._on_atoms(supp, probs, n), tuple(records))
        s *= 2
    return LearnResult(None, tuple(records))
