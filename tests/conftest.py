import numpy as np
import pytest

from disttest.core import Distribution
from disttest.linprop import _canonical
from disttest.simplex import Triplets


def random_pmf(rng: np.random.Generator, n: int) -> np.ndarray:
    """A generic positive pmf (normalized exponentials)."""
    raw = rng.exponential(size=n)
    return raw / raw.sum()


def random_distribution(rng: np.random.Generator, n: int) -> Distribution:
    return Distribution(random_pmf(rng, n))


def holds_dense(t: Triplets, dense) -> bool:
    """Whether ``t``, repeated coordinates summed, has exactly the nonzero entries of the 2-D ``dense``."""
    got, want = _canonical(t), Triplets.from_dense(dense)
    return got.shape == want.shape and all(
        np.array_equal(g, w) for g, w in zip((got.rows, got.cols, got.vals), (want.rows, want.cols, want.vals))
    )


def mixture_distribution(rng: np.random.Generator, n: int, theta: float = 0.5) -> Distribution:
    """theta * uniform + (1 - theta) * random; non-concentrated for modest alpha."""
    pmf = theta / n + (1.0 - theta) * random_pmf(rng, n)
    return Distribution(pmf / pmf.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
