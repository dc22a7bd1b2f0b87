"""Discrete distributions over a finite domain: data model, distances, sampling.

The domain is always ``{0, 1, ..., n-1}``.  A :class:`Distribution` is an
explicit probability mass function, held either as a length-n array (the
constructor, :meth:`~Distribution.uniform`, :func:`empirical_distribution`,
:func:`load_distribution`) or, when it has s atoms, as those atoms and their
masses until its ``pmf`` is read (:meth:`~Distribution.uniform_on`,
:meth:`~Distribution.point_mass` and the learner's output).  On atoms,
``n``, ``support()``, ``mass()``, :func:`high_set` and the sampling table
cost O(s), and draws and tallies never build the pmf; :func:`l1_distance`
builds one length-n scratch array and no pmf; every other reader of
``pmf`` (``==``, ``draw_counts``, the testers, the adversarial layer,
:func:`save_distribution`) builds it once and caches it.  A
:class:`SamplingOracle` produces seeded i.i.d. draws from one (or from an
opaque sampling procedure), at O(1) expected per draw from an O(s) table
cached on the distribution for a support of size s; the table looks up raw
64-bit PCG64 outputs with integer operations only, and gives the draws an
inverse-CDF search of ``Generator.random`` would.  Where every CDF value
sits on a bucket edge of that table (a uniform pmf on 2^k atoms, a point
mass), a tally counts the outputs' buckets and never looks up a slot.  The
remaining functions implement the distance and mass machinery the testers
and learners are built on, plus Chernoff-based sample-size utilities.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from numbers import Integral, Real
from operator import countOf
from typing import Callable, Iterable, Union

import numpy as np

from .errors import DimensionError, ParameterError, StructureError

PMF_SUM_TOL = 1e-9

# Guard against representation noise when a closed-form count lands exactly on
# an integer (e.g. ln(1/kappa) evaluating to 2.0000000000000004).
_CEIL_GUARD = 1e-12


def _checked_ceil(value: float) -> int:
    return int(math.ceil(value * (1.0 - _CEIL_GUARD)))


def format_field(value) -> str:
    """Locale-independent CSV/metric field shared by the CLI and the acceptance suite.

    Strings pass through verbatim, bools print as ``True``/``False``, integers
    in full, and everything else as a float with 13 significant digits.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12e}"


def _integer(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as an int, or :class:`ParameterError` naming it ``what``.

    Python and numpy integers and integral floats count; booleans, fractions,
    non-finite floats and non-numbers do not, nor values below ``low`` or
    above ``high``.
    """
    if type(value) is int and (low is None or value >= low) and (high is None or value <= high):
        return value  # plain ints skip the slower ABC checks below
    if isinstance(value, (bool, np.bool_)) or not (
        isinstance(value, Integral) or isinstance(value, Real) and float(value).is_integer()
    ) or low is not None and value < low or high is not None and value > high:
        raise ParameterError(f"{what} must be an integer{_bound(low, high)}, not {value!r}")
    return int(value)


def _bound(low: int | None, high: int | None) -> str:
    """The range ``[low, high]`` as the readers word it, either end open when None."""
    if high is None:
        return "" if low is None else f" >= {low}"
    return f" <= {high}" if low is None else f" in [{low}, {high}]"


def _real(value, what: str) -> float:
    """``value`` as a float, or :class:`ParameterError` naming it ``what``.

    Python and numpy reals count, nan and infinities included, so that range
    checks reject them with their own message; booleans, non-numbers and
    integers beyond float64 do not.
    """
    if type(value) is float:
        return value  # plain floats skip the slower ABC checks below
    if not isinstance(value, (bool, np.bool_)) and isinstance(value, Real):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ParameterError(f"{what} must be a real number, not {value!r}")


def _check_masses(probs: np.ndarray) -> None:
    """Reject masses that are not finite and non-negative or do not sum to 1 within ``PMF_SUM_TOL``."""
    if not np.all(np.isfinite(probs)):
        raise ParameterError("pmf entries must be finite")
    if np.any(probs < 0.0):
        raise ParameterError("pmf entries must be non-negative")
    total = float(probs.sum())
    if abs(total - 1.0) > PMF_SUM_TOL:
        raise ParameterError(
            f"pmf must sum to 1 within {PMF_SUM_TOL:g}; got {total!r}"
        )


def _numbers(values, error: type, message: str) -> np.ndarray:
    """``values`` as ``np.asarray`` reads them, or ``error(message)`` where
    that would read a non-number as a number.

    A non-object ndarray is returned as it is: its dtype tells booleans from
    numbers.  Anything else has the types of its entries scanned once,
    because ``np.asarray`` reads ``True`` among numbers as 1: a ragged
    nesting, an entry that is not a real number, or a boolean among other
    entries raises.  All-boolean entries come back as a boolean array, for
    the caller to refuse in its own words, and a list of Python ints as
    int64 without numpy's per-entry type inference.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values
    if type(values) is list and countOf(map(type, values), int) == len(values):
        try:
            return np.fromiter(values, np.int64, len(values))
        except OverflowError:  # beyond int64, where numpy picks uint64 or object
            pass
    try:
        raw = np.asarray(values)
    except (TypeError, ValueError):  # ragged
        raise error(message) from None
    types = set(map(type, np.asarray(values, dtype=object).flat))
    if raw.dtype != bool and (types & {bool, np.bool_} or not all(issubclass(t, Real) for t in types)):
        raise error(message)
    return raw


def _integers(
    values: Iterable[int], what: str, low: int | None = None, high: int | None = None, error: type = ParameterError
) -> np.ndarray:
    """``values`` as an int64 array, in their order and with repeats, or
    ``error`` naming them ``what``.

    Each must be an integer (not a boolean, fraction, string or nan) in
    ``[low, high]``, either end open when None, and nested values are
    refused; a boolean among integers is refused as :func:`_numbers` reads
    it.  An ndarray or ``range`` is read without a Python list, and an
    int64 ndarray is returned as it is.
    """
    message = f"{what} must be integers in a flat collection, not booleans, fractions or strings"
    if isinstance(values, range):
        values = np.arange(values.start, values.stop, values.step)
    elif hasattr(values, "__iter__") and not isinstance(values, np.ndarray):
        values = list(values)  # a set or generator, which numpy would read as one object
    raw = _numbers(values, error, message)
    if raw.ndim != 1:
        raise error(f"{what} must be a flat collection, not of shape {raw.shape}")
    if raw.dtype.kind == "i":
        ints = raw.astype(np.int64, copy=False)
    else:
        try:
            with np.errstate(invalid="ignore"):
                ints = raw.astype(np.int64)
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints is None or raw.dtype == np.bool_ or not np.array_equal(raw, ints):
            raise error(f"{what} must be integers, not booleans, fractions or strings")
    if ints.size and (low is not None and ints.min() < low or high is not None and ints.max() > high):
        bad = ints.min() if low is not None and ints.min() < low else ints.max()
        raise error(f"{what} must be integers{_bound(low, high)}; {bad} lies outside the domain")
    return ints


def _reals(values, what: str, error: type = ParameterError, copy: bool = False, finite: bool = False) -> np.ndarray:
    """``values`` as a float64 array, or ``error`` naming them ``what``.

    Python and numpy reals count; booleans (alone or among numbers, as
    :func:`_numbers` reads them), strings, ragged nestings, non-numbers and
    integers beyond float64 do not, nor, when ``finite`` is set, nan and
    infinities.  The shape is the caller's to check.  The array is new when
    ``copy`` is set; otherwise a float64 ndarray is returned as it is.
    """
    message = f"{what} must be real numbers, not booleans, strings or ragged nestings"
    raw = _numbers(values, error, message)
    if raw.dtype.kind not in "iufO":
        raise error(message)
    try:
        arr = raw.astype(np.float64, copy=copy)
    except OverflowError:  # an integer beyond float64
        arr = None
    if arr is None or finite and not np.isfinite(arr).all():
        raise error(f"{what} entries must be finite")
    return arr


def _index_set(indices: Iterable[int], n: int) -> np.ndarray:
    """The distinct ``indices``, ascending, as int64; each must be an integer
    (not a boolean) in ``[0, n)``, as :func:`_integers` reads them."""
    # A sort and an adjacent-difference mask; numpy 2.x's hash-based
    # np.unique is dozens of times slower on large index sets.
    idx = np.sort(_integers(indices, "indices", 0, n - 1))
    if idx.size > 1:
        idx = idx[np.r_[True, idx[1:] != idx[:-1]]]
    return idx


# PCG64 makes a double in [0, 1) from the top 53 bits of one raw output x:
# (x >> 11) * 2**-53.
_KEY_DROP = np.uint64(11)
_KEY_SCALE = 2.0**53


class _GuideTable:
    """Inverse-CDF table over a pmf's support, with a guide table (Chen & Asau, 1974).

    ``atoms`` are the support indices, ascending, and ``cdf`` their cumulative
    masses normalised to end at 1.  Zero-mass entries add exactly 0.0 to a
    cumulative sum, so this is the full-domain table restricted to the atoms.
    A key is a raw 64-bit PCG64 output x, from which ``Generator.random()``
    would make u = (x >> 11) * 2**-53, and its slot is ``searchsorted(cdf, u,
    side="right")``, never a zero-mass index.  The table works on x alone.
    The guide cuts [0, 1) into K >= 2s buckets, K a power of two, so u's
    bucket floor(u*K) is ``x >> (64 - log2 K)``; and ``cut`` = ceil(cdf *
    2**53), so ``cdf[j] <= u`` holds exactly when ``cut[j] <= x >> 11``,
    because cdf * 2**53 is an exact float.  A key in bucket b has its slot
    between ``lo[b]`` = #{cdf <= b/K} and ``hi[b]`` = #{cdf < (b+1)/K}.
    ``held`` is the most cdf values any bucket holds, ``max(hi - lo)``, and
    sets the steps a key takes.  When it is 0 every cdf value sits on a
    bucket edge, so ``cdf[lo[b]] >= (b+1)/K`` exceeds every key of bucket b
    and ``lo[b]`` is the slot; a tally then counts keys per bucket and adds
    bucket b's count to slot ``lo[b]``, with no per-key lookup.  Otherwise a key takes one compare against
    ``cut[lo[b]]``, which is exact when its bucket holds at most one cdf
    value; only when ``held >= 2`` do keys in a bucket holding two or more
    bisect that bucket's own slots.  A bucket holding j values costs its keys
    O(log j) and covers 1/K of [0, 1), and the j sum to at most s <= K/2, so
    a key costs O(1) expected.  All arrays are read-only.

    The build counts instead of searching: cdf * K is exact, so for an
    integer b, ``cdf <= b/K`` exactly when ceil(cdf * K) <= b and ``cdf <
    (b+1)/K`` exactly when floor(cdf * K) <= b, and ``lo`` and ``hi`` are
    cumulative counts of those ceilings and floors, in O(s + K).
    """

    def __init__(self, atoms: np.ndarray, probs: np.ndarray):
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        self.buckets = k = 1 << (2 * atoms.size - 1).bit_length()
        self._shift = np.uint64(65 - k.bit_length())
        scaled = cdf * k
        lo = np.cumsum(np.bincount(np.ceil(scaled).astype(np.int64), minlength=k + 1)[:k])
        hi = np.cumsum(np.bincount(np.floor(scaled).astype(np.int64), minlength=k + 1)[:k])
        held = hi - lo
        self.held = int(held.max())
        deep = held >= 2
        cut = np.ceil(cdf * _KEY_SCALE).astype(np.int64)
        for arr in (atoms, cdf, cut, lo, hi, deep):
            arr.flags.writeable = False
        self.atoms, self.cdf, self.cut, self.lo, self.hi, self.deep = atoms, cdf, cut, lo, hi, deep

    def slots(self, x: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, (x >> 11) * 2**-53, side="right")`` for uint64 keys, at O(1) expected per key."""
        bucket = (x >> self._shift).view(np.int64)
        slot = self.lo[bucket]
        if self.held == 0:
            return slot
        key = (x >> _KEY_DROP).view(np.int64)
        slot += self.cut[slot] <= key
        if self.held == 1:
            return slot
        # Bisect [slot, hi] for the first cut value above the key; a key
        # leaves once its range has closed on that slot.
        keys = np.flatnonzero(self.deep[bucket])
        left, right, key = slot[keys], self.hi[bucket[keys]], key[keys]
        while keys.size:
            mid = (left + right) >> 1
            above = self.cut[mid] > key
            right = np.where(above, mid, right)
            left = np.where(above, left, mid + 1)
            done = left == right
            slot[keys[done]] = left[done]
            open_ = ~done
            keys, left, right, key = keys[open_], left[open_], right[open_], key[open_]
        return slot


def _stable_order(values: np.ndarray) -> np.ndarray:
    """``argsort(values, kind="stable")``, by numpy's faster unstable argsort
    when no two values are equal (its order is then the only one)."""
    order = np.argsort(values)
    ranked = values[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(values, kind="stable")
    return order


class Distribution:
    """Explicit pmf over the domain ``{0, ..., n-1}``.

    Invariants enforced at construction: every entry is >= 0, the entries sum
    to 1 within ``PMF_SUM_TOL``, and the domain is nonempty.  Instances are
    immutable (the underlying array is locked), so they are safe to share
    between threads; the sampling table is built on the first explicit draw
    and cached on the instance.  So is the lightest-first order that
    adversarial pairings of k pairs select from: the first selection on a
    distribution costs O(n + k log k), and a repeat at the same or a smaller
    k costs O(k).

    The constructor and :meth:`uniform` hold a length-n pmf.
    :meth:`uniform_on`, :meth:`point_mass` and the learner's output hold
    their s atoms and masses only, and build the length-n ``pmf``, the same
    bytes, on its first read.  Their draws and tallies, ``n``,
    ``support()``, ``mass()``, :func:`high_set` and :func:`l1_distance` never
    build it; ``==``, ``draw_counts``, :func:`save_distribution` and the
    testers' and adversarial layer's readers do.
    """

    def __init__(self, pmf: np.ndarray):
        arr = _reals(pmf, "pmf", copy=True)
        if arr.ndim != 1 or arr.size < 1:
            raise ParameterError("pmf must be a nonempty 1-d vector")
        _check_masses(arr)
        arr.flags.writeable = False
        vars(self).update(_n=arr.size, _sparse=None, pmf=arr)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def _on_atoms(cls, atoms: np.ndarray, probs: np.ndarray, n: int) -> "Distribution":
        """Mass ``probs`` on the distinct ascending indices ``atoms`` of a domain of size ``n >= 1``.

        The s masses get the constructor's checks, and the distribution keeps
        read-only copies of the atoms and masses: O(s) until ``pmf`` is read.
        """
        atoms = np.array(atoms, dtype=np.int64)
        probs = np.array(probs, dtype=np.float64)
        _check_masses(probs)
        atoms.flags.writeable = probs.flags.writeable = False
        d = cls.__new__(cls)
        vars(d).update(_n=int(n), _sparse=(atoms, probs))
        return d

    def _relabelled(self, perm: np.ndarray) -> "Distribution":
        """The mass of each index i moved to ``perm[i]``, for a permutation ``perm`` of the domain.

        The masses are this pmf's, already checked, so the scattered copy is
        locked without the constructor's O(n) checks and copy.
        """
        pmf = np.zeros(self.n)
        pmf[perm] = self.pmf
        pmf.flags.writeable = False
        d = Distribution.__new__(Distribution)
        vars(d).update(_n=self.n, _sparse=None, pmf=pmf)
        return d

    @cached_property
    def pmf(self) -> np.ndarray:
        """The length-n pmf, read-only.

        A distribution on atoms builds it on the first read; threads that
        race here build equal arrays, and either may be kept.
        """
        atoms, probs = self._sparse
        pmf = np.zeros(self._n)
        pmf[atoms] = probs
        pmf.flags.writeable = False
        return pmf

    def _atoms(self) -> tuple:
        """The indices with positive mass, ascending, and their masses, as fresh arrays."""
        if self._sparse is None:
            atoms = np.flatnonzero(self.pmf > 0.0)
            return atoms, self.pmf[atoms]
        atoms, probs = self._sparse
        keep = probs > 0.0
        return atoms[keep], probs[keep]

    @cached_property
    def _guide(self) -> _GuideTable:
        """The sampling table, built on the first explicit draw and shared by every oracle over this pmf."""
        return _GuideTable(*self._atoms())

    def _lightest(self, count: int) -> np.ndarray:
        """The first ``count`` indices in ascending (mass, index) order, read-only, for ``1 <= count <= n``.

        Equal to ``argsort(pmf, kind="stable")[:count]`` without sorting all
        n: a partition finds the count-th smallest mass, every element below
        it is stable-sorted by mass, and ties at it follow in index order.
        The longest prefix computed so far is cached on the instance; a
        shorter request slices it, and only a longer one computes again.
        Threads that race here compute prefixes of one order, and any may be kept.
        """
        prefix = vars(self).get("_lightest_prefix")
        if prefix is None or prefix.size < count:
            pmf = self.pmf
            threshold = np.partition(pmf, count - 1)[count - 1]
            below = np.flatnonzero(pmf < threshold)
            ties = np.flatnonzero(pmf == threshold)[: count - below.size]
            prefix = np.concatenate([below[_stable_order(pmf[below])], ties])
            prefix.flags.writeable = False
            vars(self)["_lightest_prefix"] = prefix
        return prefix[:count]

    @property
    def n(self) -> int:
        """Domain size."""
        return self._n

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        n = _integer(n, "n", 1)
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, n: int, index: int) -> "Distribution":
        """All mass on ``index``, held as one atom."""
        n = _integer(n, "n", 1)
        index = _integer(index, "index", 0, n - 1)
        return cls._on_atoms([index], [1.0], n)

    @classmethod
    def uniform_on(cls, indices: Iterable[int], n: int) -> "Distribution":
        """Uniform distribution restricted to ``indices`` inside a size-n domain, held as its atoms."""
        n = _integer(n, "n", 1)
        idx = _index_set(indices, n)
        if idx.size == 0:
            raise ParameterError("support must be nonempty")
        return cls._on_atoms(idx, np.full(idx.size, 1.0 / idx.size), n)

    def mass(self, indices: Iterable[int]) -> float:
        """Total probability mass of a set of indices; a repeated index counts once."""
        idx = _index_set(indices, self.n)
        if self._sparse is None:
            return float(self.pmf[idx].sum())
        # The entries pmf[idx] would hold, zeros included, so that the sum
        # is the dense one bit for bit.
        atoms, probs = self._sparse
        at = np.minimum(np.searchsorted(atoms, idx), atoms.size - 1)
        return float(np.where(atoms[at] == idx, probs[at], 0.0).sum())

    def support(self) -> np.ndarray:
        """Indices with strictly positive mass, ascending."""
        return self._atoms()[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return bool(np.array_equal(self.pmf, other.pmf))

    def __repr__(self) -> str:
        return f"Distribution(n={self.n})"


@dataclass(frozen=True)
class NonConcentrationParams:
    """Mass threshold ``alpha`` and size fraction ``beta``; 0 < alpha <= beta < 1/2."""

    alpha: float
    beta: float

    def __post_init__(self):
        alpha, beta = _real(self.alpha, "alpha"), _real(self.beta, "beta")
        if not 0.0 < alpha <= beta < 0.5:
            raise ParameterError(
                f"need 0 < alpha <= beta < 1/2; got alpha={self.alpha}, beta={self.beta}"
            )


# An opaque draw procedure: given a generator and a count, returns indices.
DrawProcedure = Callable[[np.random.Generator, int], np.ndarray]

_SEED_MAX = 2**64 - 1

# The most draws one call may ask for: draws and their counts are int64.
_COUNT_MAX = 2**63 - 1

# Chunk size for streaming counts out of opaque sources.
_COUNT_CHUNK = 10_000_000

# Keys per block of an explicit-pmf draw, raised to the support size s where
# that is larger: a block's keys, buckets and slots stay in cache, and a
# tally's bincount per block, of O(s) slots or of O(K) = O(s) buckets on a
# table with held == 0, costs at most as much as the block.
_DRAW_BLOCK = 1 << 15


class SamplingOracle:
    """Seeded source of i.i.d. draws from a distribution.

    ``source`` is either an explicit :class:`Distribution` or an opaque
    callable ``(generator, size) -> indices`` (in which case ``n`` must be
    given).  ``seed`` must be an integer in ``[0, 2**64 - 1]`` and ``n``,
    when given, one >= 1; given with a distribution, it must equal the
    distribution's ``n``, or :class:`DimensionError` is raised.  Rebuilding
    an oracle with the same seed and source replays the identical sample
    sequence.  An explicit-pmf draw costs O(1) expected, from
    an O(s) table over the support of size s that the :class:`Distribution`
    builds on the first draw and caches for every oracle over it.

    The oracle is stateful (it owns an RNG position): use one oracle per
    thread of execution.  To fan out, build ``SamplingOracle(d,
    derive_seed(seed, i))`` for the i-th independent stream.
    """

    def __init__(self, source: Union[Distribution, DrawProcedure], seed: int, n: int | None = None):
        seed = _integer(seed, "seed", 0, _SEED_MAX)
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self.samples_drawn = 0
        if isinstance(source, Distribution):
            if n is not None and _integer(n, "n", 1) != source.n:
                raise DimensionError(f"n={n} does not match the distribution's domain ({source.n})")
            self._dist = source
            self._proc = None
            self._n = source.n
        elif callable(source):
            if n is None:
                raise ParameterError("opaque sources require an explicit domain size n")
            n = _integer(n, "n", 1)
            self._dist = None
            self._proc = source
            self._n = n
        else:
            raise ParameterError("source must be a Distribution or a callable")

    @property
    def n(self) -> int:
        return self._n

    def _blocks(self, table: _GuideTable, m: int):
        """Offset and keys of each block of ``m >= 1`` fresh draws from ``table``.

        The keys are fresh uint64 arrays of raw PCG64 outputs, ``max(_DRAW_BLOCK,
        s)`` at a time.  ``gen.random(m)`` would spend the same one output on
        each of its doubles, so the keys' slots are its draws, bit for bit,
        and the generator ends where it would.
        """
        block = max(_DRAW_BLOCK, table.atoms.size)
        raw = self._gen.bit_generator.random_raw
        for start in range(0, m, block):
            yield start, raw(min(block, m - start))

    def draw(self, m: int) -> np.ndarray:
        """Draw ``m`` i.i.d. indices; deterministic given the seed.

        An explicit pmf's draws are raw generator outputs looked up block by
        block into one int64 output, so the temporaries are O(block + s), not
        O(m); the indices are those ``searchsorted`` of ``gen.random(m)`` in
        the support's CDF gives.  An opaque procedure's output is read by
        :func:`_integers`: anything but ``m`` integers in ``[0, n)`` raises
        :class:`StructureError`.
        """
        m = _integer(m, "m", 0, _COUNT_MAX)
        if m == 0:
            return np.empty(0, dtype=np.int64)
        if self._dist is not None:
            table = self._dist._guide
            out = np.empty(m, dtype=np.int64)
            for start, keys in self._blocks(table, m):
                table.atoms.take(table.slots(keys), out=out[start:start + keys.size])
        else:
            out = _integers(self._proc(self._gen, m), "draw procedure output", 0, self._n - 1, StructureError)
            if out.size != m:
                raise StructureError(f"draw procedure returned {out.size} indices for a batch of {m}")
        self.samples_drawn += m
        return out

    def draw_tally(self, m: int) -> tuple:
        """Distinct values of ``m`` i.i.d. draws, ascending, and how often each occurs.

        Equal to ``np.unique(self.draw(m), return_counts=True)``, and leaves
        the generator and ``samples_drawn`` where ``draw(m)`` would.  For an
        explicit pmf it sums one ``bincount`` of the atom slots per block of
        raw keys: O(m + s) time, O(block + s) temporaries, no sort and no
        floating-point key.  On a table with ``held == 0`` the bincount is of
        the keys' buckets, shifted in place, and folds onto the slots once at
        the end: O(m + K) time for K buckets, O(block + K) temporaries and no
        slot array.
        """
        m = _integer(m, "m", 0, _COUNT_MAX)
        if self._dist is None or m == 0:
            return np.unique(self.draw(m), return_counts=True)
        table = self._dist._guide
        counts = np.zeros(table.atoms.size, dtype=np.int64)
        if table.held == 0:
            # Every key of bucket b takes slot lo[b] (see _GuideTable), so the
            # buckets' counts sum onto the slots exactly, in int64.
            buckets = np.zeros(table.buckets, dtype=np.int64)
            for _, keys in self._blocks(table, m):
                buckets += np.bincount(np.right_shift(keys, table._shift, out=keys).view(np.int64),
                                       minlength=table.buckets)
            np.add.at(counts, table.lo, buckets)
        else:
            for _, keys in self._blocks(table, m):
                counts += np.bincount(table.slots(keys), minlength=counts.size)
        self.samples_drawn += m
        hit = np.flatnonzero(counts)
        return table.atoms[hit], counts[hit]

    def draw_counts(self, m: int) -> np.ndarray:
        """Occurrence counts of ``m`` i.i.d. draws, as a length-n vector.

        For explicit-pmf sources the counts are drawn directly from the
        multinomial law of the batch, which is distributionally identical to
        tallying ``draw(m)`` but costs O(n) instead of O(m); this is what makes
        testers with astronomically large sample budgets runnable.  Opaque
        sources are streamed in chunks.  Counts are attributed to the sample
        budget exactly like literal draws.
        """
        m = _integer(m, "m", 0, _COUNT_MAX)
        if m == 0:
            return np.zeros(self._n, dtype=np.int64)
        if self._dist is not None:
            pvals = self._dist.pmf / self._dist.pmf.sum()
            counts = self._gen.multinomial(m, pvals).astype(np.int64)
            self.samples_drawn += m
            return counts
        counts = np.zeros(self._n, dtype=np.int64)
        left = m
        while left > 0:
            chunk = min(left, _COUNT_CHUNK)
            counts += np.bincount(self.draw(chunk), minlength=self._n)
            left -= chunk
        return counts


def derive_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for experiment fan-out; ``seed`` and ``index`` are integers >= 0."""
    seed, index = _integer(seed, "seed", 0), _integer(index, "index", 0)
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def l1_distance(d1: Distribution, d2: Distribution) -> float:
    """L1 distance between two pmfs on the same domain; lies in [0, 2].

    Equal, bit for bit, to ``np.abs(d1.pmf - d2.pmf).sum()``, in one length-n
    scratch array and without building the pmf of a distribution on atoms:
    the scratch takes d1's masses and loses d2's, and outside an atom the
    difference is x - 0 = x or 0 - y = -y exactly, whose sign ``abs`` clears.
    """
    if d1.n != d2.n:
        raise DimensionError(f"domain sizes differ: {d1.n} vs {d2.n}")
    if d1._sparse is None:
        diff = d1.pmf.copy()
    else:
        diff = np.zeros(d1.n)
        diff[d1._sparse[0]] = d1._sparse[1]
    if d2._sparse is None:
        np.subtract(diff, d2.pmf, out=diff)
    else:
        diff[d2._sparse[0]] -= d2._sparse[1]
    return float(np.abs(diff, out=diff).sum())


def high_set(d: Distribution, kappa: float) -> frozenset:
    """Indices carrying mass at least ``kappa``, for 0 < kappa < 1."""
    kappa = _real(kappa, "kappa")
    if not 0.0 < kappa < 1.0:
        raise ParameterError("kappa must lie in (0, 1)")
    atoms, probs = d._atoms()
    return frozenset(atoms[probs >= kappa].tolist())


def top_elements(d: Distribution, t: int) -> list:
    """The ``t`` indices of largest mass, non-increasing; ties go to the smaller index."""
    t = _integer(t, "t", 0, d.n)
    order = np.lexsort((np.arange(d.n), -d.pmf))
    return order[:t].tolist()


def sorted_l1_distance(d1: Distribution, d2: Distribution) -> float:
    """Minimum L1 distance over relabelings of one pmf against the other.

    Equals the coordinate-wise L1 distance after sorting both pmfs in
    non-increasing order, which realizes the minimum over all permutations.
    """
    if d1.n != d2.n:
        raise DimensionError(f"domain sizes differ: {d1.n} vs {d2.n}")
    a = np.sort(d1.pmf)[::-1]
    b = np.sort(d2.pmf)[::-1]
    return float(np.abs(a - b).sum())


def is_non_concentrated(d: Distribution, p: NonConcentrationParams) -> bool:
    """True iff every set of ``floor(beta*n)`` indices carries mass >= alpha.

    The minimizing set of that size is the set of smallest masses, so only the
    sum of the ``floor(beta*n)`` smallest entries is checked.
    """
    k = int(math.floor(p.beta * d.n))
    if k < 1:
        raise ParameterError(f"beta*n rounds to zero (beta={p.beta}, n={d.n})")
    smallest = np.partition(d.pmf, k - 1)[:k]
    return bool(smallest.sum() >= p.alpha)


def sample_size_additive(delta: float, kappa: float) -> int:
    """Least m with exp(-2*(delta*m)^2 / m) <= kappa.

    ``delta`` is a fractional deviation of an empirical mean of m bounded
    variables; the closed form is ceil(ln(1/kappa) / (2*delta^2)).
    """
    delta, kappa = _real(delta, "delta"), _real(kappa, "kappa")
    if not 0.0 < delta < math.inf:
        raise ParameterError("delta must be positive and finite")
    if not 0.0 < kappa < 1.0:
        raise ParameterError("kappa must lie in (0, 1)")
    return _checked_ceil(-math.log(kappa) / (2.0 * delta * delta))


def multiplicative_chernoff_bound(mu: float, delta: float) -> float:
    """Upper bound on P(|X - mu| >= delta*mu) for a sum of [0,1] variables; mu finite and >= 0, 0 <= delta <= 1."""
    mu, delta = _real(mu, "mu"), _real(delta, "delta")
    if not (0.0 <= mu < math.inf and 0.0 <= delta <= 1.0):
        raise ParameterError("need finite mu >= 0 and 0 <= delta <= 1")
    return 2.0 * math.exp(-mu * delta * delta / 3.0)


def additive_chernoff_bound(n: int, deviation: float) -> float:
    """Upper bound on P(X >= E[X] + deviation) for a sum of n [0,1] variables; deviation > 0."""
    n = _integer(n, "n", 1)
    deviation = _real(deviation, "deviation")
    if not deviation > 0:
        raise ParameterError("deviation must be > 0")
    return math.exp(-2.0 * deviation * deviation / n)


def empirical_distribution(samples: np.ndarray, n: int) -> Distribution:
    """Frequency distribution of a nonempty sample multiset over ``{0..n-1}``.

    The samples are read by :func:`_integers`: a flat collection of integers,
    not booleans or fractions.
    """
    n = _integer(n, "n", 1)
    samples = _integers(samples, "samples", 0, n - 1)
    if samples.size == 0:
        raise ParameterError("samples must be nonempty")
    counts = np.bincount(samples, minlength=n)
    return Distribution(counts / samples.size)


def _write_json(doc: dict, path) -> None:
    """Write ``doc`` as one line of JSON; a single ``json.dumps`` takes the C encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc) + "\n")


def _read_json(path, what: str, fields: Iterable[str]) -> dict:
    """The JSON object in ``path``; :class:`StructureError` unless it parses and carries ``fields``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StructureError(f"not a valid {what} file: {exc}") from exc
    for key in fields:
        if not isinstance(doc, dict) or key not in doc:
            raise StructureError(f"{what} file must carry field '{key}'")
    return doc


def save_distribution(d: Distribution, path) -> None:
    """Write a distribution file: a JSON object with fields ``n`` and ``pmf``."""
    _write_json({"n": d.n, "pmf": d.pmf.tolist()}, path)


def _is_int(x) -> bool:
    """Whether a JSON value is an integer (``true``/``false`` are not)."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_distribution(path) -> Distribution:
    """Read a distribution file, rejecting anything violating the invariants.

    ``n`` must be a JSON integer and ``pmf`` is read by :func:`_reals`, so a
    boolean anywhere in it, a string or a nesting raises
    :class:`StructureError`, as does a ``pmf`` whose length is not ``n``;
    masses that are negative or do not sum to 1 raise :class:`ParameterError`.
    """
    doc = _read_json(path, "distribution", ("n", "pmf"))
    n = doc["n"]
    if not _is_int(n):
        raise StructureError("field 'n' must be an integer")
    pmf = _reals(doc["pmf"], "pmf", StructureError)
    if pmf.shape != (n,):
        raise StructureError(f"pmf of shape {pmf.shape} does not match n={n}")
    return Distribution(pmf)
