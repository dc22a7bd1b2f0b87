"""Span recorder that wraps disttest's layer entry points from outside the library.

Each wrapped call records a span ``[op, id, parent, name, start_ns, end_ns]``
in memory; spans of one operation share ``op`` and hang below that
operation's root span ``"op"``.  The wrappers are installed on the names the
callers resolve at call time (module globals and class attributes) and are
removed again after every operation, so untraced operations run the
library's own functions.

A target that no longer exists, or a return value whose shape changed, makes
its metrics *absent* instead of stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

OP, ID, PARENT, NAME, START, END = range(6)


def _lp_counts(args: dict, result) -> dict:
    A = result.poly.A
    rows, cols = A.shape
    nnz = int(A.nnz) if hasattr(A, "nnz") else int(np.count_nonzero(A))
    return {
        "linprop.lp_rows": rows,
        "linprop.lp_cols": cols,
        "linprop.lp_nnz": nnz,
        "linprop.lp_density": nnz / (rows * cols),
    }


def _fold_counts(args: dict, result) -> dict:
    return {"linprop.folded_rows": args["A"].shape[0] - result[0].shape[0]}


def _solve_counts(args: dict, result) -> dict:
    """Pivots, and the dense tableau the solver allocates, computed from its input shapes.

    The phase-1 tableau has m rows and n + m + k columns of float64, where k
    counts the rows violated at the starting point (0 clipped into the bounds);
    no tableau is built when k is 0.
    """
    A = np.asarray(args["A"], dtype=np.float64)
    m, n = A.shape
    lower = args["lower"] if args["lower"] is not None else np.full(n, -np.inf)
    upper = args["upper"] if args["upper"] is not None else np.full(n, np.inf)
    x0 = np.clip(np.zeros(n), lower, upper)
    k = int(np.count_nonzero(np.asarray(args["b"]) - A @ x0 < 0.0))
    return {
        "simplex.pivots": result.iterations,
        "simplex.tableau_mb": m * (n + m + k) * 8 / 2**20 if m and k else 0.0,
    }


_LP_COUNTS = ("linprop.lp_rows", "linprop.lp_cols", "linprop.lp_nnz", "linprop.lp_density")

# (module, attribute path the callers resolve, span name, counter, counter's metrics)
TARGETS = (
    ("disttest.tester", "estimate_high_part", "tester.estimate", None, ()),
    ("disttest.core", "SamplingOracle.draw_counts", "core.draw_counts", None, ()),
    ("disttest.core", "SamplingOracle.draw", "core.draw", None, ()),
    ("disttest.linprop", "build_feasibility_lp", "linprop.lp_build", _lp_counts, _LP_COUNTS),
    ("disttest.linprop", "feasibility_report", "linprop.report", None, ()),
    ("disttest.linprop", "extract_bounds", "linprop.fold", _fold_counts, ("linprop.folded_rows",)),
    ("disttest.linprop", "Polyhedron.digest", "linprop.digest", None, ()),
    (
        "disttest.linprop",
        "solve_feasibility",
        "simplex.solve",
        _solve_counts,
        ("simplex.pivots", "simplex.tableau_mb"),
    ),
    ("disttest.learner", "empirical_distribution", "core.empirical", None, ()),
    ("disttest.learner", "tol_identity_test", "learner.identity_test", None, ()),
    ("disttest.learner", "contract_indices", "learner.contract", None, ()),
    ("disttest.adversarial", "make_adversarial_pair", "adversarial.build", None, ()),
    ("disttest.adversarial", "verify_adversarial", "adversarial.verify", None, ()),
    ("disttest.adversarial", "relabel", "adversarial.relabel", None, ()),
    ("disttest.adversarial", "collision_rate", "adversarial.collision", None, ()),
)

SPAN_NAMES = tuple(t[2] for t in TARGETS)
TRACER_COUNTS = tuple(name for t in TARGETS for name in t[4])


class Tracer:
    """Records spans and counts for the operations run inside :meth:`operation`."""

    def __init__(self, targets=TARGETS):
        self.spans: list = []
        self.counts: dict = defaultdict(dict)
        self.absent: dict = {}
        self._stack: list = []
        self._op = None
        self._patches = []
        self._pending: list = []
        self.last_op_ns = 0
        for module_name, path, span_name, counter, count_names in targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                reason = f"{module_name}.{path} not found"
                for metric in (span_name + "_ms", *count_names):
                    self.absent[metric] = reason
                continue
            wrapper = self._wrap(span_name, original, counter, count_names)
            self._patches.append((owner, attr, original, wrapper))

    def _wrap(self, name, fn, counter, count_names):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [self._op, len(self.spans), self._stack[-1], name, 0, 0]
            self.spans.append(record)
            self._stack.append(record[ID])
            record[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter_ns()
                self._stack.pop()
            if counter is not None:
                self._pending.append((name, counter, count_names, signature, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation; its root span ``"op"`` times the whole call."""
        self._op = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        root = [op_id, len(self.spans), None, "op", 0, 0]
        self.spans.append(root)
        self._stack.append(root[ID])
        root[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            root[END] = time.perf_counter_ns()
            self.last_op_ns = root[END] - root[START]
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._count(op_id)
            self._op = None

    def _count(self, op_id: int) -> None:
        """Evaluate the counters of one operation after its spans closed, so no span pays for them."""
        for name, counter, count_names, signature, args, kwargs, result in self._pending:
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts[op_id].update(counter(bound.arguments, result))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                for metric in count_names:
                    self.absent[metric] = f"{name} returned an unexpected shape: {exc!r}"
        self._pending.clear()


def self_times_ns(spans: list) -> dict:
    """Span id -> its duration minus the time covered by its direct children.

    The library is single-threaded, so the children of one span never overlap.
    """
    covered = defaultdict(int)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[END] - s[START]
    return {s[ID]: s[END] - s[START] - covered[s[ID]] for s in spans}


def self_ms_by_op(spans: list) -> dict:
    """Op id -> {span name: summed self time in ms} over that operation's spans."""
    own = self_times_ns(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        out[s[OP]][s[NAME]] += own[s[ID]] / 1e6
    return {op: dict(names) for op, names in out.items()}
