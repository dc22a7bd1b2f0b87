"""disttest benchmark: one workload per process, a single-client closed loop.

    python3 perfbench/run.py --workload tolerant-uniform --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` alternates traced and untraced operations and reports
the per-layer metrics, writing every span to ``perfbench/out/``.  The last
line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
REF_OPS = 4          # operations per workload recorded in reference.json
SETUP_SAMPLES = 11   # fresh processes timed for setup_s
COUNT_OPS = 3        # traced operations whose counts are reported
PROPERTY_BUILDS = 3
LADDER_N = (200, 400, 800, 1600)
LADDER_BUDGET_S = 100  # keeps a traced run well inside three minutes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The names of workloads.WORKLOADS, repeated because arguments are parsed before numpy may load.
WORKLOAD_NAMES = ("tolerant-uniform", "tolerant-half", "learn-sparse", "adversarial-pairs")

END_TO_END_UNITS = {"call_ms_p10": "ms", "peak_rss_mb": "MiB", "setup_s": "s"}
LAYER_UNITS = {
    "simplex.ms_per_pivot": "ms",
    "simplex.tableau_mb": "MiB",
    "linprop.lp_density": "ratio",
    "learner.wasted_draw_fraction": "ratio",
}


def cap_threads() -> int:
    """Cap numpy/BLAS threads at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the child processes this script starts for setup_s and the ladder.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--ladder-n", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def ms(ns: int) -> float:
    return ns / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(nproc: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "note": "unpinned, shared sandbox",
    }


def child_command(args, *extra) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), *extra]


def time_setup(args) -> float:
    """Seconds from starting a fresh process until its inputs are ready for the first operation."""
    start = time.perf_counter()
    proc = subprocess.Popen(child_command(args, "--setup-only"), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"setup child exited with {proc.returncode}")
    if line.strip() != "ready":
        raise RuntimeError(f"setup child printed {line!r}")
    return elapsed


class Loop:
    """Runs, checks and tallies the operations of one workload."""

    def __init__(self, wl, state, seed: int, reference: list | None):
        self.wl = wl
        self.state = state
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.ops: list = []

    def run(self, i: int, tracer=None) -> int:
        """Run operation ``i`` (traced when a tracer is given); return its wall time in ns."""
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                raw = self.wl.run(self.state, self.seed, i)
                elapsed = time.perf_counter_ns() - start
            else:
                with tracer.operation(i):
                    raw = self.wl.run(self.state, self.seed, i)
                elapsed = tracer.last_op_ns
            res = self.wl.check(self.state, raw)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return time.perf_counter_ns() - start
        ok = res.ok
        if self.reference is not None and i < len(self.reference) and res.reference != self.reference[i]:
            print(f"op {i}: {res.reference} differs from reference {self.reference[i]}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"op {i}: invariant broken", file=sys.stderr)
        self.failed += not ok
        self.correct += bool(ok and res.correct)
        self.ops.append({"op": i, "traced": tracer is not None, "call_ms": ms(elapsed), "counts": res.counts})
        return elapsed

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0 and self.correct == self.attempted,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def run_loop(loop: Loop, seconds: float, tracer=None) -> tuple:
    """Warm up with operation 0, then run until ``seconds`` pass.

    Traced runs alternate traced (odd) and untraced (even) operations.  Either
    kind runs at least ``COUNT_OPS`` times.  Returns the untraced and
    traced wall times in ns and the timed loop's length in seconds.
    """
    loop.run(0)
    plain, traced = [], []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 1
    while time.perf_counter_ns() < deadline or len(plain) < COUNT_OPS or (tracer and len(traced) < COUNT_OPS):
        if tracer is not None and i % 2:
            traced.append(loop.run(i, tracer))
        else:
            plain.append(loop.run(i))
        i += 1
    return plain, traced, (time.perf_counter_ns() - start) / 1e9


def end_to_end(args, wl, loop: Loop) -> dict:
    """The gated metrics, plus the informational lines a reader also wants.

    The timing that is gated is the fastest decile of calls: on a shared,
    unpinned machine the median call moves by a quarter or more with the
    neighbours' load over minutes, while the fastest decile stays within a
    few percent.  The set-up samples are split around the timed loop so that
    they, too, see more than one load state.
    """
    before = SETUP_SAMPLES // 2 + 1
    setup = [time_setup(args) for _ in range(before)]
    plain, _, loop_s = run_loop(loop, args.seconds)
    setup += [time_setup(args) for _ in range(SETUP_SAMPLES - before)]
    calls = [ms(t) for t in plain]
    deciles = statistics.quantiles(calls, n=10)
    metrics = {
        "call_ms_p10": deciles[0],
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    print(f"call_ms_p10         {deciles[0]:.3f} ms  ({len(calls)} timed calls; gated)")
    print(f"call_ms_p50         {statistics.median(calls):.3f} ms  ({len(calls)} timed calls; not gated)")
    beyond = sum(c > deciles[8] for c in calls)
    if beyond >= 10:
        print(f"call_ms_p90         {deciles[8]:.3f} ms  ({beyond} of {len(calls)} calls beyond it; not gated)")
    else:
        print(f"call_ms_p90         not reported: {beyond} of {len(calls)} calls beyond it, needs 10")
    print(f"calls_per_s         {len(calls) / loop_s:.4f} 1/s  (n={wl.n}, {loop_s:.2f} s loop; not gated)")
    print(f"peak_rss_mb         {metrics['peak_rss_mb']:.1f} MiB  (ru_maxrss of this process)")
    print(f"setup_s             {metrics['setup_s']:.4f} s  (median of {SETUP_SAMPLES} fresh processes)")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def median_or_zero(values: list) -> float:
    return statistics.median(values) if values else 0.0


def per_layer(args, wl, loop: Loop, facts: dict) -> dict:
    from spans import SPAN_NAMES, TRACER_COUNTS, Tracer, self_ms_by_op

    builds = []
    if wl.build_property is not None:
        for _ in range(PROPERTY_BUILDS):
            start = time.perf_counter_ns()
            wl.build_property()
            builds.append(ms(time.perf_counter_ns() - start))

    tracer = Tracer()
    plain, traced, _ = run_loop(loop, args.seconds, tracer)
    self_ms = self_ms_by_op(tracer.spans)
    traced_ops = [rec for rec in loop.ops if rec["traced"]]
    for rec in traced_ops:
        rec["counts"].update(tracer.counts.get(rec["op"], {}))
        rec["self_ms"] = self_ms.get(rec["op"], {})

    values = {}
    for name in SPAN_NAMES:
        values[name + "_ms"] = median_or_zero([rec["self_ms"].get(name, 0.0) for rec in traced_ops])
    count_names = (
        "core.draws", "tester.h_size", "tester.padding_warnings", *TRACER_COUNTS,
        "learner.iterations", "learner.wasted_draw_fraction", "adversarial.pairs",
    )
    first = traced_ops[:COUNT_OPS]
    for name in count_names:
        values[name] = median_or_zero([rec["counts"].get(name, 0) for rec in first])
    values["linprop.property_build_ms"] = median_or_zero(builds)
    values["simplex.ms_per_pivot"] = median_or_zero([
        rec["self_ms"].get("simplex.solve", 0.0) / rec["counts"]["simplex.pivots"]
        for rec in traced_ops if rec["counts"].get("simplex.pivots")
    ])
    values["trace.call_p50_ms"] = statistics.median(ms(t) for t in traced)
    values["trace.untraced_call_p50_ms"] = statistics.median(ms(t) for t in plain)
    values["trace.overhead_ms"] = values["trace.call_p50_ms"] - values["trace.untraced_call_p50_ms"]

    for name in tracer.absent:
        values.pop(name, None)
    if tracer.absent:
        print(f"absent              {json.dumps(tracer.absent, sort_keys=True)}")
    call = values["trace.call_p50_ms"]
    shares = sorted(((values[n + "_ms"] / call, n) for n in SPAN_NAMES if n + "_ms" in values), reverse=True)
    print("self time shares    " + ", ".join(f"{n} {100 * s:.2f}%" for s, n in shares if s > 0))
    print(f"tracing overhead    {values['trace.overhead_ms']:.3f} ms on a {values['trace.untraced_call_p50_ms']:.3f} ms call")

    ladder = run_ladder(args) if wl.name == "tolerant-uniform" else []
    OUT.mkdir(exist_ok=True)
    out = OUT / f"trace-{wl.name}-seed{args.seed}.json"
    spans = [dict(zip(("op", "id", "parent", "name", "start_ns", "end_ns"), s)) for s in tracer.spans]
    out.write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "machine": facts,
        "metrics": values, "absent": tracer.absent, "ops": loop.ops, "ladder": ladder, "spans": spans,
    }, indent=1) + "\n")
    print(f"trace written       {out.relative_to(ROOT)} ({len(spans)} spans)")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in values.items()}


def run_ladder(args) -> list:
    """One traced tolerant-uniform call per size, each in its own process (reported, not gated)."""
    points = []
    deadline = time.monotonic() + LADDER_BUDGET_S
    for n in LADDER_N:
        try:
            done = subprocess.run(
                child_command(args, "--ladder-n", str(n)), capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"ladder n={n} stopped: the ladder's {LADDER_BUDGET_S} s budget ran out", file=sys.stderr)
            points.append({"n": n, "error": "budget"})
            break
        if done.returncode != 0:
            print(f"ladder n={n} failed: {done.stderr.strip()[-500:]}", file=sys.stderr)
            points.append({"n": n, "error": done.returncode})
            continue
        point = json.loads(done.stdout.strip().splitlines()[-1])
        points.append(point)
        print(
            f"ladder n={n:<5d}      call {point['call_ms']:.1f} ms, solve {point['self_ms'].get('simplex.solve', 0):.1f} ms, "
            f"pivots {point['counts'].get('simplex.pivots')}, peak RSS {point['peak_rss_mb']:.0f} MiB"
        )
    return points


def ladder_point(n: int, seed: int) -> dict:
    from spans import Tracer, self_ms_by_op
    from workloads import check_tolerant, run_tolerant, setup_tolerant

    start = time.perf_counter_ns()
    inputs = setup_tolerant(seed, half=False, n=n)
    setup_ms = ms(time.perf_counter_ns() - start)
    tracer = Tracer()
    start = time.perf_counter_ns()
    with tracer.operation(0):
        raw = run_tolerant(inputs, seed, 0)
    call_ms = ms(time.perf_counter_ns() - start)
    res = check_tolerant(inputs, raw)
    return {
        "n": n,
        "setup_ms": setup_ms,
        "call_ms": call_ms,
        "correct": res.ok and res.correct,
        "self_ms": self_ms_by_op(tracer.spans)[0],
        "counts": {**res.counts, **tracer.counts[0]},
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if not (ROOT / "src" / "disttest" / "__init__.py").is_file():
        print(f"error: no disttest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.ladder_n is not None:
        print(json.dumps(ladder_point(args.ladder_n, args.seed)))
        return 0
    state = wl.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    facts = machine_facts(nproc)
    print(f"perfbench workload={wl.name} n={wl.n} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"machine             {json.dumps(facts)}")
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["ops"][wl.name]
    loop = Loop(wl, state, args.seed, reference)
    if args.trace:
        metrics = per_layer(args, wl, loop, facts)
    else:
        metrics = end_to_end(args, wl, loop)
    print(f"failed_fraction     {loop.failed}/{loop.attempted} = {loop.failed / loop.attempted:.4f}")
    print(f"correct_fraction    {loop.correct}/{loop.attempted} = {loop.correct / loop.attempted:.4f}")
    print(json.dumps(loop.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
