"""Self-checks of the benchmark harness.

    python -m pytest perfbench/tests

Two traced runs at one seed must agree byte for byte on every count field,
the self times of one operation must add up to its root span, a layer name
that disappears must turn into an absent metric, and the benchmark must fail
without a result when the library sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from spans import END, ID, NAME, OP, PARENT, START, Tracer, self_times_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    trace = json.loads((BENCH / "out" / f"trace-{workload}-seed{seed}.json").read_text())
    return result, trace


def assert_self_times_add_up(spans: list) -> None:
    own = self_times_ns(spans)
    per_op = defaultdict(int)
    roots = {}
    for s in spans:
        per_op[s[OP]] += own[s[ID]]
        if s[PARENT] is None:
            roots[s[OP]] = s[END] - s[START]
    assert roots and per_op == roots


def test_traced_counts_repeat_exactly_and_self_times_add_up():
    first, trace_a = traced_run("tolerant-half", 1)
    second, trace_b = traced_run("tolerant-half", 1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = [
        json.dumps({k: v for k, v in r["metrics"].items() if v["unit"] != "ms"}, sort_keys=True)
        for r in (first, second)
    ]
    assert counts[0] == counts[1]
    ops_a = {rec["op"]: rec["counts"] for rec in trace_a["ops"] if rec["traced"]}
    ops_b = {rec["op"]: rec["counts"] for rec in trace_b["ops"] if rec["traced"]}
    shared = sorted(ops_a.keys() & ops_b.keys())
    assert shared
    assert [json.dumps(ops_a[i], sort_keys=True) for i in shared] == [
        json.dumps(ops_b[i], sort_keys=True) for i in shared
    ]
    spans = [[s["op"], s["id"], s["parent"], s["name"], s["start_ns"], s["end_ns"]] for s in trace_a["spans"]]
    assert_self_times_add_up(spans)


def test_tolerant_uniform_self_times_add_up():
    wl = WORKLOADS["tolerant-uniform"]
    state = wl.setup(1)
    tracer = Tracer()
    for i in (1, 2):
        with tracer.operation(i):
            raw = wl.run(state, 1, i)
        assert wl.check(state, raw).correct
    assert {s[NAME] for s in tracer.spans} >= {"op", "tester.estimate", "linprop.lp_build", "simplex.solve"}
    assert_self_times_add_up(tracer.spans)
    assert tracer.counts[1]["simplex.pivots"] > 0 and not tracer.absent


def test_missing_layer_names_become_absent_metrics():
    def broken_counter(args, result):
        return {"linprop.lp_rows": result.no_such_field}

    tracer = Tracer(targets=(
        ("disttest.linprop", "no_longer_there", "linprop.gone", None, ("linprop.gone_rows",)),
        ("disttest.linprop", "build_feasibility_lp", "linprop.lp_build", broken_counter, ("linprop.lp_rows",)),
    ))
    wl = WORKLOADS["tolerant-half"]
    state = wl.setup(1)
    with tracer.operation(1):
        raw = wl.run(state, 1, 1)
    assert wl.check(state, raw).correct
    assert set(tracer.absent) == {"linprop.gone_ms", "linprop.gone_rows", "linprop.lp_rows"}
    assert [s[NAME] for s in tracer.spans] == ["op", "linprop.lp_build"]


def test_fails_without_a_result_when_sources_are_missing():
    bare = BENCH / "out" / "without-sources"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "learn-sparse", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout
