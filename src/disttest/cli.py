"""Experiment harness: seeded batch runs of every capability, reported as CSV.

Every subcommand executes once per seed and repeat, producing one record per
run in a schema that is stable across commands::

    seed,repeat,command,params_digest,metric,samples_used,extras,wall_ms

``metric`` is the command's primary result (verdict / outcome / rate);
command-specific fields (h_size, final_guess, measured_l1, ...) are packed
into ``extras`` as space-separated ``key=value`` pairs.  A ``#``-prefixed
summary block (success fraction, mean samples, normal-approximation
confidence radius) follows the rows.  Everything except the wall_ms column is
byte-reproducible for a fixed configuration.

``DISTTEST_THREADS`` caps seed-level parallelism (an integer >= 1, default 1;
any other value is a parameter error, exit code 2); rows are always written
in (seed, repeat) order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversarial import (
    build_pairing,
    collision_rate,
    make_adversarial_pair,
    pair_collision_bound,
    relabel,
    verify_adversarial,
)
from .core import (
    Distribution,
    NonConcentrationParams,
    SamplingOracle,
    l1_distance,
    load_distribution,
    save_distribution,
)
from .errors import ParameterError, SolverError, StructureError
from .learner import learn_adaptive, learn_known_support
from .linprop import (
    LinearProperty,
    feasibility_report,
    linear_property_oracle,
    load_polyhedron,
    uniformity_polyhedron,
)
from .tester import Verdict, derive_params


KNOWN_PARAMS = {
    "tolerant-test": {
        "dist",
        "property",
        "lambda",
        "gamma1",
        "gamma2",
        "c_star",
        "c_w",
        "c_z",
    },
    "lp-feasible": {"lp"},
    "gen-adversarial": {"dist", "alpha", "beta", "mode", "out_yes", "out_no", "permute"},
    "collision-rate": {"dist", "beta", "m", "trials", "random_pairing"},
    "learn": {"dist", "eta", "delta", "known_s", "c_learn", "c_test"},
}


def _fmt(value) -> str:
    """Locale-independent CSV field with >= 12 significant digits for floats."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    seeds: tuple
    repeats: int
    params: dict
    output_path: str | None

    def __post_init__(self):
        if self.subcommand not in KNOWN_PARAMS:
            raise ParameterError(f"unknown subcommand {self.subcommand!r}")
        if not self.seeds:
            raise ParameterError("seeds must be nonempty")
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        unknown = set(self.params) - KNOWN_PARAMS[self.subcommand]
        if unknown:
            raise ParameterError(
                f"unknown parameter keys for {self.subcommand}: {sorted(unknown)}"
            )


@dataclass(frozen=True)
class RunRecord:
    seed: int
    repeat: int
    command: str
    params_digest: str
    metric: str
    samples_used: int
    extras: dict = field(default_factory=dict)
    wall_ms: float = 0.0
    success: bool = True

    def row(self) -> list:
        packed = " ".join(f"{k}={_fmt(v)}" for k, v in self.extras.items())
        return [
            str(self.seed),
            str(self.repeat),
            self.command,
            self.params_digest,
            self.metric,
            str(self.samples_used),
            packed,
            _fmt(float(self.wall_ms)),
        ]


CSV_HEADER = ["seed", "repeat", "command", "params_digest", "metric", "samples_used", "extras", "wall_ms"]


def params_digest(params: dict) -> str:
    blob = json.dumps(params, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _suffixed(path: str, seed: int, repeat: int, multiple: bool) -> str:
    if not multiple:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.s{seed}.r{repeat}{p.suffix}"))


# ----------------------------------------------------------------- runners


def _run_tolerant_test(seed: int, repeats: int, params: dict, digest: str) -> list:
    from .tester import tolerant_test_detailed

    d = load_distribution(params["dist"])
    n = d.n
    selector = params.get("property", "uniform")
    if selector == "uniform":
        prop = uniformity_polyhedron(n, 0.0)
    elif selector.startswith("lp:"):
        prop = LinearProperty(load_polyhedron(selector[3:]), n)
    else:
        raise ParameterError(f"property must be 'uniform' or 'lp:<file>', got {selector!r}")
    constants = {}
    for key, name in (("c_star", "c_star"), ("c_w", "c_W"), ("c_z", "c_Z")):
        if key in params:
            constants[name] = float(params[key])
    tparams = derive_params(
        int(params["lambda"]), float(params["gamma1"]), float(params["gamma2"]), n, constants
    )
    oracle = SamplingOracle(d, seed)
    prop_oracle = linear_property_oracle(prop)
    records = []
    for repeat in range(repeats):
        before = oracle.samples_drawn
        t0 = time.perf_counter()
        try:
            verdict, est = tolerant_test_detailed(oracle, prop_oracle, tparams, n)
            metric, extras = str(verdict), {"h_size": len(est.H)}
            success = verdict is Verdict.ACCEPT
        except SolverError as exc:
            metric, extras, success = "error", {"solver_digest": exc.digest}, False
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(
            RunRecord(
                seed,
                repeat,
                "tolerant-test",
                digest,
                metric,
                oracle.samples_drawn - before,
                extras,
                wall,
                success,
            )
        )
    return records


def _run_lp_feasible(seed: int, repeats: int, params: dict, digest: str) -> list:
    poly = load_polyhedron(params["lp"])
    records = []
    for repeat in range(repeats):
        t0 = time.perf_counter()
        try:
            rep = feasibility_report(poly)
            metric = "feasible" if rep.feasible else "infeasible"
            extras = {"violation": float(rep.violation)}
            success = rep.feasible
        except SolverError as exc:
            metric, extras, success = "error", {"solver_digest": exc.digest}, False
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(
            RunRecord(seed, repeat, "lp-feasible", digest, metric, 0, extras, wall, success)
        )
    return records


def _run_gen_adversarial(
    seed: int, repeats: int, params: dict, digest: str, multiple: bool
) -> list:
    d = load_distribution(params["dist"])
    nc = NonConcentrationParams(float(params["alpha"]), float(params["beta"]))
    mode = params.get("mode", "label-invariant")
    records = []
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        t0 = time.perf_counter()
        pair = make_adversarial_pair(d, nc, mode, rng)
        if params.get("permute"):
            pair = relabel(pair, rng)
        report = verify_adversarial(pair)
        wall = (time.perf_counter() - t0) * 1000.0
        if params.get("out_yes"):
            save_distribution(pair.d_yes, _suffixed(params["out_yes"], seed, repeat, multiple))
        if params.get("out_no"):
            save_distribution(pair.d_no, _suffixed(params["out_no"], seed, repeat, multiple))
        records.append(
            RunRecord(
                seed,
                repeat,
                "gen-adversarial",
                digest,
                "pass" if report.passed else "fail",
                0,
                {
                    "support_size": report.support_size,
                    "support_limit": report.support_limit,
                    "pair_bound": report.pair_bound,
                    "max_residual": report.conservation_residuals.max(),
                },
                wall,
                report.passed,
            )
        )
    return records


def _run_collision_rate(seed: int, repeats: int, params: dict, digest: str) -> list:
    d = load_distribution(params["dist"])
    beta = float(params["beta"])
    m = int(params["m"])
    trials = int(params.get("trials", 1000))
    records = []
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        pair_rng = rng if params.get("random_pairing") else None
        t0 = time.perf_counter()
        pairing = build_pairing(d, beta, pair_rng)
        rate = collision_rate(d, pairing, m, trials, rng)
        wall = (time.perf_counter() - t0) * 1000.0
        records.append(
            RunRecord(
                seed,
                repeat,
                "collision-rate",
                digest,
                _fmt(rate),
                m * trials,
                {"union_bound": pair_collision_bound(d, pairing, m), "m": m, "trials": trials},
                wall,
                True,
            )
        )
    return records


def _run_learn(seed: int, repeats: int, params: dict, digest: str) -> list:
    d = load_distribution(params["dist"])
    eta = float(params["eta"])
    delta = float(params["delta"])
    c_learn = float(params.get("c_learn", 8.0))
    c_test = float(params.get("c_test", 8.0))
    oracle = SamplingOracle(d, seed)
    records = []
    for repeat in range(repeats):
        before = oracle.samples_drawn
        t0 = time.perf_counter()
        if params.get("known_s") is not None:
            learned = learn_known_support(oracle, int(params["known_s"]), delta, c_learn)
            outcome, final_guess, dist = "Learned", int(params["known_s"]), learned
        else:
            res = learn_adaptive(oracle, eta, delta, d.n, c_learn, c_test)
            outcome, final_guess, dist = res.outcome, res.final_guess, res.distribution
        wall = (time.perf_counter() - t0) * 1000.0
        measured = l1_distance(d, dist) if dist is not None else float("nan")
        records.append(
            RunRecord(
                seed,
                repeat,
                "learn",
                digest,
                outcome,
                oracle.samples_drawn - before,
                {"final_guess": final_guess, "measured_l1": measured},
                wall,
                outcome == "Learned",
            )
        )
    return records


def _thread_cap() -> int:
    """Seed-level worker count from ``DISTTEST_THREADS``: an integer >= 1, default 1."""
    raw = os.environ.get("DISTTEST_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"DISTTEST_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def run_batch(config: ExperimentConfig, stream=None) -> list:
    """Execute the configured runs, write the CSV, and return the records."""
    workers = _thread_cap()
    digest = params_digest(config.params)
    multiple = len(config.seeds) * config.repeats > 1

    def for_seed(seed: int) -> list:
        if config.subcommand == "tolerant-test":
            return _run_tolerant_test(seed, config.repeats, config.params, digest)
        if config.subcommand == "lp-feasible":
            return _run_lp_feasible(seed, config.repeats, config.params, digest)
        if config.subcommand == "gen-adversarial":
            return _run_gen_adversarial(seed, config.repeats, config.params, digest, multiple)
        if config.subcommand == "collision-rate":
            return _run_collision_rate(seed, config.repeats, config.params, digest)
        return _run_learn(seed, config.repeats, config.params, digest)

    if workers > 1 and len(config.seeds) > 1:
        with ThreadPoolExecutor(max_workers=min(workers, len(config.seeds))) as pool:
            per_seed = list(pool.map(for_seed, config.seeds))
    else:
        per_seed = [for_seed(seed) for seed in config.seeds]
    records = [rec for chunk in per_seed for rec in chunk]
    records.sort(key=lambda r: (r.seed, r.repeat))

    lines = [",".join(CSV_HEADER)]
    lines += [",".join(rec.row()) for rec in records]
    runs = len(records)
    successes = sum(r.success for r in records)
    p_hat = successes / runs
    radius = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / runs)
    mean_samples = sum(r.samples_used for r in records) / runs
    lines.append(f"# runs={runs}")
    lines.append(f"# success_fraction={p_hat:.12e}")
    lines.append(f"# mean_samples={mean_samples:.12e}")
    lines.append(f"# confidence_radius={radius:.12e}")
    text = "\n".join(lines) + "\n"

    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="", file=stream or sys.stdout)
    return records


# --------------------------------------------------------------- interface


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="base 64-bit seed")
    parser.add_argument("--seeds-file", help="file with one seed per line (overrides --seed)")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--config", help="JSON file with seeds/repeats/params")
    parser.add_argument("--repeats", type=int, default=1, help="runs per seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disttest",
        description="Seeded experiments for distribution property testing and learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tolerant-test", help="tolerant tester on an explicit distribution")
    p.add_argument("--dist", required=True)
    p.add_argument("--property", default="uniform", help="'uniform' or 'lp:<polyhedron file>'")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--gamma1", type=float, required=True)
    p.add_argument("--gamma2", type=float, required=True)
    p.add_argument("--c-star", type=float)
    p.add_argument("--c-w", type=float)
    p.add_argument("--c-z", type=float)
    _add_common(p)

    p = sub.add_parser("lp-feasible", help="decide feasibility of a polyhedron file")
    p.add_argument("--lp", required=True)
    _add_common(p)

    p = sub.add_parser("gen-adversarial", help="generate a yes/no lower-bound instance")
    p.add_argument("--dist", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mode", choices=["label-invariant", "general"], default="label-invariant")
    p.add_argument("--out-yes")
    p.add_argument("--out-no")
    p.add_argument("--report", help="alias for --out")
    p.add_argument("--permute", action="store_true", help="relabel the bundle uniformly at random")
    _add_common(p)

    p = sub.add_parser("collision-rate", help="empirical same-pair collision rate")
    p.add_argument("--dist", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--random-pairing", action="store_true")
    _add_common(p)

    p = sub.add_parser("learn", help="adaptive (or known-support) learner")
    p.add_argument("--dist", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--known-s", type=int)
    p.add_argument("--c-learn", type=float)
    p.add_argument("--c-test", type=float)
    _add_common(p)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--out", help="write the pass/fail lines to a file as well")

    return parser


def _collect_params(args: argparse.Namespace, command: str) -> dict:
    if command == "tolerant-test":
        raw = {
            "dist": args.dist,
            "property": args.property,
            "lambda": args.lam,
            "gamma1": args.gamma1,
            "gamma2": args.gamma2,
            "c_star": args.c_star,
            "c_w": args.c_w,
            "c_z": args.c_z,
        }
    elif command == "lp-feasible":
        raw = {"lp": args.lp}
    elif command == "gen-adversarial":
        raw = {
            "dist": args.dist,
            "alpha": args.alpha,
            "beta": args.beta,
            "mode": args.mode,
            "out_yes": args.out_yes,
            "out_no": args.out_no,
            "permute": args.permute or None,
        }
    elif command == "collision-rate":
        raw = {
            "dist": args.dist,
            "beta": args.beta,
            "m": args.m,
            "trials": args.trials,
            "random_pairing": args.random_pairing or None,
        }
    else:
        raw = {
            "dist": args.dist,
            "eta": args.eta,
            "delta": args.delta,
            "known_s": args.known_s,
            "c_learn": args.c_learn,
            "c_test": args.c_test,
        }
    return {k: v for k, v in raw.items() if v is not None}


def _read_seeds_file(path: str) -> tuple:
    seeds = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            seeds.append(int(line))
    if not seeds:
        raise ParameterError(f"seeds file {path} holds no seeds")
    return tuple(seeds)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "accept":
        from .acceptance import run_acceptance_suite

        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                code = run_acceptance_suite(fh)
            print(Path(args.out).read_text(), end="")
            return code
        return run_acceptance_suite()

    try:
        params = _collect_params(args, args.command)
        seeds = (args.seed,)
        repeats = args.repeats
        out = args.out
        if args.command == "gen-adversarial" and args.report and not out:
            out = args.report
        if args.config:
            doc = json.loads(Path(args.config).read_text())
            params.update(doc.get("params", {}))
            if "seeds" in doc:
                seeds = tuple(int(s) for s in doc["seeds"])
            if "repeats" in doc:
                repeats = int(doc["repeats"])
        if args.seeds_file:
            seeds = _read_seeds_file(args.seeds_file)
        config = ExperimentConfig(
            subcommand=args.command,
            seeds=seeds,
            repeats=repeats,
            params=params,
            output_path=out,
        )
        records = run_batch(config)
    except (OSError, json.JSONDecodeError, ParameterError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "lp-feasible":
        for rec in records:
            print(rec.metric)
    return 0


if __name__ == "__main__":
    sys.exit(main())
