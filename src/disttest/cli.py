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

:data:`COMMANDS` is the one schema of the experiment subcommands: each entry
holds the help text, the runner and the options, every option with its params
key and argparse settings.  The parser, the params keys that
:class:`ExperimentConfig` accepts, the params dict (so ``params_digest``), the
runners' defaults and the dispatch are all derived from it.  A ``--config``
params value is read as its flag would be: its text goes through the option's
``type``, a store_true option takes only a boolean, and ``choices`` apply;
one that does not read is a parameter error (exit code 2), and the digest
hashes the value as written.  ``accept`` runs the acceptance suite and
takes only ``--out``.

Seeds must lie in ``[0, 2**64 - 1]``; any other seed is a parameter error
(exit code 2).  Runs execute one after another, and rows are always written
in (seed, repeat) order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

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
    _SEED_MAX,
    NonConcentrationParams,
    SamplingOracle,
    _integer,
    format_field,
    l1_distance,
    load_distribution,
    save_distribution,
)
from .errors import ParameterError, SolverError, StructureError
from .learner import DEFAULT_C_TEST, learn_adaptive, learn_known_support
from .linprop import (
    LinearProperty,
    feasibility_report,
    linear_property_oracle,
    load_polyhedron,
    uniformity_polyhedron,
)
from .tester import Verdict, derive_params, tolerant_test_detailed


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    seeds: tuple
    repeats: int
    params: dict
    output_path: str | None

    def __post_init__(self):
        if self.subcommand not in COMMANDS:
            raise ParameterError(f"unknown subcommand {self.subcommand!r}")
        if not isinstance(self.seeds, (tuple, list)) or not self.seeds:
            raise ParameterError(f"seeds must be a nonempty list, not {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(_integer(s, "seed", 0, _SEED_MAX) for s in self.seeds))
        object.__setattr__(self, "repeats", _integer(self.repeats, "repeats", 1))
        unknown = set(self.params) - COMMANDS[self.subcommand].keys
        if unknown:
            raise ParameterError(
                f"unknown parameter keys for {self.subcommand}: {sorted(unknown)}"
            )
        COMMANDS[self.subcommand].values(self.params)


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
        packed = " ".join(f"{k}={format_field(v)}" for k, v in self.extras.items())
        return [
            str(self.seed),
            str(self.repeat),
            self.command,
            self.params_digest,
            self.metric,
            str(self.samples_used),
            packed,
            format_field(float(self.wall_ms)),
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


def _ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1e3


# ----------------------------------------------------------------- runners
#
# A runner takes (seed, repeats, params, multiple), where params is
# :meth:`Command.values` (the schema defaults, every value converted by its
# option) and ``multiple`` says whether the batch makes more than one run, and
# yields one (metric, samples_used, extras, wall_ms, success) tuple per repeat.


def _run_tolerant_test(seed: int, repeats: int, params: dict, multiple: bool):
    d = load_distribution(params["dist"])
    n = d.n
    selector = params["property"]
    if selector == "uniform":
        prop = uniformity_polyhedron(n, 0.0)
    elif selector.startswith("lp:"):
        prop = LinearProperty(load_polyhedron(selector[3:]), n)
    else:
        raise ParameterError(f"property must be 'uniform' or 'lp:<file>', got {selector!r}")
    tparams = derive_params(params["lambda"], params["gamma1"], params["gamma2"], n)
    oracle = SamplingOracle(d, seed)
    prop_oracle = linear_property_oracle(prop)
    for _ in range(repeats):
        before = oracle.samples_drawn
        t0 = time.perf_counter()
        try:
            verdict, est = tolerant_test_detailed(oracle, prop_oracle, tparams, n)
            metric, extras = str(verdict), {"h_size": len(est.H)}
            success = verdict is Verdict.ACCEPT
        except SolverError as exc:
            metric, extras, success = "error", {"solver_digest": exc.digest}, False
        wall = _ms_since(t0)
        yield metric, oracle.samples_drawn - before, extras, wall, success


def _run_lp_feasible(seed: int, repeats: int, params: dict, multiple: bool):
    poly = load_polyhedron(params["lp"])
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            rep = feasibility_report(poly)
            metric = "feasible" if rep.feasible else "infeasible"
            extras = {"violation": float(rep.violation)}
            success = rep.feasible
        except SolverError as exc:
            metric, extras, success = "error", {"solver_digest": exc.digest}, False
        yield metric, 0, extras, _ms_since(t0), success


def _run_gen_adversarial(seed: int, repeats: int, params: dict, multiple: bool):
    d = load_distribution(params["dist"])
    nc = NonConcentrationParams(params["alpha"], params["beta"])
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        t0 = time.perf_counter()
        pair = make_adversarial_pair(d, nc, params["mode"], rng)
        if params.get("permute"):
            pair = relabel(pair, rng)
        report = verify_adversarial(pair)
        wall = _ms_since(t0)
        if params.get("out_yes"):
            save_distribution(pair.d_yes, _suffixed(params["out_yes"], seed, repeat, multiple))
        if params.get("out_no"):
            save_distribution(pair.d_no, _suffixed(params["out_no"], seed, repeat, multiple))
        extras = {
            "support_size": report.support_size,
            "support_limit": report.support_limit,
            "pair_bound": report.pair_bound,
            "max_residual": report.conservation_residuals.max(),
        }
        yield "pass" if report.passed else "fail", 0, extras, wall, report.passed


def _run_collision_rate(seed: int, repeats: int, params: dict, multiple: bool):
    d = load_distribution(params["dist"])
    beta, m, trials = params["beta"], params["m"], params["trials"]
    for repeat in range(repeats):
        rng = np.random.default_rng([seed, repeat])
        pair_rng = rng if params.get("random_pairing") else None
        t0 = time.perf_counter()
        pairing = build_pairing(d, beta, pair_rng)
        rate = collision_rate(d, pairing, m, trials, rng)
        wall = _ms_since(t0)
        extras = {"union_bound": pair_collision_bound(d, pairing, m), "m": m, "trials": trials}
        yield format_field(rate), m * trials, extras, wall, True


def _run_learn(seed: int, repeats: int, params: dict, multiple: bool):
    d = load_distribution(params["dist"])
    eta, delta = params["eta"], params["delta"]
    c_test = params.get("c_test", DEFAULT_C_TEST)
    oracle = SamplingOracle(d, seed)
    for _ in range(repeats):
        before = oracle.samples_drawn
        t0 = time.perf_counter()
        if "known_s" in params:
            learned = learn_known_support(oracle, params["known_s"], delta)
            outcome, final_guess, dist = "Learned", params["known_s"], learned
        else:
            res = learn_adaptive(oracle, eta, delta, d.n, c_test)
            outcome, final_guess, dist = res.outcome, res.final_guess, res.distribution
        wall = _ms_since(t0)
        measured = l1_distance(d, dist) if dist is not None else float("nan")
        extras = {"final_guess": final_guess, "measured_l1": measured}
        yield outcome, oracle.samples_drawn - before, extras, wall, outcome == "Learned"


# ------------------------------------------------------------------ schema


@dataclass(frozen=True)
class Option:
    """One command-line option: the params key it fills, its flag and its argparse settings.

    ``key`` is ``None`` for an option kept out of params.
    """

    key: str | None
    flag: str
    settings: dict

    @property
    def dest(self) -> str:
        return self.settings.get("dest", self.key)

    def convert(self, value):
        """A params value through the option's ``type`` and ``choices``, as argparse treats a flag.

        A store_true option takes only a boolean, and an untyped one only a string.
        """
        convert = self.settings.get("type")
        if convert is not None:
            value = _converted(convert, value, f"parameter {self.key!r}")
        else:
            kind, want = ("a boolean", bool) if "action" in self.settings else ("a string", str)
            if not isinstance(value, want):
                raise ParameterError(f"parameter {self.key!r} must be {kind}, got {value!r}")
        choices = self.settings.get("choices")
        if choices is not None and value not in choices:
            raise ParameterError(f"parameter {self.key!r} must be one of {choices}, got {value!r}")
        return value


def _converted(convert: Callable, value, what: str):
    """``convert`` applied to ``value`` as argparse applies it to a flag: to its text."""
    try:
        return convert(str(value))
    except ValueError:
        raise ParameterError(f"{what} must be {convert.__name__}, got {value!r}") from None


def _param(key: str, **settings) -> Option:
    """An option filling params[key], with the flag ``--key`` (``_`` written ``-``)."""
    return Option(key, "--" + key.replace("_", "-"), settings)


@dataclass(frozen=True)
class Command:
    """One experiment subcommand: its help text, its runner and its options."""

    help: str
    run: Callable
    options: tuple

    @property
    def keys(self) -> set:
        return {opt.key for opt in self.options if opt.key}

    @property
    def defaults(self) -> dict:
        return {
            opt.key: opt.settings["default"]
            for opt in self.options
            if opt.key and "default" in opt.settings
        }

    def values(self, params: dict) -> dict:
        """The defaults overlaid with ``params``, each converted by :meth:`Option.convert`.

        A ``None`` value stands for an option not given, as on the command line.
        """
        given = {
            opt.key: opt.convert(params[opt.key])
            for opt in self.options
            if params.get(opt.key) is not None
        }
        return {**self.defaults, **given}


_COMMON = (
    Option(None, "--seed", dict(type=int, default=0, help="base 64-bit seed")),
    Option(None, "--seeds-file", dict(help="file with one seed per line (overrides --seed)")),
    Option(None, "--out", dict(help="CSV output path (default: stdout)")),
    Option(None, "--config", dict(help="JSON file with seeds/repeats/params")),
    Option(None, "--repeats", dict(type=int, default=1, help="runs per seed")),
)

COMMANDS = {
    "tolerant-test": Command(
        "tolerant tester on an explicit distribution",
        _run_tolerant_test,
        (
            _param("dist", required=True),
            _param("property", default="uniform", help="'uniform' or 'lp:<polyhedron file>'"),
            _param("lambda", dest="lam", type=int, required=True),
            _param("gamma1", type=float, required=True),
            _param("gamma2", type=float, required=True),
        ),
    ),
    "lp-feasible": Command(
        "decide feasibility of a polyhedron file",
        _run_lp_feasible,
        (_param("lp", required=True),),
    ),
    "gen-adversarial": Command(
        "generate a yes/no lower-bound instance",
        _run_gen_adversarial,
        (
            _param("dist", required=True),
            _param("alpha", type=float, required=True),
            _param("beta", type=float, required=True),
            _param("mode", choices=["label-invariant", "general"], default="label-invariant"),
            _param("out_yes"),
            _param("out_no"),
            _param("permute", action="store_true", help="relabel the bundle uniformly at random"),
        ),
    ),
    "collision-rate": Command(
        "empirical same-pair collision rate",
        _run_collision_rate,
        (
            _param("dist", required=True),
            _param("beta", type=float, required=True),
            _param("m", type=int, required=True),
            _param("trials", type=int, default=1000),
            _param("random_pairing", action="store_true"),
        ),
    ),
    "learn": Command(
        "adaptive (or known-support) learner",
        _run_learn,
        (
            _param("dist", required=True),
            _param("eta", type=float, required=True),
            _param("delta", type=float, required=True),
            _param("known_s", type=int),
            _param("c_test", type=float),
        ),
    ),
}


# ------------------------------------------------------------------- batch


def run_batch(config: ExperimentConfig, stream=None) -> list:
    """Execute the configured runs, write the CSV, and return the records."""
    command = COMMANDS[config.subcommand]
    digest = params_digest(config.params)
    params = command.values(config.params)
    multiple = len(config.seeds) * config.repeats > 1
    records = [
        RunRecord(seed, repeat, config.subcommand, digest, *row)
        for seed in config.seeds
        for repeat, row in enumerate(command.run(seed, config.repeats, params, multiple))
    ]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disttest",
        description="Seeded experiments for distribution property testing and learning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for opt in command.options + _COMMON:
            p.add_argument(opt.flag, **opt.settings)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--out", help="write the pass/fail lines to a file as well")
    return parser


def _collect_params(args: argparse.Namespace) -> dict:
    """The keyed options that were given: a ``None`` value or an unset store_true flag is absent."""
    values = {opt.key: getattr(args, opt.dest) for opt in COMMANDS[args.command].options if opt.key}
    return {k: v for k, v in values.items() if v is not None and v is not False}


def _read_seeds_file(path: str) -> tuple:
    seeds = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            seeds.append(_converted(int, line, f"seed in {path}"))
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
        params = _collect_params(args)
        seeds = (args.seed,)
        repeats = args.repeats
        if args.config:
            doc = json.loads(Path(args.config).read_text())
            if not isinstance(doc, dict) or not isinstance(doc.get("params", {}), dict):
                raise ParameterError("a config must be a JSON object, its 'params' an object")
            params.update(doc.get("params", {}))
            seeds = doc.get("seeds", seeds)
            repeats = doc.get("repeats", repeats)
        if args.seeds_file:
            seeds = _read_seeds_file(args.seeds_file)
        config = ExperimentConfig(
            subcommand=args.command,
            seeds=seeds,
            repeats=repeats,
            params=params,
            output_path=args.out,
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
