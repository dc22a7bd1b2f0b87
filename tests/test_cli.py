import argparse
import contextlib
import json
import subprocess
import sys

import numpy as np
import pytest

import disttest.acceptance as acceptance
import disttest.cli as cli
from disttest.cli import CSV_HEADER, ExperimentConfig, build_parser, main, params_digest, run_batch
from disttest.core import Distribution, load_distribution, save_distribution
from disttest.errors import ParameterError, SolverError
from disttest import simplex
from disttest.linprop import Polyhedron, save_polyhedron, uniformity_polyhedron
from disttest.adversarial import verify_adversarial, AdversarialPair, Pairing
from disttest.core import NonConcentrationParams


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "d.json"
    save_distribution(Distribution.uniform(200), path)
    return str(path)


@pytest.fixture
def small_dist_file(tmp_path):
    path = tmp_path / "small.json"
    save_distribution(Distribution.uniform_on(range(4), 100), path)
    return str(path)


def strip_wall_ms(text: str) -> list:
    out = []
    for line in text.splitlines():
        if line.startswith("#") or line.startswith("seed,"):
            out.append(line)
        else:
            out.append(",".join(line.split(",")[:-1]))
    return out


class TestExperimentConfig:
    def test_unknown_parameter_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown parameter"):
            ExperimentConfig("learn", (1,), 1, {"dist": "x", "bogus": 3}, None)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig("learn", (), 1, {"dist": "x"}, None)

    def test_repeats_validated(self):
        with pytest.raises(ParameterError):
            ExperimentConfig("learn", (1,), 0, {"dist": "x"}, None)

    def test_seed_range(self):
        ExperimentConfig("learn", (0, 2**64 - 1), 1, {"dist": "x"}, None)
        for bad in (-1, 2**64):
            with pytest.raises(ParameterError, match="seed"):
                ExperimentConfig("learn", (1, bad), 1, {"dist": "x"}, None)


class TestRunBatch:
    def test_csv_schema_and_summary(self, small_dist_file, tmp_path, capsys):
        out = tmp_path / "runs.csv"
        cfg = ExperimentConfig(
            "learn",
            (1, 2, 3),
            1,
            {"dist": small_dist_file, "eta": 0.0, "delta": 0.5},
            str(out),
        )
        records = run_batch(cfg)
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == "seed,repeat,command,params_digest,metric,samples_used,extras,wall_ms"
        data = [l for l in lines if not l.startswith("#") and not l.startswith("seed,")]
        assert len(data) == 3
        assert all("final_guess=" in l and "measured_l1=" in l for l in data)
        summary = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# runs=3") for l in summary)
        assert any(l.startswith("# success_fraction=") for l in summary)
        assert any(l.startswith("# mean_samples=") for l in summary)
        assert any(l.startswith("# confidence_radius=") for l in summary)
        assert [r.seed for r in records] == [1, 2, 3]

    def test_point_mass_learn_single_row(self, tmp_path):
        dist = tmp_path / "pm.json"
        save_distribution(Distribution.point_mass(50, 7), dist)
        out = tmp_path / "o.csv"
        cfg = ExperimentConfig(
            "learn", (1,), 1, {"dist": str(dist), "eta": 0.0, "delta": 0.5}, str(out)
        )
        run_batch(cfg)
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "seed,"))]
        assert len(rows) == 1
        assert rows[0].split(",")[4] == "Learned"

    def test_tolerant_test_batch_summary_fraction(self, dist_file, tmp_path):
        out = tmp_path / "batch.csv"
        cfg = ExperimentConfig(
            "tolerant-test",
            tuple(range(30)),
            1,
            {"dist": dist_file, "property": "uniform", "lambda": 50, "gamma1": 0.1, "gamma2": 0.3},
            str(out),
        )
        with pytest.warns(RuntimeWarning, match="unused indices"):
            run_batch(cfg)
        summary = {
            line[2:].split("=")[0]: line.split("=")[1]
            for line in out.read_text().splitlines()
            if line.startswith("#")
        }
        assert float(summary["success_fraction"]) >= 2 / 3

    def test_byte_identical_reruns_excluding_wall_ms(self, small_dist_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            cfg = ExperimentConfig(
                "learn",
                (7, 8),
                2,
                {"dist": small_dist_file, "eta": 0.0, "delta": 0.5},
                str(tmp_path / name),
            )
            run_batch(cfg)
            outs.append(strip_wall_ms((tmp_path / name).read_text()))
        assert outs[0] == outs[1]

    def test_rows_in_seed_order(self, small_dist_file, tmp_path):
        out = tmp_path / "seeds.csv"
        cfg = ExperimentConfig(
            "learn",
            (5, 1, 9, 3),
            1,
            {"dist": small_dist_file, "eta": 0.0, "delta": 0.5},
            str(out),
        )
        run_batch(cfg)
        seeds = [int(l.split(",")[0]) for l in out.read_text().splitlines()[1:5]]
        assert seeds == [1, 3, 5, 9]


class TestMainEntry:
    @pytest.mark.parametrize("support, verdict, h_size", [(200, "Accept", 200), (100, "Reject", 125)])
    def test_lp_file_property_gives_the_uniform_rows(self, support, verdict, h_size, tmp_path, monkeypatch):
        # A file property carries no known member or ball, so each of its tester calls goes to HiGHS.
        save_polyhedron(uniformity_polyhedron(200, 0.0).poly, tmp_path / "u.poly")
        save_distribution(Distribution.uniform_on(range(support), 200), tmp_path / "d.json")
        solves, highs = [], simplex._highs

        def counted(*args):
            solves.append(args)
            return highs(*args)

        monkeypatch.setattr(simplex, "_highs", counted)
        results = []
        for prop in ("lp:" + str(tmp_path / "u.poly"), "uniform"):
            out, before = tmp_path / "o.csv", len(solves)
            argv = ["tolerant-test", "--dist", str(tmp_path / "d.json"), "--property", prop, "--lambda", "50",
                    "--gamma1", "0.1", "--gamma2", "0.3", "--seed", "3", "--repeats", "2", "--out", str(out)]
            # Uniform(200) leaves no unseen index to pad H with.
            with pytest.warns(RuntimeWarning, match="unused indices") if support == 200 else contextlib.nullcontext():
                assert main(argv) == 0
            # The metric, samples_used and extras columns of the two runs.
            rows = [line.split(",")[4:7] for line in out.read_text().splitlines()[1:3]]
            results.append((rows, len(solves) - before))
        (lp_rows, lp_solves), (uniform_rows, uniform_solves) = results
        assert lp_rows == uniform_rows and [r[0] for r in lp_rows] == [verdict] * 2
        assert [r[2] for r in lp_rows] == [f"h_size={h_size}"] * 2
        assert (lp_solves, uniform_solves) == (2, 0)

    def test_lp_feasible_prints_word(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        save_polyhedron(Polyhedron(np.array([[1.0], [-1.0]]), np.array([0.0, -1.0])), path)
        code = main(["lp-feasible", "--lp", str(path), "--out", str(tmp_path / "o.csv")])
        assert code == 0
        assert "infeasible" in capsys.readouterr().out

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["lp-feasible", "--lp", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_dist_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "pmf": [0.9, 0.9]}))
        code = main(
            ["learn", "--dist", str(bad), "--eta", "0", "--delta", "0.5", "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    def test_dist_integer_beyond_float64_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text('{"n": 2, "pmf": [1' + "0" * 400 + ', 0]}')
        out = tmp_path / "o.csv"
        code = main(["learn", "--dist", str(bad), "--eta", "0", "--delta", "0.5", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_seeds_file(self, small_dist_file, tmp_path):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("4\n5\n# comment\n6\n")
        out = tmp_path / "o.csv"
        code = main(
            [
                "learn",
                "--dist",
                small_dist_file,
                "--eta",
                "0",
                "--delta",
                "0.5",
                "--seeds-file",
                str(seeds),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "seed,"))]
        assert [int(r.split(",")[0]) for r in rows] == [4, 5, 6]

    def test_config_file_merges(self, small_dist_file, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": [11], "repeats": 2, "params": {"delta": 0.5}}))
        out = tmp_path / "o.csv"
        code = main(
            [
                "learn",
                "--dist",
                small_dist_file,
                "--eta",
                "0",
                "--delta",
                "0.9",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "seed,"))]
        assert len(rows) == 2
        assert all(r.startswith("11,") for r in rows)

    def test_config_unknown_key_rejected(self, small_dist_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"mystery": 1}}))
        code = main(
            [
                "learn",
                "--dist",
                small_dist_file,
                "--eta",
                "0",
                "--delta",
                "0.5",
                "--config",
                str(cfg),
            ]
        )
        assert code == 2

    def test_gen_adversarial_writes_loadable_bundle(self, tmp_path):
        dist = tmp_path / "u.json"
        save_distribution(Distribution.uniform(100), dist)
        yes, no, rep = tmp_path / "yes.json", tmp_path / "no.json", tmp_path / "rep.csv"
        code = main(
            [
                "gen-adversarial",
                "--dist",
                str(dist),
                "--alpha",
                "0.2",
                "--beta",
                "0.2",
                "--mode",
                "label-invariant",
                "--seed",
                "5",
                "--out-yes",
                str(yes),
                "--out-no",
                str(no),
                "--out",
                str(rep),
            ]
        )
        assert code == 0
        d_yes, d_no = load_distribution(yes), load_distribution(no)
        assert np.count_nonzero(d_no.pmf) == 80
        assert "pass" in rep.read_text()

    @pytest.mark.parametrize(
        "args, rows",
        [
            (
                ["gen-adversarial", "--alpha", "0.1", "--beta", "0.25", "--mode", "general", "--permute",
                 "--seed", "3", "--repeats", "2"],
                [
                    "3,0,gen-adversarial,pass,0,support_size=150 support_limit=150 "
                    "pair_bound=1.600000000000e-02 max_residual=0.000000000000e+00",
                    "3,1,gen-adversarial,pass,0,support_size=150 support_limit=150 "
                    "pair_bound=1.600000000000e-02 max_residual=0.000000000000e+00",
                ],
            ),
            (
                ["gen-adversarial", "--alpha", "0.45", "--beta", "0.45", "--seed", "4"],
                [
                    "4,0,gen-adversarial,fail,0,support_size=110 support_limit=110 "
                    "pair_bound=1.000000000000e-02 max_residual=0.000000000000e+00",
                ],
            ),
            (
                ["collision-rate", "--beta", "0.25", "--m", "10", "--trials", "500", "--seed", "3",
                 "--repeats", "2"],
                [
                    "3,0,collision-rate,8.800000000000e-02,5000,"
                    "union_bound=5.037783375315e-01 m=10 trials=500",
                    "3,1,collision-rate,9.000000000000e-02,5000,"
                    "union_bound=5.037783375315e-01 m=10 trials=500",
                ],
            ),
            (
                ["collision-rate", "--beta", "0.25", "--m", "10", "--trials", "500", "--random-pairing",
                 "--seed", "4"],
                [
                    "4,0,collision-rate,7.600000000000e-02,5000,"
                    "union_bound=4.408060453401e-01 m=10 trials=500",
                ],
            ),
        ],
    )
    def test_adversarial_rows_pinned(self, args, rows, tmp_path):
        # Mass ties (i % 7 + 1) make the rows depend on the tie-break order
        # of the pairing.  The digest hashes the dist path, so it is dropped
        # together with wall_ms.
        dist, out = tmp_path / "ties.json", tmp_path / "o.csv"
        pmf = np.arange(200) % 7 + 1.0
        save_distribution(Distribution(pmf / pmf.sum()), dist)
        main(args + ["--dist", str(dist), "--out", str(out)])
        fields = [l.split(",") for l in out.read_text().splitlines() if not l.startswith(("#", "seed,"))]
        assert [",".join(f[:3] + f[4:-1]) for f in fields] == rows

    def test_tolerant_test_row_fields(self, dist_file, tmp_path):
        out = tmp_path / "t.csv"
        with pytest.warns(RuntimeWarning, match="unused indices"):
            code = main(
                [
                    "tolerant-test",
                    "--dist",
                    dist_file,
                    "--lambda",
                    "50",
                    "--gamma1",
                    "0.1",
                    "--gamma2",
                    "0.3",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[2] == "tolerant-test"
        assert row[4] in ("Accept", "Reject")
        assert int(row[5]) > 0
        assert "h_size=" in row[6]

    @pytest.mark.parametrize("via_file", [False, True])
    @pytest.mark.parametrize("seed", ["-1", str(2**70)])
    @pytest.mark.parametrize(
        "command",
        [["gen-adversarial", "--alpha", "0.2", "--beta", "0.2"], ["collision-rate", "--beta", "0.25", "--m", "10"]],
    )
    def test_out_of_range_seed_exits_2(self, command, seed, via_file, dist_file, tmp_path, capsys):
        if via_file:
            seeds = tmp_path / "seeds.txt"
            seeds.write_text(f"1\n{seed}\n")
            flags = ["--seeds-file", str(seeds)]
        else:
            flags = ["--seed", seed]
        out = tmp_path / "o.csv"
        code = main(command + ["--dist", dist_file, "--out", str(out)] + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and seed in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"M": 1, "N": 1, "A": ["x"], "b": [0.0]},
            {"M": 1, "N": 1, "A": [1.0], "b": [None]},
            {"M": True, "N": 1, "A": [1.0], "b": [0.0]},
            {"M": 1, "N": True, "A": [1.0], "b": [0.0]},
            {"M": 2, "N": 1, "A": [1.0, -1.0], "b": [0.0, 0.0], "strict_rows": [True]},
        ],
        ids=["string-in-A", "null-in-b", "bool-M", "bool-N", "bool-strict-row"],
    )
    def test_malformed_polyhedron_exits_2(self, doc, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["lp-feasible", "--lp", str(path), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_non_integer_seed_line_exits_2(self, dist_file, tmp_path, capsys):
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("1\nx\n")
        out = tmp_path / "o.csv"
        argv = ["collision-rate", "--dist", dist_file, "--beta", "0.25", "--m", "10"]
        assert main(argv + ["--seeds-file", str(seeds), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'x'" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, params",
        [
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"m": "abc"}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"trials": [5]}),
            (["gen-adversarial", "--alpha", "0.2", "--beta", "0.2"], {"mode": "sideways"}),
            (["gen-adversarial", "--alpha", "0.2", "--beta", "0.2"], {"out_yes": 5}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"m": 1.5}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"m": 2.0}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"trials": True}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"beta": True}),
            (["gen-adversarial", "--alpha", "0.2", "--beta", "0.2"], {"permute": "false"}),
            (["collision-rate", "--beta", "0.25", "--m", "10"], {"random_pairing": 1}),
        ],
        ids=["int", "list-for-int", "choices", "number-for-path", "fraction-for-int", "integral-float-for-int",
             "bool-for-int", "bool-for-float", "string-for-flag", "number-for-flag"],
    )
    def test_config_param_checked_like_its_flag(self, command, params, dist_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": params}))
        out = tmp_path / "o.csv"
        assert main(command + ["--dist", dist_file, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        key, value = next(iter(params.items()))
        assert err.count("\n") == 1 and repr(key) in err and repr(value) in err
        assert not out.exists()

    def test_config_params_keep_their_digest(self, dist_file, tmp_path):
        # A string "25" for an int option runs as before, digested as written.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {"m": "25", "trials": None}}))
        argv = ["collision-rate", "--dist", dist_file, "--beta", "0.25", "--m", "1", "--seed", "2"]
        out = tmp_path / "o.csv"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] == params_digest({"dist": dist_file, "beta": 0.25, "m": "25", "trials": None})
        assert row[5] == "25000" and row[6].endswith("m=25 trials=1000")

    @pytest.mark.parametrize("key", ["gamma1", "gamma2"])
    def test_config_float_beyond_float64_exits_2(self, key, dist_file, tmp_path, capsys):
        # float() of the JSON integer raised a bare OverflowError; its text reads as inf.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {key: 10**400}}))
        out = tmp_path / "o.csv"
        argv = ["tolerant-test", "--dist", dist_file, "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3"]
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [{"seeds": [1.5]}, {"seeds": [1, True]}, {"seeds": ["3"]}, {"seeds": 5}, {"repeats": 2.7}, {"repeats": True}],
        ids=["fraction-seed", "bool-seed", "string-seed", "number-for-seeds", "fraction-repeats", "bool-repeats"],
    )
    def test_config_seeds_and_repeats_are_integers(self, doc, dist_file, tmp_path, capsys):
        # int() ran seeds [1.5, true] as seed 1 twice, and repeats 2.7 as 2.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.csv"
        argv = ["collision-rate", "--dist", dist_file, "--beta", "0.25", "--m", "10"]
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("permute", [False, True])
    def test_config_flag_runs_as_the_flag(self, permute, dist_file, tmp_path):
        # A JSON boolean runs as the flag given or left out.
        argv = ["gen-adversarial", "--dist", dist_file, "--alpha", "0.2", "--beta", "0.2", "--seed", "3"]
        cfg, flagged, configured = tmp_path / "cfg.json", tmp_path / "f.csv", tmp_path / "c.csv"
        cfg.write_text(json.dumps({"params": {"permute": permute}}))
        assert main(argv + ["--permute"] * permute + ["--out", str(flagged)]) == 0
        assert main(argv + ["--config", str(cfg), "--out", str(configured)]) == 0
        # The metric, samples_used and extras columns.
        rows = [path.read_text().splitlines()[1].split(",")[4:7] for path in (flagged, configured)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("command", ["tolerant-test", "lp-feasible"])
    def test_solver_error_is_an_error_row(self, command, dist_file, tmp_path, monkeypatch):
        def fail(*args):
            raise SolverError("HiGHS did not converge", "abcd")

        if command == "tolerant-test":
            monkeypatch.setattr(cli, "tolerant_test_detailed", fail)
            argv = [command, "--dist", dist_file, "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3"]
        else:
            monkeypatch.setattr(cli, "feasibility_report", fail)
            save_polyhedron(Polyhedron([[1.0]], [1.0]), tmp_path / "p.json")
            argv = [command, "--lp", str(tmp_path / "p.json")]
        out = tmp_path / "o.csv"
        assert main(argv + ["--repeats", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[4:7:2] for line in lines[1:3]] == [["error", "solver_digest=abcd"]] * 2
        assert "# success_fraction=0.000000000000e+00" in lines

    @pytest.mark.parametrize(
        "argv",
        [
            ["tolerant-test", "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3", "--c-star", "10"],
            ["tolerant-test", "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3", "--c-w", "4"],
            ["learn", "--eta", "0", "--delta", "0.5", "--c-learn", "8"],
            ["gen-adversarial", "--alpha", "0.2", "--beta", "0.2", "--report", "rep.csv"],
        ],
        ids=["c-star", "c-w", "c-learn", "report"],
    )
    def test_removed_flags_exit_2(self, argv, dist_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--dist", dist_file])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["c_star", "c_w", "c_z"])
    def test_removed_constants_in_a_config_exit_2(self, key, dist_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"params": {key: 10.0}}))
        argv = ["tolerant-test", "--dist", dist_file, "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3"]
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown parameter keys" in err and key in err

    def test_cli_entry_point_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "disttest.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for cmd in ("tolerant-test", "lp-feasible", "gen-adversarial", "collision-rate", "learn", "accept"):
            assert cmd in proc.stdout


class TestAcceptCommand:
    def test_exit_codes_follow_results(self, monkeypatch, capsys):
        good = acceptance.CriterionResult("criterion-01", "stub", True, "x=1", 0.0)
        bad = acceptance.CriterionResult("criterion-02", "stub", False, "x=2", 0.0)

        monkeypatch.setattr(acceptance, "run_all", lambda: [good])
        assert acceptance.run_acceptance_suite() == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "criterion-13" in out

        monkeypatch.setattr(acceptance, "run_all", lambda: [good, bad])
        assert acceptance.run_acceptance_suite() == 1
        assert "FAIL" in capsys.readouterr().out

    def test_accept_parser_wired(self):
        parser = build_parser()
        args = parser.parse_args(["accept"])
        assert args.command == "accept"


_COMMON = [
    (("--seed",), "seed", int, 0, False, None, None, None),
    (("--seeds-file",), "seeds_file", None, None, False, None, None, None),
    (("--out",), "out", None, None, False, None, None, None),
    (("--config",), "config", None, None, False, None, None, None),
    (("--repeats",), "repeats", int, 1, False, None, None, None),
]

_PARSER_SURFACE = {
    "tolerant-test": [
        (("--dist",), "dist", None, None, True, None, None, None),
        (("--property",), "property", None, "uniform", False, None, None, None),
        (("--lambda",), "lam", int, None, True, None, None, None),
        (("--gamma1",), "gamma1", float, None, True, None, None, None),
        (("--gamma2",), "gamma2", float, None, True, None, None, None),
    ] + _COMMON,
    "lp-feasible": [
        (("--lp",), "lp", None, None, True, None, None, None),
    ] + _COMMON,
    "gen-adversarial": [
        (("--dist",), "dist", None, None, True, None, None, None),
        (("--alpha",), "alpha", float, None, True, None, None, None),
        (("--beta",), "beta", float, None, True, None, None, None),
        (("--mode",), "mode", None, "label-invariant", False, ["label-invariant", "general"], None, None),
        (("--out-yes",), "out_yes", None, None, False, None, None, None),
        (("--out-no",), "out_no", None, None, False, None, None, None),
        (("--permute",), "permute", None, False, False, None, 0, True),
    ] + _COMMON,
    "collision-rate": [
        (("--dist",), "dist", None, None, True, None, None, None),
        (("--beta",), "beta", float, None, True, None, None, None),
        (("--m",), "m", int, None, True, None, None, None),
        (("--trials",), "trials", int, 1000, False, None, None, None),
        (("--random-pairing",), "random_pairing", None, False, False, None, 0, True),
    ] + _COMMON,
    "learn": [
        (("--dist",), "dist", None, None, True, None, None, None),
        (("--eta",), "eta", float, None, True, None, None, None),
        (("--delta",), "delta", float, None, True, None, None, None),
        (("--known-s",), "known_s", int, None, False, None, None, None),
        (("--c-test",), "c_test", float, None, False, None, None, None),
    ] + _COMMON,
    "accept": [
        (("--out",), "out", None, None, False, None, None, None),
    ],
}


def _pinned_setup():
    save_distribution(Distribution.uniform(200), "d.json")
    save_distribution(Distribution.uniform_on(range(4), 100), "small.json")
    poly = Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 0.0, 0.0]))
    save_polyhedron(poly, "poly.json")
    with open("seeds.txt", "w") as fh:
        fh.write("4\n# comment\n6\n")
    with open("cfg.json", "w") as fh:
        json.dump({"seeds": [2, 3], "params": {"m": 20}}, fh)


def _summary(runs, mean_samples):
    return [
        f"# runs={runs}",
        "# success_fraction=1.000000000000e+00",
        f"# mean_samples={mean_samples}",
        "# confidence_radius=0.000000000000e+00",
    ]


_ADV_EXTRAS = "support_size=160 support_limit=160 pair_bound=1.000000000000e-02 max_residual=0.000000000000e+00"


class TestSurfacePinned:
    """The CLI surface as released: parser actions, digests and output rows."""

    def test_parser_actions(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(_PARSER_SURFACE)
        for name, expected in _PARSER_SURFACE.items():
            got = [
                (tuple(a.option_strings), a.dest, a.type, a.default, a.required, a.choices, a.nargs, a.const)
                for a in sub.choices[name]._actions
                if a.dest != "help"
            ]
            assert got == expected, name

    @pytest.mark.parametrize(
        "argv, rows, written",
        [
            (
                ["tolerant-test", "--dist", "d.json", "--property", "uniform", "--lambda", "50", "--gamma1", "0.1",
                 "--gamma2", "0.3", "--seed", "3", "--repeats", "2",
                 "--out", "o.csv"],
                ["3,0,tolerant-test,8a0a877404aa,Accept,281565314427,h_size=200",
                 "3,1,tolerant-test,8a0a877404aa,Accept,281565314427,h_size=200"]
                + _summary(2, "2.815653144270e+11"),
                [],
            ),
            (
                ["tolerant-test", "--dist", "d.json", "--lambda", "50", "--gamma1", "0.1", "--gamma2", "0.3",
                 "--seeds-file", "seeds.txt", "--out", "o.csv"],
                ["4,0,tolerant-test,8a0a877404aa,Accept,281565314427,h_size=200",
                 "6,0,tolerant-test,8a0a877404aa,Accept,281565314427,h_size=200"]
                + _summary(2, "2.815653144270e+11"),
                [],
            ),
            (
                ["lp-feasible", "--lp", "poly.json", "--seeds-file", "seeds.txt", "--out", "o.csv"],
                ["4,0,lp-feasible,ff5fbd5374ef,feasible,0,violation=0.000000000000e+00",
                 "6,0,lp-feasible,ff5fbd5374ef,feasible,0,violation=0.000000000000e+00"]
                + _summary(2, "0.000000000000e+00"),
                [],
            ),
            (
                ["gen-adversarial", "--dist", "d.json", "--alpha", "0.2", "--beta", "0.2", "--mode", "general",
                 "--permute", "--out-yes", "yes.json", "--out-no", "no.json", "--seed", "5", "--repeats", "2",
                 "--out", "o.csv"],
                [f"5,0,gen-adversarial,87e40e1d7053,pass,0,{_ADV_EXTRAS}",
                 f"5,1,gen-adversarial,87e40e1d7053,pass,0,{_ADV_EXTRAS}"]
                + _summary(2, "0.000000000000e+00"),
                ["no.s5.r0.json", "no.s5.r1.json", "yes.s5.r0.json", "yes.s5.r1.json"],
            ),
            (
                ["gen-adversarial", "--dist", "d.json", "--alpha", "0.2", "--beta", "0.2", "--out-yes", "yes.json",
                 "--out", "o.csv"],
                [f"0,0,gen-adversarial,3685035ebfb4,pass,0,{_ADV_EXTRAS}"] + _summary(1, "0.000000000000e+00"),
                ["yes.json"],
            ),
            (
                ["collision-rate", "--dist", "d.json", "--beta", "0.25", "--m", "25", "--trials", "200",
                 "--random-pairing", "--config", "cfg.json", "--out", "o.csv"],
                ["2,0,collision-rate,a5dfc21b7db4,6.650000000000e-01,4000,"
                 "union_bound=1.000000000000e+00 m=20 trials=200",
                 "3,0,collision-rate,a5dfc21b7db4,6.200000000000e-01,4000,"
                 "union_bound=1.000000000000e+00 m=20 trials=200"]
                + _summary(2, "4.000000000000e+03"),
                [],
            ),
            (
                ["collision-rate", "--dist", "d.json", "--beta", "0.25", "--m", "25", "--seed", "2", "--out", "o.csv"],
                ["2,0,collision-rate,f8d0b8dfb743,7.840000000000e-01,25000,"
                 "union_bound=1.000000000000e+00 m=25 trials=1000"]
                + _summary(1, "2.500000000000e+04"),
                [],
            ),
            (
                ["learn", "--dist", "small.json", "--eta", "0", "--delta", "0.5", "--known-s", "4",
                 "--c-test", "9", "--seed", "1", "--out", "o.csv"],
                ["1,0,learn,9b16bc258ef9,Learned,288,final_guess=4 measured_l1=4.861111111111e-02"]
                + _summary(1, "2.880000000000e+02"),
                [],
            ),
            (
                ["learn", "--dist", "small.json", "--eta", "0", "--delta", "0.5", "--seed", "1", "--repeats", "2",
                 "--out", "o.csv"],
                ["1,0,learn,8f7bccef5299,Learned,19704,final_guess=1 measured_l1=2.500000000000e-01",
                 "1,1,learn,8f7bccef5299,Learned,19704,final_guess=1 measured_l1=2.500000000000e-01"]
                + _summary(2, "1.970400000000e+04"),
                [],
            ),
        ],
    )
    def test_rows_and_digest(self, argv, rows, written, tmp_path, monkeypatch):
        # Relative file names keep the temporary directory out of the digest.
        monkeypatch.chdir(tmp_path)
        _pinned_setup()
        before = {p.name for p in tmp_path.iterdir()}
        # The tester's H covers all of uniform(200), so no index is left to pad it with.
        padded = argv[0] == "tolerant-test"
        with pytest.warns(RuntimeWarning, match="unused indices") if padded else contextlib.nullcontext():
            assert main(argv) == 0
        text = (tmp_path / "o.csv").read_text()
        assert strip_wall_ms(text) == [",".join(CSV_HEADER)] + rows
        assert sorted({p.name for p in tmp_path.iterdir()} - before - {"o.csv"}) == written
