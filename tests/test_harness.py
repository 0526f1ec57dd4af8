"""CLI behaviors: exit codes, emitted files, determinism, overrides."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from metagrad import cli, optimizer
from metagrad.cli import main
from metagrad.meta_gradient import exact_grad_F
from metagrad.numerics import RngStream
from metagrad.optimizer import CSV_HEADER, RunRecord
from metagrad.tasks import TaskFamily, local_smoothness, random_quadratic_family
from records import parse_csv


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


def metagrad_process(cwd, *argv, python_flags=()):
    """Run `metagrad <argv>` in a fresh interpreter; the finished process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *python_flags, "-m", "metagrad.cli", *argv],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def quad_family_dict(seed=0, n=3, d=2):
    return random_quadratic_family(n, d, RngStream(seed)).to_dict()


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity that strict JSON lacks."""

    def refuse(name):
        raise ValueError(f"{path.name} holds {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "family": quad_family_dict(),
        "algorithms": ["maml"],
        "alpha": 0.05,
        "stepsize": {"kind": "constant", "beta": 0.05},
        "batches": {"B": 4, "D_in": 2, "D_o": 2, "D_h": 2},
        "noise": {"sigma_tilde": 0.3},
        "max_iters": 20,
        "w0": [0.3, -0.2],
        "seeds": [0],
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# Each subcommand's flags, with a value for each that takes one.
RUN_FLAGS = {"--config": "c.json", "--seed": "1", "--out": "o", "--max-iters": "3",
             "--quiet": None, "--algorithms": "maml"}
FLAGS = {
    "run": RUN_FLAGS,
    "compare": {**RUN_FLAGS, "--gnuplot": None},
    "audit": {k: v for k, v in RUN_FLAGS.items() if k != "--algorithms"},
    "quadratic-oracle": {"--config": "c.json", "--alpha": "0.2"},
    "gen-family": {"--kind": "quadratic", "--n": "3", "--dim": "2", "--similarity": "0.5",
                   "--seed": "1", "--out": "o", "--name": "f.json", "--quiet": None},
}
REQUIRED = {"run": ["--config"], "compare": ["--config"], "audit": ["--config"],
            "quadratic-oracle": [], "gen-family": ["--kind", "--n", "--dim"]}


def argv_of(command, flags):
    return [command] + [a for f in flags for a in (f, FLAGS[command][f]) if a is not None]


class TestParser:
    @pytest.mark.parametrize("command", FLAGS)
    def test_each_subcommand_declares_exactly_its_flags(self, command):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices[command]
        declared = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert declared == set(FLAGS[command])
        for flag in FLAGS[command]:  # each alone, then all at once
            args = parser.parse_args(argv_of(command, set(REQUIRED[command]) | {flag}))
            assert args.command == command
        args = parser.parse_args(argv_of(command, FLAGS[command]))
        for flag, value in FLAGS[command].items():
            got = getattr(args, flag[2:].replace("-", "_"))
            assert got is True if value is None else str(got) == value

    @pytest.mark.parametrize(
        "command, extra",
        [("quadratic-oracle", ["--out", "x"]), ("quadratic-oracle", ["--seed", "1"]),
         ("quadratic-oracle", ["--algorithms", "maml"]),
         ("quadratic-oracle", ["--max-iters", "3"]), ("quadratic-oracle", ["--quiet"]),
         ("audit", ["--config", "c.json", "--algorithms", "maml"])],
        ids=["oracle-out", "oracle-seed", "oracle-algorithms", "oracle-max-iters",
             "oracle-quiet", "audit-algorithms"],
    )
    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, command, extra, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, *extra])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestQuadraticOracle:
    def test_prints_stored_example_fixed_points(self, capsys):
        assert main(["quadratic-oracle"]) == 0
        out = capsys.readouterr().out
        values = {}
        for line in out.strip().split("\n"):
            key, _, rest = line.partition(":")
            values[key] = float(rest.strip().strip("[]"))
        assert values["w_star"] == pytest.approx(-0.085 / 1.045, abs=1e-12)
        assert values["w_fo"] == pytest.approx(-0.04, abs=1e-12)
        assert values["fo_gap"] == pytest.approx(0.0432, abs=1e-12)

    def test_alpha_override_changes_solution(self, capsys):
        assert main(["quadratic-oracle", "--alpha", "0.2"]) == 0
        out = capsys.readouterr().out
        w_star = float(out.split("w_star: [")[1].split("]")[0])
        assert w_star != pytest.approx(-0.085 / 1.045, abs=1e-6)

    @pytest.mark.parametrize(
        "extra, config_alpha, message",
        [
            (["--alpha", "nan"], None, "alpha must be finite"),
            (["--alpha", "inf"], None, "alpha must be finite"),
            (["--alpha", "-1"], None, "alpha must be nonnegative"),
            ([], float("nan"), "alpha must be finite"),
        ],
        ids=["nan", "inf", "negative", "config-nan"],
    )
    def test_bad_alpha_is_config_error(self, tmp_path, capsys, extra, config_alpha, message):
        if config_alpha is not None:
            extra = ["--config", str(write_config(tmp_path, alpha=config_alpha))]
        assert main(["quadratic-oracle", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:") and message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestGenFamily:
    def test_writes_loadable_family_deterministically(self, tmp_path, capsys):
        argv = [
            "gen-family", "--kind", "rank1mf", "--n", "4", "--dim", "3",
            "--similarity", "0.5", "--seed", "9", "--out", str(tmp_path / "a"),
        ]
        assert main(argv) == 0
        path = tmp_path / "a" / "family_rank1mf_n4_d3.json"
        fam = TaskFamily.from_json(path.read_text())
        assert fam.kind == "rank1mf"
        assert len(fam.tasks) == 4 and fam.dim == 3
        argv[-1] = str(tmp_path / "b")
        assert main(argv) == 0
        other = tmp_path / "b" / "family_rank1mf_n4_d3.json"
        assert other.read_bytes() == path.read_bytes()
        assert (tmp_path / "a" / "family_rank1mf_n4_d3.json.config.json").is_file()

    def test_seed_changes_generated_family(self, tmp_path, capsys):
        for seed, sub in (("1", "a"), ("2", "b")):
            assert main([
                "gen-family", "--kind", "quadratic", "--n", "3", "--dim", "2",
                "--seed", seed, "--out", str(tmp_path / sub), "--quiet",
            ]) == 0
        a = (tmp_path / "a" / "family_quadratic_n3_d2.json").read_text()
        b = (tmp_path / "b" / "family_quadratic_n3_d2.json").read_text()
        assert a != b

    @pytest.mark.parametrize("similarity", ["nan", "inf"])
    def test_non_finite_similarity_is_config_error(self, tmp_path, capsys, similarity):
        out = tmp_path / "out"
        argv = ["gen-family", "--kind", "rank1mf", "--n", "3", "--dim", "2",
                "--similarity", similarity, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "family.generate.similarity must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-family", "compare"])
    def test_seed_flag_beyond_int64_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "gen-family":
            argv = ["gen-family", "--kind", "rank1mf", "--n", "3", "--dim", "2"]
            key = "family.generate.seed"
        else:
            argv, key = ["compare", "--config", str(write_config(tmp_path))], "seeds"
        assert main(argv + ["--seed", str(2**63), "--out", str(out)]) == 2
        assert f"{key} must be an integer, got {2**63} (out of range)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n, dim", [(0, 5), (5, 0), (5, -1)])
    def test_bad_sizes_are_config_errors(self, tmp_path, capsys, n, dim):
        out = tmp_path / "out"
        argv = ["gen-family", "--kind", "rank1mf", "--n", str(n), "--dim", str(dim),
                "--out", str(out)]
        assert main(argv) == 2
        assert "n >= 1 and dim >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_dim_generated_family_in_config_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, family={"generate": {"kind": "rank1mf", "n": 3, "dim": 0}}, w0=None
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "dim=0" in capsys.readouterr().err


class TestRunCommand:
    def test_emits_csv_and_sidecar(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        csv_path = out / "run_maml_seed0.csv"
        cols = parse_csv(csv_path.read_text())
        assert len(cols["iter"]) == 21  # max_iters rows plus the final state
        sidecar = json.loads((out / "run_maml_seed0.csv.config.json").read_text())
        assert sidecar["command"] == "run"
        assert sidecar["algorithm"] == "maml"
        # defaulted fields are echoed explicitly
        assert sidecar["config"]["trust_radius"] == 10.0
        assert sidecar["config"]["full_task_batch"] is False
        assert sidecar["config"]["noise"]["sigma_H"] == 0.0

    def test_first_row_matches_exact_gradient_at_w0(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        cols = parse_csv((out / "run_maml_seed0.csv").read_text())
        family = TaskFamily.from_dict(quad_family_dict())
        want = np.linalg.norm(exact_grad_F(family, np.array([0.3, -0.2]), 0.05))
        assert cols["grad_norm_F"][0] == pytest.approx(want, rel=1e-15)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for sub in ("x", "y"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / sub), "--quiet"]) == 0
        for name in ("run_maml_seed0.csv", "run_maml_seed0.csv.config.json"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    def test_seed_flag_overrides_replicates(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[3, 4])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
        assert (out / "run_maml_seed7.csv").is_file()
        assert not (out / "run_maml_seed3.csv").exists()

    def test_multiple_algorithms_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["maml", "fomaml"])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "exactly one algorithm" in capsys.readouterr().err

    def test_max_iters_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out), "--max-iters", "5", "--quiet"])
        assert code == 0
        cols = parse_csv((out / "run_maml_seed0.csv").read_text())
        assert len(cols["iter"]) == 6


class TestExitCodes:
    def test_small_task_batch_names_precondition(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            stepsize={"kind": "adaptive", "beta": None, "fraction": None},
            batches={"B": 10, "D_in": 2, "D_o": 2, "D_h": 2},
            alpha=0.01,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "B=10 < 20" in capsys.readouterr().err

    def test_probe_budget_names_precondition(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            family={"generate": {"kind": "rank1mf", "n": 3, "dim": 3, "seed": 1}},
            algorithms=["hfmaml"],
            stepsize={"kind": "adaptive", "beta": None, "fraction": None},
            batches={"B": 20, "D_in": 2, "D_o": 2, "D_h": 1, "B_prime": 100000, "D_beta": 100000},
            noise={"sigma_tilde": 5.0},
            alpha=0.5,
            w0=[0.2, 0.2, 0.2],
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "D_h=1 < ceil(36" in err

    def test_divergence_exits_one(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            stepsize={"kind": "constant", "beta": 1000.0},
            noise={"sigma_tilde": 0.0},
            max_iters=200,
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "runtime failure" in capsys.readouterr().err

    def test_overflowing_trust_radius_exits_one(self, tmp_path, capsys):
        # the sampled Hessians overflow to non-finite entries, which the
        # smoothness sweep refuses before any eigen-decomposition
        cfg = json.loads((CONFIGS / "fig1.json").read_text())
        cfg["trust_radius"] = 1e160
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["compare", "--config", str(path), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure:") and err.count("\n") == 1
        assert "trust ball of radius 1e+160" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e80, 1e150])
    def test_non_finite_smoothness_refused_by_adaptive_rule(self, tmp_path, capsys, radius):
        # the sampled task gradients overflow, so sigma is inf (1e80) or nan
        # (1e150) while L and rho stay finite; a constant stepsize never
        # reads sigma, but the adaptive rule's batch precondition does
        cfg = json.loads((CONFIGS / "fig1.json").read_text())
        cfg.update(trust_radius=radius, stepsize={"kind": "adaptive"})
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        code = main(["compare", "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("runtime failure:") and err.count("\n") == 1
        assert "are not all finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("radius", [1e80, 1e150])
    def test_non_finite_sigma_is_quiet_under_a_constant_step(self, tmp_path, radius):
        # sigma overflows as above, but a constant stepsize never reads it,
        # and the smoothness sweep raises no overflow warning on the way
        cfg = json.loads((CONFIGS / "fig1.json").read_text())
        cfg["trust_radius"] = radius
        (tmp_path / "fig1.json").write_text(json.dumps(cfg))
        proc = metagrad_process(tmp_path, "compare", "--config", "fig1.json", "--max-iters", "5",
                                "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert (tmp_path / "o" / "compare_summary_seed0.json").is_file()

    def test_overflowing_alpha_fails_the_quadratic_oracle(self, tmp_path):
        # (1 - alpha A)^2 overflows, so the closed-form systems are not finite
        proc = metagrad_process(tmp_path, "quadratic-oracle", "--alpha", "1e200")
        assert proc.returncode == 1
        assert proc.stderr.startswith("runtime failure:") and proc.stderr.count("\n") == 1
        assert "non-finite" in proc.stderr

    def test_overflowing_alpha_fails_compare_on_a_quadratic_family(self, tmp_path):
        # without closed forms the run logs NaN distances, then its iterate overflows
        cfg = {"family": {"generate": {"kind": "quadratic", "n": 3, "dim": 2, "seed": 1}},
               "alpha": 1e200, "stepsize": {"kind": "constant", "beta": 0.05}}
        (tmp_path / "q.json").write_text(json.dumps(cfg))
        proc = metagrad_process(tmp_path, "compare", "--config", "q.json", "--max-iters", "5",
                                "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("runtime failure:")

    HUGE_ALPHA = {"family": {"generate": {"kind": "quadratic", "n": 3, "dim": 2, "seed": 1}},
                  "alpha": 1e200}
    HUGE_PROBE = {"family": {"kind": "rank1mf", "dim": 2, "tasks": [
                      {"g": [1.0, 0.5]}, {"g": [-0.3, 0.8]}, {"g": [0.2, -1.1]}]},
                  "alpha": 0.01, "trust_radius": 1e120, "w0": [0.5, 0.1],
                  "algorithms": ["hfmaml"]}

    @pytest.mark.parametrize("config, max_iters, code, last_line", [
        # the adaptive rule's batch requirements square past the float range
        # to inf; a noiseless Hessian needs one draw, a noisy one no batch
        (HUGE_ALPHA, "5", 1, "runtime failure: non-finite iterate at iteration 1"),
        ({**HUGE_ALPHA, "noise": {"sigma_tilde": 0.5, "sigma_H": 0.5}}, "5", 2,
         "config error: D_h=1 < ceil(2*alpha^2*sigma_H^2)=inf"),
        # 7.1 PiB of log rows: no 64-bit host maps that much, so the
        # allocation fails at once without touching memory
        (None, "1000000000000000", 1, "runtime failure: Unable to allocate"),
        # the iterate grows until rho alpha ||v|| overflows, so the probe
        # width 1 / (6 rho alpha ||v||) has no value in floats
        ({**HUGE_PROBE, "stepsize": {"kind": "constant", "beta": 1e30},
          "full_task_batch": True}, "5", 1, "runtime failure: non-finite iterate at iteration 2"),
        ({**HUGE_PROBE, "stepsize": {"kind": "constant", "beta": 1e100}}, "5", 1,
         "runtime failure: non-finite iterate at iteration 2"),
    ], ids=["adaptive-alpha", "noisy-adaptive-alpha", "max-iters", "hfmaml-probe-full-batch",
            "hfmaml-probe-sampled"])
    def test_pathological_compare_ends_in_one_line(self, tmp_path, config, max_iters, code,
                                                   last_line):
        path = CONFIGS / "fig1.json" if config is None else tmp_path / "c.json"
        if config is not None:
            path.write_text(json.dumps(config))
        proc = metagrad_process(tmp_path, "compare", "--config", str(path), "--max-iters",
                                max_iters, "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert lines[-1].startswith(last_line)
        assert sum(line.startswith(("runtime failure:", "config error:")) for line in lines) == 1
        assert not (tmp_path / "o").exists()

    AUDIT_BASE = {"family": {"generate": {"kind": "rank1mf", "n": 4, "dim": 3, "seed": 1}},
                  "alpha": 0.05, "stepsize": {"kind": "constant", "beta": 0.05},
                  "noise": {"sigma_tilde": 0.3, "sigma_H": 0.3}, "trust_radius": 2.0,
                  "max_iters": 20, "w0": [0.3, -0.2, 0.1]}
    AUDIT_SMALL = {"n_mc": 200, "stepsize_samples": 200, "stepsize_points": 2, "D_in": [4],
                   "D_test": [4], "n_probes": 20}
    QUAD_NOISE = {**AUDIT_BASE, "family": {"generate": {"kind": "quadratic", "n": 3, "dim": 3,
                                                        "seed": 1}},
                  "noise": {"sigma_tilde": 1e200, "sigma_H": 1e200}}

    @pytest.mark.parametrize("config, audit, check", [
        # the bounds square past the float range: inf, then refused, not an OverflowError
        ({**AUDIT_BASE, "noise": {"sigma_tilde": 1e155, "sigma_H": 0.0}},
         {"select": ["second_moment"]}, "estimator_second_moment[D_in=4]"),
        (AUDIT_BASE, {"select": ["second_moment"], "alpha_times_L": 1e300},
         "estimator_second_moment[D_in=4]"),
        (AUDIT_BASE, {"select": ["grad_gap"], "alpha_times_L": 1e300},
         "surrogate_grad_gap[D_test=4]"),
        ({**AUDIT_BASE, "trust_radius": 1e100}, {"select": ["second_moment"]},
         "estimator_second_moment[D_in=4]"),
        (QUAD_NOISE, {"select": ["second_moment"]}, "estimator_second_moment[D_in=4]"),
        # the draws or bounds themselves leave the float range or lose their value
        (AUDIT_BASE, {"select": ["bias"], "w_scale": 1e60}, "estimator_bias[D_in=4]"),
        (AUDIT_BASE, {"select": ["grad_gap"], "w_scale": 1e200}, "surrogate_grad_gap[D_test=4]"),
        # a NaN ratio (inf - inf gradients) is refused, not skipped as a pass
        (AUDIT_BASE, {"select": ["smoothness"], "w_scale": 1e60, "n_pairs": 20},
         "smoothness_ratio"),
        (AUDIT_BASE, {"select": ["hvp_probe"], "alpha_times_L": 1e-320}, "hvp_probe_error"),
        (AUDIT_BASE, {"select": ["second_moment"], "phi": 1e-320},
         "estimator_second_moment[D_in=4]"),
    ], ids=["sigma-tilde-squared", "alpha-L-squared", "alpha-squared", "trust-radius",
            "quadratic-noise", "w-scale-1e60", "w-scale-1e200", "smoothness-w-scale-1e60",
            "alpha-L-tiny", "phi-tiny"])
    def test_pathological_audit_ends_in_one_line(self, tmp_path, config, audit, check):
        (tmp_path / "c.json").write_text(json.dumps({**config, "audit": {**self.AUDIT_SMALL,
                                                                          **audit}}))
        proc = metagrad_process(tmp_path, "audit", "--config", "c.json", "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"runtime failure: audit {check}: non-finite ")
        assert proc.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_squared_bound_past_the_float_range_is_a_valid_report(self, tmp_path):
        # L(w) is finite near w0 but past sqrt(max float): 3.125 / L(w)^2 rounds to 0
        config = {**self.AUDIT_BASE, "trust_radius": 1e100,
                  "audit": {**self.AUDIT_SMALL, "select": ["stepsize_moments"], "w_scale": 1e-99}}
        (tmp_path / "c.json").write_text(json.dumps(config))
        proc = metagrad_process(tmp_path, "audit", "--config", "c.json", "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert (proc.returncode, proc.stderr) == (0, "")
        report = strict_json(tmp_path / "o" / "audit_seed0.json")
        assert [a["bound"] for a in report["audits"]] == [0.0] * 4
        assert report["all_passed"] is True

    def test_coincident_smoothness_pairs_are_quiet(self, tmp_path):
        # at this radius the smoothness sweep's pairs are one float64 point
        cfg = {"family": {"generate": {"kind": "rank1mf", "n": 3, "dim": 2, "seed": 1}},
               "trust_radius": 1e-300, "stepsize": {"kind": "constant", "beta": 0.1}}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        proc = metagrad_process(tmp_path, "compare", "--config", "c.json", "--max-iters", "5",
                                "--out", "o", "--quiet",
                                python_flags=["-W", "error::RuntimeWarning"])
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"family": quad_family_dict(), "alpha_inner": 0.1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "alpha_inner" in capsys.readouterr().err

    def test_missing_family_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": {"path": "nope.json"}, "algorithms": ["maml"]}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]) == 2

    def test_duplicate_algorithms_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        argv = ["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(argv + ["--algorithms", "maml,maml"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "algorithms must be distinct" in err
        assert not (tmp_path / "o").exists()

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[1, 1])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"batches": {"B": 20.9}}, "batches.B"),
            ({"max_iters": 2.5}, "max_iters"),
            ({"max_iters": True}, "max_iters"),
        ],
    )
    def test_non_integral_integer_fields_rejected(self, tmp_path, capsys, override, field):
        cfg = write_config(tmp_path, **override)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "audit, field",
        [
            ({"select": ["bias"], "n_mc": 100.5}, "audit.n_mc"),
            ({"select": ["bias"], "n_mc": 100, "D_in": [4, 2.5]}, "audit.D_in"),
            ({"select": ["kshot"], "K_list": [True]}, "audit.K_list"),
        ],
    )
    def test_non_integral_audit_fields_rejected(self, tmp_path, capsys, audit, field):
        cfg = write_config(tmp_path, audit=audit)
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "audit, message",
        [
            ({"D_in": [4, 0]}, "audit.D_in must be >= 1"),
            ({"D_test": [0]}, "audit.D_test must be >= 1"),
            ({"D_o": 0}, "audit.D_o must be >= 1"),
            ({"K_list": [0]}, "audit.K_list must be >= 1"),
            ({"K_list": []}, "audit.K_list must be nonempty and ascending"),
            ({"K_list": [8, 2]}, "audit.K_list must be nonempty and ascending"),
            ({"n_mc": 0}, "audit.n_mc must be >= 2"),
            ({"n_mc": 1}, "audit.n_mc must be >= 2"),
            ({"stepsize_samples": 0}, "audit.stepsize_samples must be >= 2"),
            ({"n_probes": 0}, "audit.n_probes must be >= 1"),
            ({"n_pairs": 0}, "audit.n_pairs must be >= 1"),
            ({"stepsize_points": 0}, "audit.stepsize_points must be >= 1"),
        ],
    )
    def test_out_of_range_audit_counts_rejected(self, tmp_path, capsys, audit, message):
        cfg = write_config(tmp_path, audit=audit)
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, override, message",
        [
            ("audit", {"audit": {"phi": 0}}, "audit.phi must be a positive number"),
            ("audit", {"audit": {"phi": "x"}}, "audit.phi must be a positive number"),
            ("audit", {"audit": {"phi": True}}, "audit.phi must be a positive number"),
            ("audit", {"audit": {"w_scale": "x"}}, "audit.w_scale must be a positive number"),
            ("audit", {"audit": {"w_scale": -1}}, "audit.w_scale must be a positive number"),
            ("audit", {"audit": {"alpha_times_L": -1}},
             "audit.alpha_times_L must be a positive number"),
            ("audit", {"audit": {"alpha_times_L": "x"}},
             "audit.alpha_times_L must be a positive number"),
            ("run", {"full_task_batch": "false"}, "full_task_batch must be true or false"),
            ("audit", {"alpha": "abc"}, "alpha must be a number"),
            ("audit", {"trust_radius": -1}, "trust_radius must be positive"),
            ("compare", {"w0": [0.3, -0.2, 0.1]}, "w0 has shape (3,), family dimension is 2"),
            ("audit", {"w0": [0.3, -0.2, 0.1]}, "w0 has shape (3,), family dimension is 2"),
            ("compare", {"algorithms": ["maml", "maml"]}, "algorithms must be distinct"),
            # a bool or a string is never a number, and a list is not one either
            ("run", {"alpha": True}, "alpha must be a number, got True"),
            ("run", {"alpha": "0.05"}, "alpha must be a number, got '0.05'"),
            ("run", {"alpha": [0.1]}, "alpha must be a number, got [0.1]"),
            ("run", {"trust_radius": True}, "trust_radius must be a number"),
            ("run", {"target_grad_norm": True}, "target_grad_norm must be a number"),
            ("run", {"stepsize": {"kind": "constant", "beta": True}},
             "stepsize.beta must be a number"),
            ("run", {"stepsize": {"kind": "constant", "beta": "0.05"}},
             "stepsize.beta must be a number"),
            ("run", {"stepsize": {"kind": "adaptive", "fraction": True}},
             "stepsize.fraction must be a number"),
            ("run", {"noise": {"sigma_tilde": "0"}}, "noise.sigma_tilde must be a number"),
            ("run", {"family": {"generate": {"kind": "quadratic", "n": 3, "dim": 2,
                                             "similarity": True}}},
             "family.generate.similarity must be a number"),
            ("run", {"w0": ["0.3", "-0.2"]}, "w0 must be a number, got '0.3'"),
            ("run", {"w0": "abc"}, "w0 must be a list, got 'abc'"),
            ("audit", {"audit": {"select": "bias"}}, "audit.select must be a list, got 'bias'"),
            ("compare", {"family": {"generate": "abc"}}, "family.generate must be an object"),
            # a number must fit a float and an integer an int64 (seeds are keyed as int64)
            ("run", {"alpha": 10**400}, "alpha must be a number"),
            ("audit", {"audit": {"phi": 10**400}}, "audit.phi must be a positive number"),
            ("run", {"w0": [10**400, 0.0]}, "w0 must be a number"),
            ("run", {"seeds": [2**63]}, "seeds must be an integer, got 9223372036854775808"),
            ("run", {"family": {"generate": {"kind": "quadratic", "n": 3, "dim": 2,
                                             "seed": 2**63}}},
             "family.generate.seed must be an integer"),
            # a family payload's numbers follow the same rule
            ("run", {"family": {"kind": "rank1mf", "dim": 2, "tasks": [{"g": ["0.5", True]}]}},
             "g must be a list of numbers"),
            ("run", {"family": {"kind": "rank1mf", "dim": 2, "tasks": [{"g": [0.5, 10**400]}]}},
             "g must be a list of numbers"),
            ("run", {"family": {"kind": "rank1mf", "dim": 1, "tasks": [{"g": [1.0]}, {"g": [0.5]}],
                                "weights": ["0.5", "0.5"]}},
             "weights must be a list of numbers"),
            ("run", {"family": {"kind": "quadratic", "dim": 1,
                                "tasks": [{"A": [[1.0]], "b": [1.0], "c": "2.5"}]}},
             "c must be a number"),
            ("run", {"family": {"kind": "rank1mf", "dim": 2.7, "tasks": [{"g": [1.0, 0.5]}]}},
             "dim must be an integer, got 2.7"),
            ("run", {"family": {"kind": "rank1mf", "dim": True, "tasks": [{"g": [1.0]}]}},
             "dim must be an integer, got True"),
        ],
    )
    def test_invalid_scalars_are_config_errors(self, tmp_path, capsys, command, override,
                                               message):
        cfg = write_config(tmp_path, **override)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"w0": [float("nan"), 0.2]}, "w0 must hold finite numbers"),
            ({"trust_radius": float("inf")}, "trust_radius must be finite"),
            ({"alpha": float("nan")}, "alpha must be finite"),
            ({"stepsize": {"kind": "constant", "beta": float("nan")}},
             "stepsize beta must be finite"),
            ({"noise": {"sigma_tilde": float("nan")}}, "sigma_tilde must be finite"),
            ({"family": {"kind": "rank1mf", "dim": 1, "tasks": [{"g": [1.0]}, {"g": [0.2]}],
                         "weights": [1.0, float("nan")]}}, "weights must be finite"),
            ({"family": {"kind": "rank1mf", "dim": 2, "tasks": [{"g": [1.0, float("inf")]}],
                         "weights": [1.0]}}, "g must be finite"),
            ({"family": {"kind": "quadratic", "dim": 1, "weights": [1.0],
                         "tasks": [{"A": [[float("nan")]], "b": [1.0]}]}},
             "A, b and c must be finite"),
            ({"family": {"generate": {"kind": "rank1mf", "similarity": float("nan")}}},
             "family.generate.similarity must be finite"),
            ({"family": {"generate": {"kind": "quadratic", "similarity": float("inf")}}},
             "family.generate.similarity must be finite"),
        ],
        ids=["w0", "trust_radius", "alpha", "beta", "sigma_tilde", "weights", "g", "A",
             "similarity-nan", "similarity-inf"],
    )
    def test_non_finite_numbers_are_config_errors(self, tmp_path, capsys, override, message):
        # a factorization family: its smoothness profile runs eigvalsh on
        # points around w0 inside trust_radius
        family = {"generate": {"kind": "rank1mf", "n": 4, "dim": 2, "seed": 1}}
        cfg = write_config(tmp_path, **{"family": family, **override})
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_integral_float_fields_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, max_iters=5.0, batches={"B": 4.0, "D_in": 2, "D_o": 2})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        cols = parse_csv((tmp_path / "o" / "run_maml_seed0.csv").read_text())
        assert len(cols["iter"]) == 6

    def test_integral_float_seed_writes_the_same_bytes(self, tmp_path):
        outputs = []
        for seeds in ([1], [1.0]):
            out = tmp_path / f"o{seeds[0]!r}"
            cfg = write_config(tmp_path, algorithms=["maml", "fomaml"], seeds=seeds)
            assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert "compare_summary_seed1.json.config.json" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_sidecar_echoes_numbers_as_given(self, tmp_path):
        # a real stays as written (1 is not echoed as 1.0); an integral
        # float given for an integer is echoed as the integer
        cfg = write_config(tmp_path, trust_radius=1, alpha=0.05, max_iters=5.0)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        sidecar = strict_json(tmp_path / "o" / "run_maml_seed0.csv.config.json")["config"]
        echoed = [sidecar[k] for k in ("trust_radius", "alpha", "max_iters")]
        assert echoed == [1, 0.05, 5]
        assert [type(v) for v in echoed] == [int, float, int]

    def test_missing_family_weights_default_to_uniform(self, tmp_path):
        missing = quad_family_dict(n=4)
        del missing["weights"]
        outputs = []
        for family in ({**missing, "weights": [0.25] * 4}, missing):
            cfg = write_config(tmp_path, family=family)
            out = tmp_path / f"o{len(family)}"
            assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            outputs.append((out / "run_maml_seed0.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_fractional_seed_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[1.5])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: seeds must be an integer, got 1.5\n"

    def test_negative_family_weights_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, family={**quad_family_dict(n=2), "weights": [1.5, -0.5]})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: bad family spec: weights must be positive\n"

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


class TestCompareCommand:
    def test_emits_per_algorithm_csvs_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["maml", "fomaml", "hfmaml"])
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        for algo in ("maml", "fomaml", "hfmaml"):
            assert (out / f"compare_{algo}_seed0.csv").is_file()
        summary = strict_json(out / "compare_summary_seed0.json")
        assert set(summary["records"]) == {"maml", "fomaml", "hfmaml"}
        for path in out.glob("*.config.json"):
            strict_json(path)
        assert "fomaml_over_worst_other" in summary["floor_ratios"]

    def test_algorithms_flag_restricts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["maml", "fomaml", "hfmaml"])
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--out", str(out),
                     "--algorithms", "maml,fomaml", "--quiet"])
        assert code == 0
        assert (out / "compare_maml_seed0.csv").is_file()
        assert not (out / "compare_hfmaml_seed0.csv").exists()

    def test_gnuplot_script_references_csvs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, algorithms=["maml", "fomaml"])
        out = tmp_path / "out"
        code = main(["compare", "--config", str(cfg), "--out", str(out),
                     "--gnuplot", "--quiet"])
        assert code == 0
        script = (out / "compare_seed0.gp").read_text()
        assert "compare_maml_seed0.csv" in script
        assert "compare_fomaml_seed0.csv" in script
        assert "logscale y" in script


class TestAuditCommand:
    def test_battery_runs_and_reports(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            family={"generate": {"kind": "rank1mf", "n": 4, "dim": 3, "seed": 2}},
            algorithms=["maml"],
            batches={"B": 8, "D_in": 2, "D_o": 8, "D_h": 2, "B_prime": 40, "D_beta": 40},
            noise={"sigma_tilde": 1.0},
            alpha=0.02,
            trust_radius=2.0,
            w0=None,
            max_iters=60,
            audit={
                "n_mc": 2000,
                "n_probes": 30,
                "n_pairs": 50,
                "stepsize_points": 2,
                "stepsize_samples": 1500,
                "K_list": [2, 8],
            },
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        report = strict_json(out / "audit_seed0.json")
        strict_json(out / "audit_seed0.json.config.json")
        names = [a["name"] for a in report["audits"]]
        assert "estimator_bias[D_in=4]" in names
        assert "surrogate_grad_gap[D_test=16]" in names
        assert "hvp_probe_error" in names
        assert "stepsize_mean_lower[1]" in names
        assert report["all_passed"] is True
        assert [k for k, _ in report["kshot_floors"]] == [2, 8]
        assert all(f > 0.0 for _, f in report["kshot_floors"])
        assert "all passed" in capsys.readouterr().out

    def test_audit_selection_subset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            family={"generate": {"kind": "rank1mf", "n": 3, "dim": 2, "seed": 3}},
            noise={"sigma_tilde": 0.5},
            trust_radius=2.0,
            w0=None,
            audit={"select": ["hvp_probe", "smoothness"], "n_probes": 20, "n_pairs": 20},
        )
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "audit_seed0.json").read_text())
        assert [a["name"] for a in report["audits"]] == ["hvp_probe_error", "smoothness_ratio"]
        assert report["kshot_floors"] is None

    def test_noiseless_fig1_family_passes_grad_gap(self, tmp_path, capsys):
        # zero noise: the surrogate gradient is the exact meta-gradient, so
        # the gap is exactly zero against a zero bound
        cfg = json.loads((CONFIGS / "fig1.json").read_text())
        cfg["audit"] = {"select": ["grad_gap"], "n_mc": 50}
        path = tmp_path / "fig1.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["audit", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "audit_seed0.json").read_text())
        assert len(report["audits"]) == 3
        assert all(a["measured"] == 0.0 for a in report["audits"])
        assert report["all_passed"] is True

    def test_default_battery_skips_probe_on_quadratics(self, tmp_path, capsys):
        # constant Hessians give rho = 0: there is no probe error to audit
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["audit", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        report = json.loads((out / "audit_seed0.json").read_text())
        names = [a["name"] for a in report["audits"]]
        assert "hvp_probe_error" not in names
        assert "smoothness_ratio" in names

    def test_unknown_audit_name_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, audit={"select": ["biass"]})
        assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "biass" in capsys.readouterr().err


class TestSetUp:
    @pytest.mark.parametrize("command", ["run", "compare", "audit"])
    def test_profile_computed_once_per_command(self, tmp_path, capsys, monkeypatch, command):
        # the profile depends on the family, w0 and trust_radius only, so
        # one is shared by every seed and algorithm
        calls = []

        def counting(*args):
            calls.append(args)
            return local_smoothness(*args)

        monkeypatch.setattr(cli, "local_smoothness", counting)
        monkeypatch.setattr(optimizer, "local_smoothness", counting)
        algorithms = ["maml"] if command == "run" else ["maml", "fomaml", "hfmaml"]
        cfg = write_config(tmp_path, algorithms=algorithms, seeds=[0, 1], max_iters=3,
                           audit={"select": ["kshot"], "K_list": [2, 4]})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert len(calls) == 1


class TestReplicateSeeds:
    def test_three_seed_run_matches_single_seed_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0, 1, 2])
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "all"), "--quiet"]) == 0
        for seed in (0, 1, 2):
            single = tmp_path / f"single{seed}"
            argv = ["run", "--config", str(cfg), "--seed", str(seed), "--out", str(single)]
            assert main(argv + ["--quiet"]) == 0
            name = f"run_maml_seed{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (single / name).read_bytes()


class TestEmptyRecordEmission:
    def test_header_only_for_empty_record(self):
        empty = RunRecord(
            algorithm="maml",
            seed=0,
            alpha=0.1,
            grad_norm_F=np.array([]),
            loss_F=np.array([]),
            beta=np.array([]),
            dist_wstar=np.array([]),
            dist_wfo=np.array([]),
            stop_reason="max_iters",
            iterates=np.empty((0, 1)),
        )
        assert empty.to_csv() == CSV_HEADER + "\n"


def test_readme_defaults_match_config_defaults():
    # README's jsonc block, less its comments and the audit placeholder, is
    # CONFIG_DEFAULTS less audit; each value's kind comes from its default,
    # so 10.0 and 10 differ here
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("```jsonc\n", 1)[1].split("```", 1)[0]
    block = re.sub(r"//[^\n]*", "", block).replace('"audit": { ... }', "")
    documented = json.loads(re.sub(r",\s*}", "}", block))
    defaults = {k: v for k, v in cli.CONFIG_DEFAULTS.items() if k != "audit"}
    assert json.dumps(documented, sort_keys=True) == json.dumps(defaults, sort_keys=True)
