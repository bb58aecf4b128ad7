"""Command-line interface: exit codes, outputs, determinism."""

import json
import time

import pytest

from sisi.cli import main

FIG1_ARGS = ["--params", "b=0.6", "alpha=0.2", "beta1=0.5", "k1=1", "k2=0.3"]


class TestValidate:
    def test_admissible_exit_zero(self, capsys):
        assert main(["validate", *FIG1_ARGS]) == 0
        assert "admissible" in capsys.readouterr().out

    def test_violation_exit_one_and_named(self, capsys):
        code = main(["validate", "--params", "b=0.9", "alpha=0.5"])
        assert code == 1
        assert "alpha + b <= 1" in capsys.readouterr().out

    def test_negative_rate_exit_two(self):
        assert main(["validate", "--params", "b=-0.1"]) == 2

    def test_nan_rate_exit_two(self, capsys):
        assert main(["validate", "--params", "b=nan", "alpha=0.1"]) == 2
        assert "finite" in capsys.readouterr().out

    def test_malformed_token_exit_two(self):
        assert main(["validate", "--params", "bogus"]) == 2


class TestSimulate:
    @pytest.mark.parametrize("figure,label", [
        (1, "lambda_1"), (2, "lambda_10"), (3, "lambda_1"), (4, "lambda_11"),
    ])
    def test_figure_presets_reach_cataloged_limits(self, figure, label, capsys):
        start = time.monotonic()
        assert main(["simulate", "--figure", str(figure)]) == 0
        assert time.monotonic() - start < 10.0
        out = capsys.readouterr().out
        assert f"({label})" in out
        assert "# match: true" in out

    def test_nonconvergence_exit_three_with_report(self, capsys):
        code = main(["simulate", "--figure", "2", "--max-iter", "3"])
        assert code == 3
        out = capsys.readouterr().out
        assert "# converged: false" in out
        assert "n,x,u,y,v" in out  # trajectory still written

    def test_curve_presets_emit_csv(self, capsys):
        start = time.monotonic()
        assert main(["simulate", "--figure", "5"]) == 0
        out = capsys.readouterr().out
        assert "x,f,g" in out and "# sign_changes: 1" in out
        assert main(["simulate", "--figure", "6"]) == 0
        assert time.monotonic() - start < 10.0
        out = capsys.readouterr().out
        assert "# sign_changes: 0" in out

    def test_custom_run_writes_file(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["simulate", *FIG1_ARGS, "--init", "0.1,0.01,0.2,0.69",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# config: ")
        assert "# limit: " in text

    def test_missing_init_is_bad_input(self):
        assert main(["simulate", *FIG1_ARGS]) == 2

    def test_nan_init_is_bad_input(self):
        assert main(["simulate", *FIG1_ARGS, "--init", "nan,0.5,0.25,0.25"]) == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, c = tmp_path / "a.csv", tmp_path / "c.csv"
        args = ["simulate", "--figure", "2"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(c)]) == 0
        assert a.read_bytes() == c.read_bytes()

    def test_tensor_dump_deterministic(self, tmp_path):
        a, c = tmp_path / "a.csv", tmp_path / "c.csv"
        args = ["tensor-dump", *FIG1_ARGS]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(c)]) == 0
        assert a.read_bytes() == c.read_bytes()
        assert len(a.read_text().splitlines()) == 2 + 64

    def test_config_file_equals_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("b=0.6\nalpha=0.2\nbeta1=0.5\nk1=1\nk2=0.3\n")
        assert main(["validate", "--config", str(cfg)]) == 0
        via_file = capsys.readouterr().out
        assert main(["validate", *FIG1_ARGS]) == 0
        via_flags = capsys.readouterr().out
        assert via_file == via_flags


class TestFixpoints:
    def test_reference_catalog_listing(self, capsys):
        code = main(["fixpoints", "--params", "b=0.1", "alpha=0.2",
                     "beta1=0.5", "k1=1", "k2=0.3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_1," in out and "lambda_10," in out

    def test_nan_rate_is_bad_input(self):
        assert main(["fixpoints", "--params", "b=nan", "alpha=0.1", "beta1=0.5",
                     "k1=1"]) == 2


class TestClassify:
    def test_nonhyperbolic_without_turnover(self, capsys):
        code = main(["classify", "--params", "b=0", "alpha=0.2", "beta1=0.5",
                     "k1=1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["closed_form"]["classification"] == "nonhyperbolic"

    def test_csv_format(self, capsys):
        code = main(["classify", "--format", "csv", *FIG1_ARGS])
        assert code == 0
        out = capsys.readouterr().out
        assert "closed-form,lambda_1,attracting" in out


class TestConjugacy:
    def test_report_lines(self, capsys):
        code = main(["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu=1.3999999999999999" in out
        assert "mu in (1,3): yes" in out

    def test_requires_infection_product(self):
        assert main(["conjugacy", "--params", "b=0.2"]) == 2


class TestScan:
    def test_small_scan_jsonl(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        code = main(["scan", "--conjecture", "1", "--inits", "1",
                     "--out", str(out), "--seed", "3"])
        assert code in (0, 1)  # counterexample discovery is a valid outcome
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["conjecture"] == 1 and header["n_cells"] == 5 ** 6
        assert len(lines) == 1 + 5 ** 6
        record = json.loads(lines[1])
        assert {"verdict", "params", "iterations"} <= set(record)

    @pytest.mark.parametrize("flag", [
        ["--max-iter", "5"], ["--tol-step", "1e-3"], ["--tol-fix", "1e-3"],
        ["--params", "b=0.1"], ["--init", "1,0,0,0"], ["--figure", "1"],
        ["--grid", "10"],
    ], ids=lambda flag: flag[0])
    def test_unread_flags_are_rejected(self, flag, tmp_path):
        # the scan's grid, start points and tolerances are fixed
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "--conjecture", "1", "--out", str(out), *flag]) == 2
        assert not out.exists()

    def test_no_initial_points_is_bad_input(self, tmp_path, capsys):
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "--conjecture", "1", "--inits", "0",
                     "--out", str(out)]) == 2
        assert "n_init must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", [
        "max_iter=5", "tol_step=0.1", "tol_fix=0.1", "grid=10", "init=1,0,0,0",
        "b=0.3", "alpha=0.1", "beta1=0.5", "beta2=0.1", "k1=1", "k2=0.3",
    ], ids=lambda pair: pair.split("=")[0])
    def test_unread_config_keys_are_rejected(self, pair, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(f"seed=3\n{pair}\n")
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "--conjecture", "1", "--config", str(cfg),
                     "--out", str(out)]) == 2
        assert pair.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_equals_flag(self, tmp_path):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("seed=3\n")
        a, c = tmp_path / "a.jsonl", tmp_path / "c.jsonl"
        args = ["scan", "--conjecture", "2", "--inits", "1"]
        assert main([*args, "--config", str(cfg), "--out", str(a)]) == 0
        assert main([*args, "--seed", "3", "--out", str(c)]) == 0
        assert a.read_bytes() == c.read_bytes()
