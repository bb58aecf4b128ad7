"""Command-line interface: exit codes, outputs, determinism."""

import csv
import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from sisi import cli, dynamics
from sisi.cli import _FIGURES, _READS, main

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
        # the rate fails where the configuration is resolved, as in every
        # other subcommand: an error line, and no report
        assert main(["validate", "--params", "b=nan", "alpha=0.1"]) == 2
        assert capsys.readouterr() == ("", "error: rate(s) must be finite and >= 0: b=nan\n")

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

    def test_negative_zero_init_echoes_zero(self, capsys):
        assert main(["simulate", *FIG1_ARGS, "--init=-0.0,0.5,0.25,0.25", "--max-iter", "2"]) == 3
        out = capsys.readouterr().out
        assert " init=0,0.5,0.25,0.25 " in out and "\n0,0,0.5,0.25,0.25\n" in out

    def test_no_prediction_where_the_catalog_has_no_interior_root(self, capsys):
        # Q's coefficients underflow here, and the catalog lists no lambda_11:
        # the prediction is none, not a target at an infinite root
        args = ["--params", "b=1e-160", "alpha=0.5", "beta1=0.5", "beta2=1e-160",
                "k1=2.0", "k2=1.0", "--init", "0.7,0.1,0.1,0.1"]
        assert main(["simulate", *args]) == 0
        assert "\n# predicted: none\n" in capsys.readouterr().out

    def test_missing_init_is_bad_input(self):
        assert main(["simulate", *FIG1_ARGS]) == 2

    def test_nan_init_is_bad_input(self):
        assert main(["simulate", *FIG1_ARGS, "--init", "nan,0.5,0.25,0.25"]) == 2

    @pytest.mark.parametrize("flag", [["--tol-step", "nan"], ["--tol-fix", "-1"],
                                      ["--tol-fix", "inf"], ["--tol-step", "inf"]],
                             ids=lambda flag: " ".join(flag))
    def test_bad_tolerance_is_bad_input(self, flag, capsys):
        # NaN never compares true, so a NaN tol_step would never stop a run;
        # an infinite tol_fix snaps to a far fixed point and an infinite
        # tol_step stops at the start
        assert main(["simulate", "--figure", "2", *flag]) == 2
        assert "tolerances must be >= 0" in capsys.readouterr().err


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

    def test_family_rows_are_well_formed_csv(self, capsys):
        # family descriptions hold commas, so they are quoted
        assert main(["fixpoints", "--params", "b=0", "alpha=0", "beta1=0.5",
                     "beta2=0.5", "k1=1", "k2=1"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert rows[0] == ["label", "x", "u", "y", "v", "residual", "stability", "family"]
        assert [len(row) for row in rows] == [8] * len(rows)
        assert rows[5] == ["Lambda_5", "", "", "", "", "0", "", "u = v = 0; x in [0, 1], y = 1 - x"]


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

    def test_negative_rate_is_bad_input(self, capsys):
        assert main(["classify", "--params", "b=-0.1", "alpha=0.1", "beta1=0.5",
                     "k1=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b=-0.1" in captured.err


RATES5 = ["--params", "b=0.2", "alpha=0.3", "beta1=0.6", "beta2=0.4", "k1=1", "k2=1"]
ECHO5 = ("b=0.20000000000000001 alpha=0.29999999999999999 beta1=0.59999999999999998 "
         "beta2=0.40000000000000002 k1=1 k2=1")
ECHO_TAIL = "seed=0 max_iter=1000000 tol_step=9.9999999999999998e-13 tol_fix=1e-10 grid=10000"
AT_POINT_NOTE = "classification away from lambda_1 is outside the analyzed scope"


class TestClassifyReport:
    # every byte of a classify report but the eigenvalue digits, which
    # depend on the LAPACK build: (CSV path, JSON key, CSV point, JSON
    # point, classification) per row
    LAMBDA1_SADDLE = [("closed-form", "closed_form", "lambda_1", "lambda_1", "saddle"),
                      ("generic", "generic", "lambda_1", "lambda_1", "saddle")]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,echo,rows", [
        (RATES5, f"{ECHO5} {ECHO_TAIL}", LAMBDA1_SADDLE),
        ([*RATES5, "--init", "0.3,0.2,0.1,0.4"],
         f"{ECHO5} init=0.29999999999999999,0.20000000000000001,0.10000000000000001,"
         f"0.40000000000000002 {ECHO_TAIL}",
         [*LAMBDA1_SADDLE,
          ("generic (outside analyzed scope)", "at_point",
           "0.29999999999999999;0.20000000000000001;0.10000000000000001;0.40000000000000002",
           [0.3, 0.2, 0.1, 0.4], "attracting")]),
        (["--params", "b=0", "alpha=0.2", "beta1=0.5", "k1=1"],
         f"b=0 alpha=0.20000000000000001 beta1=0.5 beta2=0 k1=1 k2=0 {ECHO_TAIL}",
         [("closed-form", "closed_form", "lambda_1", "lambda_1", "nonhyperbolic"),
          ("generic", "generic", "lambda_1", "lambda_1", "nonhyperbolic")]),
        (["--figure", "2"],
         "b=0.10000000000000001 alpha=0.20000000000000001 beta1=0.5 beta2=0 k1=1 "
         "k2=0.29999999999999999 init=0.29999999999999999,0.20000000000000001,"
         f"0.40000000000000002,0.10000000000000001 figure=2 {ECHO_TAIL}",
         [*LAMBDA1_SADDLE,
          ("generic (outside analyzed scope)", "at_point",
           "0.29999999999999999;0.20000000000000001;0.40000000000000002;0.10000000000000001",
           [0.3, 0.2, 0.4, 0.1], "attracting")]),
    ], ids=["rates", "rates+init", "nonhyperbolic", "figure"])
    def test_report_but_eigenvalue_digits_pinned(self, argv, echo, rows, fmt, capsys):
        assert main(["classify", *argv, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        config, *body = out[:-1].split("\n")
        assert config == f"# config: {echo}"
        if fmt == "csv":
            assert body[0] == "path,point,classification,eig1,eig2,eig3,eig4"
            cells = [line.split(",") for line in body[1:]]
            assert [len(c) for c in cells] == [7] * len(rows)
            assert [c[:3] for c in cells] == [[path, point, cls]
                                              for path, _, point, _, cls in rows]
        else:
            (line,) = body
            payload = json.loads(line)
            assert line == json.dumps(payload, sort_keys=True)
            for entry in payload.values():
                eigenvalues = entry.pop("eigenvalues")
                assert [len(e) for e in eigenvalues] == [2] * 4
            expected = {key: {"point": point, "classification": cls}
                        for _, key, _, point, cls in rows}
            if "at_point" in expected:
                expected["at_point"]["note"] = AT_POINT_NOTE
            assert payload == expected


class TestConjugacy:
    def test_report_lines(self, capsys):
        code = main(["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "mu=1.3999999999999999" in out
        assert "mu in (1,3): yes" in out

    def test_requires_infection_product(self, capsys):
        assert main(["conjugacy", "--params", "b=0.2"]) == 2
        assert capsys.readouterr().err == "error: conjugacy requires beta1*k1 > 0\n"

    def test_negative_rate_is_bad_input(self, capsys):
        assert main(["conjugacy", "--params", "b=-0.2", "beta1=0.6", "k1=1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "b=-0.2" in captured.err

    @pytest.mark.parametrize("rates,named", [
        (["alpha=0.1"], "alpha=0.1"), (["k2=0.3"], "k2=0.3"),
        (["alpha=0.25", "k2=0.5"], "alpha=0.25, k2=0.5"),
    ], ids=["alpha", "k2", "both"])
    def test_requires_no_recovery_edge(self, rates, named, capsys):
        # the 1-D reduction holds only at alpha = k2 = 0
        assert main(["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1", *rates]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: requires alpha = k2 = 0, got {named}\n"

    def test_figure_presets_are_off_the_edge(self, capsys):
        # every preset has alpha > 0, so conjugacy takes no --figure
        assert all(rates[1] > 0.0 for rates, _, _ in _FIGURES.values())
        assert main(["conjugacy", "--figure", "1"]) == 2
        assert "unrecognized arguments: --figure" in capsys.readouterr().err

    def test_empty_grid_is_bad_input(self, capsys):
        assert main(["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1",
                     "--grid", "0"]) == 2
        assert "grid_size must be >= 1" in capsys.readouterr().err


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

    @pytest.mark.parametrize("case", [
        *(("scan", flag) for flag in (
            ["--max-iter", "5"], ["--tol-step", "1e-3"], ["--tol-fix", "1e-3"],
            ["--params", "b=0.1"], ["--init", "1,0,0,0"], ["--figure", "1"],
            ["--grid", "10"])),
        ("validate", ["--seed", "3"]), ("fixpoints", ["--max-iter", "5"]),
        ("classify", ["--grid", "10"]), ("conjugacy", ["--init", "1,0,0,0"]),
        ("tensor-dump", ["--tol-step", "1e-3"]), ("simulate", ["--seed", "3"]),
        ("simulate", ["--grid", "10"]),
    ], ids=lambda case: case[1][0] if case[0] == "scan" else f"{case[0]} {case[1][0]}")
    def test_unread_flags_are_rejected(self, case, tmp_path):
        # each subcommand registers only the flags it reads
        command, flag = case
        base = {"scan": ["--conjecture", "1"],
                "conjugacy": ["--params", "b=0.2", "beta1=0.6", "k1=1"]}.get(
                    command, ["--figure", "1"])
        out = tmp_path / "report"
        assert main([command, *base, "--out", str(out), *flag]) == 2
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

    def test_negative_seed_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("seed=-1\n")
        for source in (["--seed", "-1"], ["--config", str(cfg)]):
            assert main(["scan", "--conjecture", "1", *source]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: seed must be >= 0, got -1\n"

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # the reader of stdout leaves early, as ``sisi scan | head -c 100``
        err = tmp_path / "stderr"
        with open(err, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sisi.cli", "scan", "--conjecture", "1"],
                stdout=subprocess.PIPE, stderr=stderr,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.stdout.read(100).startswith(b'{"conjecture": 1')
        proc.stdout.close()
        assert proc.wait(timeout=60) == 141
        assert err.read_bytes() == b""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL],
                             ids=["SIGTERM", "SIGKILL"])
    def test_sigterm_leaves_no_child(self, signum, tmp_path):
        # a signal ends the scan without running its finally blocks; its
        # forked child used to live on until its part was done, and leaves
        # now when the end of the socket pair this process held is closed
        if dynamics._n_parts(dynamics._SPLIT_MIN) == 1:
            pytest.skip("the scan runs in one process here (one CPU, no fork or a thread)")
        proc = subprocess.Popen(
            [sys.executable, "-m", "sisi.cli", "scan", "--conjecture", "2",
             "--out", str(tmp_path / "scan.jsonl")],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        kids = []
        try:
            if not os.path.exists(children):
                pytest.skip("needs /proc/<pid>/task/<pid>/children to find the child")
            deadline = time.monotonic() + 60
            while not kids and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
                with open(children) as fh:
                    kids = [int(pid) for pid in fh.read().split()]
            assert kids, "the scan forked no child"
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == -signum
            time.sleep(0.5)
            assert [pid for pid in kids if _running(pid)] == []
        finally:
            proc.kill()
            proc.wait(timeout=30)
            for pid in kids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


def _running(pid: int) -> bool:
    """True while process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestOutPath:
    ARGS = {"scan": ["--conjecture", "1"],
            "conjugacy": ["--params", "b=0.2", "beta1=0.6", "k1=1"],
            "simulate": ["--figure", "1"]}

    @pytest.mark.parametrize("command", list(_READS))
    def test_unwritable_out_fails_before_any_work(self, command, tmp_path, capsys, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work began")

        for name in ("conjecture_scan", "detect_limit", "fixed_point_set", "validate_params",
                     "classify_lambda1", "conjugacy_map", "build_tensor", "equilibrium_curves"):
            monkeypatch.setattr(cli, name, no_work)
        out = tmp_path / "missing" / "report"
        argv = [command, *self.ARGS.get(command, ["--figure", "1"]), "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_named_pipe_out_gets_the_whole_report(self, tmp_path):
        # the check must not open and close the pipe, which would end the
        # stream for its reader before the report is written
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        proc = subprocess.run(
            [sys.executable, "-m", "sisi.cli", "scan", "--conjecture", "1", "--inits", "1",
             "--out", str(fifo)],
            capture_output=True, timeout=30,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert proc.returncode == 0
        assert got[0].count(b"\n") == 1 + 5 ** 6

    def test_out_is_left_alone_until_the_report(self, tmp_path):
        out = tmp_path / "scan.jsonl"
        assert main(["scan", "--conjecture", "1", "--inits", "0", "--out", str(out)]) == 2
        assert not out.exists()
        out.write_text("kept\n")
        assert main(["scan", "--conjecture", "1", "--inits", "0", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"


# A value its key cannot take: (subcommand, key=value, the error it prints)
BAD_VALUES = [
    ("validate", "b=abc", "b: could not convert string to float: 'abc'"),
    ("conjugacy", "grid=2.5", "grid: invalid literal for int() with base 10: '2.5'"),
    ("simulate", "init=0.5,0.5", "init: needs four comma-separated coordinates"),
    ("simulate", "tol_fix=small", "tol_fix: could not convert string to float: 'small'"),
    ("scan", "seed=x", "seed: invalid literal for int() with base 10: 'x'"),
]


class TestInputKeys:
    @pytest.mark.parametrize("source", ["config", "params"])
    @pytest.mark.parametrize("argv,pair", [
        (["validate"], "beta_1=0.5"),
        (["simulate", "--init", "0.1,0.01,0.2,0.69"], "max_itr=4"),
        (["validate"], "seed=3"),
        (["fixpoints"], "max_iter=5"),
        (["conjugacy"], "init=1,0,0,0"),
    ], ids=lambda v: v[0] if isinstance(v, list) else v.split("=")[0])
    def test_unread_key_is_named(self, argv, pair, source, tmp_path, capsys):
        # a typo'd rate key must not leave the rate at its default 0
        rates = ["b=0.6", "alpha=0.2", "k1=1", "k2=0.3"]
        if argv == ["conjugacy"]:
            rates = ["b=0.2", "beta1=0.6", "k1=1"]  # the no-recovery edge
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("\n".join([*rates, pair]) + "\n")
            argv = [*argv, "--config", str(cfg)]
        else:
            argv = [*argv, "--params", *rates, pair]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert pair.split("=")[0] in captured.err

    @pytest.mark.parametrize("command,extra,named", [
        ("simulate", ["--params", "alpha=0.3"], "alpha"),
        ("simulate", ["--init", "0.3,0.2,0.4,0.1"], "init"),
        ("classify", ["--config", "{cfg}"], "k2, init"),
        ("fixpoints", ["--params", "beta1=0.4"], "beta1"),
        ("simulate", ["--config", "{cfg}", "--params", "beta1=0.4"], "k2, init, beta1"),
    ], ids=["params", "init", "config", "fixpoints", "config+params"])
    def test_figure_fixes_rates_and_init(self, command, extra, named, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k2=0.5\ninit=0.3,0.2,0.4,0.1\n")
        argv = [command, "--figure", "1", *(a.format(cfg=cfg) for a in extra)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err


    @pytest.mark.parametrize("command,pair,message,source", [
        pytest.param(command, pair, message, source,
                     id=f"{command}-{pair.split('=')[0]}-{source}")
        for command, pair, message in BAD_VALUES
        for source in ("config", "params", "flag")
        # scan reads no rates, and a rate has no flag of its own
        if not (source == "params" and command == "scan")
        and not (source == "flag" and pair.startswith("b="))
    ])
    def test_bad_value_is_named_by_its_key(self, command, pair, message, source,
                                           tmp_path, capsys):
        # unnamed, the error was Python's conversion message alone, and a
        # flag's was argparse's usage error
        rates = {"scan": [], "conjugacy": ["beta1=0.6", "k1=1"]}.get(
            command, ["alpha=0.2", "beta1=0.5", "k1=1", "k2=0.3"])
        argv = [command, "--conjecture", "1"] if command == "scan" else [command]
        key, value = pair.split("=", 1)
        if source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text("\n".join([*rates, pair]) + "\n")
            argv += ["--config", str(cfg)]
        elif source == "params":
            argv += ["--params", *rates, pair]
        else:
            argv += [*(["--params", *rates] if rates else []),
                     "--" + key.replace("_", "-"), value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("command", [c for c in _READS if "params" in _READS[c]])
    def test_bad_rate_is_one_error_line(self, command, out, tmp_path, capsys):
        # every subcommand that reads the rates refuses a bad one the same
        # way, before any report or --out file exists
        target = tmp_path / "report.txt"
        argv = [command, "--params", "b=-0.1", *(["--out", str(target)] if out else [])]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: rate(s) must be finite and >= 0: b=-0.1\n")
        assert not target.exists()

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("command", ["fixpoints", "simulate"])
    def test_failed_self_check_is_one_error_line(self, command, out, tmp_path, capsys):
        # at these rates the interior root fails its balance check; that
        # ArithmeticError ended in a traceback and exit 1
        target = tmp_path / "report.txt"
        argv = [command, "--params", "b=1e-160", "alpha=0.5", "beta1=0.5", "beta2=1e-160",
                "k1=0.5", "k2=2"]
        if command == "simulate":
            argv += ["--init", "0.25,0.25,0.25,0.25"]
        if out:
            argv += ["--out", str(target)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: balance gap keeps its sign within 1e-12 "
                                           "of quadratic root 1.0009843790851698\n")
        assert not target.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("command", ["validate", "scan"])
    def test_unreadable_config_is_bad_input(self, command, kind, tmp_path, capsys):
        # unread, the OSError ended in a traceback and exit 1
        path = tmp_path / "no.cfg" if kind == "missing" else tmp_path
        reason = os.strerror(errno.ENOENT if kind == "missing" else errno.EISDIR)
        argv = [command, "--config", str(path)]
        if command == "scan":
            argv += ["--conjecture", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read {path}: {reason}\n"


class TestReportBytes:
    # stdout sha256 and exit code of reports whose digits do not depend on
    # the LAPACK build (classify's generic rows do, so it is left out)
    RUN_CFG = "b=0.6\nalpha=0.2\nbeta1=0.5\nk1=1\nk2=0.3\ninit=0.1,0.01,0.2,0.69\nmax_iter=500\n"

    @pytest.mark.parametrize("case", [
        (["simulate", "--figure", "1"], 0,
         "14c096fb582679dfc83c95f206c42e0585d8f8b21244fdf5ecc0eb98e838a3e5"),
        (["simulate", "--figure", "2"], 0,
         "374bc8409902cf3f00fc9bebbd7b6800ca48676a414e9d672fdcd728ecf9de8b"),
        (["simulate", "--figure", "3"], 0,
         "e88076264c7078e0687aae34fc240cbe9c5bb72f07700074adad01bd7abadabf"),
        (["simulate", "--figure", "4"], 0,
         "68bdfd4a1b99ab90a88e36990dada7a2d5917b2338edd8a8dc9058ef95fb90db"),
        (["simulate", "--figure", "5"], 0,
         "2b30218b60cab464b32c5a147497b44a23cc6325dfc927d481c0b6fcf8dc81e2"),
        (["simulate", "--figure", "6"], 0,
         "bd817f375e9e7b532200b4129a17dffa173b317023d9f2cd65c605a75c17b1ae"),
        (["simulate", "--figure", "2", "--max-iter", "3"], 3,
         "537d36c2c2cd69a7395b33f58dfa9e279f91f6b66672361ae00e37d27f5e8ca7"),
        (["simulate", "--config", "{cfg}"], 0,
         "6cf1357685ec8d063db383ad4625badae852deb7f2f9ff2ce86009ef9a027220"),
        (["simulate", "--config", "{cfg}", "--max-iter", "7"], 3,
         "9556a08ba6fde1ffdd8f1859a5b32ae4778de6e3b71c750fdc03d194d1422e84"),
        (["fixpoints", "--figure", "4"], 0,
         "99a7f7e4c6abc1f3df5f380b41f9dd50cee210f10c349b59282114539368fed4"),
        (["fixpoints", "--figure", "2"], 0,
         "050e4db665e9598a944764aad0f0cb8d85c8da7584f3b356f3057a9fab6d6f4a"),
        (["fixpoints", "--params", "b=0.2", "alpha=0", "beta1=0.6", "beta2=0.1", "k1=1",
          "k2=0.5"], 0,
         "a18d7b4629848e2e63aa76b3608404248ed96d01652ea217902a84021f10ca0c"),
        (["fixpoints", "--params", "b=0", "alpha=0", "beta1=0.5", "beta2=0.5", "k1=1",
          "k2=1"], 0,
         "13380e655bf4d1eff6ba9b3c0ee756a32434a699ef186d9a738fe080662c70f7"),
        (["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1"], 0,
         "9d404f1d16f8290921da99b6dbd077c78ea698cc6f8b8fa34482e7904f00f784"),
        (["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1", "--grid", "1"], 0,
         "0753b20d8071e00499f9901e6d36ff86f61dd339234436f968c49e82e0083bde"),
        (["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1", "--grid", "2"], 0,
         "6bb491ed566fbcbf2e1d62fa59c9d1c8b7de8fc235e8d770fc1334cba7ac6f91"),
        (["conjugacy", "--params", "b=0.2", "beta1=0.6", "k1=1", "--grid", "77",
          "--root", "interior"], 0,
         "eb1a2ff85cfbaf7b18d1992c33f382cd3eab08c48786bf9bcd68859238dc264c"),
        (["tensor-dump", *FIG1_ARGS], 0,
         "394c057d726f0798901e3c6b8400c7ab231c14fee7058311253ca15c27a0d14c"),
        (["validate", *FIG1_ARGS], 0,
         "d549baec4f336c7359e213fc4b93c3da2e40575aedf24b659885d2c0368a38fc"),
        (["validate", "--params", "b=0.9", "alpha=0.5"], 1,
         "491476dede7c7361330dbf42b89dc336ad9daf93eae2524547d6c442c30d682e"),
    ], ids=lambda case: " ".join(case[0]))
    def test_report_bytes_pinned(self, case, tmp_path, capsys):
        argv, code, digest = case
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.RUN_CFG)
        argv = [a.format(cfg=cfg) for a in argv]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # the same bytes through --out, and nothing on stdout
        report = tmp_path / "report.out"
        assert main([*argv, "--out", str(report)]) == code
        assert capsys.readouterr().out == ""
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
