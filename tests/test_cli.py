"""End-to-end command-line tests (in-process via main)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinlab import experiments
from thinlab.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestRunCommand:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--n", "200", "--d", "2", "--rho", "1",
                       "--strategy", "threshold", "--trials", "5",
                       "--seed", "9", "--out", str(out))
        assert code == 0
        lines = out.read_text().split("\n")
        assert lines[0].startswith("n,d,rho,m,strategy,")
        assert lines[1].startswith("200,2,1,200,threshold,5,9,")

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ("run", "--n", "300", "--d", "2", "--rho", "1.5",
                "--strategy", "threshold", "--trials", "4", "--seed", "7")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json", "plotdata"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_stdout_when_no_out(self, capsys, tmp_path, command, fmt):
        size = ("--n", "50") if command == "run" else ("--n-grid", "50,80")
        args = (command, *size, "--d", "2", "--trials", "2", "--seed", "1",
                "--format", fmt)
        out = tmp_path / "out"
        assert run_cli(*args, "--out", str(out)) == 0
        capsys.readouterr()
        assert run_cli(*args) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "run.json"
        assert run_cli("run", "--n", "50", "--d", "2", "--trials", "2",
                       "--seed", "1", "--format", "json", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["n"] == 50
        assert payload[0]["runtime_ms"] == 0.0

    def test_config_file_with_cli_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 60, "d": 2, "rho": "1",
                                      "strategy": "always-accept",
                                      "trials": 3, "seed": 2}))
        assert run_cli("run", "--config", str(config), "--trials", "5") == 0
        row = capsys.readouterr().out.split("\n")[1].split(",")
        assert row[0] == "60"
        assert row[4] == "always-accept"
        assert row[5] == "5"  # CLI trials wins over the file's 3

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        assert run_cli("run", "--config", str(config)) == 2

    @pytest.mark.parametrize("command,values,message", [
        ("sweep", {"n_grid": "100,1000"}, "'n_grid' in {} must be a list of integers"),
        ("run", {"n": "100"}, "'n' in {} must be an integer"),
        ("run", {"n": 50, "trials": 2.5}, "'trials' in {} must be an integer"),
        ("run", {"n": True}, "'n' in {} must be an integer"),
        ("sweep", {"n_grid": [100, 1000.5]}, "'n_grid' in {} must be a list of integers"),
        ("run", [50, 2], "config file {} must hold a JSON object"),
        ("run", {"n": 50, "out": 1}, "'out' in {} must be a string"),
        ("run", {"n": 50, "format": ["csv"]}, "'format' in {} must be a string"),
    ], ids=["grid-string", "n-string", "trials-float", "n-bool", "grid-float", "list",
            "out-int", "format-list"])
    def test_config_value_types(self, tmp_path, capsys, command, values, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(values))
        assert run_cli(command, "--config", str(config)) == 2
        err = capsys.readouterr().err
        assert err.startswith("thinlab: error: ")
        assert message.format(config) in err

    def test_bad_strategy_exit_code(self):
        assert run_cli("run", "--n", "50", "--strategy", "nope") == 2

    @pytest.mark.parametrize("spec", ["beta-thinning:beta=0.5,cap=1.5", "threshold:ell=abc",
                                      "threshold-scaled:c=x", "beta-thinning:beta="])
    def test_unconvertible_strategy_argument_message(self, capsys, spec):
        assert run_cli("run", "--n", "50", "--strategy", spec) == 2
        assert f"of strategy {spec!r} must be" in capsys.readouterr().err

    def test_malformed_config_file_message(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("{n: 50}")
        assert run_cli("run", "--config", str(config)) == 2
        assert f"config file {config} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command,size", [("run", "--n"), ("sweep", "--n-grid")],
                             ids=["run", "sweep"])
    def test_zero_depth_message(self, capsys, command, size):
        assert run_cli(command, size, "10", "--d", "0") == 2
        assert "thinning depth must be >= 1, got 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command,size,seed", [("run", "--n", "-1"),
                                                   ("sweep", "--n-grid", "-5")],
                             ids=["run", "sweep"])
    def test_negative_seed_message(self, tmp_path, capsys, command, size, seed):
        out = tmp_path / "out.csv"
        assert run_cli(command, size, "100", "--d", "2", "--seed", seed, "--trials", "2",
                       "--out", str(out)) == 2
        assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,size", [("run", "--n"), ("sweep", "--n-grid")],
                             ids=["run", "sweep"])
    def test_ball_count_past_int64_message(self, capsys, command, size):
        assert run_cli(command, size, "10", "--rho", "1e400") == 2
        assert capsys.readouterr().err == (
            f"thinlab: error: ball count must be at most 2**63 - 1, got {10**401}\n")

    def test_underflowing_rho_refused_before_any_trial(self, capsys, monkeypatch):
        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(experiments, "run_trial", no_trial)
        assert run_cli("run", "--n", "10", "--rho", "1e-400") == 2
        assert capsys.readouterr().err == ("thinlab: error: rho must be a positive number "
                                           "within a float's range, got '1e-400'\n")

    def test_negative_seed_in_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n": 100, "seed": -1, "trials": 2}))
        assert run_cli("run", "--config", str(config)) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["threshold:ell=inf", "threshold:ell=nan",
                                      "threshold-scaled:c=inf"])
    def test_non_finite_threshold_message(self, capsys, spec):
        assert run_cli("run", "--n", "100", "--d", "2", "--strategy", spec,
                       "--trials", "2") == 2
        assert "threshold parameter must be positive and finite" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path):
        out = tmp_path / "no-such-dir" / "run.csv"
        assert run_cli("run", "--n", "50", "--trials", "1",
                       "--out", str(out)) == 3

    def test_timing_flag_writes_real_runtime(self, tmp_path):
        stable = tmp_path / "stable.csv"
        timed = tmp_path / "timed.csv"
        args = ("run", "--n", "100", "--d", "2", "--trials", "3", "--seed", "4")
        assert run_cli(*args, "--out", str(stable)) == 0
        assert run_cli(*args, "--timing", "--out", str(timed)) == 0
        assert stable.read_text().strip().split("\n")[1].endswith(",0.0")
        runtime = float(timed.read_text().strip().split("\n")[1].rsplit(",", 1)[1])
        assert runtime > 0.0


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--n-grid", "100,200", "--d", "2",
                       "--trials", "2", "--seed", "3", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "100"
        assert lines[2].split(",")[0] == "200"

    def test_plotdata_format(self, tmp_path):
        out = tmp_path / "sweep.dat"
        assert run_cli("sweep", "--n-grid", "100,200", "--d", "2",
                       "--trials", "2", "--seed", "3", "--format", "plotdata",
                       "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 3

    def test_missing_grid_rejected(self):
        assert run_cli("sweep", "--d", "2", "--trials", "1") == 2

    def test_malformed_grid_message(self, capsys):
        assert run_cli("sweep", "--n-grid", "10,abc", "--d", "2") == 2
        assert "--n-grid must list integers, got '10,abc'" in capsys.readouterr().err


class TestTheoryCommand:
    def test_csv_row(self, capsys):
        assert run_cli("theory", "--n", "1000000", "--d", "2", "--rho", "1",
                       "--eps", "0.5", "--format", "csv") == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["ell"]) == pytest.approx(3.243906396180841, rel=1e-12)
        assert cols["cap"] == "3"
        assert float(cols["beta_2"]) == pytest.approx(243352.91184789807, rel=1e-12)

    def test_tail_rows_are_rates(self, capsys):
        assert run_cli("theory", "--n", "1000000", "--d", "3", "--eps", "0.75",
                       "--format", "csv") == 0
        header = capsys.readouterr().out.split("\n")[0].split(",")
        assert header[:11] == ["n", "d", "rho", "ell", "cap", "d_ell", "eps",
                               "upper_load", "lower_load", "upper_tail_rate",
                               "lower_tail_rate"]
        assert header[11:] == ["beta_1", "beta_2", "beta_3"]

    def test_text_table(self, capsys):
        assert run_cli("theory", "--n", "1000000", "--d", "3") == 0
        out = capsys.readouterr().out
        assert "ell" in out and "beta_3" in out

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_message(self, capsys, eps):
        assert run_cli("theory", "--n", "100", "--d", "2", "--eps", eps) == 2
        captured = capsys.readouterr()
        assert captured.err == f"thinlab: error: eps must be finite and >= 0, got {eps}\n"
        assert captured.out == ""

    def test_domain_error_exit(self):
        assert run_cli("theory", "--n", "2", "--d", "2") == 2

    def test_n_past_the_largest_float_message(self, capsys):
        assert run_cli("theory", "--n", str(10**400), "--d", "2") == 2
        captured = capsys.readouterr()
        assert captured.err == (f"thinlab: error: n must be at most the largest float, "
                                f"got {10**400}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("rho", ["1e400", "1e-400"])
    def test_rho_outside_float_range_message(self, capsys, rho):
        assert run_cli("theory", "--n", "100", "--d", "2", "--rho", rho) == 2
        captured = capsys.readouterr()
        assert captured.err == ("thinlab: error: rho must be a positive number within "
                                f"a float's range, got {rho!r}\n")
        assert captured.out == ""

    def test_beta_sequence_past_the_largest_float_message(self, capsys):
        assert run_cli("theory", "--n", "100", "--d", "3", "--rho", "1e300") == 2
        captured = capsys.readouterr()
        assert captured.err == ("thinlab: error: the beta sequence passes the largest "
                                "float at n=100, d=3, rho=1e+300\n")
        assert captured.out == ""

    def test_huge_eps_gives_zero_tail_rates(self, capsys):
        assert run_cli("theory", "--n", "100", "--d", "2", "--eps", "1000",
                       "--format", "csv") == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["upper_tail_rate"] == cols["lower_tail_rate"] == "0.0"

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(3, 10**400), d=st.integers(1, 12), eps=st.floats(0, 1e308),
           rho=st.builds("{}e{}".format, st.integers(1, 9), st.integers(-400, 399)))
    def test_any_float_range_input_exits_cleanly(self, n, d, eps, rho):
        assert run_cli("theory", "--n", str(n), "--d", str(d), "--eps", repr(eps),
                       "--rho", rho) in (0, 2)

    def test_fraction_rho(self, capsys):
        assert run_cli("theory", "--n", "1000", "--d", "2", "--rho", "1/2",
                       "--format", "csv") == 0
        header, row = capsys.readouterr().out.strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["rho"] == "1/2"
        assert float(cols["beta_1"]) == 500.0

    @pytest.mark.parametrize("rho", ["nan", "inf", "0", "-1"])
    def test_rho_refused_as_run_refuses_it(self, capsys, rho):
        assert run_cli("theory", "--n", "1000", "--d", "2", "--rho", rho) == 2
        theory_err = capsys.readouterr().err
        assert run_cli("run", "--n", "10", "--d", "2", "--rho", rho) == 2
        assert theory_err == capsys.readouterr().err
        assert theory_err.startswith("thinlab: error: rho must be")


class TestOracleCommand:
    def test_mass_function_csv(self, capsys):
        assert run_cli("oracle", "--n", "2", "--d", "2", "--m", "2",
                       "--strategy", "threshold:ell=0.5") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "maxload,probability"
        assert lines[1] == "1,0.75"
        assert lines[2] == "2,0.25"

    def test_budget_flag(self):
        assert run_cli("oracle", "--n", "3", "--d", "2", "--m", "3",
                       "--strategy", "threshold:ell=0.5",
                       "--node-budget", "10") == 2

    def test_node_budget_below_one_message(self, capsys):
        assert run_cli("oracle", "--n", "2", "--d", "2", "--m", "2",
                       "--strategy", "threshold:ell=0.5", "--node-budget", "-1") == 2
        assert capsys.readouterr().err == "thinlab: error: node budget must be >= 1, got -1\n"

    def test_randomized_strategy_rejected(self):
        assert run_cli("oracle", "--n", "2", "--d", "2", "--m", "2",
                       "--strategy", "beta-thinning:beta=0.5,cap=0") == 2

    def test_negative_ball_count_rejected(self, capsys):
        assert run_cli("oracle", "--n", "2", "--d", "2", "--m", "-1",
                       "--strategy", "threshold:ell=0.5") == 2
        assert "ball count must be >= 0" in capsys.readouterr().err
