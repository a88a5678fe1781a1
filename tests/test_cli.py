"""End-to-end command-line tests (in-process via main)."""

import json

import pytest

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

    def test_bad_strategy_exit_code(self):
        assert run_cli("run", "--n", "50", "--strategy", "nope") == 2

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

    def test_domain_error_exit(self):
        assert run_cli("theory", "--n", "2", "--d", "2") == 2


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

    def test_randomized_strategy_rejected(self):
        assert run_cli("oracle", "--n", "2", "--d", "2", "--m", "2",
                       "--strategy", "beta-thinning:beta=0.5,cap=0") == 2
