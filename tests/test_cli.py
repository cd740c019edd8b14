"""Command-line interface: run and bounds subcommands."""

import dataclasses

import numpy as np
import pytest

from quantmc.bounds import BoundInputs
from quantmc.cli import build_parser, main
from quantmc.harness import CSV_COLUMNS

RUN_CFG = """
scenario = quantized
n1 = 6
n2 = 6
r = 1
alpha = 1.0
delta = 0.5
K = 4
dither_kind = uniform
m_prime = 18
trials = 2
base_seed = 1
"""

RATE_CFG = """
scenario = rate_sweep
n1 = 8
n2 = 8
r = 1
alpha = 1.0
delta = 0.5
K = 4
dither_kind = uniform
m_prime_grid = 12,20,32,48
trials = 3
base_seed = 2
max_iters = 2000
tol_rel_change = 1e-5
"""


class TestRunCommand:
    def test_writes_report_and_prints_summary(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG)
        out = tmp_path / "report.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "median_err_fro" in stdout and str(out) in stdout
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len([ln for ln in lines[1:] if ln and not ln.startswith("#")]) == 2

    def test_trials_and_seed_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_CFG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        main(["run", str(cfg), "--out", str(out_a), "--trials", "4"])
        main(["run", str(cfg), "--out", str(out_b), "--trials", "4", "--seed", "99"])
        rows_a = [ln for ln in out_a.read_text().splitlines()[1:] if ln and not ln.startswith("#")]
        rows_b = [ln for ln in out_b.read_text().splitlines()[1:] if ln and not ln.startswith("#")]
        assert len(rows_a) == 4 == len(rows_b)
        assert rows_a != rows_b  # different base seed, different trials


class TestRateCommand:
    """A sample-count sweep runs through ``run``; there is no ``rate`` command."""

    def test_prints_slope(self, tmp_path, capsys):
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(RATE_CFG)
        out = tmp_path / "rate.csv"
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "rate_slope = " in stdout and "rate_half_width = " in stdout
        assert "# rate_slope = " in out.read_text()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["rate", str(cfg)])


class TestBoundsCommand:
    def test_prints_value_and_exponent(self, capsys):
        code = main(
            [
                "bounds", "--formula", "quantized", "--n1", "10", "--n2", "10",
                "--r", "2", "--alpha", "1.0", "--K", "4", "--delta", "0.5",
                "--epsilon", "0.05", "--m-prime", "500",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        value = float(stdout.split("value = ")[1].splitlines()[0])
        assert value == pytest.approx(2 * np.sqrt(200 * 1.05), rel=1e-12)
        assert "failure_probability_exponent = " in stdout

    def test_csv_export_appends(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        args = [
            "bounds", "--formula", "uniform", "--n1", "10", "--n2", "10",
            "--r", "1", "--alpha", "1.0", "--epsilon", "0.01", "--out", str(out),
        ]
        main(args)
        main(args)
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines[0].startswith("formula_id,")
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_csv_export_refuses_another_header(self, tmp_path, capsys):
        # a file written while BoundInputs still had the c and C1 constants
        names = [f.name for f in dataclasses.fields(BoundInputs)]
        old = names[: names.index("C") + 1] + ["c", "D1", "C1"]
        out = tmp_path / "bounds.csv"
        text = "formula_id," + ",".join(old) + ",value,exponent,flags\n" + "uniform," + "1," * 18 + "4.0,0.0,\n"
        out.write_text(text)
        args = [
            "bounds", "--formula", "uniform", "--n1", "10", "--n2", "10",
            "--r", "1", "--alpha", "1.0", "--epsilon", "0.01", "--out", str(out),
        ]
        assert main(args) != 0
        assert "header" in capsys.readouterr().err
        assert out.read_text() == text

    def test_flagged_output(self, capsys):
        main(
            [
                "bounds", "--formula", "statistics_only", "--n1", "10", "--n2", "10",
                "--r", "1", "--alpha", "1.0", "--delta", "1.0",
            ]
        )
        assert "hypothesis_violated" in capsys.readouterr().out

    def test_csv_header_lists_every_input_field(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        main(
            [
                "bounds", "--formula", "quantized", "--n1", "4", "--n2", "4",
                "--r", "1", "--alpha", "1.0", "--out", str(out),
            ]
        )
        capsys.readouterr()
        names = [f.name for f in dataclasses.fields(BoundInputs)]
        header, row = out.read_text().splitlines()
        assert header == "formula_id," + ",".join(names) + ",value,exponent,flags"
        assert len(row.split(",")) == len(header.split(","))

    def test_every_input_field_has_a_flag_with_its_default(self):
        required = ["--formula", "quantized", "--n1", "4", "--n2", "5", "--r", "1", "--alpha", "1.0"]
        args = build_parser().parse_args(["bounds", *required])
        for f in dataclasses.fields(BoundInputs):
            if f.default is dataclasses.MISSING:
                assert f.name in ("n1", "n2", "r", "alpha")
            else:
                assert getattr(args, f.name) == f.default and type(getattr(args, f.name)) is type(f.default), f.name
            flag = "--" + f.name.replace("_", "-")
            value = "2" if f.type == "int" else "0.5"
            parsed = build_parser().parse_args(["bounds", *required, flag, value])
            assert getattr(parsed, f.name) == (2 if f.type == "int" else 0.5), f.name
        for flag in ("--n1", "--n2", "--r", "--alpha"):
            i = required.index(flag)
            with pytest.raises(SystemExit):
                build_parser().parse_args(["bounds", *required[:i], *required[i + 2:]])
