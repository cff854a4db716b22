"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.dataset.csv_io import read_csv, write_csv


@pytest.fixture
def workspace(tmp_path, figure1_dataset):
    input_csv = tmp_path / "dirty.csv"
    write_csv(figure1_dataset, input_csv)
    dcs = tmp_path / "constraints.txt"
    dcs.write_text(
        "# Figure 1 constraints\n"
        "t1&t2&EQ(t1.DBAName,t2.DBAName)&IQ(t1.Zip,t2.Zip)\n"
        "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)\n"
        "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.State,t2.State)\n")
    return tmp_path, input_csv, dcs


class TestCli:
    def test_end_to_end_repair(self, workspace):
        tmp_path, input_csv, dcs = workspace
        output = tmp_path / "repaired.csv"
        report = tmp_path / "repairs.txt"
        code = main(["--input", str(input_csv), "--output", str(output),
                     "--constraints", str(dcs), "--tau", "0.3",
                     "--epochs", "30", "--seed", "1",
                     "--report", str(report)])
        assert code == 0
        repaired = read_csv(output)
        assert repaired.value(0, "Zip") == "60608"
        assert "t0.Zip" in report.read_text()

    def test_fd_flag(self, workspace):
        tmp_path, input_csv, _ = workspace
        output = tmp_path / "repaired.csv"
        code = main(["--input", str(input_csv), "--output", str(output),
                     "--fd", "Zip -> City,State", "--fd", "DBAName -> Zip",
                     "--tau", "0.3", "--epochs", "30", "--seed", "1",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
        assert read_csv(output).value(0, "Zip") == "60608"

    def test_engine_flag_is_gone(self, workspace, capsys):
        tmp_path, input_csv, dcs = workspace
        with pytest.raises(SystemExit) as exit_info:
            main(["--input", str(input_csv), "--constraints", str(dcs),
                  "--output", str(tmp_path / "out.csv"), "--engine", "numpy"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_no_constraints_is_an_error(self, workspace, capsys):
        tmp_path, input_csv, _ = workspace
        code = main(["--input", str(input_csv),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "no constraints" in capsys.readouterr().err

    def test_min_confidence_floor(self, workspace):
        tmp_path, input_csv, dcs = workspace
        output = tmp_path / "repaired.csv"
        code = main(["--input", str(input_csv), "--output", str(output),
                     "--constraints", str(dcs), "--tau", "0.3",
                     "--epochs", "30", "--seed", "1",
                     "--min-confidence", "1.1",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
        # Nothing clears an impossible confidence bar: output == input.
        assert read_csv(output) == read_csv(input_csv)

    def test_discover_fds_flag(self, workspace, capsys):
        tmp_path, input_csv, _ = workspace
        output = tmp_path / "repaired.csv"
        code = main(["--input", str(input_csv), "--output", str(output),
                     "--discover-fds", "--discover-confidence", "0.85",
                     "--tau", "0.3", "--epochs", "20", "--seed", "1",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
        assert "discovered:" in capsys.readouterr().err

    def test_variant_flag(self, workspace):
        tmp_path, input_csv, dcs = workspace
        output = tmp_path / "repaired.csv"
        code = main(["--input", str(input_csv), "--output", str(output),
                     "--constraints", str(dcs), "--variant",
                     "dc-feats+dc-factors", "--tau", "0.3",
                     "--epochs", "10", "--seed", "1",
                     "--report", str(tmp_path / "r.txt")])
        assert code == 0
