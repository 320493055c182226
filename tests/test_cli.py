"""Tests for the command-line interface."""

import dataclasses
import json

import numpy as np
import pytest

from mrc_dof_lab import __version__
from mrc_dof_lab.channel import load_channels
from mrc_dof_lab.cli import EXIT_BAD_ARGS, EXIT_OK, EXIT_VERIFY_FAILED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundsCommand:
    def test_basic_row(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == f"# mrc-dof-lab v{__version__}"
        assert lines[1] == "K,M,N,case_index,private_only,cutset,gain"
        assert lines[2] == "3,2,3,5,6,6,0"

    def test_case1_gain(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "4", "--m", "3", "--n", "2")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "4,3,2,1,4,8,4"

    def test_k2_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "2", "--m", "1", "--n", "1")
        assert code == EXIT_BAD_ARGS
        assert "K >= 3" in err

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3",
                           "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["cutset"] == 6 and doc["case_index"] == 5

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "3", "--m", "2")
        assert code == EXIT_BAD_ARGS


class TestVerifyCommand:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "10", "--seed", "7",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        row = lines[2].split(",")
        assert row[:7] == ["3", "3", "2", "1", "1", "6", "6"]

    def test_nan_round_fails(self, capsys, monkeypatch):
        from mrc_dof_lab import ssa_nc

        real = ssa_nc.run_round

        def nan_round(*args, **kwargs):
            trace = real(*args, **kwargs)
            return dataclasses.replace(trace, decoded=np.full_like(trace.decoded, np.nan))

        monkeypatch.setattr(ssa_nc, "run_round", nan_round)
        code, out, err = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2", "--trials", "2",
        )
        assert code == EXIT_VERIFY_FAILED
        assert out.strip().splitlines()[2].split(",")[10] == "nan"
        assert "max_err=nan" in err

    def test_extension_case_reported(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "3", "--m", "4", "--n", "3",
            "--trials", "5", "--seed", "7",
        )
        assert code == EXIT_OK
        row = out.strip().splitlines()[2].split(",")
        assert row[3] == "2" and row[4] == "3" and row[5] == "9"

    def test_deterministic_output_file(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        for path in (out1, out2):
            code, _, _ = run(
                capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
                "--trials", "5", "--seed", "11", "--out", str(path),
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_dump_and_load_channels(self, tmp_path, capsys):
        dump = tmp_path / "channels.json"
        code, _, _ = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "3", "--seed", "5", "--dump-channels", str(dump),
        )
        assert code == EXIT_OK
        cs = load_channels(str(dump))
        assert cs.num_users == 3 and cs.relay_dim == 2
        code, out, _ = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "3", "--seed", "5", "--load-channels", str(dump),
        )
        assert code == EXIT_OK

    def test_load_channels_dimension_mismatch(self, tmp_path, capsys):
        dump = tmp_path / "channels.json"
        run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "2", "--seed", "5", "--dump-channels", str(dump),
        )
        code, _, err = run(
            capsys, "verify", "--k", "4", "--m", "3", "--n", "2",
            "--trials", "2", "--load-channels", str(dump),
        )
        assert code == EXIT_BAD_ARGS

    def test_dump_plan(self, tmp_path, capsys):
        dump = tmp_path / "plan.json"
        code, _, _ = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "2", "--seed", "5", "--dump-plan", str(dump),
        )
        assert code == EXIT_OK
        doc = json.loads(dump.read_text())
        assert doc["d"] == 1 and len(doc["V1"]) == 2


class TestSimulateCommand:
    def test_full_report(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "5", "--seed", "3", "--p-grid", "1e2,1e3,1e4,1e5,1e6",
            "--format", "json",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["streams"] == 6
        assert 5.0 < doc["slope"] < 6.5

    @pytest.mark.parametrize("grid", ["1e2,nan,1e6", "1e2,1e4,inf"], ids=["nan", "inf"])
    def test_non_finite_grid_is_bad_args(self, capsys, grid):
        code, out, err = run(
            capsys, "simulate", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "3", "--p-grid", grid,
        )
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert "powers must be finite" in err


class TestSweepCommand:
    def test_product_rows_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for path in (out1, out2):
            code, _, _ = run(
                capsys, "sweep", "--k", "3,4", "--m", "2,3", "--n", "2,3",
                "--trials", "2", "--seed", "9", "--out", str(path),
            )
            assert code == EXIT_OK
        text = out1.read_text()
        lines = text.strip().splitlines()
        assert lines[1].endswith(",error")
        assert len(lines) == 2 + 8  # comment, header, 2*2*2 rows
        assert out1.read_bytes() == out2.read_bytes()

    def test_streams_match_cutset_across_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(
            capsys, "sweep", "--k", "3", "--m", "2,3", "--n", "2,3",
            "--trials", "3", "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        for line in path.read_text().strip().splitlines()[2:]:
            cells = line.split(",")
            assert cells[5] == cells[6]  # streams == cutset
            assert cells[13] == ""  # no error

    def test_row_order_sorted(self, tmp_path, capsys):
        path = tmp_path / "order.csv"
        run(
            capsys, "sweep", "--k", "4,3", "--m", "3,2", "--n", "2",
            "--trials", "1", "--seed", "1", "--out", str(path),
        )
        rows = [tuple(map(int, line.split(",")[:3]))
                for line in path.read_text().strip().splitlines()[2:]]
        assert rows == sorted(rows)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--trials", "0"], "--trials must be positive"),
            (["--trials", "2", "--p-grid", "1,2"], "at least 3 points"),
        ],
        ids=["zero-trials", "short-grid"],
    )
    def test_run_wide_argument_error_fails_once(self, tmp_path, capsys, flags, message):
        path = tmp_path / "bad.csv"
        code, _, err = run(
            capsys, "sweep", "--k", "3,4", "--m", "2,3", "--n", "2",
            "--out", str(path), *flags,
        )
        assert code == EXIT_BAD_ARGS
        assert message in err
        assert not path.exists()


    def test_design_error_becomes_error_cell(self, tmp_path, capsys, monkeypatch):
        from mrc_dof_lab.ssa_nc import SchemeDesignError

        def fail(*args, **kwargs):
            raise SchemeDesignError("trial 0 (seed 1): aligned subspaces, rank deficient")

        monkeypatch.setattr("mrc_dof_lab.analysis.verify_noiseless", fail)
        path = tmp_path / "fail.csv"
        code, _, _ = run(
            capsys, "sweep", "--k", "3", "--m", "2", "--n", "2",
            "--trials", "1", "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        cells = path.read_text().strip().splitlines()[2].split(",")
        assert cells[:3] == ["3", "2", "2"]
        assert cells[13] == (
            "SchemeDesignError: trial 0 (seed 1): aligned subspaces; rank deficient"
        )

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("bug in the chain")

        monkeypatch.setattr("mrc_dof_lab.analysis.verify_noiseless", bug)
        with pytest.raises(TypeError, match="bug in the chain"):
            main([
                "sweep", "--k", "3", "--m", "2", "--n", "2",
                "--trials", "1", "--out", str(tmp_path / "bug.csv"),
            ])


class TestTable1Command:
    def test_k3_m2_gain_column(self, capsys):
        code, out, _ = run(capsys, "table1", "--k", "3", "--m", "2", "--nmax", "4")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [r[6] for r in rows] == ["1", "2", "0", "0"]

    def test_k6_m1_case1_gain(self, capsys):
        code, out, _ = run(capsys, "table1", "--k", "6", "--m", "1", "--nmax", "1")
        assert code == EXIT_OK
        row = out.strip().splitlines()[-1].split(",")
        assert row[6] == "4"

    def test_case4_rows_flagged(self, capsys):
        code, out, _ = run(capsys, "table1", "--k", "4", "--m", "7", "--nmax", "17")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert any(line.startswith("# case4-note") for line in lines)
        case4 = [line for line in lines if not line.startswith("#")
                 and line.split(",")[3] == "4"]
        assert case4 and all(line.endswith("case4-reading") for line in case4)

    def test_default_nmax_covers_boundary(self, capsys):
        code, out, _ = run(capsys, "table1", "--k", "4", "--m", "14")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.strip().splitlines()
                if not line.startswith("#")][1:]
        by_n = {int(r[2]): r for r in rows}
        assert by_n[24][4] == "48"  # both boundary case formulas give 2N

    def test_k2_rejected(self, capsys):
        code, _, _ = run(capsys, "table1", "--k", "2", "--m", "1", "--nmax", "2")
        assert code == EXIT_BAD_ARGS


class TestConfigFile:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 3, "m": 2, "n": 2}))
        code, out, _ = run(capsys, "bounds", "--config", str(cfg), "--n", "3")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1].startswith("3,2,3,")

    def test_config_supplies_missing_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 3, "m": 2, "n": 1}))
        code, out, _ = run(capsys, "bounds", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "3,2,1,1,2,3,1"

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("not json")
        code, _, err = run(capsys, "bounds", "--config", str(cfg), "--k", "3",
                           "--m", "2", "--n", "2")
        assert code == EXIT_BAD_ARGS


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_BAD_ARGS

    def test_non_integer_antenna(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "three", "--m", "2", "--n", "2")
        assert code == EXIT_BAD_ARGS


class TestFailurePaths:
    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        from mrc_dof_lab.cli import EXIT_NUMERIC
        from mrc_dof_lab.ssa_nc import SchemeDesignError

        def boom(*args, **kwargs):
            raise SchemeDesignError("trial 0: singular mixing matrix")

        monkeypatch.setattr("mrc_dof_lab.analysis.verify_noiseless", boom)
        code, _, err = run(capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
                           "--trials", "1")
        assert code == EXIT_NUMERIC
        assert "singular" in err

    def test_log_env_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("MRC_LOG", "debug")
        code, out, _ = run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3")
        assert code == EXIT_OK
        assert out.strip().splitlines()[-1] == "3,2,3,5,6,6,0"
