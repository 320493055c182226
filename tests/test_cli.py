"""Tests for the command-line interface."""

import argparse
import csv
import dataclasses
import json
import logging
from collections import Counter

import numpy as np
import pytest

from mrc_dof_lab import __version__, analysis, cli, ssa_nc
from mrc_dof_lab.analysis import REPORT_COLUMNS
from mrc_dof_lab.channel import ChannelSet, NetworkConfig, generate_channels, load_channels
from mrc_dof_lab.cli import EXIT_BAD_ARGS, EXIT_OK, EXIT_VERIFY_FAILED, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    """A CSV output's rows as dicts keyed by its header, comments skipped."""
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


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

    def test_csv_and_json_carry_the_same_row(self, capsys):
        argv = ("bounds", "--k", "4", "--m", "3", "--n", "5")
        _, csv_out, _ = run(capsys, *argv)
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        [row] = csv_rows(csv_out)
        assert {k: float(v) for k, v in row.items()} == json.loads(json_out)

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
        [row] = csv_rows(out)
        assert [row[c] for c in ("K", "M", "N", "L", "d", "streams", "cutset")] == [
            "3", "3", "2", "1", "1", "6", "6",
        ]

    def test_nan_round_fails(self, capsys, monkeypatch):
        # verify and simulate print the report, then fail on its audit
        from mrc_dof_lab import ssa_nc

        real = ssa_nc.run_round

        def nan_round(*args, **kwargs):
            trace = real(*args, **kwargs)
            return dataclasses.replace(trace, decoded=np.full_like(trace.decoded, np.nan))

        monkeypatch.setattr(ssa_nc, "run_round", nan_round)
        for command in ("verify", "simulate"):
            code, out, err = run(
                capsys, command, "--k", "3", "--m", "3", "--n", "2", "--trials", "2",
            )
            assert code == EXIT_VERIFY_FAILED, command
            assert csv_rows(out)[0]["max_err"] == "nan"
            assert err == "verification failed: max_err=nan, streams=6, cutset=6\n"

    @pytest.mark.parametrize(
        "content,message",
        [(None, "No such file or directory"), ("not json", "Expecting value")],
        ids=["missing", "not-json"],
    )
    def test_unreadable_channel_file_names_the_option(self, tmp_path, capsys, content, message):
        path = tmp_path / "channels.json"
        if content is not None:
            path.write_text(content)
        code, out, err = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2", "--trials", "2",
            "--load-channels", str(path),
        )
        assert code == EXIT_BAD_ARGS and out == ""
        assert err.startswith(f"error: cannot read --load-channels file {path}: ")
        assert message in err

    def test_extension_case_reported(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--k", "3", "--m", "4", "--n", "3",
            "--trials", "5", "--seed", "7",
        )
        assert code == EXIT_OK
        [row] = csv_rows(out)
        assert (row["L"], row["d"], row["streams"]) == ("2", "3", "9")

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

    def test_dump_holds_every_relay_antenna(self, tmp_path, capsys):
        # the run keeps 4 of the 6 relay antennas, and the dump holds the
        # physical set of all 6: trial 0's full draw, which a run of the
        # same configuration loads
        dump = tmp_path / "channels.json"
        args = ["verify", "--k", "3", "--m", "4", "--n", "6", "--trials", "3", "--seed", "5"]
        code, _, _ = run(capsys, *args, "--dump-channels", str(dump))
        assert code == EXIT_OK
        cs = load_channels(str(dump))
        config = NetworkConfig(K=3, M=4, N=6, seed=5)
        full = generate_channels(config, config.trial_rng(0))
        assert cs.relay_dim == 6 and np.array_equal(cs.uplink, full.uplink)
        code, _, _ = run(capsys, *args, "--load-channels", str(dump))
        assert code == EXIT_OK

    def test_load_kept_relay_antennas_rejected(self, tmp_path, capsys):
        # a 3/4/4 set is not a 3/4/6 one, though a 3/4/6 run keeps 4
        # relay antennas
        dump = tmp_path / "channels.json"
        run(
            capsys, "verify", "--k", "3", "--m", "4", "--n", "4",
            "--trials", "2", "--seed", "5", "--dump-channels", str(dump),
        )
        code, out, err = run(
            capsys, "verify", "--k", "3", "--m", "4", "--n", "6",
            "--trials", "2", "--load-channels", str(dump),
        )
        assert code == EXIT_BAD_ARGS and out == ""
        assert "N=4; the configuration is K=3, M=4, N=6" in err

    def test_load_extended_channels_rejected(self, tmp_path, capsys):
        dump = tmp_path / "channels.json"
        run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "2", "--seed", "5", "--dump-channels", str(dump),
        )
        doc = json.loads(dump.read_text())
        doc["L"] = 2
        dump.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", "--k", "3", "--m", "3", "--n", "2",
            "--trials", "2", "--load-channels", str(dump),
        )
        assert code == EXIT_BAD_ARGS
        assert "L = 1" in err

    def test_channel_file_header_must_match_its_matrices(self, tmp_path, capsys):
        # a 4/4/3 dump whose header claims K=9, M=1 is bad input, even
        # though its matrices match the flags
        dump = tmp_path / "channels.json"
        args = ["verify", "--k", "4", "--m", "4", "--n", "3", "--trials", "2"]
        code, _, _ = run(capsys, *args, "--seed", "5", "--dump-channels", str(dump))
        assert code == EXIT_OK
        code, _, _ = run(capsys, *args, "--load-channels", str(dump))
        assert code == EXIT_OK
        doc = json.loads(dump.read_text())
        doc.update(K=9, M=1)
        dump.write_text(json.dumps(doc))
        code, out, err = run(capsys, *args, "--load-channels", str(dump))
        assert code == EXIT_BAD_ARGS and out == ""
        assert "header K=9, M=1, N=3 disagrees with its matrices K=4, M=4, N=3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda doc: doc.pop("uplink"), "no 'uplink' entry"),
            (lambda doc: doc["uplink"][1][0].__setitem__(1, 0.5), "[re, im] pairs"),
        ],
        ids=["missing-uplink", "bare-number-entry"],
    )
    def test_malformed_channel_file_is_an_argument_error(self, tmp_path, capsys, damage, message):
        # a bad file is bad input (exit 2, one error line), not a failed
        # verification (exit 1) or a traceback
        dump = tmp_path / "channels.json"
        run(
            capsys, "verify", "--k", "3", "--m", "2", "--n", "2",
            "--trials", "2", "--seed", "5", "--dump-channels", str(dump),
        )
        doc = json.loads(dump.read_text())
        damage(doc)
        dump.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "verify", "--k", "3", "--m", "2", "--n", "2",
            "--trials", "2", "--load-channels", str(dump),
        )
        assert code == EXIT_BAD_ARGS
        assert message in err and "Traceback" not in err

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
        rows = csv_rows(path.read_text())
        assert len(rows) == 4
        for row in rows:
            assert row["streams"] == row["cutset"]
            assert row["error"] == ""

    def test_repeated_values_keep_their_rows(self, tmp_path, capsys):
        # --k 3,3 audits each (K, M, N) twice, in one group per kept
        # relay shape, and writes both rows
        path = tmp_path / "twice.csv"
        code, _, _ = run(
            capsys, "sweep", "--k", "3,3", "--m", "2", "--n", "2,3",
            "--trials", "2", "--seed", "4", "--out", str(path),
        )
        assert code == EXIT_OK
        rows = path.read_text().strip().splitlines()[2:]
        assert [row.split(",")[:3] for row in rows] == [["3", "2", n] for n in "2323"]
        assert rows[:2] == rows[2:] and rows[0] != rows[1]

    def test_row_order_sorted(self, tmp_path, capsys):
        path = tmp_path / "order.csv"
        run(
            capsys, "sweep", "--k", "4,3", "--m", "3,2", "--n", "2",
            "--trials", "1", "--seed", "1", "--out", str(path),
        )
        rows = [tuple(int(row[c]) for c in "KMN") for row in csv_rows(path.read_text())]
        assert len(rows) == 4 and rows == sorted(rows)

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

    @pytest.mark.parametrize(
        "lists,message",
        [
            (["--k", "1,3", "--m", "2", "--n", "2"], "K must be at least 2"),
            (["--k", "3", "--m", "2", "--n", "0,2"], "antenna counts must be positive"),
        ],
        ids=["k1", "n0"],
    )
    def test_invalid_config_fails_before_any_row(
        self, tmp_path, capsys, monkeypatch, lists, message
    ):
        # every row's config is checked before the first row runs
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran before every config was checked")

        monkeypatch.setattr("mrc_dof_lab.analysis._audit", no_row)
        path = tmp_path / "bad.csv"
        code, _, err = run(
            capsys, "sweep", *lists, "--trials", "2", "--out", str(path),
        )
        assert code == EXIT_BAD_ARGS
        assert message in err
        assert not path.exists()

    def test_design_error_becomes_error_cell(self, tmp_path, capsys, monkeypatch):
        from mrc_dof_lab.ssa_nc import SchemeDesignError

        def fail(*args, **kwargs):
            raise SchemeDesignError("trial 0 (seed 1): aligned subspaces, rank deficient")

        monkeypatch.setattr("mrc_dof_lab.analysis._audit", fail)
        path = tmp_path / "fail.csv"
        code, _, _ = run(
            capsys, "sweep", "--k", "3", "--m", "2", "--n", "2",
            "--trials", "1", "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        [row] = csv_rows(path.read_text())
        assert (row["K"], row["M"], row["N"]) == ("3", "2", "2")
        assert row["error"] == (
            "SchemeDesignError: trial 0 (seed 1): aligned subspaces; rank deficient"
        )
        assert all(row[c] == "" for c in REPORT_COLUMNS.split(",")[3:])

    def test_every_row_has_a_cell_per_column(self, tmp_path, capsys, monkeypatch):
        # error rows (K = 4 here) pad to the header, as success rows fill it
        real = analysis._audit

        def fail_k4(groups, trials, **kwargs):
            if any(config.K == 4 for group in groups for config in group):
                raise ValueError("no design for K = 4")
            return real(groups, trials, **kwargs)

        monkeypatch.setattr("mrc_dof_lab.analysis._audit", fail_k4)
        path = tmp_path / "mixed.csv"
        code, _, _ = run(
            capsys, "sweep", "--k", "3,4", "--m", "2,3", "--n", "2",
            "--trials", "1", "--seed", "1", "--out", str(path),
        )
        assert code == EXIT_OK
        header, *rows = csv.reader(
            line for line in path.read_text().splitlines() if not line.startswith("#")
        )
        assert header == REPORT_COLUMNS.split(",") + ["error"]
        assert [row[-1] != "" for row in rows] == [False, False, True, True]
        assert all(len(row) == len(header) for row in rows)

    def test_unexpected_error_propagates(self, tmp_path, monkeypatch):
        def bug(*args, **kwargs):
            raise TypeError("bug in the chain")

        monkeypatch.setattr("mrc_dof_lab.analysis._audit", bug)
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

    def test_csv_and_json_carry_the_same_rows(self, capsys):
        argv = ("table1", "--k", "4", "--m", "7", "--nmax", "17")
        _, csv_out, _ = run(capsys, *argv)
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        doc = json.loads(json_out)
        notes = [line for line in csv_out.splitlines() if line.startswith("# case4-note")]
        assert doc["notes"] == notes and len(notes) == 2
        rows = csv_rows(csv_out)
        assert list(rows[0]) == [
            "K", "M", "N", "case_index", "private_only", "common_private", "gain", "flags",
        ]
        assert [
            {k: v if k == "flags" else float(v) for k, v in row.items()} for row in rows
        ] == doc["rows"]


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

    def test_config_switches_equal_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"reciprocal": False, "half_duplex": True, "format": "json"}))
        argv = ("simulate", "--k", "3", "--m", "3", "--n", "2", "--trials", "2")
        code, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        code, from_flags, _ = run(
            capsys, *argv, "--no-reciprocal", "--half-duplex", "--format", "json"
        )
        assert code == EXIT_OK
        assert from_file == from_flags
        assert json.loads(from_file)["slope"] < 3.5  # half of the 6 streams

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"format": "xml"}, "format must be one of csv, json"),
            ({"reciprocal": "false"}, "--reciprocal must be true or false"),
            ({"half_duplex": "false"}, "--half-duplex must be true or false"),
            ({"half_duplex": 1}, "--half-duplex must be true or false"),
            ({"k": 3.9}, "--k must be an integer"),
            ({"trials": 2.5}, "--trials must be an integer"),
            ({"trials": True}, "--trials must be an integer"),
            ({"n": [2]}, "--n must be an integer"),
            ({"p_grid": [1e2, None, 1e6]}, "--p-grid must be a number"),
            ({"p_grid": [1e2, True, 1e6]}, "--p-grid must be a number"),
        ],
        ids=["format", "reciprocal", "half-duplex", "half-duplex-int", "k-float",
             "trials-float", "trials-bool", "n-list", "p-grid-null", "p-grid-bool"],
    )
    def test_config_values_checked_like_flags(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"k": 3, "m": 3, "n": 2, "trials": 2, **doc}))
        code, out, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_BAD_ARGS
        assert out == ""
        assert message in err

    RUN = {"k": 3, "m": 3, "n": 2, "trials": 2, "seed": 5}
    BASES = {
        "bounds": {"k": 3, "m": 2, "n": 3},
        "table1": {"k": 3, "m": 2},
        "verify": RUN,
        "simulate": RUN,
        "sweep": {"k": [3], "m": [3], "n": [2], "trials": 2, "seed": 5},
    }

    def config(self, tmp_path, doc, name="run.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "command,key",
        [
            ("bounds", "out"),
            ("table1", "out"),
            ("verify", "out"),
            ("verify", "dump_channels"),
            ("verify", "dump_plan"),
            ("simulate", "out"),
            ("simulate", "dump_channels"),
            ("simulate", "dump_plan"),
        ],
    )
    def test_config_paths_equal_flags(self, tmp_path, capsys, command, key):
        # a path from the config file writes what the flag writes, and the
        # standard output is the same
        base = self.config(tmp_path, self.BASES[command])
        doc = {**self.BASES[command], key: str(tmp_path / "cfg")}
        with_key = self.config(tmp_path, doc, "with-key.json")
        code, from_file, _ = run(capsys, command, "--config", with_key)
        assert code == EXIT_OK
        flag = "--" + key.replace("_", "-")
        code, from_flags, _ = run(capsys, command, "--config", base, flag, str(tmp_path / "flag"))
        assert code == EXIT_OK
        assert from_file == from_flags
        assert (tmp_path / "cfg").read_bytes() == (tmp_path / "flag").read_bytes()

    def test_config_load_channels_equals_flag(self, tmp_path, capsys):
        dump = str(tmp_path / "channels.json")
        base = self.config(tmp_path, self.RUN)
        code, _, _ = run(capsys, "verify", "--config", base, "--dump-channels", dump,
                         "--seed", "6")
        assert code == EXIT_OK
        code, from_flags, _ = run(capsys, "verify", "--config", base, "--load-channels", dump)
        with_key = self.config(tmp_path, {**self.RUN, "load_channels": dump}, "with-key.json")
        code, from_file, _ = run(capsys, "verify", "--config", with_key)
        assert code == EXIT_OK
        assert from_file == from_flags
        # seed 5's own draws decode with another error than the seed 6 set
        code, unloaded, _ = run(capsys, "verify", "--config", base)
        assert from_file != unloaded

    def test_config_load_channels_rejected_by_simulate(self, tmp_path, capsys):
        cfg = self.config(tmp_path, {**self.RUN, "load_channels": "channels.json"})
        code, out, err = run(capsys, "simulate", "--config", cfg)
        assert code == EXIT_BAD_ARGS and out == ""
        assert "simulate does not support --load-channels" in err

    @pytest.mark.parametrize(
        "command,key",
        [
            ("bounds", "out"),
            ("table1", "out"),
            ("sweep", "out"),
            ("verify", "out"),
            ("verify", "dump_channels"),
            ("verify", "dump_plan"),
            ("verify", "load_channels"),
            ("simulate", "out"),
            ("simulate", "dump_channels"),
            ("simulate", "dump_plan"),
            ("simulate", "load_channels"),
        ],
    )
    @pytest.mark.parametrize("value", [987, ["x.csv"]], ids=["int", "list"])
    def test_config_path_must_be_a_string(self, tmp_path, capsys, command, key, value):
        # an integer would open that file descriptor; nothing runs
        cfg = self.config(tmp_path, {"out": str(tmp_path / "x"), **self.BASES[command], key: value})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == EXIT_BAD_ARGS and out == ""
        assert f"--{key.replace('_', '-')} must be a path, got {value!r}" in err
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    def test_path_checked_before_other_options(self, tmp_path, capsys):
        # the merge step checks the paths before any command reads --k
        cfg = self.config(tmp_path, {"out": 987})
        code, out, err = run(capsys, "bounds", "--config", cfg, "--m", "2", "--n", "3")
        assert code == EXIT_BAD_ARGS and out == ""
        assert "--out must be a path, got 987" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "--k", "3", "--m", "2", "--n", "3"),
            ("table1", "--k", "4", "--m", "7", "--nmax", "17"),
            ("verify", "--k", "3", "--m", "3", "--n", "2", "--trials", "2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_keys_of_other_commands_ignored(self, tmp_path, capsys, argv):
        # a key that is no option of the command is neither read nor checked
        foreign = {"dump_plan": 987, "p_grid": "x", "trials": True, "load_channels": [1]}
        if argv[0] == "verify":
            foreign = {"nmax": "x", "p_grid": [None], "command": "bounds"}
        code, plain, _ = run(capsys, *argv)
        assert code == EXIT_OK
        cfg = self.config(tmp_path, foreign)
        assert run(capsys, *argv, "--config", cfg) == (EXIT_OK, plain, "")

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("not json")
        code, _, err = run(capsys, "bounds", "--config", str(cfg), "--k", "3",
                           "--m", "2", "--n", "2")
        assert code == EXIT_BAD_ARGS


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_BAD_ARGS

    @pytest.mark.parametrize("command", ["verify", "simulate", "sweep"])
    def test_zero_trials_is_one_cli_error(self, tmp_path, capsys, monkeypatch, command):
        # every command that runs trials rejects a zero count the same way,
        # before any draw
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the trial count was checked")

        monkeypatch.setattr(analysis, "draw_trials", no_draw)
        code, out, err = run(
            capsys, command, "--k", "3", "--m", "3", "--n", "2", "--trials", "0",
            "--out", str(tmp_path / "out.csv"),
        )
        assert (code, out, err) == (EXIT_BAD_ARGS, "", "error: --trials must be positive\n")
        assert not (tmp_path / "out.csv").exists()

    def test_non_integer_antenna(self, capsys):
        code, _, err = run(capsys, "bounds", "--k", "three", "--m", "2", "--n", "2")
        assert code == EXIT_BAD_ARGS


class TestParserFlags:
    RUN = ["--trials", "--seed", "--half-duplex", "--reciprocal", "--no-reciprocal"]
    DUMP = ["--dump-channels", "--load-channels", "--dump-plan"]
    COMMON = ["--config", "--out", "--format"]
    FLAGS = {
        "bounds": ["--k", "--m", "--n", *COMMON],
        "verify": ["--k", "--m", "--n", *RUN, *DUMP, *COMMON],
        "simulate": ["--k", "--m", "--n", "--p-grid", *RUN, *DUMP, *COMMON],
        "sweep": ["--k", "--m", "--n", "--p-grid", *RUN, *COMMON],
        "table1": ["--k", "--m", "--nmax", *COMMON],
    }

    def test_each_subcommand_keeps_its_flags(self):
        # every flag of every subcommand, in order: a change to the parser
        # cannot add, drop or move one
        parser = cli.build_parser()
        assert [s for a in parser._actions for s in a.option_strings] == [
            "-h", "--help", "--version",
        ]
        [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {
            name: [s for a in command._actions for s in a.option_strings]
            for name, command in sub.choices.items()
        }
        assert flags == {name: ["-h", "--help", *f] for name, f in self.FLAGS.items()}

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_every_option_is_unset_until_merged(self, command):
        # the merge step fills exactly the options that no flag set
        args = cli.build_parser().parse_args([command])
        assert set(vars(args)) == {"command"} | {
            f[2:].replace("-", "_") for f in self.FLAGS[command] if f != "--no-reciprocal"
        }
        assert all(v is None for k, v in vars(args).items() if k != "command")


class TestParserBuiltOnce:
    ARGVS = (
        ("bounds", "--k", "3", "--m", "2", "--n", "3"),
        ("table1", "--k", "3", "--m", "2", "--nmax", "4"),
        ("verify", "--k", "3", "--m", "2", "--n", "2", "--trials", "2", "--format", "json"),
    )

    def test_one_parser_serves_every_subcommand(self, capsys, monkeypatch):
        # each call with a fresh parser, then every call with one cached
        # parser: the same exit codes and outputs, and one build
        fresh = []
        for argv in self.ARGVS:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        assert [run(capsys, *argv) for argv in self.ARGVS] == fresh
        assert len(built) == 1 and all(code == EXIT_OK for code, _, _ in fresh)

    def test_command_function_is_looked_up_per_call(self, capsys, monkeypatch):
        # a command function wrapped after the parser was built still runs
        run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3")
        called = []
        bounds = cli.cmd_bounds
        monkeypatch.setattr(cli, "cmd_bounds", lambda args: called.append(1) or bounds(args))
        code, out, _ = run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3")
        assert code == EXIT_OK and called == [1]
        assert out.strip().splitlines()[-1] == "3,2,3,5,6,6,0"


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

    def test_main_leaves_logging_alone(self, capsys, monkeypatch):
        # the CLI logs nothing, so it configures no logger of the process
        loggers = (logging.getLogger(), logging.getLogger("mrc_dof_lab"))
        monkeypatch.setattr(loggers[1], "level", logging.WARNING)
        before = [(log.level, list(log.handlers)) for log in loggers]
        code, _, _ = run(capsys, "bounds", "--k", "3", "--m", "2", "--n", "3")
        assert code == EXIT_OK
        assert [(log.level, list(log.handlers)) for log in loggers] == before


class TestEntryPointSvdBudget:
    """LAPACK calls per call of the entry points perfbench/ drives, on its
    inputs: its linalg.*_calls_per_trial are these counts over the call's
    trials. No path takes an SVD. Every draw is reciprocal, so each
    validation factors its uplink stack alone: one inv when it is square,
    one qr when it is not (of the conjugate transposes, when wide). A draw
    with N > M is validated once, at the M relay antennas it keeps, which
    leaves square matrices; a sweep validates the rows of one kept relay
    shape as one stack."""

    def test_verify_with_extension(self, lapack_calls):
        # extension_large: one stack of 5 trials at 8/8/8
        report = analysis.verify_noiseless(NetworkConfig(K=8, M=8, N=8, seed=7), 5)
        assert report.achieved_streams == report.cutset
        assert lapack_calls == [("inv", (5, 8, 8, 8))]

    def test_noisy_power_sweep(self, lapack_calls, monkeypatch):
        # noisy_power_sweep: one stack of 25 trials at 4/4/3, whose 3 x 4
        # uplinks take one QR of their 4 x 3 transposes; the MSE sweep
        # takes the stack simulate_report drew and designed
        config = NetworkConfig(K=4, M=4, N=3, seed=7)
        grid = (1e2, 1e3, 1e4, 1e5, 1e6)
        designs = []
        real = ssa_nc.design_scheme
        monkeypatch.setattr(ssa_nc, "design_scheme", lambda *a: designs.append(1) or real(*a))
        analysis.simulate_report(config, grid, 25)
        analysis.decode_mse_sweep(config, grid, 25)
        assert lapack_calls == [("qr", (25, 4, 4, 3))]
        assert designs == [1]

    def test_sweep_grid(self, tmp_path, capsys, lapack_calls, monkeypatch):
        # sweep_grid: 27 rows of 5 trials, 4,320 stored entries, in one
        # batch. Its matrices, drawn cut to min(N, M) relay antennas, come
        # in 6 kept (n, M) shapes, each pooled over K = 3, 4, 5 and
        # validated once: one inv for each square shape and one qr for
        # each wide one
        validated = []
        real = ChannelSet.__post_init__

        def counted(channels):
            validated.append(np.shape(channels.uplink))
            real(channels)

        monkeypatch.setattr(ChannelSet, "__post_init__", counted)
        code, _, _ = run(
            capsys, "sweep", "--k", "3,4,5", "--m", "2,3,4", "--n", "2,3,4",
            "--trials", "5", "--seed", "7", "--out", str(tmp_path / "grid.csv"),
        )
        assert code == EXIT_OK
        assert Counter(kernel for kernel, _ in lapack_calls) == {"inv": 3, "qr": 3}
        # per K, 15 trials keep (2, 2), 5 (2, 3), 10 (3, 3), and 5 each
        # (2, 4), (3, 4) and (4, 4): K matrices per trial, 12 over K
        assert validated == [(1, 12 * t, n, m) for t, n, m in
                             [(15, 2, 2), (5, 2, 3), (10, 3, 3), (5, 2, 4), (5, 3, 4), (5, 4, 4)]]
