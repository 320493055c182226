"""Command-line front end: bound tables, scheme verification, sweeps.

Subcommands: bounds, verify, simulate, sweep, table1. Flag values override
config-file values (flat JSON keyed by flag names), which override
defaults. Every command is deterministic given its full flag set, and CSV
files carry a version comment so column changes are detectable.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 internal numeric failure. MRC_LOG in {error, info, debug} controls log
verbosity.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import logging
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, analysis, bounds, ssa_nc
from .analysis import REPORT_COLUMNS, format_number, report_csv_row
from .channel import NetworkConfig, generate_channels, load_channels, save_channels
from .ssa_nc import SchemeDesignError

logger = logging.getLogger("mrc_dof_lab.cli")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NUMERIC = 3

VERSION_COMMENT = f"# mrc-dof-lab v{__version__}"

DEFAULT_TRIALS = 100
DEFAULT_SEED = 42
DEFAULT_P_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
_FORMATS = ("csv", "json")
# The options that name a file: verify and simulate read all four, in this
# order, and the other commands out alone.
_PATHS = ("out", "dump_channels", "dump_plan", "load_channels")

# Failures a sweep records in a row's error cell: design, numeric and
# argument errors of one configuration (ValueError covers RegimeError).
# Every row's NetworkConfig is built before the loop, so an invalid K, M
# or N fails the whole sweep instead. Any other exception is a bug and
# propagates.
SWEEP_ROW_ERRORS = (SchemeDesignError, np.linalg.LinAlgError, FloatingPointError, ValueError)

CASE4_NOTES = (
    "# case4-note: private-only bracket evaluated as 2N+(4-K)M, the printed form is dimensionally inconsistent",
    "# case4-note: case-4 interval taken as K/2 <= N/M <= (K^2-3K+3)/(K-1), the printed direction is empty for K >= 4",
)


class CliError(ValueError):
    """Invalid command-line or config-file input."""


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("MRC_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("mrc_dof_lab").setLevel(level)


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config file must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _resolve(args, key: str, cfg: dict, default=None, required: bool = False):
    val = getattr(args, key, None)
    if val is None:
        val = cfg.get(key)
    if val is None:
        val = default
    if val is None and required:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    # a config file's number would open that file descriptor
    if key in _PATHS and val is not None and not isinstance(val, str):
        raise CliError(f"--{key.replace('_', '-')} must be a path, got {val!r}")
    return val


def _as_number(val, name: str, kind: type = int):
    """kind(val) of a flag's string or a config file's JSON number. A bool,
    or a float where an int is asked for, fails: kind() would count or
    truncate it."""
    number = isinstance(val, (int, float) if kind is float else int)
    if isinstance(val, str) or (number and not isinstance(val, bool)):
        try:
            return kind(val)
        except ValueError:
            pass
    raise CliError(f"{name} must be {'a number' if kind is float else 'an integer'}, got {val!r}")


def _as_bool(val, name: str) -> bool:
    if not isinstance(val, bool):
        raise CliError(f"{name} must be true or false, got {val!r}")
    return val


def _as_list(val, name: str, kind: type = int) -> list:
    """A flag's comma-separated string or a config file's JSON list."""
    items = val if isinstance(val, (list, tuple)) else str(val).split(",")
    return [_as_number(v, name, kind) for v in items if str(v).strip() != ""]


def _format(args, cfg) -> str:
    fmt = _resolve(args, "format", cfg, default="csv")
    if fmt not in _FORMATS:
        raise CliError(f"format must be one of {', '.join(_FORMATS)}, got {fmt!r}")
    return fmt


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _kmn(args, cfg) -> tuple[int, int, int]:
    return tuple(_as_number(_resolve(args, key, cfg, required=True), f"--{key}") for key in "kmn")


def _network_config(args, cfg, K: int, M: int, N: int) -> NetworkConfig:
    return NetworkConfig(
        K=K,
        M=M,
        N=N,
        reciprocal=_as_bool(_resolve(args, "reciprocal", cfg, default=True), "--reciprocal"),
        duplex_factor=0.5
        if _as_bool(_resolve(args, "half_duplex", cfg, default=False), "--half-duplex")
        else 1.0,
        seed=_as_number(_resolve(args, "seed", cfg, default=DEFAULT_SEED), "--seed"),
    )


def _bound_row_cells(row: bounds.BoundRow) -> str:
    cells = [row.K, row.M, row.N, row.case_index, row.private_only, row.cutset, row.gain]
    return ",".join(format_number(c) for c in cells)


def cmd_bounds(args) -> int:
    cfg = _load_config_file(args.config)
    k, m, n = _kmn(args, cfg)
    fmt = _format(args, cfg)
    out = _resolve(args, "out", cfg)
    row = bounds.bound_row(k, m, n)
    if fmt == "json":
        text = _json_text(
            {
                "K": row.K,
                "M": row.M,
                "N": row.N,
                "case_index": row.case_index,
                "private_only": float(row.private_only),
                "cutset": row.cutset,
                "gain": float(row.gain),
            }
        )
    else:
        text = "\n".join(
            [VERSION_COMMENT, "K,M,N,case_index,private_only,cutset,gain", _bound_row_cells(row)]
        ) + "\n"
    _emit(text, out)
    return EXIT_OK


def _report_text(report: analysis.DofReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_json_dict())
    return "\n".join([VERSION_COMMENT, REPORT_COLUMNS, report_csv_row(report)]) + "\n"


def _dump_trial_artifacts(config: NetworkConfig, channels, channels_path, plan_path) -> None:
    """Write trial 0's channels and/or plan to the paths that are set."""
    if not (channels_path or plan_path):
        return
    base = channels if channels is not None else generate_channels(config, config.trial_rng(0))
    if channels_path:
        save_channels(base, channels_path)
    if plan_path:
        ssa_nc.save_plan(ssa_nc.design_scheme(config, base), plan_path)


def cmd_verify(args) -> int:
    cfg = _load_config_file(args.config)
    config = _network_config(args, cfg, *_kmn(args, cfg))
    trials = _as_number(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    fmt = _format(args, cfg)
    out, dump_channels, dump_plan, load_path = (_resolve(args, k, cfg) for k in _PATHS)
    # the design checks a loaded set's dimensions against the flags
    channels = load_channels(load_path) if load_path else None
    report = analysis.verify_noiseless(config, trials, channels=channels)
    _dump_trial_artifacts(config, channels, dump_channels, dump_plan)
    _emit(_report_text(report, fmt), out)
    ok = (
        report.noiseless_max_error <= 1e-8
        and report.achieved_streams == report.cutset
    )
    if not ok:
        print(
            f"verification failed: max_err={report.noiseless_max_error:.3e}, "
            f"streams={report.achieved_streams}, cutset={report.cutset}",
            file=sys.stderr,
        )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_simulate(args) -> int:
    cfg = _load_config_file(args.config)
    config = _network_config(args, cfg, *_kmn(args, cfg))
    trials = _as_number(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    p_grid = _as_list(
        _resolve(args, "p_grid", cfg, default=list(DEFAULT_P_GRID)), "--p-grid", float
    )
    fmt = _format(args, cfg)
    out, dump_channels, dump_plan, load_path = (_resolve(args, k, cfg) for k in _PATHS)
    if load_path:
        raise CliError("simulate does not support --load-channels; use verify")
    report = analysis.simulate_report(config, p_grid, trials)
    _dump_trial_artifacts(config, None, dump_channels, dump_plan)
    _emit(_report_text(report, fmt), out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    k_list = _as_list(_resolve(args, "k", cfg, required=True), "--k")
    m_list = _as_list(_resolve(args, "m", cfg, required=True), "--m")
    n_list = _as_list(_resolve(args, "n", cfg, required=True), "--n")
    if not (k_list and m_list and n_list):
        raise CliError("sweep lists must be nonempty")
    trials = _as_number(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    raw_grid = _resolve(args, "p_grid", cfg)
    p_grid = _as_list(raw_grid, "--p-grid", float) if raw_grid is not None else None
    fmt = _format(args, cfg)
    out = _resolve(args, "out", cfg, required=True)
    # run-wide arguments and every row's config fail the whole sweep once
    if trials < 1:
        raise CliError("--trials must be positive")
    if p_grid is not None:
        analysis.validate_power_grid(p_grid)
    configs = [
        _network_config(args, cfg, k, m, n)
        for k, m, n in itertools.product(sorted(k_list), sorted(m_list), sorted(n_list))
    ]

    lines = [VERSION_COMMENT, REPORT_COLUMNS + ",error"]
    rows_json = []
    for config in configs:
        k, m, n = config.K, config.M, config.N
        try:
            if p_grid is not None:
                report = analysis.simulate_report(config, p_grid, trials)
            else:
                report = analysis.verify_noiseless(config, trials)
            if fmt == "json":
                rows_json.append({**report.to_json_dict(), "error": None})
            else:
                lines.append(report_csv_row(report) + ",")
        except SWEEP_ROW_ERRORS as exc:  # record the failure, keep sweeping
            logger.info("sweep row (%d,%d,%d) failed: %s", k, m, n, exc)
            message = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
            if fmt == "json":
                rows_json.append({"K": k, "M": m, "N": n, "error": message})
            else:
                # K, M and N, an empty cell for every other report column, the error
                empty = [""] * (REPORT_COLUMNS.count(",") - 2)
                lines.append(",".join([str(k), str(m), str(n), *empty, message]))
    text = _json_text(rows_json) if fmt == "json" else "\n".join(lines) + "\n"
    _emit(text, out)
    return EXIT_OK


def _default_nmax(K: int, M: int) -> int:
    top = bounds.regime_thresholds(K)[3] * M
    return math.ceil(top) + 1


def cmd_table1(args) -> int:
    cfg = _load_config_file(args.config)
    k = _as_number(_resolve(args, "k", cfg, required=True), "--k")
    m = _as_number(_resolve(args, "m", cfg, required=True), "--m")
    bounds.regime_thresholds(k)  # fail fast for K < 3
    nmax_raw = _resolve(args, "nmax", cfg)
    nmax = _as_number(nmax_raw, "--nmax") if nmax_raw is not None else _default_nmax(k, m)
    if nmax < 1:
        raise CliError("--nmax must be at least 1")
    fmt = _format(args, cfg)
    out = _resolve(args, "out", cfg)
    rows = analysis.reproduce_table1(k, m, range(1, nmax + 1))
    any_case4 = any(r.case_index == 4 for r in rows)
    if fmt == "json":
        payload = {
            "notes": list(CASE4_NOTES) if any_case4 else [],
            "rows": [
                {
                    "K": r.K,
                    "M": r.M,
                    "N": r.N,
                    "case_index": r.case_index,
                    "private_only": float(r.private_only),
                    "common_private": r.cutset,
                    "gain": float(r.gain),
                    "flags": "case4-reading" if r.case_index == 4 else "",
                }
                for r in rows
            ],
        }
        text = _json_text(payload)
    else:
        lines = [VERSION_COMMENT]
        if any_case4:
            lines.extend(CASE4_NOTES)
        lines.append("K,M,N,case_index,private_only,common_private,gain,flags")
        for r in rows:
            flags = "case4-reading" if r.case_index == 4 else ""
            lines.append(f"{_bound_row_cells(r)},{flags}")
        text = "\n".join(lines) + "\n"
    _emit(text, out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file keyed by flag names")
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS, default=None)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials", default=None)
    parser.add_argument("--seed", default=None)
    parser.add_argument("--half-duplex", dest="half_duplex", action="store_true", default=None)
    parser.add_argument(
        "--reciprocal",
        dest="reciprocal",
        action=argparse.BooleanOptionalAction,
        default=None,
    )


def _add_dump_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dump-channels", dest="dump_channels", metavar="PATH")
    parser.add_argument("--load-channels", dest="load_channels", metavar="PATH")
    parser.add_argument("--dump-plan", dest="dump_plan", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrc-dof-lab",
        description="DoF bounds and signal-space-alignment verification "
        "for the K-user MIMO multi-way relay channel",
    )
    parser.add_argument("--version", action="version", version=f"mrc-dof-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="one cut-set/regime table row")
    p_bounds.add_argument("--k", default=None)
    p_bounds.add_argument("--m", default=None)
    p_bounds.add_argument("--n", default=None)
    _add_common(p_bounds)

    p_verify = sub.add_parser("verify", help="noiseless achievability check")
    p_verify.add_argument("--k", default=None)
    p_verify.add_argument("--m", default=None)
    p_verify.add_argument("--n", default=None)
    _add_run_options(p_verify)
    _add_dump_options(p_verify)
    _add_common(p_verify)

    p_sim = sub.add_parser("simulate", help="noiseless audit plus DoF slope estimate")
    p_sim.add_argument("--k", default=None)
    p_sim.add_argument("--m", default=None)
    p_sim.add_argument("--n", default=None)
    p_sim.add_argument("--p-grid", dest="p_grid", default=None)
    _add_run_options(p_sim)
    _add_dump_options(p_sim)
    _add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="Cartesian K x M x N experiment sweep")
    p_sweep.add_argument("--k", default=None, help="comma-separated list")
    p_sweep.add_argument("--m", default=None, help="comma-separated list")
    p_sweep.add_argument("--n", default=None, help="comma-separated list")
    p_sweep.add_argument("--p-grid", dest="p_grid", default=None)
    _add_run_options(p_sweep)
    _add_common(p_sweep)

    p_table = sub.add_parser("table1", help="private-only vs common+private DoF table")
    p_table.add_argument("--k", default=None)
    p_table.add_argument("--m", default=None)
    p_table.add_argument("--nmax", default=None)
    _add_common(p_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: a build took 1.4 ms,
    about 5% of a 27-row sweep of 5 trials each."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at each call, not kept in the cached parser, so that a
    # command function wrapped after the first call is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, OSError) as exc:  # CliError and RegimeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (SchemeDesignError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
