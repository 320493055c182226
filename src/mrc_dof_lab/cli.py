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

# Failures a sweep records in a row's error cell: design, numeric and
# argument errors (ValueError covers RegimeError and the config checks).
# Any other exception is a bug and propagates.
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
    return val


def _as_int(val, name: str) -> int:
    try:
        out = int(val)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{name} must be an integer, got {val!r}") from exc
    return out


def _as_int_list(val, name: str) -> list[int]:
    if isinstance(val, (list, tuple)):
        return [_as_int(v, name) for v in val]
    try:
        return [int(tok) for tok in str(val).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(f"{name} must be a comma-separated integer list") from exc


def _as_float_list(val, name: str) -> list[float]:
    if isinstance(val, (list, tuple)):
        return [float(v) for v in val]
    try:
        return [float(tok) for tok in str(val).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise CliError(f"{name} must be a comma-separated number list") from exc


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _kmn(args, cfg) -> tuple[int, int, int]:
    return tuple(_as_int(_resolve(args, key, cfg, required=True), f"--{key}") for key in "kmn")


def _network_config(args, cfg, K: int, M: int, N: int) -> NetworkConfig:
    return NetworkConfig(
        K=K,
        M=M,
        N=N,
        reciprocal=bool(_resolve(args, "reciprocal", cfg, default=True)),
        duplex_factor=0.5 if _resolve(args, "half_duplex", cfg, default=False) else 1.0,
        seed=_as_int(_resolve(args, "seed", cfg, default=DEFAULT_SEED), "--seed"),
    )


def _bound_row_cells(row: bounds.BoundRow) -> str:
    cells = [row.K, row.M, row.N, row.case_index, row.private_only, row.cutset, row.gain]
    return ",".join(format_number(c) for c in cells)


def cmd_bounds(args) -> int:
    cfg = _load_config_file(args.config)
    k, m, n = _kmn(args, cfg)
    fmt = _resolve(args, "format", cfg, default="csv")
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
    _emit(text, args.out)
    return EXIT_OK


def _report_text(report: analysis.DofReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_json_dict())
    return "\n".join([VERSION_COMMENT, REPORT_COLUMNS, report_csv_row(report)]) + "\n"


def _dump_trial_artifacts(config: NetworkConfig, channels, args) -> None:
    """Write trial 0's channels and/or plan when the dump flags are set."""
    if not (args.dump_channels or args.dump_plan):
        return
    rng = config.trial_rng(0)
    base = channels if channels is not None else generate_channels(config, rng)
    if args.dump_channels:
        save_channels(base, args.dump_channels)
    if args.dump_plan:
        _, plan = ssa_nc.design_scheme(config, base, rng)
        ssa_nc.save_plan(plan, args.dump_plan)


def _loaded_channels(args, config: NetworkConfig):
    if not args.load_channels:
        return None
    loaded = load_channels(args.load_channels)
    if loaded.extension_factor != 1:
        raise CliError("loaded channel sets must be unextended")
    if (
        loaded.num_users != config.K
        or loaded.user_dim != config.M
        or loaded.relay_dim != config.N
    ):
        raise CliError(
            f"loaded channels are K={loaded.num_users}, M={loaded.user_dim}, "
            f"N={loaded.relay_dim}; flags disagree"
        )
    return loaded


def cmd_verify(args) -> int:
    cfg = _load_config_file(args.config)
    config = _network_config(args, cfg, *_kmn(args, cfg))
    trials = _as_int(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    fmt = _resolve(args, "format", cfg, default="csv")
    channels = _loaded_channels(args, config)
    report = analysis.verify_noiseless(config, trials, channels=channels)
    _dump_trial_artifacts(config, channels, args)
    _emit(_report_text(report, fmt), args.out)
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
    trials = _as_int(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    p_grid = _as_float_list(
        _resolve(args, "p_grid", cfg, default=list(DEFAULT_P_GRID)), "--p-grid"
    )
    fmt = _resolve(args, "format", cfg, default="csv")
    channels = _loaded_channels(args, config)
    if channels is not None:
        raise CliError("simulate does not support --load-channels; use verify")
    report = analysis.simulate_report(config, p_grid, trials)
    _dump_trial_artifacts(config, None, args)
    _emit(_report_text(report, fmt), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config_file(args.config)
    k_list = _as_int_list(_resolve(args, "k", cfg, required=True), "--k")
    m_list = _as_int_list(_resolve(args, "m", cfg, required=True), "--m")
    n_list = _as_int_list(_resolve(args, "n", cfg, required=True), "--n")
    if not (k_list and m_list and n_list):
        raise CliError("sweep lists must be nonempty")
    trials = _as_int(_resolve(args, "trials", cfg, default=DEFAULT_TRIALS), "--trials")
    raw_grid = _resolve(args, "p_grid", cfg)
    p_grid = _as_float_list(raw_grid, "--p-grid") if raw_grid is not None else None
    fmt = _resolve(args, "format", cfg, default="csv")
    out = _resolve(args, "out", cfg, required=True)
    # run-wide arguments fail the whole sweep once, not every row
    if trials < 1:
        raise CliError("--trials must be positive")
    if p_grid is not None:
        analysis.validate_power_grid(p_grid)

    lines = [VERSION_COMMENT, REPORT_COLUMNS + ",error"]
    rows_json = []
    for k, m, n in itertools.product(sorted(k_list), sorted(m_list), sorted(n_list)):
        config = _network_config(args, cfg, k, m, n)
        try:
            if p_grid is not None:
                report = analysis.simulate_report(config, p_grid, trials)
            else:
                report = analysis.verify_noiseless(config, trials)
            lines.append(report_csv_row(report) + ",")
            doc = report.to_json_dict()
            doc["error"] = None
            rows_json.append(doc)
        except SWEEP_ROW_ERRORS as exc:  # record the failure, keep sweeping
            logger.info("sweep row (%d,%d,%d) failed: %s", k, m, n, exc)
            message = f"{type(exc).__name__}: {exc}".replace(",", ";").replace("\n", " ")
            lines.append(",".join([str(k), str(m), str(n)] + [""] * 10) + "," + message)
            rows_json.append({"K": k, "M": m, "N": n, "error": message})
    text = _json_text(rows_json) if fmt == "json" else "\n".join(lines) + "\n"
    _emit(text, out)
    return EXIT_OK


def _default_nmax(K: int, M: int) -> int:
    top = bounds.regime_thresholds(K)[3] * M
    return math.ceil(top) + 1


def cmd_table1(args) -> int:
    cfg = _load_config_file(args.config)
    k = _as_int(_resolve(args, "k", cfg, required=True), "--k")
    m = _as_int(_resolve(args, "m", cfg, required=True), "--m")
    bounds.regime_thresholds(k)  # fail fast for K < 3
    nmax_raw = _resolve(args, "nmax", cfg)
    nmax = _as_int(nmax_raw, "--nmax") if nmax_raw is not None else _default_nmax(k, m)
    if nmax < 1:
        raise CliError("--nmax must be at least 1")
    fmt = _resolve(args, "format", cfg, default="csv")
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
            cells = [r.K, r.M, r.N, r.case_index, r.private_only, r.cutset, r.gain]
            lines.append(",".join(format_number(c) for c in cells) + f",{flags}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file keyed by flag names")
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default=None)


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
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="noiseless achievability check")
    p_verify.add_argument("--k", default=None)
    p_verify.add_argument("--m", default=None)
    p_verify.add_argument("--n", default=None)
    _add_run_options(p_verify)
    _add_dump_options(p_verify)
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", help="noiseless audit plus DoF slope estimate")
    p_sim.add_argument("--k", default=None)
    p_sim.add_argument("--m", default=None)
    p_sim.add_argument("--n", default=None)
    p_sim.add_argument("--p-grid", dest="p_grid", default=None)
    _add_run_options(p_sim)
    _add_dump_options(p_sim)
    _add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="Cartesian K x M x N experiment sweep")
    p_sweep.add_argument("--k", default=None, help="comma-separated list")
    p_sweep.add_argument("--m", default=None, help="comma-separated list")
    p_sweep.add_argument("--n", default=None, help="comma-separated list")
    p_sweep.add_argument("--p-grid", dest="p_grid", default=None)
    _add_run_options(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table1", help="private-only vs common+private DoF table")
    p_table.add_argument("--k", default=None)
    p_table.add_argument("--m", default=None)
    p_table.add_argument("--nmax", default=None)
    _add_common(p_table)
    p_table.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # CliError and RegimeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (SchemeDesignError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
