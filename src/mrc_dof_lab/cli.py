"""Command-line front end: bound tables, scheme verification, sweeps.

Subcommands: bounds, verify, simulate, sweep, table1. Right after parsing,
``main`` fills each option of the command that no flag set: from the
config file (flat JSON keyed by flag names), else from ``_DEFAULTS``. So
flag values override config-file values, which override defaults, and
each command reads its options as ``args.<name>``. Every command is
deterministic given its full flag set, and CSV files carry a version
comment so column changes are detectable.

Exit codes: 0 success, 1 verification failure, 2 invalid arguments,
3 internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, analysis, bounds, ssa_nc
from .analysis import REPORT_COLUMNS, format_number, json_number, report_csv_row
from .channel import NetworkConfig, channels_from_json_dict, generate_channels, save_channels
from .ssa_nc import SchemeDesignError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_NUMERIC = 3

VERSION_COMMENT = f"# mrc-dof-lab v{__version__}"

# The value of an option that neither a flag nor the config file set, by
# option name, or by (command, option name) where commands differ: sweep
# without a grid runs noiseless. An option without one stays None.
_DEFAULTS = {
    "format": "csv",
    "trials": 100,
    "seed": 42,
    "reciprocal": True,
    "half_duplex": False,
    ("simulate", "p_grid"): (1e2, 1e3, 1e4, 1e5, 1e6),
}
_FORMATS = ("csv", "json")
# The options that name a file: verify and simulate read all four, in this
# order, and the other commands out alone.
_PATHS = ("out", "dump_channels", "dump_plan", "load_channels")

CASE4_NOTES = (
    "# case4-note: private-only bracket evaluated as 2N+(4-K)M, the printed form is dimensionally inconsistent",
    "# case4-note: case-4 interval taken as K/2 <= N/M <= (K^2-3K+3)/(K-1), the printed direction is empty for K >= 4",
)
# table1's columns: a BoundRow's, with the cut-set total named for what
# reaches it, then the flags
TABLE1_COLUMNS = (
    *("common_private" if f == "cutset" else f for f in bounds.BoundRow._fields),
    "flags",
)


class CliError(ValueError):
    """Invalid command-line or config-file input."""


def _read_json(path: str, option: str):
    """The JSON document of the file an option names, or a CliError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read {option} file {path}: {exc}") from exc


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    doc = _read_json(path, "config")
    if not isinstance(doc, dict):
        raise CliError("config file must hold a flat JSON object")
    return {str(k).replace("-", "_"): v for k, v in doc.items()}


def _merge_config(args) -> None:
    """Fill each option of the command that no flag set from the config
    file, else from _DEFAULTS; a config key that names no option of the
    command is ignored. Then check that every path is a string."""
    cfg = _load_config_file(args.config)
    for key, val in vars(args).items():
        if val is None:
            val = cfg.get(key)
            if val is None:
                val = _DEFAULTS.get((args.command, key), _DEFAULTS.get(key))
            setattr(args, key, val)
    for key in _PATHS:
        val = getattr(args, key, None)
        # a config file's number would open that file descriptor
        if val is not None and not isinstance(val, str):
            raise CliError(f"--{key.replace('_', '-')} must be a path, got {val!r}")


def _required(val, name: str):
    if val is None:
        raise CliError(f"missing required option {name}")
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
    items = val if isinstance(val, (list, tuple)) else str(_required(val, name)).split(",")
    return [_as_number(v, name, kind) for v in items if str(v).strip() != ""]


def _trials(args) -> int:
    trials = _as_number(args.trials, "--trials")
    if trials < 1:
        raise CliError("--trials must be positive")
    return trials


def _format(args) -> str:
    if args.format not in _FORMATS:
        raise CliError(f"format must be one of {', '.join(_FORMATS)}, got {args.format!r}")
    return args.format


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _csv_text(*lines: str) -> str:
    return "\n".join([VERSION_COMMENT, *lines]) + "\n"


def _cells(values) -> str:
    return ",".join(map(format_number, values))


def _kmn(args, keys: str = "kmn") -> tuple[int, ...]:
    return tuple(_as_number(_required(getattr(args, k), f"--{k}"), f"--{k}") for k in keys)


def _network_config(args, K: int, M: int, N: int) -> NetworkConfig:
    return NetworkConfig(
        K=K,
        M=M,
        N=N,
        reciprocal=_as_bool(args.reciprocal, "--reciprocal"),
        duplex_factor=0.5 if _as_bool(args.half_duplex, "--half-duplex") else 1.0,
        seed=_as_number(args.seed, "--seed"),
    )


def cmd_bounds(args) -> int:
    k, m, n = _kmn(args)
    fmt = _format(args)
    row = bounds.bound_row(k, m, n)
    if fmt == "json":
        text = _json_text({key: json_number(v) for key, v in row._asdict().items()})
    else:
        text = _csv_text(",".join(row._fields), _cells(row))
    _emit(text, args.out)
    return EXIT_OK


def _report_text(report: analysis.DofReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_json_dict())
    return _csv_text(REPORT_COLUMNS, report_csv_row(report))


def _dump_trial_artifacts(args, config: NetworkConfig, channels) -> None:
    """Write trial 0's channels and/or plan to the dump paths that are set."""
    if not (args.dump_channels or args.dump_plan):
        return
    base = channels if channels is not None else generate_channels(config, config.trial_rng(0))
    if args.dump_channels:
        save_channels(base, args.dump_channels)
    if args.dump_plan:
        plan = ssa_nc.design_scheme(config, base)
        _emit(_json_text(ssa_nc.plan_to_json_dict(plan)), args.dump_plan)


def _audited(args, config: NetworkConfig, fmt: str, report, channels=None) -> int:
    """Dump trial 0, emit the report, and exit 1 when its audit failed:
    a decode error above 1e-8 (or NaN) or fewer streams than the cut-set."""
    _dump_trial_artifacts(args, config, channels)
    _emit(_report_text(report, fmt), args.out)
    if report.noiseless_max_error <= 1e-8 and report.achieved_streams == report.cutset:
        return EXIT_OK
    print(
        f"verification failed: max_err={report.noiseless_max_error:.3e}, "
        f"streams={report.achieved_streams}, cutset={report.cutset}",
        file=sys.stderr,
    )
    return EXIT_VERIFY_FAILED


def cmd_verify(args) -> int:
    config = _network_config(args, *_kmn(args))
    trials = _trials(args)
    fmt = _format(args)
    # the design checks a loaded set's dimensions against the flags
    path = args.load_channels
    channels = channels_from_json_dict(_read_json(path, "--load-channels")) if path else None
    report = analysis.verify_noiseless(config, trials, channels=channels)
    return _audited(args, config, fmt, report, channels)


def cmd_simulate(args) -> int:
    config = _network_config(args, *_kmn(args))
    trials = _trials(args)
    p_grid = _as_list(args.p_grid, "--p-grid", float)
    fmt = _format(args)
    if args.load_channels:
        raise CliError("simulate does not support --load-channels; use verify")
    return _audited(args, config, fmt, analysis.simulate_report(config, p_grid, trials))


def cmd_sweep(args) -> int:
    k_list, m_list, n_list = (_as_list(getattr(args, key), f"--{key}") for key in "kmn")
    if not (k_list and m_list and n_list):
        raise CliError("sweep lists must be nonempty")
    trials = _trials(args)
    p_grid = _as_list(args.p_grid, "--p-grid", float) if args.p_grid is not None else None
    fmt = _format(args)
    out = _required(args.out, "--out")
    # run-wide arguments and every row's config fail the whole sweep once
    if p_grid is not None:
        analysis.validate_power_grid(p_grid)
    configs = [
        _network_config(args, k, m, n)
        for k, m, n in itertools.product(sorted(k_list), sorted(m_list), sorted(n_list))
    ]

    lines = [REPORT_COLUMNS + ",error"]
    rows_json = []
    # a row's result is its report, or the error of
    # analysis.SWEEP_ROW_ERRORS it raised, recorded in its error cell
    for config, result in zip(configs, analysis.sweep_reports(configs, trials, p_grid)):
        k, m, n = config.K, config.M, config.N
        if isinstance(result, analysis.DofReport):
            if fmt == "json":
                rows_json.append({**result.to_json_dict(), "error": None})
            else:
                lines.append(report_csv_row(result) + ",")
        else:
            message = f"{type(result).__name__}: {result}".replace(",", ";").replace("\n", " ")
            if fmt == "json":
                rows_json.append({"K": k, "M": m, "N": n, "error": message})
            else:
                # K, M and N, an empty cell for every other report column, the error
                empty = [""] * (REPORT_COLUMNS.count(",") - 2)
                lines.append(",".join([str(k), str(m), str(n), *empty, message]))
    _emit(_json_text(rows_json) if fmt == "json" else _csv_text(*lines), out)
    return EXIT_OK


def cmd_table1(args) -> int:
    k, m = _kmn(args, "km")
    top = bounds.regime_thresholds(k)[3]  # fails fast for K < 3
    # by default one row past the last regime boundary
    nmax = _as_number(args.nmax, "--nmax") if args.nmax is not None else math.ceil(top * m) + 1
    if nmax < 1:
        raise CliError("--nmax must be at least 1")
    fmt = _format(args)
    rows = [bounds.bound_row(k, m, n) for n in range(1, nmax + 1)]
    flags = ["case4-reading" if r.case_index == 4 else "" for r in rows]
    notes = list(CASE4_NOTES) if any(flags) else []
    if fmt == "json":
        cells = [map(json_number, (*r, f)) for r, f in zip(rows, flags)]
        text = _json_text({"notes": notes, "rows": [dict(zip(TABLE1_COLUMNS, c)) for c in cells]})
    else:
        lines = [f"{_cells(r)},{f}" for r, f in zip(rows, flags)]
        text = _csv_text(*notes, ",".join(TABLE1_COLUMNS), *lines)
    _emit(text, args.out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file keyed by flag names")
    parser.add_argument("--out", help="output file path (default: stdout)")
    parser.add_argument("--format", choices=_FORMATS)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trials")
    parser.add_argument("--seed")
    parser.add_argument("--half-duplex", action="store_true", default=None)
    parser.add_argument("--reciprocal", action=argparse.BooleanOptionalAction)


def _add_dump_options(parser: argparse.ArgumentParser) -> None:
    for name in ("dump-channels", "load-channels", "dump-plan"):
        parser.add_argument(f"--{name}", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrc-dof-lab",
        description="DoF bounds and signal-space-alignment verification "
        "for the K-user MIMO multi-way relay channel",
    )
    parser.add_argument("--version", action="version", version=f"mrc-dof-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run, dump = _add_run_options, _add_dump_options
    # each command's own options in flag order, then its shared groups
    for name, text, values, groups in (
        ("bounds", "one cut-set/regime table row", "k m n", ()),
        ("verify", "noiseless achievability check", "k m n", (run, dump)),
        ("simulate", "noiseless audit plus DoF slope estimate", "k m n p-grid", (run, dump)),
        ("sweep", "Cartesian K x M x N experiment sweep", "k m n p-grid", (run,)),
        ("table1", "private-only vs common+private DoF table", "k m nmax", ()),
    ):
        command = sub.add_parser(name, help=text)
        for value in values.split():
            lists = name == "sweep" and value in ("k", "m", "n")
            command.add_argument(f"--{value}", help="comma-separated list" if lists else None)
        for add in (*groups, _add_common):
            add(command)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: a build took 1.4 ms,
    about 5% of a 27-row sweep of 5 trials each."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up at each call, not kept in the cached parser, so that a
    # command function wrapped after the first call is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        _merge_config(args)
        return command(args)
    except (ValueError, OSError) as exc:  # CliError and RegimeError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (SchemeDesignError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
