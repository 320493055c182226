"""Print one SHA-256 per seeded output of mrc_dof_lab, for byte-identity checks.

Run from the repository root:

    python3 tools/output_digest.py --seed 7 > digest.txt

The library is imported from ``src/`` next to this directory. Running the
same script in two checkouts and diffing the two outputs shows every
seeded output that changed between them. Each line is ``<label> <sha256>``;
the label names the output. A call that raises records the exception type
and message in place of the output.

Covered, at one seed, over K in {2..5} x M, N in {1..4} plus 8/8/8,
4/8/8, 6/6/5, 3/4/6, 3/5/4 and 4/2/5, in both reciprocity modes:

- every ``TransmissionTrace`` field (bytes, dtype, shape, C-contiguity)
  of one round, for one trial and for a 5-trial stack, noiseless and
  noisy at P = 10;
- the ``verify_noiseless`` max error (10 trials);
- ``decode_mse_sweep`` at P = 1e2, 1e4 (10 trials), drawn cold before
  ``verify_noiseless`` and again after it, when the sweep takes the
  plan of the stack the audit designed (the two digests must be equal);
- ``verify`` and ``simulate`` CLI output, standard error and exit code
  (5 trials, CSV and JSON).

And once each: ``sweep`` over the small grid with and without
``--p-grid`` (CSV and JSON, both reciprocity modes), ``sweep`` over K 3, 4
and 8, M and N 2 and 8 with 70 trials, whose rows fill several batches of
stacks, ``bounds`` for K 3-5,
M 1-4 and N 1-6 (CSV and JSON), ``table1`` for K 3-5 and M 1-4 with the
default ``--nmax``, 1 and 9 (CSV and JSON), and the ``--dump-channels``
and ``--dump-plan`` files of ``verify`` and ``simulate`` at 4/4/3, 8/8/8
and 3/4/6 with ``verify --dump-plan`` after ``--load-channels`` of that
dump. Each dump file has a line of its own, apart from the ``dump-cli``
line of the run that wrote it, so a change to the report does not hide
whether a dump moved.

Every command also runs from a ``--config`` file alone and with a flag
that overrides it, output files included, and ``--help`` of the program
and of each command is hashed at a fixed width. A fixed list of bad
inputs records each command's exit code, standard output and standard
error, with the temporary directory's name replaced by ``<tmp>``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from mrc_dof_lab import analysis, cli, ssa_nc  # noqa: E402
from mrc_dof_lab.channel import NetworkConfig  # noqa: E402

SMALL_K = (2, 3, 4, 5)
SMALL_MN = (1, 2, 3, 4)
EXTRA = ((8, 8, 8), (4, 8, 8), (6, 6, 5), (3, 4, 6), (3, 5, 4), (4, 2, 5))
DUMP_CONFIGS = ((4, 4, 3), (8, 8, 8), (3, 4, 6))
TRACE_FIELDS = ("sent", "relay_rx", "relay_fwd", "user_rx", "decoded")
STACK_TRIALS = 5
NOISY_P = 10.0
AUDIT_TRIALS = 10
MSE_GRID = (1e2, 1e4)
CLI_TRIALS = 5
SWEEP_P_GRID = "1e2,1e3,1e4,1e5,1e6"
BOUNDS_N = (1, 2, 3, 4, 5, 6)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(a: np.ndarray) -> str:
    a = np.asarray(a)
    head = f"{a.dtype.str}|{a.shape}|{a.flags.c_contiguous}|".encode()
    return sha(head + np.ascontiguousarray(a).tobytes())


def guarded(fn) -> str:
    """fn's digest, or a digest of the exception it raised."""
    try:
        return fn()
    except Exception as exc:  # an error is an output too
        return sha(f"{type(exc).__name__}: {exc}".encode())


def configs():
    shapes = list(itertools.product(SMALL_K, SMALL_MN, SMALL_MN)) + list(EXTRA)
    for (k, m, n), reciprocal in itertools.product(shapes, (True, False)):
        yield f"{k}/{m}/{n}/{'rec' if reciprocal else 'nonrec'}", (k, m, n), reciprocal


def trace_lines(label: str, config: NetworkConfig):
    for stacked, noise_on in itertools.product((False, True), (False, True)):
        tag = f"trace {label} {'stack' if stacked else 'single'} noise={int(noise_on)}"
        if stacked:
            rng = config.trial_streams(range(STACK_TRIALS))
        else:
            rng = config.trial_rng(0)
        P = NOISY_P if noise_on else 1.0
        try:
            channels, sent, noise = analysis.draw_trials(config, rng, noise=noise_on)
            plan = ssa_nc.design_scheme(config, channels)
            trace = ssa_nc.run_round(plan, P, sent, noise)
        except Exception as exc:
            yield f"{tag} error", sha(f"{type(exc).__name__}: {exc}".encode())
            continue
        for name in TRACE_FIELDS:
            yield f"{tag} {name}", array_digest(getattr(trace, name))


def run_cli(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}\n--\n{err.getvalue()}".encode()


def file_bytes(path: str) -> bytes:
    return Path(path).read_bytes() if os.path.exists(path) else b"<missing>"


def remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


def config_lines(seed: int):
    for label, (k, m, n), reciprocal in configs():
        config = NetworkConfig(K=k, M=m, N=n, reciprocal=reciprocal, seed=seed)
        yield from trace_lines(label, config)
        # drawn cold here, and after verify_noiseless from the plan it
        # hands over: both lines must read the same (CI checks it)
        yield f"decode_mse_sweep cold {label}", guarded(
            lambda: array_digest(analysis.decode_mse_sweep(config, MSE_GRID, AUDIT_TRIALS))
        )
        yield f"verify_noiseless {label}", guarded(
            lambda: sha(repr(analysis.verify_noiseless(config, AUDIT_TRIALS).noiseless_max_error)
                        .encode())
        )
        yield f"decode_mse_sweep {label}", guarded(
            lambda: array_digest(analysis.decode_mse_sweep(config, MSE_GRID, AUDIT_TRIALS))
        )
        flags = ["--k", str(k), "--m", str(m), "--n", str(n), "--trials", str(CLI_TRIALS),
                 "--seed", str(seed), "--reciprocal" if reciprocal else "--no-reciprocal"]
        for command, fmt in itertools.product(("verify", "simulate"), ("csv", "json")):
            yield f"cli {command} {fmt} {label}", sha(run_cli([command, *flags, "--format", fmt]))


def sweep_lines(seed: int, tmp: str):
    grid = ",".join(map(str, SMALL_MN))
    for p_grid, fmt, reciprocal in itertools.product((False, True), ("csv", "json"), (True, False)):
        out = os.path.join(tmp, f"sweep-{int(p_grid)}-{int(reciprocal)}.{fmt}")
        argv = ["sweep", "--k", ",".join(map(str, SMALL_K)), "--m", grid, "--n", grid,
                "--trials", str(CLI_TRIALS), "--seed", str(seed), "--format", fmt, "--out", out,
                "--reciprocal" if reciprocal else "--no-reciprocal"]
        if p_grid:
            argv += ["--p-grid", SWEEP_P_GRID]
        result = run_cli(argv)
        tag = f"sweep {fmt} p_grid={int(p_grid)} {'rec' if reciprocal else 'nonrec'}"
        yield tag, sha(result + file_bytes(out))
    # batches that cross the stack budget: the first pools the 2 x 2 and
    # 2 x 8 matrices of K = 3 and 4, and 8/8/8 spans the last two
    out = os.path.join(tmp, "sweep-batches.csv")
    argv = ["sweep", "--k", "3,4,8", "--m", "2,8", "--n", "2,8", "--trials", "70",
            "--seed", str(seed), "--out", out]
    yield "sweep csv batches", sha(run_cli(argv) + file_bytes(out))


def bounds_lines():
    for k, m, n, fmt in itertools.product((3, 4, 5), SMALL_MN, BOUNDS_N, ("csv", "json")):
        argv = ["bounds", "--k", str(k), "--m", str(m), "--n", str(n), "--format", fmt]
        yield f"bounds {fmt} {k}/{m}/{n}", sha(run_cli(argv))


def table1_lines():
    for k, m, fmt, nmax in itertools.product((3, 4, 5), SMALL_MN, ("csv", "json"), (None, 1, 9)):
        argv = ["table1", "--k", str(k), "--m", str(m), "--format", fmt]
        if nmax is None:
            yield f"table1 {fmt} {k}/{m}", sha(run_cli(argv))
        else:
            yield f"table1 {fmt} {k}/{m} nmax={nmax}", sha(run_cli(argv + ["--nmax", str(nmax)]))


def dump_lines(seed: int, tmp: str):
    for (k, m, n), reciprocal in itertools.product(DUMP_CONFIGS, (True, False)):
        label = f"{k}/{m}/{n}/{'rec' if reciprocal else 'nonrec'}"
        chans, plan, replan = (os.path.join(tmp, f"{name}.json") for name in ("ch", "plan", "re"))
        remove(chans, plan, replan)
        flags = ["--k", str(k), "--m", str(m), "--n", str(n), "--trials", str(CLI_TRIALS),
                 "--seed", str(seed), "--reciprocal" if reciprocal else "--no-reciprocal"]
        result = run_cli(["verify", *flags, "--dump-channels", chans, "--dump-plan", plan])
        yield f"dump-cli {label}", sha(result)
        yield f"dump-channels {label}", sha(file_bytes(chans))
        yield f"dump-plan {label}", sha(file_bytes(plan))
        result = run_cli(["verify", *flags, "--load-channels", chans, "--dump-plan", replan])
        yield f"dump-cli loaded {label}", sha(result)
        yield f"dump-plan loaded {label}", sha(file_bytes(replan))
        remove(chans, plan)
        result = run_cli(["simulate", *flags, "--dump-channels", chans, "--dump-plan", plan])
        yield f"dump-cli simulate {label}", sha(result)
        yield f"dump-channels simulate {label}", sha(file_bytes(chans))
        yield f"dump-plan simulate {label}", sha(file_bytes(plan))


def flag_argv(command: str, flags: dict) -> list[str]:
    argv = [command]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", value]
    return argv


def config_file_lines(seed: int, tmp: str):
    """Each command from a config file alone, then with a flag over it.
    The bounds and table1 files also hold keys of other commands, which
    they ignore, and one verify file holds nulls, which read as unset."""
    out, chans, plan = (os.path.join(tmp, f"cfg-{name}") for name in ("out", "ch", "plan"))
    run = {"trials": CLI_TRIALS, "seed": seed, "reciprocal": False, "half_duplex": True,
           "out": out}
    foreign = {"dump_plan": 987, "p_grid": "x", "trials": True, "load_channels": [1]}
    docs = (
        ("bounds", {"k": 4, "m": 3, "n": 5, "format": "json", "out": out, **foreign},
         ["--format", "csv"]),
        ("table1", {"k": 4, "m": 7, "nmax": 17, "out": out, **foreign}, ["--nmax", "3"]),
        ("verify", {"k": 4, "m": 4, "n": 3, **run, "format": "json", "dump_channels": chans,
                    "dump_plan": plan}, ["--reciprocal"]),
        ("verify", {"k": "4", "m": 4, "n": 3, **run, "seed": None, "format": None,
                    "load_channels": chans, "dump_plan": plan}, ["--seed", str(seed + 1)]),
        ("simulate", {"k": 3, "m": 4, "n": 6, **run, "p_grid": [1e2, 1e3, 1e4, 1e5, 1e6],
                      "dump_channels": chans, "dump_plan": plan}, ["--no-reciprocal"]),
        ("sweep", {"k": [3, 4], "m": "2,3", "n": [2, 3], **run, "format": "json",
                   "p_grid": SWEEP_P_GRID}, ["--trials", "2"]),
        ("sweep", {"k": "3", "m": [2], "n": [3, 2], **run}, ["--half-duplex"]),
    )
    for i, (command, doc, override) in enumerate(docs):
        cfg = os.path.join(tmp, f"config-{i}.json")
        Path(cfg).write_text(json.dumps(doc), encoding="utf-8")
        for tag, extra in (("file", []), ("override", override)):
            remove(out, plan)
            if not (command == "verify" and "load_channels" in doc):
                remove(chans)
            result = run_cli([command, "--config", cfg, *extra])
            files = b"".join(file_bytes(path) for path in (out, chans, plan))
            yield f"config {command} {i} {tag}", sha(result + files)


BAD_BASES = {
    "bounds": {"k": "3", "m": "2", "n": "3"},
    "table1": {"k": "3", "m": "2"},
    "verify": {"k": "3", "m": "3", "n": "2", "trials": "2"},
    "simulate": {"k": "3", "m": "3", "n": "2", "trials": "2"},
    "sweep": {"k": "3", "m": "3", "n": "2", "trials": "2", "out": "sweep-bad.csv"},
}
# (label, commands, flags dropped, flags set, config document or None):
# each input has one fault
BAD_INPUTS = (
    ("missing-k", tuple(BAD_BASES), ("k",), {}, None),
    ("k-three", tuple(BAD_BASES), (), {"k": "three"}, None),
    ("k2", ("bounds", "table1"), (), {"k": "2"}, None),
    ("format-xml", tuple(BAD_BASES), (), {}, {"format": "xml"}),
    ("format-flag-xml", tuple(BAD_BASES), (), {"format": "xml"}, None),
    ("out-987", tuple(BAD_BASES), ("out",), {}, {"out": 987}),
    ("config-list", tuple(BAD_BASES), (), {}, [1]),
    ("config-missing", tuple(BAD_BASES), (), {"config": "no-such.json"}, None),
    ("p-grid-short", ("simulate", "sweep"), (), {"p_grid": "1,2"}, None),
    ("trials-zero", ("verify", "simulate", "sweep"), (), {"trials": "0"}, None),
    ("nmax-zero", ("table1",), (), {"nmax": "0"}, None),
    ("load-channels-flag", ("simulate",), (), {"load_channels": "ch.json"}, None),
    ("load-channels-config", ("simulate",), (), {}, {"load_channels": "ch.json"}),
    ("load-channels-missing", ("verify",), (), {"load_channels": "no-such.json"}, None),
    ("sweep-out-missing", ("sweep",), ("out",), {}, None),
)


def error_lines(tmp: str):
    for label, commands, dropped, changed, doc in BAD_INPUTS:
        for command in commands:
            flags = {k: v for k, v in BAD_BASES[command].items() if k not in dropped}
            flags.update(changed)
            for key in ("out", "config", "load_channels"):
                if key in flags:
                    flags[key] = os.path.join(tmp, flags[key])
            if doc is not None:
                flags["config"] = os.path.join(tmp, "bad-config.json")
                Path(flags["config"]).write_text(json.dumps(doc), encoding="utf-8")
            remove(os.path.join(tmp, "sweep-bad.csv"))
            result = run_cli(flag_argv(command, flags)) + file_bytes(flags.get("out", ""))
            yield f"error {label} {command}", sha(result.replace(tmp.encode(), b"<tmp>"))


def help_lines():
    yield "help", sha(run_cli(["--help"]))
    yield "version", sha(run_cli(["--version"]))
    for command in BAD_BASES:
        yield f"help {command}", sha(run_cli([command, "--help"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "100"  # argparse wraps --help at the terminal's width
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        sections = (
            config_lines(args.seed),
            sweep_lines(args.seed, tmp),
            table1_lines(),
            dump_lines(args.seed, tmp),
            bounds_lines(),
            config_file_lines(args.seed, tmp),
            error_lines(tmp),
            help_lines(),
        )
        for label, digest in itertools.chain(*sections):
            print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
