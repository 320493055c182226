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
- ``decode_mse_sweep`` at P = 1e2, 1e4 (10 trials);
- ``verify`` and ``simulate`` CLI output, standard error and exit code
  (5 trials, CSV and JSON).

And once each: ``sweep`` over the small grid with and without
``--p-grid`` (CSV and JSON, both reciprocity modes), ``table1`` for K 3-5
and M 1-4 (CSV and JSON), and the ``--dump-channels`` and ``--dump-plan``
files at 4/4/3, 8/8/8 and 3/4/6 with ``--dump-plan`` after
``--load-channels`` of that dump. Each dump file has a line of its own,
apart from the ``dump-cli`` line of the ``verify`` run that wrote it, so
a change to the report does not hide whether a dump moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
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
            rng = [config.trial_rng(t) for t in range(STACK_TRIALS)]
        else:
            rng = config.trial_rng(0)
        P = NOISY_P if noise_on else 1.0
        try:
            channels, sent, noise = analysis.draw_trials(config, rng, symbols=True, noise=noise_on)
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


def config_lines(seed: int):
    for label, (k, m, n), reciprocal in configs():
        config = NetworkConfig(K=k, M=m, N=n, reciprocal=reciprocal, seed=seed)
        yield from trace_lines(label, config)
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


def table1_lines():
    for k, m, fmt in itertools.product((3, 4, 5), SMALL_MN, ("csv", "json")):
        yield f"table1 {fmt} {k}/{m}", sha(run_cli(["table1", "--k", str(k), "--m", str(m),
                                                      "--format", fmt]))


def dump_lines(seed: int, tmp: str):
    for (k, m, n), reciprocal in itertools.product(DUMP_CONFIGS, (True, False)):
        label = f"{k}/{m}/{n}/{'rec' if reciprocal else 'nonrec'}"
        chans, plan, replan = (os.path.join(tmp, f"{name}.json") for name in ("ch", "plan", "re"))
        for path in (chans, plan, replan):
            if os.path.exists(path):
                os.remove(path)
        flags = ["--k", str(k), "--m", str(m), "--n", str(n), "--trials", str(CLI_TRIALS),
                 "--seed", str(seed), "--reciprocal" if reciprocal else "--no-reciprocal"]
        result = run_cli(["verify", *flags, "--dump-channels", chans, "--dump-plan", plan])
        yield f"dump-cli {label}", sha(result)
        yield f"dump-channels {label}", sha(file_bytes(chans))
        yield f"dump-plan {label}", sha(file_bytes(plan))
        result = run_cli(["verify", *flags, "--load-channels", chans, "--dump-plan", replan])
        yield f"dump-cli loaded {label}", sha(result)
        yield f"dump-plan loaded {label}", sha(file_bytes(replan))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp:
        sections = (
            config_lines(args.seed),
            sweep_lines(args.seed, tmp),
            table1_lines(),
            dump_lines(args.seed, tmp),
        )
        for label, digest in itertools.chain(*sections):
            print(f"{label} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
