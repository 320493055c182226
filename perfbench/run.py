"""Benchmark for mrc_dof_lab: three closed-loop workloads, one per process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (trials_per_s, setup_s,
peak_rss_mb) with no tracing installed. ``--trace 1`` runs untraced and
traced passes of the same inputs in alternation and reports the per-layer
metrics. ``--seed held-out`` selects a seed kept out of development runs,
for re-checking a claim.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and the per-pass figures. The library is imported
from ``src/`` next to this directory; the benchmark exits with code 2 and
prints no result when that source tree is missing.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in every child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("sweep_grid", "extension_large", "noisy_power_sweep")
# Not used in any run made while the benchmark was written.
HELD_OUT_SEED = 860_113_527
# A fresh process runs up to ~1.8x slower for its first seconds.
WARMUP_S = 4.0
WARMUP_MIN_PASSES = 2
MIN_TIMED_PASSES = 10
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60
# Passes whose inputs the traced run replays, cycling while time remains.
TRACED_PASSES = 2


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


def parse_seed(text: str) -> int:
    if text == "held-out":
        return HELD_OUT_SEED
    try:
        seed = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("seed must be an integer or 'held-out'") from exc
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be nonnegative")
    return seed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=parse_seed)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import mrc_dof_lab from this checkout's src/ and nothing else."""
    package = SRC / "mrc_dof_lab" / "__init__.py"
    if not package.is_file():
        raise BenchError(f"no library source at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import mrc_dof_lab

    if Path(mrc_dof_lab.__file__).resolve() != package.resolve():
        raise BenchError(f"imported mrc_dof_lab from {mrc_dof_lab.__file__}, not {package}")
    import workloads

    return workloads


def build_inputs(workloads, name: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    return workloads.WORKLOADS[name](str(OUT_DIR)), workloads.PassSeeds(seed)


def setup_probe(args) -> None:
    """Child process: time the import and input build, print seconds."""
    t0 = time.perf_counter()
    workloads = import_library()
    build_inputs(workloads, args.workload, args.seed)
    print(repr(time.perf_counter() - t0))


def setup_probe_seconds(args) -> float:
    """Set-up seconds measured in one fresh process."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


class Runner:
    """Runs passes of one workload and keeps the tallies of every pass."""

    def __init__(self, workload, seeds) -> None:
        self.workload = workload
        self.seeds = seeds
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.next_seed = 0

    def run(self, index: int):
        t0 = time.perf_counter()
        outcome = self.workload.run_pass(self.seeds[index])
        wall = time.perf_counter() - t0
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.failures.extend(f"pass seed {self.seeds[index]}: {f}" for f in outcome.failures)
        return outcome, wall

    def run_next(self):
        index = self.next_seed
        self.next_seed += 1
        return self.run(index)

    def warm_up(self) -> int:
        deadline = time.perf_counter() + WARMUP_S
        passes = 0
        while passes < WARMUP_MIN_PASSES or time.perf_counter() < deadline:
            self.run_next()
            passes += 1
        return passes


def timed_run(args, workload, seeds) -> tuple[Runner, dict, dict]:
    runner = Runner(workload, seeds)
    warmup_passes = runner.warm_up()
    rates = []
    trials = 0
    busy = 0.0
    setup = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # Set-up probes are spread over the timed section so that their median
    # samples the same host conditions as the passes; none runs during a pass.
    probe_every = args.seconds / SETUP_PROBES
    while len(rates) < MIN_TIMED_PASSES or time.perf_counter() < deadline:
        if len(setup) < SETUP_PROBES and time.perf_counter() >= start + probe_every * len(setup):
            setup.append(setup_probe_seconds(args))
        outcome, wall = runner.run_next()
        rates.append(outcome.trials / wall)
        trials += outcome.trials
        busy += wall
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe_seconds(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        # Draws over the summed pass time: the mean over the whole timed
        # section varied less from run to run on a shared host than the
        # median pass rate did.
        "trials_per_s": {"value": trials / busy, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "warmup_passes": warmup_passes,
        "timed_passes": len(rates),
        "trials_per_pass": workload.trials_per_pass,
        "trials_per_s_median": statistics.median(rates),
        "trials_per_s_quartiles": statistics.quantiles(rates, n=4),
        "trials_per_s_passes": rates,
        "setup_s_samples": setup,
    }
    return runner, metrics, detail


def traced_run(args, workload, seeds) -> tuple[Runner, dict, dict]:
    import tracing

    runner = Runner(workload, seeds)
    warmup_passes = runner.warm_up()
    tracer = tracing.Tracer()
    walls = {"untraced": [], "traced": []}
    pass_spans = []  # (lo, hi) span range of each traced pass
    first_cycle = {"trials": 0, "max_err": 0.0, "slope_err": 0.0}
    deadline = time.perf_counter() + args.seconds
    cycle = 0
    while cycle == 0 or time.perf_counter() < deadline:
        for index in range(TRACED_PASSES):
            _, wall = runner.run(index)
            walls["untraced"].append(wall)
            lo = tracer.span_count()
            tracer.current_request = len(pass_spans)
            tracer.install()
            try:
                outcome, wall = runner.run(index)
            finally:
                tracer.uninstall()
            walls["traced"].append(wall)
            pass_spans.append((lo, tracer.span_count()))
            if cycle == 0:
                first_cycle["trials"] += outcome.trials
                first_cycle["max_err"] = max(first_cycle["max_err"], outcome.max_decode_err)
                first_cycle["slope_err"] = max(first_cycle["slope_err"], outcome.slope_rel_err)
        if cycle == 0:
            redraws, resamples = tracer.redraws, tracer.resamples
        cycle += 1

    counts = tracing.SpanSummary(tracer, 0, pass_spans[TRACED_PASSES - 1][1])
    per_pass = [tracing.SpanSummary(tracer, lo, hi) for lo, hi in pass_spans]
    designs = [d for s in per_pass for d in s.durations("ssa_nc.design_scheme")]
    metrics = layer_metrics(counts, per_pass, first_cycle["trials"])
    overhead = [t / u for t, u in zip(walls["traced"], walls["untraced"])]
    metrics.update({
        "ssa_nc.design_ms_p50": (1e3 * percentile(designs, 0.50), "ms"),
        "ssa_nc.design_ms_p99": (1e3 * percentile(designs, 0.99), "ms"),
        "trace.design_samples": (len(designs), "count"),
        "ssa_nc.redraws": (redraws, "count"),
        "ssa_nc.resamples": (resamples, "count"),
        "analysis.max_decode_err": (first_cycle["max_err"], "ratio"),
        "analysis.slope_rel_err": (first_cycle["slope_err"], "ratio"),
        "trace.pass_s": (statistics.median(walls["untraced"]), "s"),
        "trace.overhead_share": (statistics.median(overhead) - 1.0, "share"),
        "failed_share": (runner.failed / max(runner.attempted, 1), "share"),
    })
    spans_path = OUT_DIR / f"{workload.name}.spans.tsv"
    tracer.write(str(spans_path))
    detail = {
        "warmup_passes": warmup_passes,
        "cycles": cycle,
        "traced_passes": len(pass_spans),
        "trials_per_pass": workload.trials_per_pass,
        "spans": tracer.span_count(),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_pass_s": walls["untraced"],
        "traced_pass_s": walls["traced"],
    }
    return runner, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(counts, per_pass, trials: int) -> dict:
    """Per-trial counts from the first cycle; busy seconds per traced pass
    as the median over all traced passes."""

    def per_trial(*names):
        return counts.calls(*names) / trials

    def med(fn):
        return statistics.median(fn(s) for s in per_pass)

    out = {
        "ssa_nc.designs_per_trial": (per_trial("ssa_nc.design_scheme"), "count"),
        "ssa_nc.rounds_per_trial": (per_trial("ssa_nc.run_round"), "count"),
        "linalg.svd_calls_per_trial": (per_trial("np.linalg.svd"), "count"),
        "linalg.qr_calls_per_trial": (per_trial("np.linalg.qr"), "count"),
        "linalg.solve_inv_calls_per_trial": (per_trial("np.linalg.inv", "np.linalg.solve"), "count"),
        "linalg.lapack_flops_per_trial": (sum(counts.flops.values()) / trials, "flop"),
        "channel.validate_calls_per_trial": (per_trial("channel.validate"), "count"),
    }
    busy = {
        "linalg.svd_s": "np.linalg.svd",
        "linalg.qr_s": "np.linalg.qr",
        "ssa_nc.design_s": "ssa_nc.design_scheme",
        "ssa_nc.uplink_s": "ssa_nc.design_uplink",
        "ssa_nc.relay_zf_s": "ssa_nc.design_relay_zf",
        "ssa_nc.downlink_s": "ssa_nc.design_downlink",
        "channel.generate_s": "channel.generate_channels",
        "channel.validate_s": "channel.validate",
        "channel.extend_s": "channel.extend_channels",
        "ssa_nc.round_s": "ssa_nc.run_round",
        "ssa_nc.mac_s": "ssa_nc.mac_phase",
        "ssa_nc.relay_s": "ssa_nc.relay_process",
        "ssa_nc.bc_s": "ssa_nc.bc_phase",
        "ssa_nc.decode_s": "ssa_nc.user_decode",
        "analysis.sinr_s": "analysis.stream_sinrs",
    }
    for metric, name in busy.items():
        out[metric] = (med(lambda s: s.busy(name)), "s")
    self_times = {
        "ssa_nc.design_self_s": "ssa_nc.design_scheme",
        "analysis.slope_self_s": "analysis.estimate_dof_slope",
        "analysis.mse_self_s": "analysis.decode_mse_sweep",
        "analysis.verify_self_s": "analysis.verify_noiseless",
    }
    for metric, name in self_times.items():
        out[metric] = (med(lambda s: s.self_time(name)), "s")
    out["bounds.s"] = (med(lambda s: s.busy(*s.names_with_prefix("bounds."))), "s")
    out["cli.self_s"] = (med(lambda s: s.self_time(*s.names_with_prefix("cli."))), "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        workloads = import_library()
        workload, seeds = build_inputs(workloads, args.workload, args.seed)
        if args.trace:
            runner, metrics, detail = traced_run(args, workload, seeds)
        else:
            runner, metrics, detail = timed_run(args, workload, seeds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "detail": detail,
        "failures": runner.failures[:20],
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(OUT_DIR / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
