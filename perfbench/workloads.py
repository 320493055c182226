"""The benchmark's workloads and their correctness gates.

Each workload is a closed loop with one client: a pass is one call into a
public entry point (``cli.main`` or an ``analysis`` function), and the
next pass starts when the previous one has returned and been checked.
Pass ``i`` of a run draws its channels from its own 48-bit seed, derived
from the run's ``--seed``; the program sees only that seed.

Why each workload was chosen is in README.md next to this file.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

from mrc_dof_lab import analysis, cli
from mrc_dof_lab.channel import NetworkConfig
from mrc_dof_lab.ssa_nc import SchemeDesignError

# Gates shared with tests/test_acceptance.py; never loosen them.
MAX_DECODE_ERR = 1e-8
SLOPE_REL_TOL = 0.03

SWEEP_K = (3, 4, 5)
SWEEP_M = (2, 3, 4)
SWEEP_N = (2, 3, 4)
SWEEP_TRIALS_PER_ROW = 5

EXTENSION_CONFIG = dict(K=8, M=8, N=8)
EXTENSION_TRIALS = 5

NOISY_CONFIG = dict(K=4, M=4, N=3)
NOISY_P_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
NOISY_TRIALS = 25


@dataclass
class PassOutcome:
    """What one pass did and whether its outputs passed the gate."""

    trials: int = 0
    attempted: int = 0
    failed: int = 0
    max_decode_err: float = 0.0
    slope_rel_err: float = 0.0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class PassSeeds:
    """Deterministic, well separated per-pass seeds for one run seed.

    Distinct 48-bit seeds keep the library's seed-XOR-trial streams of
    different passes apart, so no pass repeats another's draws. Seeds are
    drawn on first use, so a run can make any number of passes.
    """

    def __init__(self, seed: int) -> None:
        self._rnd = random.Random(seed)
        self._seeds: list[int] = []

    def __getitem__(self, index: int) -> int:
        while len(self._seeds) <= index:
            self._seeds.append(self._rnd.getrandbits(48))
        return self._seeds[index]


def _noiseless_ok(max_err, streams, cutset) -> bool:
    return max_err <= MAX_DECODE_ERR and streams == cutset


class Workload:
    """One pass per ``run_pass`` call; files go to ``out_dir`` only."""

    name = ""
    trials_per_pass = 0

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def run_pass(self, seed: int) -> PassOutcome:
        raise NotImplementedError


class SweepGrid(Workload):
    name = "sweep_grid"
    trials_per_pass = len(SWEEP_K) * len(SWEEP_M) * len(SWEEP_N) * SWEEP_TRIALS_PER_ROW

    def __init__(self, out_dir: str) -> None:
        super().__init__(out_dir)
        self.out_path = os.path.join(out_dir, "sweep_grid.csv")
        self.argv = [
            "sweep",
            "--k", ",".join(map(str, SWEEP_K)),
            "--m", ",".join(map(str, SWEEP_M)),
            "--n", ",".join(map(str, SWEEP_N)),
            "--trials", str(SWEEP_TRIALS_PER_ROW),
            "--out", self.out_path,
        ]

    def run_pass(self, seed: int) -> PassOutcome:
        out = PassOutcome(trials=self.trials_per_pass)
        code = cli.main(self.argv + ["--seed", str(seed)])
        out.check(code == cli.EXIT_OK, f"sweep exit code {code}")
        if code != cli.EXIT_OK:
            return out
        with open(self.out_path, "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        out.check(len(rows) == self.trials_per_pass // SWEEP_TRIALS_PER_ROW, "sweep row count")
        for row in rows:
            where = f"row K={row['K']} M={row['M']} N={row['N']}"
            if row["error"]:
                out.check(False, f"{where}: {row['error']}")
                continue
            max_err = float(row["max_err"])
            out.max_decode_err = max(out.max_decode_err, max_err)
            out.check(
                _noiseless_ok(max_err, int(row["streams"]), int(row["cutset"])),
                f"{where}: max_err={max_err:.3e} streams={row['streams']} cutset={row['cutset']}",
            )
        return out


class ExtensionLarge(Workload):
    name = "extension_large"
    trials_per_pass = EXTENSION_TRIALS

    def run_pass(self, seed: int) -> PassOutcome:
        out = PassOutcome(trials=self.trials_per_pass)
        config = NetworkConfig(seed=seed, **EXTENSION_CONFIG)
        try:
            report = analysis.verify_noiseless(config, self.trials_per_pass)
        except (SchemeDesignError, np.linalg.LinAlgError) as exc:
            out.check(False, f"design error: {exc}")
            return out
        out.max_decode_err = report.noiseless_max_error
        out.check(
            _noiseless_ok(report.noiseless_max_error, report.achieved_streams, report.cutset),
            f"max_err={report.noiseless_max_error:.3e} streams={report.achieved_streams}",
        )
        return out


class NoisyPowerSweep(Workload):
    name = "noisy_power_sweep"
    trials_per_pass = NOISY_TRIALS

    def run_pass(self, seed: int) -> PassOutcome:
        out = PassOutcome(trials=self.trials_per_pass)
        config = NetworkConfig(seed=seed, **NOISY_CONFIG)
        try:
            report = analysis.simulate_report(config, NOISY_P_GRID, self.trials_per_pass)
        except (SchemeDesignError, np.linalg.LinAlgError) as exc:
            out.check(False, f"simulate design error: {exc}")
        else:
            out.max_decode_err = report.noiseless_max_error
            out.slope_rel_err = abs(report.slope_estimate - report.cutset) / report.cutset
            out.check(
                _noiseless_ok(report.noiseless_max_error, report.achieved_streams, report.cutset)
                and out.slope_rel_err <= SLOPE_REL_TOL,
                f"max_err={report.noiseless_max_error:.3e} streams={report.achieved_streams} "
                f"slope={report.slope_estimate:.4f} cutset={report.cutset}",
            )
        try:
            mse = analysis.decode_mse_sweep(config, NOISY_P_GRID, self.trials_per_pass)
        except (SchemeDesignError, np.linalg.LinAlgError) as exc:
            out.check(False, f"mse design error: {exc}")
        else:
            out.check(
                bool(np.all(np.diff(mse) < 0)) and all(math.isfinite(v) for v in mse),
                f"mse not monotone: {list(mse)}",
            )
        return out


WORKLOADS = {w.name: w for w in (SweepGrid, ExtensionLarge, NoisyPowerSweep)}
