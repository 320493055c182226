"""End-to-end verification and quantitative DoF estimation.

Noiseless runs certify interference-freeness (every decoded symbol must
reproduce its transmitted value to near machine precision). For noisy
operation, per-stream SINRs follow in closed form from the designed
filters, and the DoF shows up as the slope of the sum rate against
log2(P); the chain is linear, so power only scales a unit-power round.
Per-trial randomness is derived as seed XOR trial index, so trials are
independent and reproducible in any execution order.

The trials of one configuration are designed and run as stacks along a
leading trial axis: one ``ssa_nc.design_scheme`` and one
``ssa_nc.run_round`` call per stack serve all its trials, whatever the
length of the power grid. Plans are stored at physical size, and a
stack holds up to STACK_ELEMENTS entries of each of its plan's stored
pseudoinverses, so K = 8, M = N = 8 (56 x 56 after extension) runs 64
trials per stack. Each trial's generator sees the same draws in the
same order as when the trial runs alone, so every result is independent
of the stack size. A fixed channel set is designed once, and every stack
reads that one plan through read-only broadcast views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import bounds, ssa_nc
from .channel import ChannelSet, NetworkConfig, generate_channels
from .ssa_nc import SchemeDesignError, SchemePlan

# Trials per stack are capped so that each of a stack's stored physical
# pseudoinverses (K * min(N, M) * M complex entries per trial) stays within
# this many entries, 512 KiB: every benchmarked configuration fits a whole
# pass in one stack, K = 8, M = N = 8 included (64 trials per stack).
STACK_ELEMENTS = 2**15

REPORT_COLUMNS = (
    "K,M,N,L,d,streams,cutset,private_only,slope,slope_stderr,max_err,trials,degenerate"
)


@dataclass(frozen=True)
class DofReport:
    """Summary of one configuration's verification run."""

    K: int
    M: int
    N: int
    L: int
    d: int
    achieved_streams: int
    cutset: int
    private_only: Fraction | None
    slope_estimate: float | None
    slope_stderr: float | None
    noiseless_max_error: float | None
    trials: int
    degenerate_draws: int
    notes: str = ""

    def __post_init__(self) -> None:
        if self.achieved_streams > self.cutset:
            raise ValueError("achieved streams cannot exceed the cut-set bound")
        if self.noiseless_max_error is not None and self.noiseless_max_error < 0:
            raise ValueError("max error must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "K": self.K,
            "M": self.M,
            "N": self.N,
            "L": self.L,
            "d": self.d,
            "streams": self.achieved_streams,
            "cutset": self.cutset,
            "private_only": None if self.private_only is None else float(self.private_only),
            "slope": self.slope_estimate,
            "slope_stderr": self.slope_stderr,
            "max_err": self.noiseless_max_error,
            "trials": self.trials,
            "degenerate": self.degenerate_draws,
            "notes": self.notes,
        }


def format_number(x) -> str:
    """Deterministic scalar formatting for CSV cells; empty for missing."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def report_csv_row(report: DofReport) -> str:
    cells = [
        report.K,
        report.M,
        report.N,
        report.L,
        report.d,
        report.achieved_streams,
        report.cutset,
        report.private_only,
        report.slope_estimate,
        report.slope_stderr,
        report.noiseless_max_error,
        report.trials,
        report.degenerate_draws,
    ]
    return ",".join(format_number(c) for c in cells)


def _private_only_or_none(K: int, M: int, N: int) -> Fraction | None:
    try:
        return bounds.private_only_dof(K, M, N)
    except bounds.RegimeError:
        return None


def _stack_size(config: NetworkConfig) -> int:
    """Trials per stack under the STACK_ELEMENTS budget."""
    base = min(config.N, config.M)
    return max(1, STACK_ELEMENTS // (config.K * base * config.M))


def _designed(config: NetworkConfig, channels: ChannelSet, start: int):
    """design_scheme on a stack whose first trial has global index start;
    a design error names its trial by that index and the seed."""
    try:
        return ssa_nc.design_scheme(config, channels)
    except SchemeDesignError as exc:
        trial = start + exc.trial
        raise SchemeDesignError(f"trial {trial} (seed {config.seed}): {exc}", trial) from exc


def _trial_stacks(config: NetworkConfig, trials: int, channels: ChannelSet | None = None):
    """Design the trials stack by stack; yields (generators, effective
    channels, plan) per stack, all with a leading trial axis.

    The design draws nothing, so each trial generator is left where its
    channel draw stopped (untouched for a given set), and the trial's
    symbol and noise draws follow from it. A given set (one trial) is
    designed once, and every stack repeats its effective channels and plan
    as read-only broadcast views.
    """
    size = _stack_size(config)
    fixed = None if channels is None else _designed(config, channels, 0)
    for start in range(0, trials, size):
        rngs = [config.trial_rng(t) for t in range(start, min(start + size, trials))]
        if fixed is None:
            eff, plan = _designed(config, generate_channels(config, rngs), start)
        else:
            eff, plan = (part.repeated(len(rngs)) for part in fixed)
        yield rngs, eff, plan


def _sender_table(K: int) -> np.ndarray:
    """(K, K-1) table whose row u lists the senders user u decodes, in the
    order of TransmissionTrace.decoded."""
    return np.array([ssa_nc.other_users(K, u) for u in range(K)])


def _message_sq_errors(trace: ssa_nc.TransmissionTrace, senders: np.ndarray) -> np.ndarray:
    """Squared decode error of every (user, sender) message of a round,
    shape (..., K, K-1)."""
    return np.sum(np.abs(trace.decoded - trace.sent[..., senders, :]) ** 2, axis=-1)


def _noiseless_round_errors(
    config: NetworkConfig, rngs, eff: ChannelSet, plan: SchemePlan
) -> np.ndarray:
    """Each trial's worst relative decode error over every user and message
    of one noiseless round of the stack."""
    trace = ssa_nc.run_round(plan, eff, 1.0, rngs, noise_on=False)
    senders = _sender_table(config.K)
    sent_norm = np.linalg.norm(trace.sent, axis=-1)[..., senders]
    err = np.sqrt(_message_sq_errors(trace, senders))
    return np.max(err / np.maximum(sent_norm, 1e-300), axis=(-2, -1))


def _noiseless_report(
    config: NetworkConfig, plan: SchemePlan, trials: int, max_err: float
) -> DofReport:
    K = config.K
    return DofReport(
        K=K,
        M=config.M,
        N=config.N,
        L=plan.extension_factor,
        d=plan.d,
        achieved_streams=K * (K - 1) * plan.d // plan.extension_factor,
        cutset=bounds.cutset_dof(K, config.M, config.N),
        private_only=_private_only_or_none(K, config.M, config.N),
        slope_estimate=None,
        slope_stderr=None,
        noiseless_max_error=max_err,
        trials=trials,
        # the design draws nothing and no trial is ever redrawn
        degenerate_draws=0,
        notes="two-way relay degenerate case" if K == 2 else "",
    )


def verify_noiseless(
    config: NetworkConfig, trials: int, channels: ChannelSet | None = None
) -> DofReport:
    """Run the full chain noise-free over fresh channel draws and record the
    worst relative decode error across all trials, users, and messages.

    Passing a fixed ChannelSet (one trial) reuses it for every trial: it
    is designed once, every trial shares that plan, and only the symbol
    draws vary per trial.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    errors = []
    for rngs, eff, plan in _trial_stacks(config, trials, channels):
        errors.append(_noiseless_round_errors(config, rngs, eff, plan))
    return _noiseless_report(config, plan, trials, _max_error(errors))


def _max_error(errors: list[np.ndarray]) -> float:
    """Worst per-trial error; np.max propagates NaN, so a round that
    decoded NaN reports NaN rather than vanishing from the maximum."""
    return float(np.max(np.concatenate(errors)))


@dataclass(frozen=True)
class StreamSinrs:
    """Closed-form per-stream SINRs through the designed chain.

    mac[p, t]: relay-side SINR of stream t of pair p after zero-forcing and
    unmixing. bc[u, p, t]: user u's downlink SINR for the same stream.
    end_to_end[u, p, t]: decode-and-forward bottleneck, the minimum of the
    two phases (run_round forwards the relay's noisy estimate, so its noise
    adds over both hops). A stacked plan prefixes each with its trial axis.
    """

    mac: np.ndarray
    bc: np.ndarray
    end_to_end: np.ndarray

    def flat(self) -> np.ndarray:
        """Every stream's end-to-end SINR in one row (one row per trial
        of a stack)."""
        return self.end_to_end.reshape(self.end_to_end.shape[:-3] + (-1,))


def _row_power(filters: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("...ij,...ij->...i", filters, filters.conj()))


def stream_sinrs(plan: SchemePlan, P: float) -> StreamSinrs:
    """Per-stream SINRs of both phases and their decode-and-forward minimum.

    The forwarded sum carries two unit-power symbol vectors (power 2 per
    entry). Unit-variance noise passes through each receive filter, so a
    stream's noise power is the squared norm of its filter row. The relay
    filters are identity rows, so the MAC SINR is 2 a^2 P for every
    stream. User u's filter row for stream t of pair p is row
    (p d + t) mod n of pinv(d_u), n the relay dimension, placed in one
    slot. Both SINRs are
    exactly linear in P because the plan's amplitudes are per sqrt(P).
    """
    if P <= 0:
        raise ValueError("P must be positive")
    K, L, d = plan.num_users, plan.extension_factor, plan.d
    a2 = np.asarray(plan.power_scale) ** 2 * P
    b2 = np.asarray(plan.bc_scale) ** 2 * P
    lead = plan.stack_shape
    mac = np.broadcast_to(2.0 * a2[..., np.newaxis, np.newaxis], lead + (K - 1, d))
    noise = np.tile(_row_power(plan.downlink_pinv), L).reshape(lead + (K, K - 1, d))
    bc = 2.0 * b2[..., np.newaxis, np.newaxis, np.newaxis] / noise
    end_to_end = np.minimum(bc, mac[..., np.newaxis, :, :])
    assert np.all(end_to_end <= mac[..., np.newaxis, :, :] + 1e-12)
    assert np.all(end_to_end <= bc + 1e-12)
    return StreamSinrs(mac=mac, bc=bc, end_to_end=end_to_end)


def _power_levels(P_grid) -> np.ndarray:
    """The powers as a float array: non-empty, finite and positive."""
    grid = np.asarray(list(P_grid), dtype=float)
    if grid.size == 0:
        raise ValueError("power grid must not be empty")
    if not np.all(np.isfinite(grid)):
        raise ValueError("powers must be finite")
    if np.any(grid <= 0):
        raise ValueError("powers must be positive")
    return grid


def validate_power_grid(P_grid) -> np.ndarray:
    grid = _power_levels(P_grid)
    if grid.size < 3:
        raise ValueError("power grid needs at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("power grid must be strictly increasing")
    if grid[-1] / grid[0] < 1e3:
        raise ValueError("power grid must span at least three decades")
    return grid


def _fit_slope(config: NetworkConfig, grid: np.ndarray, gammas: np.ndarray) -> tuple[float, float]:
    """Slope and stderr from unit-power stream SINRs, one row per trial.

    The rate curves of the trial-averaged SINRs (row 0) and of every trial
    are one broadcast log2(1 + gamma p) over (curves, powers, streams),
    and every least-squares slope is one product with the centred x.
    """
    trials = gammas.shape[0]
    L = ssa_nc.extension_plan(config.K, config.M, config.N)[1]
    keep = math.ceil(len(grid) * 2 / 3)
    top = grid[-keep:]
    xc = np.log2(top) - np.log2(top).mean()
    g = np.concatenate([gammas.mean(axis=0, keepdims=True), gammas])
    rates = config.duplex_factor * np.log2(1.0 + g[:, np.newaxis, :] * top[:, np.newaxis])
    slopes = (rates.sum(axis=-1) / L) @ xc / (xc @ xc)
    stderr = float(np.std(slopes[1:], ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(slopes[0]), stderr


def estimate_dof_slope(
    config: NetworkConfig, P_grid, trials: int
) -> tuple[float, float]:
    """Least-squares slope of the per-slot sum rate against log2(P).

    Per-stream SINRs are averaged over channel trials before entering the
    log, which keeps rare badly faded draws from biasing the finite-window
    slope; the fit keeps the top ceil(2/3) of the grid to avoid low-SNR
    curvature. The reported stderr is the dispersion of single-trial
    slopes over sqrt(trials).
    """
    grid = validate_power_grid(P_grid)
    if trials < 1:
        raise ValueError("trials must be positive")
    gammas = [stream_sinrs(plan, 1.0).flat() for _, _, plan in _trial_stacks(config, trials)]
    return _fit_slope(config, grid, np.concatenate(gammas))


def decode_mse_sweep(config: NetworkConfig, P_grid, trials: int) -> np.ndarray:
    """Average per-symbol decode MSE at each power level, noise on.

    The chain is linear and plans store amplitudes per sqrt(P), so a
    round's error at P is its unit-power error over sqrt(P): each stack
    runs one unit-power noisy round and the MSE at P is its MSE over P.
    Trial errors are summed in trial order, as one trial at a time would
    sum them.
    """
    grid = _power_levels(P_grid)
    if trials < 1:
        raise ValueError("trials must be positive")
    senders = _sender_table(config.K)
    totals = []
    for rngs, eff, plan in _trial_stacks(config, trials):
        trace = ssa_nc.run_round(plan, eff, 1.0, rngs, noise_on=True)
        totals.append(_message_sq_errors(trace, senders).reshape(len(rngs), -1).sum(axis=-1))
    sq_err = np.add.accumulate(np.concatenate(totals))[-1]
    return sq_err / (trials * config.K * (config.K - 1) * plan.d) / grid


def simulate_report(config: NetworkConfig, P_grid, trials: int) -> DofReport:
    """Noiseless audit plus slope estimation in one report.

    Both use the same plans, so every trial is designed once.
    """
    grid = validate_power_grid(P_grid)
    if trials < 1:
        raise ValueError("trials must be positive")
    errors = []
    gammas = []
    for rngs, eff, plan in _trial_stacks(config, trials):
        errors.append(_noiseless_round_errors(config, rngs, eff, plan))
        gammas.append(stream_sinrs(plan, 1.0).flat())
    slope, stderr = _fit_slope(config, grid, np.concatenate(gammas))
    return replace(
        _noiseless_report(config, plan, trials, _max_error(errors)),
        slope_estimate=slope,
        slope_stderr=stderr,
    )


def reproduce_table1(K: int, M: int, N_list) -> list[bounds.BoundRow]:
    """Regime-table rows for a sweep of relay antenna counts; same code
    path as the bounds module, so values agree exactly."""
    return [bounds.bound_row(K, M, int(n)) for n in N_list]


__all__ = [
    "STACK_ELEMENTS",
    "REPORT_COLUMNS",
    "DofReport",
    "format_number",
    "report_csv_row",
    "verify_noiseless",
    "StreamSinrs",
    "stream_sinrs",
    "estimate_dof_slope",
    "validate_power_grid",
    "decode_mse_sweep",
    "simulate_report",
    "reproduce_table1",
]
