"""End-to-end verification and quantitative DoF estimation.

Noiseless runs certify interference-freeness (every decoded symbol must
reproduce its transmitted value to near machine precision). For noisy
operation, per-stream SINRs follow in closed form from the designed
filters, and the DoF shows up as the slope of the sum rate against
log2(P); the chain is linear, so power only scales a unit-power round.
Each trial draws from its own stream, ``NetworkConfig.trial_rng``:
Philox keyed by (seed, trial index), so every trial is reproducible,
independent of the execution order, and independent of every other
(seed, trial) pair's. A trial draws once, before any design: one
standard_normal call gives its channel, then its symbols, then, for the
MSE sweep, its noise. ``draw_trials`` gives that draw for one trial or a
stack; the entry points draw their trials in batches (below), the same
values bit for bit, through ``channel._read_streams``: one Philox per
batch, re-keyed to each trial, which gives every trial its fresh stream
and opens no generator per trial.

The trials of one configuration are designed and run as stacks along a
leading trial axis: one ``ssa_nc.design_scheme`` and one
``ssa_nc.run_round`` call per stack serve all its trials, whatever the
length of the power grid. Plans are stored at physical size, and a stack
holds up to STACK_ELEMENTS entries of each of its plan's stored
pseudoinverses, so K = 8, M = N = 8 (56 x 56 after extension) runs 64
trials per stack. A trial draws the same values in any stack, so every
result is independent of the stack size. A fixed channel set is designed
once, and every stack runs its symbols through that one-trial plan,
which the round functions broadcast over the stack. Two loops run the
stacks: ``_audit``, behind ``verify_noiseless``, ``simulate_report`` and
``sweep_reports``, takes each stack's noiseless errors and, given a power
grid, its SINRs for the slope fit; ``decode_mse_sweep`` takes its noisy
errors. Every entry point checks its power grid, then its trial count.

A sweep groups its configurations by kept relay shape: K, M,
min(N, M) and reciprocity. Each group's rows, their trials in row order,
make a run of stacks, and the stacks, group by group, go in batches of
at most STACK_ELEMENTS stored entries. A batch runs in three stages.
Draw: every trial is read in one call and written in place, its symbols
into its stack's array and only the kept relay antennas of its channel
into its stack's slot of a pool, one pool per kept matrix shape
(min(N, M), M) and reciprocity mode. Validate: each pool is validated
once, as one ChannelSet, whatever the K of its stacks, and each stack
takes its slot as a view of it. Design and run: each stack is designed
and run once. Every row draws its own trials from its own streams and
reads its own slice of the results, and a matrix's decomposition does
not depend on the pool it is factored in, so each row's report is bit
for bit the one it gets alone. Full stacks of one group fill the budget,
so every entry point other than a sweep, a group of one, runs batches of
one stack of one row, and such a batch is drawn directly, with no pool.
A sweep whose audit raises a row error is audited again group by group,
and a group that raises one row by row.

The audit of a group of one hands its last drawn stack to the MSE
sweep: a sweep over the same configuration and trials right after it, as
in checking a configuration's slope and then its MSE, takes that stack's
plan and symbols and validates and designs nothing. The hand-off holds
the plan, the symbols and the trials' reader (a seed and trial indices,
no live generator); the sweep re-reads each of those trials from its
start, channel, symbols and noise in one call, and keeps only the noise.
The hand-off is one-way: the audit always draws and designs its own
stacks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import bounds, channel, ssa_nc
from .channel import ChannelSet, NetworkConfig, _draw, _link_parts
from .linalg import _freeze, _normal_count, _normal_parts, random_gaussian_stacks
from .ssa_nc import SchemeDesignError, SchemePlan

# Failures ``sweep_reports`` returns as one configuration's result: design,
# numeric and argument errors of that configuration (ValueError covers
# RegimeError). A sweep that raises one is audited again group by group,
# and a group that raises one row by row, so each row gets the error, or
# the report, it gets alone. Any other exception is a bug and propagates.
SWEEP_ROW_ERRORS = (SchemeDesignError, np.linalg.LinAlgError, FloatingPointError, ValueError)

# Trials per stack are capped so that each of a stack's stored physical
# pseudoinverses (K * min(N, M) * M complex entries per trial) stays within
# this many entries, 512 KiB: every benchmarked configuration fits a whole
# pass in one stack, K = 8, M = N = 8 included (64 trials per stack). A
# batch of stacks, drawn and validated together, holds as many in all.
STACK_ELEMENTS = 2**15

REPORT_COLUMNS = "K,M,N,L,d,streams,cutset,private_only,slope,slope_stderr,max_err,trials"
# The DofReport field a report column shows, where their names differ;
# the CSV row and the JSON keys (then notes) both read the columns this way.
_COLUMN_FIELDS = {"streams": "achieved_streams", "slope": "slope_estimate",
                  "max_err": "noiseless_max_error"}
_COLUMNS = REPORT_COLUMNS.split(",")
_report_values = operator.attrgetter(*(_COLUMN_FIELDS.get(c, c) for c in _COLUMNS))


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
    notes: str = ""

    def __post_init__(self) -> None:
        if self.achieved_streams > self.cutset:
            raise ValueError("achieved streams cannot exceed the cut-set bound")
        if self.noiseless_max_error is not None and self.noiseless_max_error < 0:
            raise ValueError("max error must be nonnegative")

    def to_json_dict(self) -> dict:
        values = map(json_number, _report_values(self))
        return {**dict(zip(_COLUMNS, values)), "notes": self.notes}


def format_number(x) -> str:
    """Deterministic scalar formatting for CSV cells; empty for missing."""
    if x is None:
        return ""
    if type(x) is int:  # most cells, ahead of the slower isinstance checks
        return str(x)
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else repr(float(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    return str(int(f)) if f.is_integer() and abs(f) < 1e15 else repr(f)


def json_number(x):
    """JSON form of a cell: an exact rational as a float, anything else
    as it is."""
    return float(x) if isinstance(x, Fraction) else x


def report_csv_row(report: DofReport) -> str:
    return ",".join(map(format_number, _report_values(report)))


def _kept_shape(config: NetworkConfig) -> tuple:
    """What the configurations audited as one group share. The scheme
    shuts a relay's surplus antennas down, so every N >= M runs the scheme
    of N = M; and a ChannelSet reads reciprocity over its whole stack, so
    a mixed stack would factor its reciprocal rows' downlinks apart."""
    return config.K, config.M, min(config.N, config.M), config.reciprocal


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError("trials must be positive")


def _stored_entries(config: NetworkConfig) -> int:
    """Entries of each stored physical pseudoinverse of one trial."""
    return config.K * min(config.N, config.M) * config.M


def _stack_size(config: NetworkConfig) -> int:
    """Trials per stack under the STACK_ELEMENTS budget."""
    return max(1, STACK_ELEMENTS // _stored_entries(config))


class _Stack(NamedTuple):
    """Trials start to stop of a group's rows, which take ``trials`` each
    in row order."""

    group: tuple
    start: int
    stop: int


def _batches(groups, trials: int):
    """The stacks of the groups, group by group and then stack by stack,
    in batches: a batch takes stacks while their stored entries total at
    most STACK_ELEMENTS, so each full stack of a group is a batch of its
    own."""
    batch, used = [], 0
    for group in groups:
        size, total = _stack_size(group[0]), len(group) * trials
        for start in range(0, total, size):
            stop = min(start + size, total)
            entries = (stop - start) * _stored_entries(group[0])
            if batch and used + entries > STACK_ELEMENTS:
                yield batch
                batch, used = [], 0
            batch.append(_Stack(group, start, stop))
            used += entries
    if batch:
        yield batch


def _designed(config: NetworkConfig, channels: ChannelSet, start: int):
    """design_scheme on a stack whose first trial has global index start;
    a design error names its trial by that index and the seed."""
    try:
        return ssa_nc.design_scheme(config, channels)
    except SchemeDesignError as exc:
        trial = start + exc.trial
        raise SchemeDesignError(f"trial {trial} (seed {config.seed}): {exc}", trial) from exc


def draw_trials(config: NetworkConfig, rng, channels=None, noise=False):
    """Draw one trial, or each trial of a stack, in one standard_normal
    call per generator: the channel set unless ``channels`` is given, then
    every user's unit-power symbols, then with ``noise`` the relay's and
    the users' unit-variance noise.

    ``rng`` is one generator, or, for a stack whose trial axis then leads
    every array, a ``channel.TrialStreams`` reader or a sequence of one
    generator per trial. Returns (channels, sent, noise), the
    arguments of ``ssa_nc.design_scheme`` and ``ssa_nc.run_round``: sent
    is (K, d) per trial, and noise the pair of the relay's (effective_N,)
    and the users' (K, effective_M) per trial, or None when not asked for.
    """
    return _draw_one(config, rng, channels, noise, config.N)


def _draw_one(config: NetworkConfig, rng, channels, noise: bool, keep: int):
    """``draw_trials`` with a drawn set cut to its first ``keep`` relay
    antennas (``channel._draw``) and validated once, at that size."""
    parts = _after_parts(config, noise)
    if channels is None:
        uplink, downlink, after = _draw(config, rng, parts, keep)
        channels = ChannelSet(uplink=uplink, downlink=downlink)
    else:
        after = random_gaussian_stacks(parts, rng)
    return channels, after[0], (_noise_pair(*after[1:]) if noise else None)


def _after_parts(config: NetworkConfig, noise: bool) -> list:
    """The (count, shape) draws that follow a trial's channel: every
    user's symbols, then with ``noise`` the relay's noise and each
    user's."""
    base, L, d = ssa_nc.extension_plan(config.K, config.M, config.N)
    parts = [(config.K, (d,))]
    if noise:
        parts += [(1, (L * base,)), (config.K, (L * config.M,))]
    return parts


def _noise_pair(relay: np.ndarray, users: np.ndarray) -> tuple:
    """The (relay, users) noise ``run_round`` takes, from the drawn parts."""
    return relay[..., 0, :], users


def _draw_batch(stacks, rows) -> list:
    """Draw a batch of stacks, given each stack's rows: the (row config,
    trial reader) segments of its trials in order. Returns (channels,
    sent) per stack, as ``draw_trials`` gives them without noise, the
    channel set cut to the stack's kept relay antennas and validated.

    Every trial of the batch is read in one ``channel._read_streams``
    call, one Philox for all seeds, and written in place into arrays
    allocated once: its symbols into its stack's, and its channel, only
    the first min(N, M) rows of each uplink and columns of each downlink,
    into its stack's slot of a pool, one per kept (n, M) and reciprocity
    mode. Each pool is validated once, as one ChannelSet: a pool of one
    stack at the stack's shape, (trials, K, n, M), and a pool of several,
    whose K differ, as (1, matrices, n, M), of which each stack takes its
    slot as a view that validation leaves alone (``_slot``); a matrix's
    decomposition does not depend on the stack it is factored in.
    Reciprocity is part of the pool key, since a set reads it from its
    matrices. A drawn cut set is the shutdown of the full set, bit for
    bit, from the same values, and the full set is never validated (see
    ``channel._draw``). A batch drawn here takes no given set and draws
    no noise: only a group of one does, whose batches ``_stacks`` draws
    alone.
    """
    keys, offsets, sizes = [], [], {}
    for stack in stacks:
        config = stack.group[0]
        keys.append((min(config.N, config.M), config.M, config.reciprocal))
        offsets.append(sizes.get(keys[-1], 0))
        sizes[keys[-1]] = offsets[-1] + (stack.stop - stack.start) * config.K
    # each pool's uplink matrices, then, unless reciprocal, its downlinks
    pools = {
        (n, M, reciprocal): [np.empty((size, n, M), dtype=complex)]
        + ([] if reciprocal else [np.empty((size, M, n), dtype=complex)])
        for (n, M, reciprocal), size in sizes.items()
    }
    sent, reads, writes = [], [], []
    for stack, segments, key, lo in zip(stacks, rows, keys, offsets):
        [(count, shape)] = parts = _after_parts(stack.group[0], noise=False)
        symbols = np.empty((stack.stop - stack.start, count, *shape), dtype=complex)
        sent.append(symbols)
        K, n = stack.group[0].K, key[0]
        # the kept relay rows of each uplink and columns of each downlink
        cuts = [(..., slice(n), slice(None)), (..., slice(n))]
        first = 0
        for config, streams in segments:
            span = slice(first, first + len(streams.trials))
            first = span.stop
            matrices = slice(lo + span.start * K, lo + span.stop * K)
            targets = [(a[matrices].reshape(-1, K, *a.shape[1:]), cut)
                       for a, cut in zip(pools[key], cuts)] + [(symbols[span], ...)]
            row_parts = _link_parts(config) + parts
            values = np.empty((len(streams.trials), _normal_count(row_parts)))
            reads.append((streams, values))
            writes.append((values, row_parts, targets))
    channel._read_streams(reads)
    for values, parts, targets in writes:
        for (target, cut), (re, im) in zip(targets, _normal_parts(values, parts)):
            target.real = re[cut]
            target.imag = im[cut]
    root2 = np.sqrt(2.0)
    for a in (*itertools.chain(*pools.values()), *sent):
        a /= root2
    sets = {}
    for key, (uplink, *downlink) in pools.items():
        downlink = downlink[0] if downlink else uplink.swapaxes(-1, -2).copy()
        stack = stacks[keys.index(key)]
        lead = (1, -1) if keys.count(key) > 1 else (stack.stop - stack.start, stack.group[0].K)
        sets[key] = ChannelSet(uplink=uplink.reshape(lead + uplink.shape[1:]),
                               downlink=downlink.reshape(lead + downlink.shape[1:]))
    out = []
    for stack, key, lo, symbols in zip(stacks, keys, offsets, sent):
        drawn_set = sets[key]
        if keys.count(key) > 1:
            drawn_set = _slot(drawn_set, lo, stack.stop - stack.start, stack.group[0].K)
        out.append((drawn_set, _freeze(symbols)))
    return out


def _slot(pool: ChannelSet, lo: int, trials: int, K: int) -> ChannelSet:
    """A stack's trials of K users from a validated pool of (1, matrices,
    n, M), its matrices from lo on in the order they were drawn: a view,
    not validated again."""
    return pool._view(lambda a: a[0, lo : lo + trials * K].reshape((trials, K, *a.shape[2:])))


# The last stack a noiseless pass drew, keyed (config, start, stop): its
# plan, its symbols and its trials' reader, which holds no generator. Only
# a noisy pass over the same trials reads it, and it pops it.
_handoff: dict = {}


def _stack_rows(group, trials: int, start: int, stop: int) -> list:
    """The (config, reader) segments of a group's trials start to stop,
    counting ``trials`` per row through the rows in order."""
    return [
        (row, row.trial_streams(range(max(start - first, 0), min(stop - first, trials))))
        for row, first in zip(group, range(0, stop, trials))
        if first + trials > start
    ]


def _reread_noise(config: NetworkConfig, streams) -> tuple:
    """The noise of a drawn stack's trials: each trial's stream re-read
    from its start in one call, channel, symbols and noise, as the first
    draw would have read it with the noise; only the noise is kept."""
    parts = _link_parts(config) + _after_parts(config, noise=True)
    return _noise_pair(*random_gaussian_stacks(parts, streams)[-2:])


def _stacks(groups, trials: int, channels=None, noise=False):
    """Draw and design the trials of groups of configurations, each group
    sharing a kept relay shape (``_kept_shape``), batch by batch
    (``_batches``): a group's rows' trials run in row order, ``trials``
    each, and a stack may hold trials of several rows, each drawn from its
    own streams. Yields (stack, plan, sent, noise) per stack, in order: the
    plan, its effective channels included, with a leading trial axis,
    and sent and noise as ``draw_trials`` gives them. A batch's stacks
    are drawn and validated together (``_draw_batch``), then designed and
    yielded one by one. A stack's plan is designed under its group's
    first row with the relay cut to the kept size.

    Only a group of one takes a given set or draws noise, and each of its
    batches is one stack of one row. Such a batch has no pool to share
    and is drawn alone (``_draw_one``): pooled, a
    ``verify_noiseless`` at K = 8, M = N = 8 and a noisy
    ``simulate_report`` and ``decode_mse_sweep`` at K = 4, M = 4, N = 3
    took 2-3% longer (BENCH_30.json).

    A given set (one trial) draws no channel: it is designed once, and
    every stack yields that one-trial plan as it was designed, which the
    round functions broadcast over the stack's symbols. Fewer than 1 trial
    raises ValueError, before any design. A drawn stack keeps only the
    min(N, M) relay antennas the scheme uses, and is designed as the
    network of that relay, so each trial is validated once, at the kept
    size; a given set is designed under the configuration itself, which
    validates it in full and again after the relay shutdown.

    A noiseless pass empties ``_handoff`` before each batch's draw and
    each design, and a group of one leaves its drawn, designed stack
    there, so only the last stack outlives the call; a given set's stacks,
    a stack whose design fails and the stacks of a larger group are not
    left. A noisy pass pops the stack of the same (config, start, stop),
    if there is one, re-reads its trials (``_reread_noise``) and keeps
    their noise, which is, like every output, bit for bit that of a fresh
    draw.
    """
    _check_trials(trials)
    fixed = None if channels is None else _designed(groups[0][0], channels, 0)
    for batch in _batches(groups, trials):
        if not noise:
            _handoff.clear()
        elif fixed is None:
            # a group of one: each batch is one stack
            [stack] = batch
            taken = _handoff.pop((stack.group[0], stack.start, stack.stop), None)
            if taken is not None:
                plan, sent, streams = taken
                yield stack, plan, sent, _reread_noise(stack.group[0], streams)
                continue
        rows = [_stack_rows(stack.group, trials, stack.start, stack.stop) for stack in batch]
        if len(batch) == 1 and len(rows[0]) == 1:
            # one stack of one row, as every batch of a group of one
            [[(config, streams)]] = rows
            keep = min(config.N, config.M)
            drawn = [_draw_one(config, streams, channels, noise, keep)]
        else:
            drawn = [(*pair, None) for pair in _draw_batch(batch, rows)]
        for stack, segments, (drawn_set, sent, noise_pair) in zip(batch, rows, drawn):
            config = stack.group[0]
            if fixed is not None:
                plan = fixed
            else:
                if not noise:
                    _handoff.clear()
                cut = config if config.N <= config.M else replace(config, N=config.M)
                plan = _designed(cut, drawn_set, stack.start)
                if not noise and len(stack.group) == 1:
                    _handoff[config, stack.start, stack.stop] = plan, sent, segments[0][1]
            yield stack, plan, sent, noise_pair


def _trial_stacks(group, trials: int, channels=None, noise=False):
    """``_stacks`` of one group: (plan, sent, noise) per stack."""
    for _, plan, sent, noise_pair in _stacks([tuple(group)], trials, channels, noise):
        yield plan, sent, noise_pair


def _message_sq_errors(trace: ssa_nc.TransmissionTrace, messages: np.ndarray) -> np.ndarray:
    """Squared decode error of every (user, sender) message of a round,
    shape (..., K, K-1), given the sent messages gathered in the order of
    ``trace.decoded``."""
    return np.add.reduce(np.abs(trace.decoded - messages) ** 2, axis=-1)


def _sent_messages(trace: ssa_nc.TransmissionTrace) -> np.ndarray:
    """The sent symbols in the order of ``trace.decoded``, (..., K, K-1, d)."""
    return trace.sent[..., ssa_nc.sender_table(trace.sent.shape[-2]), :]


def _noiseless_round_errors(plan: SchemePlan, sent: np.ndarray) -> np.ndarray:
    """Each trial's worst relative decode error over every user and message
    of one noiseless round of the stack."""
    trace = ssa_nc.run_round(plan, 1.0, sent)
    messages = _sent_messages(trace)
    # np.linalg.norm(messages, axis=-1), bit for bit
    sent_norm = np.sqrt(np.add.reduce((messages.conj() * messages).real, axis=-1))
    err = np.sqrt(_message_sq_errors(trace, messages))
    return (err / np.maximum(sent_norm, 1e-300)).max(axis=(-2, -1))


def _audit(groups, trials: int, channels=None, grid=None) -> list[DofReport]:
    """The one loop over the trials of groups of configurations, each
    group sharing a kept relay shape: each stack's noiseless round errors
    and, given a checked power grid, its unit-power SINRs. Each row reads
    its slice of both into its own report, which carries the slope fit of
    its SINRs; the reports come group by group, each in row order. Only
    drawn channels come with a grid: a given set's one-trial plan has one
    row of SINRs, not one per trial."""
    reports, errors, gammas = [], [], []
    for stack, plan, sent, _ in _stacks(groups, trials, channels):
        errors.append(_noiseless_round_errors(plan, sent))
        if grid is not None:
            gammas.append(stream_sinrs(plan, 1.0).flat())
        if stack.stop == len(stack.group) * trials:
            reports += _group_reports(stack.group, trials, plan, errors, gammas, grid)
            errors, gammas = [], []
    return reports


def _group_reports(group, trials: int, plan: SchemePlan, errors, gammas, grid) -> list:
    """Each row's report from its slice of its group's per-stack errors
    and SINRs, and the plan of the group's last stack."""
    errors = np.concatenate(errors)
    gammas = np.concatenate(gammas) if gammas else None
    reports = []
    for first, config in zip(range(0, len(errors), trials), group):
        rows = slice(first, first + trials)
        fit = (None, None) if gammas is None else _fit_slope(config, grid, gammas[rows])
        reports.append(_report(config, trials, plan, errors[rows], *fit))
    return reports


def _report(config: NetworkConfig, trials: int, plan: SchemePlan, errors, slope, stderr):
    """One configuration's report from its trials' noiseless errors, the
    plan of its last stack and its slope fit."""
    K, M, N = config.K, config.M, config.N
    try:
        private_only = bounds.private_only_dof(K, M, N)
    except bounds.RegimeError:  # the regime table starts at K = 3
        private_only = None
    return DofReport(
        K=K,
        M=M,
        N=N,
        L=plan.extension_factor,
        d=plan.d,
        achieved_streams=plan.streams_per_slot,
        cutset=bounds.cutset_dof(K, M, N),
        private_only=private_only,
        slope_estimate=slope,
        slope_stderr=stderr,
        # np.max propagates NaN: a round that decoded NaN reports NaN
        # rather than vanishing from the maximum
        noiseless_max_error=float(errors.max()),
        trials=trials,
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
    return _audit([(config,)], trials, channels)[0]


def sweep_reports(configs, trials: int, P_grid=None) -> list:
    """For each configuration, in input order, its report or the error of
    SWEEP_ROW_ERRORS that auditing it alone raises: ``verify_noiseless``
    without a power grid, ``simulate_report`` with one.

    The configurations that share a kept relay shape (``_kept_shape``)
    are audited as one group, and the groups' stacks in batches
    (``_batches``); a batch's stacks are drawn and validated together, and
    each still takes one design and one noiseless round. Every row draws
    its trials from its own streams, so its report is bit for bit the one
    it gets alone. A sweep that raises a row error is audited again group
    by group, and a group that raises one row by row. An invalid grid or
    trial count raises at once, before any row runs.
    """
    grid = None if P_grid is None else validate_power_grid(P_grid)
    _check_trials(trials)
    groups: dict = {}
    for index, config in enumerate(configs):
        groups.setdefault(_kept_shape(config), []).append(index)
    indices = list(groups.values())
    rows = [tuple(configs[i] for i in group) for group in indices]
    results = [None] * len(configs)
    for i, result in zip(itertools.chain(*indices), _results(rows, trials, grid)):
        results[i] = result
    return results


def _results(groups, trials: int, grid) -> list:
    """The reports of the groups' rows, as ``_audit`` orders them, or, when
    their audit raises a row error, each group's results alone, and for a
    lone group each row's report or error alone."""
    try:
        return _audit(groups, trials, grid=grid)
    except SWEEP_ROW_ERRORS as exc:
        if len(groups) > 1:
            units = [[group] for group in groups]
        elif len(groups[0]) > 1:
            units = [[(config,)] for config in groups[0]]
        else:
            return [exc]
        return [result for unit in units for result in _results(unit, trials, grid)]


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
    if not 0 < P < math.inf:
        raise ValueError("P must be positive and finite")
    K, L, d = plan.num_users, plan.extension_factor, plan.d
    a2 = np.asarray(plan.power_scale) ** 2 * P
    b2 = np.asarray(plan.bc_scale) ** 2 * P
    lead = plan.stack_shape
    mac = np.broadcast_to(2.0 * a2[..., np.newaxis, np.newaxis], lead + (K - 1, d))
    noise = np.tile(_row_power(plan.channels.downlink_pinv), L).reshape(lead + (K, K - 1, d))
    bc = 2.0 * b2[..., np.newaxis, np.newaxis, np.newaxis] / noise
    end_to_end = np.minimum(bc, mac[..., np.newaxis, :, :])
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
    """Least-squares slope of the per-slot sum rate against log2(P), and
    its stderr, from unit-power stream SINRs, one row per trial.

    Per-stream SINRs are averaged over channel trials before entering the
    log, which keeps rare badly faded draws from biasing the finite-window
    slope; the fit keeps the top ceil(2/3) of the grid to avoid low-SNR
    curvature. The stderr is the dispersion of single-trial slopes over
    sqrt(trials).

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


def decode_mse_sweep(config: NetworkConfig, P_grid, trials: int) -> np.ndarray:
    """Average per-symbol decode MSE at each power level, noise on.

    The chain is linear and plans store amplitudes per sqrt(P), so a
    round's error at P is its unit-power error over sqrt(P): each stack
    runs one unit-power noisy round and the MSE at P is its MSE over P.
    Trial errors are summed in trial order, as one trial at a time would
    sum them. A stack the previous noiseless pass over the same
    configuration drew and designed is taken as it is, and only its noise
    is drawn; the result is bit for bit that of a cold sweep.
    """
    grid = _power_levels(P_grid)
    totals = []
    for plan, sent, noise in _trial_stacks([config], trials, noise=True):
        trace = ssa_nc.run_round(plan, 1.0, sent, noise)
        sq_err = _message_sq_errors(trace, _sent_messages(trace))
        totals.append(sq_err.reshape(len(sent), -1).sum(axis=-1))
    sq_err = np.add.accumulate(np.concatenate(totals))[-1]
    return sq_err / (trials * config.K * (config.K - 1) * plan.d) / grid


def simulate_report(config: NetworkConfig, P_grid, trials: int) -> DofReport:
    """Noiseless audit plus slope estimation in one report.

    Both use the same plans, so every trial is designed once; the last
    stack's plans also serve a ``decode_mse_sweep`` over the same trials
    that follows.
    """
    return _audit([(config,)], trials, grid=validate_power_grid(P_grid))[0]


__all__ = [
    "STACK_ELEMENTS",
    "REPORT_COLUMNS",
    "DofReport",
    "format_number",
    "json_number",
    "report_csv_row",
    "draw_trials",
    "verify_noiseless",
    "SWEEP_ROW_ERRORS",
    "sweep_reports",
    "StreamSinrs",
    "stream_sinrs",
    "validate_power_grid",
    "decode_mse_sweep",
    "simulate_report",
]
