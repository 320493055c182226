"""End-to-end verification and quantitative DoF estimation.

Noiseless runs certify interference-freeness (every decoded symbol must
reproduce its transmitted value to near machine precision). For noisy
operation, everything follows in closed form from the designed filters:
the chain is linear, so power only scales a unit-power round, and each
decoded entry's error is a fixed linear map of unit-variance noise. The
per-stream SINRs (``stream_sinrs``) give the DoF as the slope of the sum
rate against log2(P), and each decoded entry's error variance
(``decode_error_variance``) gives the decode MSE exactly, with no noise
drawn.
Each trial draws from its own stream, ``NetworkConfig.trial_rng``:
Philox keyed by (seed, trial index), so every trial is reproducible,
independent of the execution order, and independent of every other
(seed, trial) pair's. A trial draws once, before any design: one
standard_normal call gives its channel, then its symbols, then, when
``draw_trials`` is asked for it, its noise. One routine, ``_draw``, makes
every draw: that of ``draw_trials``, for one trial or a stack, and the
entry points' batches (below). It reads a batch through one
``channel._fill`` call: one Philox, re-keyed to each trial, which gives
every trial its fresh stream and opens no generator per trial, and
writes each trial's values in place, its channel cut to the relay
antennas kept.

The trials of one configuration are designed and run as stacks along a
leading trial axis: one ``ssa_nc.design_scheme`` call per stack, and in
the audit one ``ssa_nc.run_round`` call, serve all its trials, whatever
the length of the power grid. Plans are stored at physical size, and a stack
holds up to STACK_ELEMENTS entries of each of its plan's stored
pseudoinverses, so K = 8, M = N = 8 (56 x 56 after extension) runs 64
trials per stack. A trial draws the same values in any stack, so every
result is independent of the stack size. A fixed channel set is designed
once, and every stack runs its symbols through that one-trial plan,
which the round functions broadcast over the stack. Two loops run the
stacks: ``_audit``, behind ``verify_noiseless``, ``simulate_report`` and
``sweep_reports``, takes each stack's noiseless errors and, given a power
grid, its SINRs for the slope fit; ``decode_mse_sweep`` takes each
stack's error variances and runs no round. Every entry point checks its
power grid, then its trial count.

A sweep groups its configurations by kept relay shape: K, M,
min(N, M) and reciprocity. Each group's rows, their trials in row order,
make a run of stacks, and the stacks, group by group, go in batches of
at most STACK_ELEMENTS stored entries. A batch runs in three stages.
Draw: one call reads each (seed, trial range) of the batch once, however
many rows read it, and writes every trial in place, its symbols into its
stack's array and only the kept relay antennas of its channel into a
pool, one pool per kept matrix shape (min(N, M), M) and reciprocity
mode. Reciprocal stacks whose rows read the same streams at the same M
and N, differing only in K, hold the same uplinks for their first users:
the stack of most users writes them, and the others take users [:K] of
its set. Validate: each pool is validated once, as one ChannelSet,
whatever the K of its stacks, and each stack takes its trials as a view
of it. Design and run: each stack is designed and run once. Every row
draws its own trials from its own streams and reads its own slice of
the results, and a matrix's decomposition does not depend on the pool
it is factored in, so each row's report is bit for bit the one it gets
alone. Full stacks of one group fill the budget, so every
entry point other than a sweep, a group of one, runs batches of one
stack of one row: the same draw, whose pool is the stack's own array.
A sweep whose audit raises a row error is audited again group by group,
and a group that raises one row by row.

The audit of a group of one hands its last designed stack's plan to the
MSE sweep: a sweep over the same configuration and trials right after
it, as in checking a configuration's slope and then its MSE, takes that
plan and draws, validates and designs nothing for that stack. The
hand-off is one-way: the audit always draws and designs its own stacks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from . import bounds, channel, ssa_nc
from .channel import ChannelSet, NetworkConfig, TrialStreams
from .linalg import _freeze
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
    """A trial count is a positive int or numpy integer, not a bool, as
    ``NetworkConfig`` takes its integers: a bool would count as one trial,
    and a float or a string would fail deep inside the batching."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValueError(f"trials must be an integer, not {trials!r}")
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
    call per trial: the channel set unless ``channels`` is given, then
    every user's unit-power symbols, then with ``noise`` the relay's and
    the users' unit-variance noise.

    ``rng`` is one generator, drawn on from its state, or, for a stack
    whose trial axis then leads every array, a ``channel.TrialStreams``
    reader. Returns (channels, sent, noise), the arguments of
    ``ssa_nc.design_scheme`` and ``ssa_nc.run_round``: sent is (K, d) per
    trial, and noise the pair of the relay's (effective_N,) and the
    users' (K, effective_M) per trial, or None when not asked for.
    """
    [drawn] = _draw([[(config, rng)]], False, channels, noise)
    return drawn


@cache
def _trial_layout(K: int, M: int, N: int, reciprocal: bool, cut: bool, links: bool,
                  noise: bool) -> tuple:
    """One trial's draw, for ``_draw``: its (count, shape) parts in stream
    order, as ``channel._fill`` reads them (with ``links`` its channel,
    ``channel._link_parts``, then every user's symbols, then with
    ``noise`` the relay's noise and each user's); the per-trial shape of
    each part's target; the number of channel targets, which go into
    pools; and the pool key: the relay antennas kept, M and reciprocity."""
    base, L, d = ssa_nc.extension_plan(K, M, N)
    n = min(N, M) if cut else N
    parts, shapes = (), ()
    if links:
        parts = channel._link_parts(K, M, N, reciprocal)
        shapes = ((K, n, M),) if reciprocal else ((K, n, M), (K, M, n))
    parts += ((K, (d,)),)
    shapes += ((K, d),)
    if noise:
        parts += ((1, (L * base,)), (K, (L * M,)))
        shapes += ((1, L * base), (K, L * M))
    return parts, shapes, len(shapes) - 1 - 2 * noise, (n, M, reciprocal)


def _layout(config: NetworkConfig, cut: bool, links: bool, noise: bool) -> tuple:
    """``_trial_layout`` of one configuration's trial."""
    return _trial_layout(config.K, config.M, config.N, config.reciprocal, cut, links, noise)


@cache
def _same_users(small: tuple, large: tuple, links: int) -> bool:
    """Whether a trial drawn as the parts ``small`` finds each of its
    users' channels at the stream positions where a trial drawn as
    ``large`` finds them: each of the first ``links`` parts, the links,
    starts at the same value in both and has the same matrix shape, and
    ``small`` has no more users. The K uplinks of a reciprocal trial head
    it at every K; the downlinks of any other trial follow its K uplinks,
    so they move with K."""
    small, large = (channel._blocks(parts)[1][:links] for parts in (small, large))
    return all(a[0] == b[0] and a[2][0] <= b[2][0] and a[2][1:] == b[2][1:]
               for a, b in zip(small, large))


def _owners(batch, cut: bool, noise: bool) -> list:
    """For each (rows, layout, trials) stack of a batch, the index of the
    stack whose drawn channels it takes users [:K] of: the stack of most
    users among those whose rows read the same streams (seed and trials)
    at the same N, in one pool, when each row finds its users' channels
    where that stack's row does (``_same_users``); else itself. One
    generator's trial is its own."""
    keys, largest = [], {}
    for i, (rows, layout, trials) in enumerate(batch):
        key = None
        if trials is not None:
            key = layout[3], tuple((config.N, s.seed, s.trials) for config, s in rows)
            j = largest.setdefault(key, i)
            if rows[0][0].K > batch[j][0][0][0].K:
                largest[key] = i
        keys.append(key)
    owners = []
    for i, ((rows, layout, _), key) in enumerate(zip(batch, keys)):
        j = largest.get(key, i)
        same = j != i and all(
            _same_users(_layout(config, cut, True, noise)[0], _layout(big, cut, True, noise)[0],
                        layout[2])
            for (config, _), (big, _) in zip(rows, batch[j][0]))
        owners.append(j if same else i)
    return owners


def _draw(stacks, cut: bool, channels=None, noise=False) -> list:
    """Draw stacks of trials in one ``channel._fill`` call: the one draw
    behind ``draw_trials``, a sweep's batches, a lone stack and a given
    set's symbols.

    Each stack is a list of (config, source) segments, its trials in
    order, whose configs share K, M, the relay antennas kept and
    reciprocity. A source is a ``channel.TrialStreams`` reader, or one
    generator for one trial, with no trial axis. Returns (channels, sent,
    noise) per stack, as ``draw_trials`` gives them. With ``cut`` a drawn
    set keeps its first min(N, M) relay antennas, and is bit for bit
    ``shutdown_relay_antennas`` of the full set from the same values. The
    full set is never validated: in exact arithmetic a full-rank kept
    block makes the full matrix full rank, and the two rank decisions can
    differ only at the 1e-10 tolerance, where a discarded row with a huge
    entry makes the full matrix read rank deficient, which a Gaussian draw
    is essentially never near.

    Each distinct channel is written and validated once. Stacks whose
    rows read the same streams at the same M and N, differing only in K,
    hold the same channel for their first users when the stream layout
    puts each user's channel at the same positions for every K (reciprocal
    draws; ``_owners``): the stack of most users writes and validates
    them, and every other takes users [:K] of its set as a view, writing
    only its own symbols. Channels go into pools, one per kept matrix
    shape and reciprocity mode, each validated once, whatever the K of its
    stacks: the pool of one stack is the stack's own arrays, validated at
    its shape, and a pool of several is validated as (1, matrices, n, M),
    of which each stack takes its trials as a view. A matrix's
    decomposition does not depend on the stack it is factored in, so each
    stack's set is bit for bit the one it gets drawn alone. A given set
    (``channels``) draws no channel and is each stack's set.
    """
    links = channels is None
    # each stack's rows, layout and trial count (None for one generator's trial)
    batch = []
    for rows in stacks:
        config, source = rows[0]
        trials = sum(len(s.trials) for _, s in rows) if isinstance(source, TrialStreams) else None
        batch.append((rows, _layout(config, cut, links, noise), trials))
    owners = _owners(batch, cut, noise) if links and len(batch) > 1 else range(len(batch))
    # each stack's first matrix in its pool, which only owners fill
    sizes, firsts = {}, []
    for i, (rows, layout, trials) in enumerate(batch):
        firsts.append(sizes.get(layout[3], 0))
        if owners[i] == i:
            sizes[layout[3]] = firsts[i] + (trials or 1) * rows[0][0].K
    pools, segments, drawn = {}, [], []
    for i, (rows, (parts, shapes, pooled, key), trials) in enumerate(batch):
        lead = () if trials is None else (trials,)
        count = (trials or 1) * rows[0][0].K
        arrays = []
        if owners[i] != i:
            # the owner writes and validates this stack's channels
            arrays = [None] * pooled
        elif count < sizes[key]:
            # a pool several stacks share: each writes its matrices in place
            if key not in pools:
                pools[key] = [np.empty((sizes[key],) + shape[1:], dtype=complex)
                              for shape in shapes[:pooled]]
            first = firsts[i]
            arrays = [a[first : first + count].reshape(lead + shape)
                      for a, shape in zip(pools[key], shapes)]
        arrays += [np.empty(lead + shape, dtype=complex) for shape in shapes[len(arrays) :]]
        if len(rows) == 1:
            segments.append((rows[0][1], parts, arrays))
        else:
            start = 0
            for config, source in rows:
                span = slice(start, start + len(source.trials))
                start = span.stop
                segments.append((source, _layout(config, cut, links, noise)[0],
                                 [None if a is None else a[span] for a in arrays]))
        drawn.append((arrays, pooled, key, firsts[i], count))
    channel._fill(segments)
    out, sets = [], {}
    for i, (arrays, pooled, key, first, count) in enumerate(drawn):
        drawn_set = channels
        if pooled and owners[i] == i:
            if key not in sets:
                # a stack alone validates its own arrays, at its stack shape
                pool = [a[np.newaxis] for a in pools[key]] if key in pools else arrays[:pooled]
                sets[key] = ChannelSet(*pool)
            drawn_set = sets[key]
            if key in pools:
                lead = arrays[0].shape[:-3]
                drawn_set = drawn_set._view(
                    lambda a: a[0, first : first + count].reshape(lead + (-1,) + a.shape[2:]))
        sent = _freeze(arrays[-3 if noise else -1])
        noise_pair = (_freeze(arrays[-2])[..., 0, :], _freeze(arrays[-1])) if noise else None
        out.append((drawn_set, sent, noise_pair))
    for i, j in enumerate(owners):
        if j != i:
            K = batch[i][0][0][0].K
            out[i] = (out[j][0]._view(lambda a: a[:, :K]),) + out[i][1:]
    return out


# The plan of the last stack a noiseless pass designed, keyed (config,
# start, stop). Only an MSE sweep over the same trials reads it, and it
# pops it.
_handoff: dict = {}


def _stack_rows(group, trials: int, start: int, stop: int, readers: dict) -> list:
    """The (config, reader) segments of a group's trials start to stop,
    counting ``trials`` per row through the rows in order. ``readers``
    holds one reader per (seed, first trial, stop) and gives rows of one
    seed and trial range the same one."""
    rows = []
    for row, first in zip(group, range(0, stop, trials)):
        if first + trials > start:
            span = row.seed, max(start - first, 0), min(stop - first, trials)
            if span not in readers:
                readers[span] = row.trial_streams(range(*span[1:]))
            rows.append((row, readers[span]))
    return rows


def _stacks(groups, trials: int, channels=None, take=False):
    """Draw and design the trials of groups of configurations, each group
    sharing a kept relay shape (``_kept_shape``), batch by batch
    (``_batches``): a group's rows' trials run in row order, ``trials``
    each, and a stack may hold trials of several rows, each drawn from its
    own streams. Yields (stack, plan, sent) per stack, in order: the plan,
    its effective channels included, with a leading trial axis, and sent
    as ``draw_trials`` gives it. A batch's stacks are drawn and validated
    together (``_draw``), then designed and yielded one by one. A stack's
    plan is designed under its group's first row with the relay cut to
    the kept size. Only a group of one takes a given set or a handed-off
    plan, and each of its batches is one stack of one row, whose pool is
    its own array.

    A given set (one trial) draws no channel: it is designed once, and
    every stack yields that one-trial plan as it was designed, which the
    round functions broadcast over the stack's symbols. A trial count that
    is not a positive integer raises ValueError, before any design. A
    drawn stack keeps only the min(N, M) relay antennas the scheme uses,
    and is designed as the network of that relay, so each trial is
    validated once, at the kept size; a given set is designed under the
    configuration itself, which validates it in full and again after the
    relay shutdown.

    A noiseless pass empties ``_handoff`` before each batch's draw and
    each design, and a group of one leaves its designed stack's plan
    there, so only the last stack's outlives the call; a given set's
    stacks, a stack whose design fails and the stacks of a larger group
    are not left. With ``take`` (the MSE sweep, which reads only plans)
    a stack whose plan is there, under the same (config, start, stop), is
    yielded with that plan, popped, and no symbols: it is neither drawn
    nor designed again, and every other stack is drawn and designed as in
    a noiseless pass, but leaves nothing.
    """
    _check_trials(trials)
    fixed = None if channels is None else _designed(groups[0][0], channels, 0)
    for batch in _batches(groups, trials):
        if not take:
            _handoff.clear()
        else:
            # a group of one: each batch is one stack
            [stack] = batch
            plan = _handoff.pop((stack.group[0], stack.start, stack.stop), None)
            if plan is not None:
                yield stack, plan, None
                continue
        readers: dict = {}
        rows = [_stack_rows(stack.group, trials, stack.start, stack.stop, readers)
                for stack in batch]
        for stack, (drawn_set, sent, _) in zip(batch, _draw(rows, True, channels)):
            config = stack.group[0]
            if fixed is not None:
                plan = fixed
            else:
                if not take:
                    _handoff.clear()
                cut = config if config.N <= config.M else replace(config, N=config.M)
                plan = _designed(cut, drawn_set, stack.start)
                if not take and len(stack.group) == 1:
                    _handoff[config, stack.start, stack.stop] = plan
            yield stack, plan, sent


def _noiseless_round_errors(plan: SchemePlan, sent: np.ndarray) -> np.ndarray:
    """Each trial's worst relative decode error over every user and message
    of one noiseless round of the stack."""
    trace = ssa_nc.run_round(plan, 1.0, sent)
    # the sent symbols in the order of trace.decoded, (..., K, K-1, d)
    messages = trace.sent[..., ssa_nc.sender_table(trace.sent.shape[-2]), :]
    # np.linalg.norm(messages, axis=-1), bit for bit
    sent_norm = np.sqrt(np.add.reduce((messages.conj() * messages).real, axis=-1))
    err = np.sqrt(np.add.reduce(np.abs(trace.decoded - messages) ** 2, axis=-1))
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
    for stack, plan, sent in _stacks(groups, trials, channels):
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


@cache
def _bounds(K: int, M: int, N: int) -> tuple:
    """The cut-set DoF and the private-only DoF of (K, M, N), None where
    the regime table does not reach; every report of a sweep reads them,
    so each (K, M, N) asks ``bounds`` once."""
    try:
        private_only = bounds.private_only_dof(K, M, N)
    except bounds.RegimeError:  # the regime table starts at K = 3
        private_only = None
    return bounds.cutset_dof(K, M, N), private_only


def _report(config: NetworkConfig, trials: int, plan: SchemePlan, errors, slope, stderr):
    """One configuration's report from its trials' noiseless errors, the
    plan of its last stack and its slope fit."""
    K, M, N = config.K, config.M, config.N
    cutset, private_only = _bounds(K, M, N)
    return DofReport(
        K=K,
        M=M,
        N=N,
        L=plan.extension_factor,
        d=plan.d,
        achieved_streams=plan.streams_per_slot,
        cutset=cutset,
        private_only=private_only,
        slope_estimate=slope,
        slope_stderr=stderr,
        # np.max propagates NaN: a round that decoded NaN reports NaN
        # rather than vanishing from the maximum
        noiseless_max_error=float(errors.max()),
        trials=int(trials),
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


def decode_error_variance(plan: SchemePlan) -> np.ndarray:
    """Each decoded entry's error variance in a unit-power round, (..., K,
    K-1, d) in the order of ``TransmissionTrace.decoded``: the exact
    expectation over the relay's and the users' unit-variance noise.

    Each variance is a relay term plus a user term. The relay's estimate
    of each pair's sum carries its noise over a = power_scale, and user
    u's filter rows for pair p add u's noise over b = bc_scale
    (``stream_sinrs``). User 0 takes every message off its pair's sum,
    and user u >= 1 takes sender 0 off its own pair u-1: such a message
    carries one pair's errors, 1/a^2 plus its rows' squared norm over
    b^2. Every other message user u decodes is its pair's sum less u's
    copy of sender 0, so two pairs' errors meet: 2/a^2 plus, over b^2,
    the squared norm of the two rows' difference when both pairs share a
    slot (L = 1), or the sum of their squared norms when they sit in
    different slots.
    """
    K, L, d = plan.num_users, plan.extension_factor, plan.d
    rows = plan.channels.downlink_pinv
    # pairs[u, p % c]: user u's filter rows for pair p, c = n / d pairs per slot
    pairs = rows.reshape(rows.shape[:-2] + (-1, d, rows.shape[-1]))
    # own[u]: the rows of user u's copy of user 0's symbols, zero for u = 0
    own = pairs[..., np.arange(1, K), np.arange(K - 1) % pairs.shape[-3], :, :]
    own = np.concatenate([np.zeros_like(own[..., :1, :, :]), own], axis=-3)
    own_power = _row_power(own)
    if L == 1:
        # every pair in the one slot: both rows filter the same noise
        others = _row_power(pairs - own[..., np.newaxis, :, :])
    else:
        # pair p alone in slot p: the rows filter independent noise
        others = np.broadcast_to(_row_power(pairs) + own_power[..., np.newaxis, :],
                                 own_power.shape[:-1] + (K - 1, d))
    # user[u, v]: user u's term for sender v, [u, u] unused
    user = np.concatenate([own_power[..., np.newaxis, :], others], axis=-2)
    relay = np.full((K, K, 1), 2.0)
    relay[0] = relay[:, 0] = 1.0
    a2 = np.asarray(plan.power_scale)[..., np.newaxis, np.newaxis, np.newaxis] ** 2
    return ssa_nc._without_own(relay / a2 + user / plan.bc_scale**2)


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
    """Average per-symbol decode MSE at each power level: the exact
    expectation over the noise, averaged over the trials' channel draws.

    The chain is linear and plans store amplitudes per sqrt(P), so an
    entry's error variance at P is its unit-power variance over P
    (``decode_error_variance``); the sweep draws no noise and runs no
    round. Each trial's mean variance is summed in trial order, as one
    trial at a time would sum them. A stack the previous noiseless pass
    over the same configuration designed is taken as its plan, and is
    neither drawn nor designed again; the result is bit for bit that of a
    cold sweep.
    """
    grid = _power_levels(P_grid)
    means = [decode_error_variance(plan).reshape(plan.stack_shape + (-1,)).mean(axis=-1)
             for _, plan, _ in _stacks([(config,)], trials, take=True)]
    return np.add.accumulate(np.concatenate(means))[-1] / trials / grid


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
    "decode_error_variance",
    "validate_power_grid",
    "decode_mse_sweep",
    "simulate_report",
]
