"""Signal-space alignment with network coding for the multi-way relay channel.

User 0 forms a pair with every other user. The scheme needs only that the
two users of a pair align at the relay in the uplink (MAC) slot and that
the broadcast zero-forces in the downlink (BC) slot, so any full-rank
choice of the relay-side subspaces works, and the scheme takes the
identity for both. In the MAC slot pair p owns relay streams
[p d, (p+1) d), and every user pre-inverts its own uplink onto them:
user 0 sends pair p's stream through V1[p], the p-th d-column block of
pinv(H_0), and partner p+1 through Vj[p], the p-th d-column block of
pinv(H_{p+1}), so both partners arrive at the relay on the pair's own
streams (signal-space alignment for network coding, Lee, Lim and Chun,
IEEE Trans. IT 56(6), 2010). The relay reads pair p's network-coded sum
of symbol vectors straight off those streams. In the BC slot the relay
broadcasts the sums on the same streams, and user u separates them with
the d-row blocks of pinv(D_u) (D_u has full column rank after the
relay shutdown), then peels the messages apart using its own transmitted
symbols as side information. All K users decode in one batched call, and
``_without_own`` alone orders each user's decoded messages; ``sender_table``
is that order as a table.

When the relay has more antennas than a user (N > M) the surplus relay
antennas are shut down; when the relay dimension is not divisible by K-1,
the scheme runs over a (K-1)-slot symbol extension so the streams split
evenly. The extension belongs to the scheme, not to the channel:
``extension_plan`` alone decides L, and the block channel kron(I_L, H) is
never formed. Since pinv(kron(I_L, H)) = kron(I_L, pinv(H)), the
extension is a slot schedule: relay stream block p (d streams) sits in
slot p // c at block p % c of the n physical relay streams, c = n / d
blocks per slot. Without an extension c = K-1 and every pair shares the
one slot; with one, L = K-1 and d = min(N, M), so pair p's streams are
exactly slot p: each slot is one two-way relay exchange between user 0
and user p+1, with user 0 repeating its common message in all K-1 slots.
Every phase applies the physical matrices slot by slot.

A plan is stored at physical size: it holds the effective channel set
itself, whose pseudoinverses, from the factorizations that validated it,
are the whole design, plus d, L, the users' power scale and each user's
physical beamformer. The design is bookkeeping only: it draws nothing,
and a plan's conditioning is that of the channel alone. Its guard reads
the condition bounds validation left and makes no LAPACK call unless a
trial's bound cannot decide it, when that trial's exact condition
numbers are read. The extended filters V1, Vj, T, relay_filter
and rx_filter are derived on demand for readers and dumps (T and
relay_filter, identity blocks, are not dumped); no round or analysis step
builds them. Plans are power agnostic: they store amplitudes per sqrt(P),
so a single plan serves an entire power sweep.

Every function takes one trial or a stack of trials along a leading trial
axis. The design takes a stacked ChannelSet and gives a plan whose arrays
carry the same axis; the round functions take a plan, which carries its
channels, and the symbols and noise as arrays. They take their trial axes
from the plan when it is stacked, and from their first array otherwise,
so a one-trial plan (a given channel set's) serves a stack of symbol
draws by numpy broadcasting. Nothing here draws: ``analysis.draw_trials``
draws a trial's channel and symbols, and its noise when asked for, before
the design, and ``run_round`` only pushes them through. Each design and
round step is one batched call for the whole stack, and a trial's results
do not depend on the stack it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import DofAllocation, common_only_allocation
from .channel import ChannelSet, NetworkConfig, matrix_to_lists, shutdown_relay_antennas
from .linalg import BOUND_MARGIN, _freeze

# A trial whose uplink or downlink matrix has a condition number above
# this is a design error. The relay-side subspaces are the identity, so
# the plan's conditioning is the channel's and nothing could lower it.
COND_LIMIT = 1e8


class SchemeDesignError(RuntimeError):
    """A channel draw admitted no usable beamformer design.

    trial is the stack position of the failing trial (0 for one trial):
    the first trial that failed in the design step that failed.
    """

    def __init__(self, message: str, trial: int = 0) -> None:
        super().__init__(message)
        self.trial = trial


@dataclass(frozen=True, eq=False)
class SchemePlan:
    """One scheme instance at physical size, as read-only stacks.

    Stored, with K users, n = relay_dim and m = user_dim of the effective
    channel set:

    - channels: the effective ChannelSet (after any shutdown, never
      extended), whose own read-only uplink_pinv (K, m, n) and
      downlink_pinv (K, n, m), from the factorizations that validated it,
      are the whole design
    - d, extension_factor L and power_scale
    - beamformers: (K, m, d), what each user sends in one slot (see
      ``_beamformers``)

    channels.uplink_cond and channels.downlink_cond (K,), computed on
    first read, are the plan's whole conditioning: cond(pinv(D_u)) =
    downlink_cond[u], and each beamformer block has a condition number of
    at most uplink_cond[u].

    Derived on demand, read-only, in the extended block of
    effective_N = L n relay and effective_M = L m user dimensions, where
    pinv(H_u) = kron(I_L, pinv(h_u)) and pair p (0-based) joins user 0
    with user p+1 on relay streams [p d, (p+1) d):

    - V1, Vj: (K-1, effective_M, d), the p-th d-column blocks of pinv(H_0)
      and pinv(H_{p+1}), so H_0 V1[p] = H_{p+1} Vj[p] = E[p], the p-th
      d-column block of the identity
    - T: (K-1, effective_N, d), the broadcast precoders T[p] = E[p]
    - relay_filter: (K-1, d, effective_N), relay_filter[p] = E[p]^T
    - rx_filter: (K, K-1, d, effective_M), rx_filter[u, p] the p-th d-row
      block of pinv(D_u)

    Every filter maps its own pair's image to I_d and the other pairs'
    images to zero. The rounds, the SINRs and the analysis read only the
    stored fields and bc_scale; the derived ones serve dumps and readers.

    A plan for a stack of S trials holds a stacked channel set and
    prefixes beamformers and power_scale with the trial axis. power_scale
    and bc_scale are transmit amplitudes per sqrt(P) for the users and the
    relay; power_scale folds in the extension factor so the power budget is
    met per original time slot, and bc_scale is one float for every trial.
    """

    channels: ChannelSet
    d: int
    extension_factor: int
    power_scale: float | np.ndarray
    beamformers: np.ndarray

    @property
    def bc_scale(self) -> float:
        """The relay's transmit amplitude per sqrt(P), one float for every
        trial: the pair sums it sends have symbol covariance blocks
        E[w_p w_q^H] = (1 + delta_pq) I_d, so their power is 2 relay_dim."""
        return math.sqrt(1 / (2 * self.channels.relay_dim))

    @property
    def effective_N(self) -> int:
        """Relay dimension of the extended block, L n."""
        return self.extension_factor * self.channels.relay_dim

    @property
    def effective_M(self) -> int:
        """User dimension of the extended block, L m."""
        return self.extension_factor * self.channels.user_dim

    @property
    def V1(self) -> np.ndarray:
        """User 0's extended beamformers, (..., K-1, effective_M, d)."""
        return _freeze(self._extended_columns()[..., 0, :, :, :])

    @property
    def Vj(self) -> np.ndarray:
        """Partner p+1's extended beamformer for pair p, (..., K-1, effective_M, d)."""
        pairs = np.arange(self.num_pairs)
        return _freeze(self._extended_columns()[..., pairs + 1, pairs, :, :])

    @property
    def rx_filter(self) -> np.ndarray:
        """Extended user filters, (..., K, K-1, d, effective_M)."""
        rows = _kron_eye(self.channels.downlink_pinv, self.extension_factor)
        shape = (self.num_users, self.num_pairs, self.d, self.effective_M)
        return _freeze(rows.reshape(self.stack_shape + shape))

    @property
    def relay_filter(self) -> np.ndarray:
        """Relay receive filters, (..., K-1, d, effective_N): E[p]^T."""
        blocks = np.eye(self.effective_N, dtype=complex).reshape(-1, self.d, self.effective_N)
        return np.broadcast_to(blocks, self.stack_shape + blocks.shape)

    @property
    def T(self) -> np.ndarray:
        """Broadcast precoders, (..., K-1, effective_N, d): T[p] = E[p]."""
        return self.relay_filter.swapaxes(-1, -2)

    def _extended_columns(self) -> np.ndarray:
        """kron(I_L, pinv(h_u)) split into its pairs' d-column blocks,
        (..., K, K-1, effective_M, d)."""
        cols = _kron_eye(self.channels.uplink_pinv, self.extension_factor)
        shape = (self.num_users, self.effective_M, self.num_pairs, self.d)
        return cols.reshape(self.stack_shape + shape).swapaxes(-3, -2)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one trial's plan, (S,) for a stack of S trials."""
        return self.channels.stack_shape

    @property
    def num_users(self) -> int:
        return self.channels.num_users

    @property
    def num_pairs(self) -> int:
        return self.num_users - 1

    @property
    def streams_per_slot(self) -> int:
        """Delivered streams per original slot: K(K-1)d / L, always integral."""
        k = self.num_users
        total = k * (k - 1) * self.d
        assert total % self.extension_factor == 0
        return total // self.extension_factor


@dataclass(frozen=True, eq=False)
class TransmissionTrace:
    """One simulated channel use of the full two-phase chain.

    Shapes: sent (K, d), relay_rx (effective_N,), relay_fwd (K-1, d),
    user_rx (K, effective_M), decoded (K, K-1, d), each with the round's
    leading trial axis for a stack. decoded[..., u, i, :] is user u's
    estimate of the symbols of sender sender_table(K)[u, i].
    """

    sent: np.ndarray
    relay_rx: np.ndarray
    relay_fwd: np.ndarray
    user_rx: np.ndarray
    decoded: np.ndarray


def sender_table(K: int) -> np.ndarray:
    """(K, K-1) table whose row u lists every user but u, ascending: the
    order of the rows of every user's decoded symbols, which
    ``_without_own`` defines."""
    return _without_own((np.arange(K * K) % K).reshape(K, K, 1))[..., 0]


def _without_own(per_sender: np.ndarray) -> np.ndarray:
    """Drop every user's own entry from a (..., K, K, e) array whose
    [u, v] is user u's entry for sender v: returns (..., K, K-1, e),
    C-contiguous, row u holding the other users' entries in ascending
    sender order. Read row by row from entry 1 on, the K x K table is K-1
    runs of K+1 entries, each ending in a diagonal entry [u, u], so the
    table without its diagonal is those runs without their last entry."""
    lead, (K, e) = per_sender.shape[:-3], per_sender.shape[-2:]
    runs = per_sender.reshape(lead + (K * K, e))[..., 1:, :].reshape(lead + (K - 1, K + 1, e))
    return np.ascontiguousarray(runs[..., :K, :].reshape(lead + (K, K - 1, e)))


def extension_plan(K: int, M: int, N: int) -> tuple[int, int, int]:
    """Dimension bookkeeping only: effective relay count before extension,
    extension factor L, and streams d per pair in the (possibly extended)
    block."""
    base = min(N, M)
    if base % (K - 1) == 0:
        return base, 1, base // (K - 1)
    return base, K - 1, base


def _kron_apply(h: np.ndarray, x: np.ndarray, L: int) -> np.ndarray:
    """kron(I_L, h) @ x for a stack of h (..., r, c) and x (..., L c),
    without forming the kron: x splits into L slots of length c, and one
    batched matmul applies h to every slot. Returns (..., L r)."""
    y = h[..., np.newaxis, :, :] @ x.reshape(x.shape[:-1] + (L, h.shape[-1], 1))
    return y.reshape(y.shape[:-3] + (-1,))


def _kron_eye(h: np.ndarray, L: int) -> np.ndarray:
    """kron(I_L, h) for a stack of h (..., r, c): h in every diagonal
    block, exact zeros elsewhere. Returns (..., L r, L c). Built by hand:
    np.kron's axis bookkeeping keeps ~140 KB of small allocations alive
    per process (numpy 2.4), which showed in peak RSS. Only the plan's
    derived extended filters use it."""
    r, c = h.shape[-2:]
    out = np.zeros(h.shape[:-2] + (L, r, L, c), dtype=h.dtype)
    for slot in range(L):
        out[..., slot, :, slot, :] = h
    return out.reshape(h.shape[:-2] + (L * r, L * c))


def _beamformers(uplink_pinv: np.ndarray, L: int, d: int) -> np.ndarray:
    """Every user's physical beamformer, (..., K, m, d): what it sends in
    one slot. Partner p+1 sends its pair's d-column block of pinv(h_{p+1})
    in its pair's slot, at block p % c of the slot's c = (K-1) / L blocks;
    user 0 sends every pair of a slot at once, in every slot, so its
    beamformer is the sum of the blocks of pinv(h_0)."""
    K, m, n = uplink_pinv.shape[-3:]
    blocks = uplink_pinv.reshape(uplink_pinv.shape[:-1] + (n // d, d)).swapaxes(-3, -2)
    block = np.arange(K - 1) % ((K - 1) // L)
    own = np.ascontiguousarray(blocks[..., 0, :, :, :]).sum(axis=-3, keepdims=True)
    return np.concatenate([own, blocks[..., np.arange(1, K), block, :, :]], axis=-3)


def _slot_sum(images: np.ndarray, L: int) -> np.ndarray:
    """What the relay hears in each slot, (..., L, e), from each user's
    (..., K, e) image: user 0's plus its slot's c = (K-1) / L partners',
    added in user order, which is bit for bit the sum over users of each
    image spread over the slots it is sent in, with zeros elsewhere."""
    K, e = images.shape[-2:]
    c = (K - 1) // L
    partners = images[..., 1:, :].reshape(images.shape[:-2] + (L, c, e))
    y = images[..., :1, :] + partners[..., 0, :]
    for block in range(1, c):
        y += partners[..., block, :]
    return y


def _power_scale(beams: np.ndarray, L: int) -> np.ndarray:
    """User transmit amplitude per sqrt(P), one per trial.

    Users share one amplitude so the relay recovers plain symbol sums; the
    largest per-user budget binds and transmits exactly P per slot. A
    user's budget is the squared norm of its extended beamformer: its
    physical beamformer's, times L for user 0, which sends in every slot.
    """
    power = beams.real**2 + beams.imag**2
    budgets = power.reshape(power.shape[:-2] + (-1,)).sum(axis=-1)
    budgets[..., 0] *= L
    return np.sqrt(L / budgets.max(axis=-1))


def _check_conditioning(eff: ChannelSet) -> None:
    """Raise SchemeDesignError for the first trial whose worst uplink or
    downlink condition number exceeds COND_LIMIT.

    A trial whose condition bounds are all at most COND_LIMIT /
    BOUND_MARGIN passes: the bound is at least the condition number, with
    the margin to spare for rounding. A stack whose trials all pass costs
    one comparison per link. Only the trials the bounds cannot decide read
    their exact condition numbers, so a stack of well-conditioned trials
    takes no SVD here.
    """
    limit = COND_LIMIT / BOUND_MARGIN
    if (eff.uplink_cond_bound <= limit).all() and (eff.downlink_cond_bound <= limit).all():
        return
    bound = np.maximum(eff.uplink_cond_bound.max(axis=-1), eff.downlink_cond_bound.max(axis=-1))
    unsure = np.flatnonzero(~(np.ravel(bound) <= limit))
    exact = eff.stacked().select(unsure)
    worst = np.maximum(exact.uplink_cond.max(axis=-1), exact.downlink_cond.max(axis=-1))
    failed = np.flatnonzero(~(worst <= COND_LIMIT))
    if failed.size:
        raise SchemeDesignError(
            f"channel conditioning {worst[failed[0]]:.3e} exceeds the guardrail {COND_LIMIT:.3e}",
            trial=int(unsure[failed[0]]),
        )


def design_scheme(config: NetworkConfig, channels: ChannelSet) -> SchemePlan:
    """Full design chain: surplus relay antennas shut down to min(N, M),
    the users' beamformers and their power scale.

    Designs one trial or a stack (a stacked ChannelSet), drawing nothing.
    A set whose K, M or N disagrees with the config raises ValueError. A
    trial whose uplink or downlink matrix has a condition number above
    COND_LIMIT raises SchemeDesignError naming its stack position: the
    plan's conditioning is the channel's, so nothing could lower it. The
    condition bounds decide that for every trial they can (see
    ``_check_conditioning``).
    Returns the plan, which holds the effective channels (after any
    antenna shutdown, never extended) and reads their pseudoinverses.
    """
    K, M, N = config.K, config.M, config.N
    if (channels.num_users, channels.user_dim, channels.relay_dim) != (K, M, N):
        raise ValueError(
            f"channel set is K={channels.num_users}, M={channels.user_dim}, "
            f"N={channels.relay_dim}; the configuration is K={K}, M={M}, N={N}"
        )
    _, L, d = extension_plan(K, M, N)
    eff = shutdown_relay_antennas(channels)
    _check_conditioning(eff)
    beams = _freeze(_beamformers(eff.uplink_pinv, L, d))
    power_scale = _power_scale(beams, L)
    if not eff.stack_shape:
        power_scale = float(power_scale)
    return SchemePlan(
        channels=eff, d=d, extension_factor=L, power_scale=power_scale, beamformers=beams
    )


def _vector_rows(vectors, lead: tuple, count, d: int, what: str) -> np.ndarray:
    """The ``count`` length-d vectors of each trial as one array; count
    None is one vector per trial, with no axis for the count."""
    rows = np.asarray(vectors)
    if rows.shape != lead + ((d,) if count is None else (count, d)):
        raise ValueError(
            f"need {count or 'one'} {what} vector{'' if count is None else 's'} of length {d} "
            f"per trial, got shape {rows.shape}"
        )
    return rows


def _amplitude(scale, P: float) -> np.ndarray:
    """Transmit amplitude scale * sqrt(P), one per trial (0-d for one).
    P must be positive and finite."""
    if not 0 < P < math.inf:
        raise ValueError("P must be positive and finite")
    return np.asarray(scale) * np.sqrt(P)


def mac_phase(plan: SchemePlan, symbols, P: float, noise=None) -> np.ndarray:
    """Uplink slot: every user sends its symbol block with amplitude
    power_scale * sqrt(P) through its physical beamformer and uplink h_u
    in each slot its pairs use, user 0 in all L = plan.extension_factor
    slots and partner p+1 in its pair's slot: kron(I_L, h_u) applied slot
    by slot. The relay observes the superposition, plus ``noise`` when
    given: its unit-variance noise, one length-effective_N vector per trial.

    symbols holds one length-d vector per user, as a (K, d) array or a
    sequence, or a (S, K, d) array for S trials: a stacked plan takes its
    own S only, and a one-trial plan serves any S. Draws nothing.
    """
    lead = plan.stack_shape or np.shape(symbols)[:-2]
    s = _vector_rows(symbols, lead, plan.num_users, plan.d, "symbol")
    if noise is not None:
        noise = _vector_rows(noise, lead, None, plan.effective_N, "relay noise")
    L = plan.extension_factor
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis, np.newaxis]
    x = a * (plan.beamformers @ s[..., np.newaxis])
    # each user's image at the relay, the same in every slot it sends in
    images = (plan.channels.uplink @ x)[..., 0]
    y_r = _slot_sum(images, L).reshape(lead + (plan.effective_N,))
    if noise is not None:
        y_r = y_r + noise
    return y_r


def relay_process(plan: SchemePlan, y_r: np.ndarray, P: float) -> np.ndarray:
    """Split the relay streams by pair and rescale: row p of the (K-1, d)
    result is streams [p d, (p+1) d), the network-coded sum of pair p's
    two symbol vectors (up to rounding, when noiseless). This is
    relay_filter @ y_r, bit for bit."""
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis]
    return y_r.reshape(y_r.shape[:-1] + (plan.num_pairs, plan.d)) / a


def bc_phase(plan: SchemePlan, w, P: float, noise=None) -> np.ndarray:
    """Downlink slot: the relay broadcasts every pair sum on the pair's
    relay streams with amplitude bc_scale * sqrt(P), and user u receives it
    through kron(I_L, d_u) of its physical downlink d_u, slot by slot, plus
    ``noise`` when given: the users' unit-variance noise, (K, effective_M)
    per trial.

    w holds one forwarded length-d vector per pair, as a (K-1, d) array or
    a sequence, or a (S, K-1, d) array for S trials, as in ``mac_phase``.
    Row u of the (K, user_dim) result is user u's observation. Draws
    nothing.
    """
    lead = plan.stack_shape or np.shape(w)[:-2]
    w = _vector_rows(w, lead, plan.num_pairs, plan.d, "forwarded")
    if noise is not None:
        noise = _vector_rows(noise, lead, plan.num_users, plan.effective_M, "noise")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis]
    # pair p's sum on relay streams [p d, (p+1) d): sum_p T[p] w[p], bit for bit
    x_r = b * w.reshape(w.shape[:-2] + (plan.effective_N,))
    y = _kron_apply(plan.channels.downlink, x_r[..., np.newaxis, :], plan.extension_factor)
    if noise is not None:
        y = y + noise
    return y


def user_decode(plan: SchemePlan, user_rx, sent, P: float) -> np.ndarray:
    """Recover every user's estimates of the other users' symbol vectors.

    Each user zero-forces every slot with the pair blocks of pinv(d_u),
    which gives pair p's sum of user 0's and user p+1's symbols, then
    peels with its own symbols as side information: its copy of user 0's
    symbols is its own for u = 0, and its own pair's sum less its own
    symbols for u >= 1, and that copy is subtracted from every sum.

    user_rx holds each user's observation, (K, effective_M), and sent
    each user's own symbols, (K, d), with a leading trial axis for a stack
    of trials, as in ``mac_phase``. Returns (K, K-1, d), C-contiguous,
    whose row u follows sender_table(K)[u].
    """
    K, d = plan.num_users, plan.d
    lead = plan.stack_shape or np.shape(user_rx)[:-2]
    y = _vector_rows(user_rx, lead, K, plan.effective_M, "received")
    own = _vector_rows(sent, lead, K, d, "symbol")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis, np.newaxis, np.newaxis]
    # each slot's pair blocks of d rows of pinv(d_u), applied to that slot;
    # what[u, p]: user u's copy of the sum of user 0's and user p+1's symbols
    rows = plan.channels.downlink_pinv
    blocks = rows.reshape(rows.shape[:-2] + (1, -1, d, rows.shape[-1]))
    streams = blocks @ y.reshape(y.shape[:-1] + (plan.extension_factor, 1, -1, 1))
    what = streams.reshape(streams.shape[:-4] + (K - 1, d)) / b
    # s0[u]: user u's copy of user 0's symbols, from its own pair for u >= 1;
    # what[p+1, p] is every K-th row of what's K(K-1) rows, from row K-1 on
    own_pair = what.reshape(what.shape[:-3] + (-1, d))[..., K - 1 :: K, :]
    s0 = np.concatenate([own[..., :1, :], own_pair - own[..., 1:, :]], axis=-2)
    # heard[u, v]: user u's estimate of user v's symbols
    heard = np.concatenate([s0[..., np.newaxis, :], what - s0[..., np.newaxis, :]], axis=-2)
    return _without_own(heard)


def run_round(plan: SchemePlan, P: float, sent, noise=None) -> TransmissionTrace:
    """Push the users' symbols through both phases and every user's
    decoder, for one trial or a stack of trials: a stacked plan's own, or
    any number through a one-trial plan. Draws nothing.

    sent holds each user's length-d symbol vector, (K, d) per trial, and
    noise, when given, the pair (relay noise, user noise) that
    ``mac_phase`` and ``bc_phase`` add.
    """
    sent = np.asarray(sent)
    relay_noise, user_noise = (None, None) if noise is None else noise
    y_r = mac_phase(plan, sent, P, relay_noise)
    w = relay_process(plan, y_r, P)
    user_rx = bc_phase(plan, w, P, user_noise)
    return TransmissionTrace(
        sent=sent,
        relay_rx=y_r,
        relay_fwd=w,
        user_rx=user_rx,
        decoded=user_decode(plan, user_rx, sent, P),
    )


def build_allocation(plan: SchemePlan) -> DofAllocation:
    """Per-slot stream allocation the scheme realizes: d/L common streams
    per user, nothing private."""
    per_user = Fraction(plan.d, plan.extension_factor)
    if per_user.denominator == 1:
        per_user = int(per_user)
    return common_only_allocation(plan.num_users, per_user)


def plan_to_json_dict(plan: SchemePlan) -> dict:
    """JSON encoding of one trial's plan, for dumping a specific draw:
    every designed matrix but T and relay_filter, which are identity
    blocks by construction."""
    if plan.stack_shape:
        raise ValueError("only one trial's plan can be encoded")
    return {
        "d": plan.d,
        "effective_N": plan.effective_N,
        "effective_M": plan.effective_M,
        "extension_factor": plan.extension_factor,
        "power_scale": plan.power_scale,
        "bc_scale": plan.bc_scale,
        "V1": [matrix_to_lists(m) for m in plan.V1],
        "Vj": [matrix_to_lists(m) for m in plan.Vj],
        "rx_filter": [[matrix_to_lists(m) for m in row] for row in plan.rx_filter],
        "uplink_cond": plan.channels.uplink_cond.tolist(),
        "downlink_cond": plan.channels.downlink_cond.tolist(),
    }


__all__ = [
    "COND_LIMIT",
    "SchemeDesignError",
    "SchemePlan",
    "TransmissionTrace",
    "sender_table",
    "extension_plan",
    "design_scheme",
    "mac_phase",
    "relay_process",
    "bc_phase",
    "user_decode",
    "run_round",
    "build_allocation",
    "plan_to_json_dict",
]
