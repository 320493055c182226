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
the d-row blocks of pinv(D_u) (D_u has full column rank after
preparation), then peels the messages apart using its own transmitted
symbols as side information.

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

A plan is stored at physical size: the channel set's own pseudoinverses
and condition numbers, from the SVDs that validated it, shared and not
copied, plus d, L and the two power scales. The design is bookkeeping
only: it draws nothing and makes no LAPACK call, and a plan's
conditioning is that of the channel alone. The extended filters V1, Vj,
T, relay_filter and rx_filter are derived on demand for readers and
dumps; no round or analysis step builds them. Plans are power agnostic:
they store amplitudes per sqrt(P), so a single plan serves an entire
power sweep.

Every function takes one trial or a stack of trials along a leading trial
axis: a stacked ChannelSet, with a sequence of generators, one per trial,
in place of one generator for the functions that draw symbols or noise,
giving plans and traces whose arrays carry the same leading axis. Each
design and round step is one batched call for the whole stack. Each trial
draws from its own generator exactly what it would draw alone, in the
same order, so a trial's results do not depend on the stack it is in. A
single trial runs as a stack of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .bounds import DofAllocation, common_only_allocation
from .channel import ChannelSet, NetworkConfig, matrix_to_lists, shutdown_relay_antennas
from .linalg import _freeze, random_gaussian_stack

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
    channel set (after any shutdown, never extended):

    - uplink_pinv: (K, m, n), pinv(h_u) of every user's physical uplink
    - downlink_pinv: (K, n, m), pinv(d_u) of every physical downlink
    - uplink_cond, downlink_cond: (K,), cond(h_u) and cond(d_u)
    - d, extension_factor L, power_scale and bc_scale

    The four arrays are the channel set's own read-only fields, shared and
    not copied. uplink_cond and downlink_cond are the plan's whole
    conditioning: cond(pinv(D_u)) = downlink_cond[u], and each beamformer
    block has a condition number of at most uplink_cond[u].

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
    stored fields; the derived ones serve dumps and readers.

    A plan for a stack of S trials prefixes every array with the trial
    axis, and power_scale and bc_scale are (S,) arrays in place of scalars.
    power_scale and bc_scale are transmit amplitudes per sqrt(P) for the
    users and the relay; they fold in the extension factor so the power
    budget is met per original time slot.
    """

    d: int
    extension_factor: int
    uplink_pinv: np.ndarray
    downlink_pinv: np.ndarray
    uplink_cond: np.ndarray
    downlink_cond: np.ndarray
    power_scale: float | np.ndarray
    bc_scale: float | np.ndarray

    @property
    def effective_N(self) -> int:
        """Relay dimension of the extended block, L n."""
        return self.extension_factor * self.uplink_pinv.shape[-1]

    @property
    def effective_M(self) -> int:
        """User dimension of the extended block, L m."""
        return self.extension_factor * self.uplink_pinv.shape[-2]

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
        rows = _kron_eye(self.downlink_pinv, self.extension_factor)
        shape = (self.num_users, self.num_pairs, self.d, self.effective_M)
        return _freeze(rows.reshape(self.stack_shape + shape))

    @property
    def relay_filter(self) -> np.ndarray:
        """Relay receive filters, (..., K-1, d, relay_dim): E[p]^T."""
        blocks = np.eye(self.effective_N, dtype=complex).reshape(-1, self.d, self.effective_N)
        return np.broadcast_to(blocks, self.stack_shape + blocks.shape)

    @property
    def T(self) -> np.ndarray:
        """Broadcast precoders, (..., K-1, relay_dim, d): T[p] = E[p]."""
        return self.relay_filter.swapaxes(-1, -2)

    def _extended_columns(self) -> np.ndarray:
        """kron(I_L, pinv(h_u)) split into its pairs' d-column blocks,
        (..., K, K-1, effective_M, d)."""
        cols = _kron_eye(self.uplink_pinv, self.extension_factor)
        shape = (self.num_users, self.effective_M, self.num_pairs, self.d)
        return cols.reshape(self.stack_shape + shape).swapaxes(-3, -2)

    def repeated(self, count: int) -> SchemePlan:
        """One trial's plan as a stack of ``count`` identical trials: every
        array a read-only broadcast view of this plan's, nothing copied."""
        if self.stack_shape:
            raise ValueError("only one trial's plan can be repeated")
        names = ("uplink_pinv", "downlink_pinv", "uplink_cond", "downlink_cond",
                 "power_scale", "bc_scale")
        views = {}
        for name in names:
            a = np.asarray(getattr(self, name))
            views[name] = np.broadcast_to(a, (count,) + a.shape)
        return replace(self, **views)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one trial's plan, (S,) for a stack of S trials."""
        return self.uplink_pinv.shape[:-3]

    @property
    def num_users(self) -> int:
        return self.uplink_pinv.shape[-3]

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

    Shapes: sent (K, d), relay_rx (relay_dim,), relay_fwd (K-1, d),
    user_rx (K, user_dim), decoded (K, K-1, d), each with the plan's
    leading trial axis for a stack. decoded[..., u, i, :] is user u's
    estimate of the symbols of sender other_users(K, u)[i].
    """

    sent: np.ndarray
    relay_rx: np.ndarray
    relay_fwd: np.ndarray
    user_rx: np.ndarray
    decoded: np.ndarray


def other_users(K: int, u: int) -> list[int]:
    """Sending users whose messages user u decodes, ascending."""
    return [v for v in range(K) if v != u]


def extension_plan(K: int, M: int, N: int) -> tuple[int, int, int]:
    """Dimension bookkeeping only: effective relay count before extension,
    extension factor L, and streams d per pair in the (possibly extended)
    block."""
    base = min(N, M)
    if base % (K - 1) == 0:
        return base, 1, base // (K - 1)
    return base, K - 1, base


def prepare_scheme(config: NetworkConfig, channels: ChannelSet) -> tuple[ChannelSet, int]:
    """Shut down surplus relay antennas, down to min(N, M).

    Returns the effective channel set and the per-pair stream count d of
    the (possibly extended) block.
    """
    base, _, d = extension_plan(config.K, config.M, config.N)
    eff = shutdown_relay_antennas(channels, base) if config.N > config.M else channels
    return eff, d


def _generators(rng, stack_shape: tuple[int, ...]) -> list[np.random.Generator]:
    """The trial generators as a list: one generator for one trial, a
    sequence of one generator per trial for a stack."""
    if rng is None:
        raise ValueError("a random generator (rng) is required")
    if isinstance(rng, np.random.Generator):
        rngs, ok = [rng], stack_shape == ()
    else:
        rngs = list(rng)
        ok = stack_shape == (len(rngs),)
    if not ok:
        raise ValueError(
            f"trial stack of shape {stack_shape} needs one generator per trial, "
            "or one generator for one trial"
        )
    return rngs


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


def _draws(rngs, stack_shape: tuple[int, ...], count: int, *shape: int) -> np.ndarray:
    """``count`` CN(0, 1) arrays per trial, shaped stack_shape + (count, *shape)."""
    return random_gaussian_stack(count, shape, rngs).reshape(stack_shape + (count, *shape))


def _slot_schedule(K: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each pair's d relay streams sit: pair p in slot p // c at
    block p % c of the slot's c = (K-1) / L blocks. Returns (slot, block)."""
    pairs = np.arange(K - 1)
    return pairs // ((K - 1) // L), pairs % ((K - 1) // L)


def _beamformers(uplink_pinv: np.ndarray, L: int, d: int) -> np.ndarray:
    """Every user's physical beamformer, (..., K, m, d): what it sends in
    one slot. Partner p+1 sends its pair's d-column block of pinv(h_{p+1})
    in its pair's slot; user 0 sends every pair of a slot at once, in every
    slot, so its beamformer is the sum of the blocks of pinv(h_0)."""
    K, m, n = uplink_pinv.shape[-3:]
    blocks = uplink_pinv.reshape(uplink_pinv.shape[:-1] + (n // d, d)).swapaxes(-3, -2)
    _, block = _slot_schedule(K, L)
    own = np.ascontiguousarray(blocks[..., 0, :, :, :]).sum(axis=-3, keepdims=True)
    return np.concatenate([own, blocks[..., np.arange(1, K), block, :, :]], axis=-3)


def design_uplink(channels: ChannelSet, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Check the uplink dimensions and return what the uplink design is:
    every user's physical pseudoinverse pinv(h_u), (K, M, N), and cond(h_u),
    (K,), each with the channels' leading trial axis.

    Pair p owns relay streams [p d, (p+1) d) of the n_eff = L relay_dim =
    (K-1) d extended ones. Each uplink has full row rank after
    preparation, so user 0 sends pair p through the p-th d-column block of
    pinv(H_0), and partner p+1 through that of pinv(H_{p+1}); then both
    arrive on the p-th d-column block of the identity. H_u is
    kron(I_L, h_u) of the stored physical matrix h_u, with L from
    extension_plan, so pinv(H_u) = kron(I_L, pinv(h_u)), and the channel
    set's own decomposition is the whole design.
    """
    K = channels.num_users
    n, m = channels.relay_dim, channels.user_dim
    if n > m:
        raise ValueError("uplink design needs relay dimension <= user dimension")
    _, L, _ = extension_plan(K, m, n)
    if (K - 1) * d != L * n:
        raise ValueError("stream count d must satisfy (K-1) d = extended relay dimension")
    return channels.uplink_pinv, channels.uplink_cond


def design_downlink(channels: ChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """Check the downlink dimensions and return every user's physical
    pseudoinverse pinv(d_u), (K, N, M), and cond(d_u), (K,), each with the
    channels' leading trial axis.

    The relay broadcasts pair p's sum on its own streams [p d, (p+1) d),
    so user u's filter for pair p is the p-th d-row block of pinv(D_u).
    D_u has full column rank once the user dimension is at least the relay
    dimension (preparation guarantees it), and D_u = kron(I_L, d_u), so
    pinv(D_u) = kron(I_L, pinv(d_u)) and cond(pinv(D_u)) = cond(d_u).
    """
    n, m = channels.relay_dim, channels.user_dim
    if m < n:
        raise SchemeDesignError(
            f"singular downlink gain: zero-forcing needs user dimension {m} "
            f">= relay dimension {n}"
        )
    return channels.downlink_pinv, channels.downlink_cond


def _by_slot(per_user: np.ndarray, L: int) -> np.ndarray:
    """Spread each user's row of a (..., K, e) array over the L slots,
    (..., K, L, e): user 0's in every slot, partner p+1's in its pair's
    slot only, exact zeros elsewhere."""
    K = per_user.shape[-2]
    slot, _ = _slot_schedule(K, L)
    out = np.zeros(per_user.shape[:-1] + (L,) + per_user.shape[-1:], dtype=per_user.dtype)
    out[..., 0, :, :] = per_user[..., :1, :]
    out[..., np.arange(1, K), slot, :] = per_user[..., 1:, :]
    return out


def _power_scale(uplink_pinv: np.ndarray, L: int, d: int) -> np.ndarray:
    """User transmit amplitude per sqrt(P), one per trial.

    Users share one amplitude so the relay recovers plain symbol sums; the
    largest per-user budget binds and transmits exactly P per slot. Each
    user's squared beamformer entries are spread over the slots as in its
    extended beamformer, so each budget is summed in that matrix's order
    and the amplitude is the extended design's, bit for bit.
    """
    beams = _beamformers(uplink_pinv, L, d)
    power = beams.real**2 + beams.imag**2
    spread = _by_slot(power.reshape(power.shape[:-2] + (-1,)), L)
    budgets = spread.reshape(spread.shape[:-2] + (-1,)).sum(axis=-1)
    return np.sqrt(L / budgets.max(axis=-1))


def design_scheme(config: NetworkConfig, channels: ChannelSet) -> tuple[ChannelSet, SchemePlan]:
    """Full design chain: preparation, the users' channel pseudoinverses
    in both phases, power scales.

    Designs one trial or a stack (a stacked ChannelSet), drawing nothing.
    A trial whose uplink or downlink matrix has a condition number above
    COND_LIMIT raises SchemeDesignError naming its stack position: the
    plan's conditioning is the channel's, so nothing could lower it.
    Returns the effective channels (after any antenna shutdown, never
    extended) together with the plan, which shares their pseudoinverses.
    """
    eff, d = prepare_scheme(config, channels)
    uplink_pinv, uplink_cond = design_uplink(eff, d)
    downlink_pinv, downlink_cond = design_downlink(eff)
    worst = np.ravel(np.maximum(uplink_cond.max(axis=-1), downlink_cond.max(axis=-1)))
    failed = np.flatnonzero(~(worst <= COND_LIMIT))
    if failed.size:
        raise SchemeDesignError(
            f"channel conditioning {worst[failed[0]]:.3e} exceeds the guardrail {COND_LIMIT:.3e}",
            trial=int(failed[0]),
        )
    _, L, _ = extension_plan(eff.num_users, eff.user_dim, eff.relay_dim)
    power_scale = _power_scale(uplink_pinv, L, d)
    # The relay sends the forwarded sums themselves, whose symbol covariance
    # blocks are E[w_p w_q^H] = (1 + delta_pq) I_d, so its transmit power
    # trace(W) = 2 relay_dim in every trial.
    bc_scale = np.full(power_scale.shape, np.sqrt(1 / (2 * eff.relay_dim)))
    if not eff.stack_shape:
        power_scale, bc_scale = float(power_scale), float(bc_scale)
    plan = SchemePlan(
        d=d,
        extension_factor=L,
        uplink_pinv=uplink_pinv,
        downlink_pinv=downlink_pinv,
        uplink_cond=uplink_cond,
        downlink_cond=downlink_cond,
        power_scale=power_scale,
        bc_scale=bc_scale,
    )
    return eff, plan


def _vector_rows(vectors, stack_shape: tuple, count: int, d: int, what: str) -> np.ndarray:
    """The ``count`` length-d vectors of each trial as one array."""
    rows = np.asarray(vectors)
    if rows.shape != stack_shape + (count, d):
        raise ValueError(
            f"need {count} {what} vectors of length {d} per trial, got shape {rows.shape}"
        )
    return rows


def _amplitude(scale, P: float) -> np.ndarray:
    """Transmit amplitude scale * sqrt(P), one per trial (0-d for one)."""
    return np.asarray(scale) * np.sqrt(P)


def mac_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    symbols,
    P: float,
    rng=None,
    noise_on: bool = False,
) -> np.ndarray:
    """Uplink slot: every user sends its symbol block with amplitude
    power_scale * sqrt(P) through its physical beamformer and uplink h_u
    in each slot its pairs use, user 0 in all L = plan.extension_factor
    slots and partner p+1 in its pair's slot: kron(I_L, h_u) applied slot
    by slot. The relay observes the superposition plus unit-variance noise
    when enabled, which needs rng.

    symbols holds one length-d vector per user, as a (K, d) array or a
    sequence, or a (S, K, d) array for a stacked plan.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    s = _vector_rows(symbols, plan.stack_shape, plan.num_users, plan.d, "symbol")
    L = plan.extension_factor
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis, np.newaxis]
    x = a * (_beamformers(plan.uplink_pinv, L, plan.d) @ s[..., np.newaxis])
    # each user's image at the relay, the same in every slot it sends in
    images = (channels.uplink @ x)[..., 0]
    y_r = _by_slot(images, L).sum(axis=-3).reshape(plan.stack_shape + (plan.effective_N,))
    if noise_on:
        y_r = y_r + _draws(rngs, plan.stack_shape, 1, plan.effective_N)[..., 0, :]
    return y_r


def relay_process(plan: SchemePlan, y_r: np.ndarray, P: float) -> np.ndarray:
    """Split the relay streams by pair and rescale: row p of the (K-1, d)
    result is streams [p d, (p+1) d), the network-coded sum of pair p's
    two symbol vectors (up to rounding, when noiseless). This is
    relay_filter @ y_r, bit for bit."""
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis]
    return y_r.reshape(y_r.shape[:-1] + (plan.num_pairs, plan.d)) / a


def bc_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    w,
    P: float,
    rng=None,
    noise_on: bool = False,
) -> np.ndarray:
    """Downlink slot: the relay broadcasts every pair sum on the pair's
    relay streams with amplitude bc_scale * sqrt(P), and user u receives it
    through kron(I_L, d_u) of its physical downlink d_u, slot by slot;
    noise, when enabled, needs rng.

    w holds one forwarded length-d vector per pair, as a (K-1, d) array or
    a sequence, or a (S, K-1, d) array for a stacked plan. Row u of the
    (K, user_dim) result is user u's observation.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    w = _vector_rows(w, plan.stack_shape, plan.num_pairs, plan.d, "forwarded")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis]
    # pair p's sum on relay streams [p d, (p+1) d): sum_p T[p] w[p], bit for bit
    x_r = b * w.reshape(w.shape[:-2] + (plan.effective_N,))
    y = _kron_apply(channels.downlink, x_r[..., np.newaxis, :], plan.extension_factor)
    if noise_on:
        y = y + _draws(rngs, plan.stack_shape, plan.num_users, plan.effective_M)
    return y


def user_decode(
    plan: SchemePlan, y_u: np.ndarray, u: int, own_symbols: np.ndarray, P: float
) -> np.ndarray:
    """Recover the other users' symbol vectors at user u.

    The user zero-forces every slot with the pair blocks of pinv(d_u),
    then peels: user 0 subtracts its own symbols from
    every sum; user u >= 1 first recovers user 0's symbols from its own
    pair, then subtracts them from the remaining sums. Returns a (K-1, d)
    array (with the plan's trial axis) whose row i belongs to sender
    other_users(K, u)[i].
    """
    if not 0 <= u < plan.num_users:
        raise ValueError("user index out of range")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis, np.newaxis]
    # each slot's pair blocks of d rows of pinv(d_u), applied to that slot;
    # row p: the sum of user 0's and user p+1's symbols
    rows = plan.downlink_pinv[..., u, :, :]
    blocks = rows.reshape(rows.shape[:-2] + (1, -1, plan.d, rows.shape[-1]))
    y = np.asarray(y_u)
    streams = blocks @ y.reshape(y.shape[:-1] + (plan.extension_factor, 1, -1, 1))
    what = streams.reshape(streams.shape[:-4] + (plan.num_pairs, plan.d)) / b
    own = np.asarray(own_symbols)[..., np.newaxis, :]
    if u == 0:
        return what - own
    s0 = what[..., u - 1 : u, :] - own
    rest = what - s0
    return np.concatenate([s0, rest[..., : u - 1, :], rest[..., u:, :]], axis=-2)


def run_round(
    plan: SchemePlan,
    channels: ChannelSet,
    P: float,
    rng,
    noise_on: bool,
) -> TransmissionTrace:
    """Draw fresh unit-power symbols and push them through both phases and
    every user's decoder, for one trial or every trial of a stacked plan."""
    stack = plan.stack_shape
    sent = _draws(_generators(rng, stack), stack, plan.num_users, plan.d)
    y_r = mac_phase(plan, channels, sent, P, rng, noise_on)
    w = relay_process(plan, y_r, P)
    user_rx = bc_phase(plan, channels, w, P, rng, noise_on)
    decoded = np.stack(
        [
            user_decode(plan, user_rx[..., u, :], u, sent[..., u, :], P)
            for u in range(plan.num_users)
        ],
        axis=-3,
    )
    return TransmissionTrace(
        sent=sent,
        relay_rx=y_r,
        relay_fwd=w,
        user_rx=user_rx,
        decoded=decoded,
    )


def build_allocation(plan: SchemePlan, K: int) -> DofAllocation:
    """Per-slot stream allocation the scheme realizes: d/L common streams
    per user, nothing private."""
    if K != plan.num_users:
        raise ValueError("K does not match the plan")
    per_user = Fraction(plan.d, plan.extension_factor)
    if per_user.denominator == 1:
        per_user = int(per_user)
    return common_only_allocation(K, per_user)


def plan_to_json_dict(plan: SchemePlan) -> dict:
    """JSON encoding of every designed matrix of one trial's plan, for
    dumping a specific draw."""
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
        "T": [matrix_to_lists(m) for m in plan.T],
        "relay_filter": [matrix_to_lists(m) for m in plan.relay_filter],
        "rx_filter": [[matrix_to_lists(m) for m in row] for row in plan.rx_filter],
        "uplink_cond": plan.uplink_cond.tolist(),
        "downlink_cond": plan.downlink_cond.tolist(),
    }


def save_plan(plan: SchemePlan, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(plan_to_json_dict(plan), fh, sort_keys=True, indent=2)
        fh.write("\n")


__all__ = [
    "COND_LIMIT",
    "SchemeDesignError",
    "SchemePlan",
    "TransmissionTrace",
    "other_users",
    "extension_plan",
    "prepare_scheme",
    "design_uplink",
    "design_downlink",
    "design_scheme",
    "mac_phase",
    "relay_process",
    "bc_phase",
    "user_decode",
    "run_round",
    "build_allocation",
    "plan_to_json_dict",
    "save_plan",
]
