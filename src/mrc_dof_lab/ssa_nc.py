"""Signal-space alignment with network coding for the multi-way relay channel.

User 1 forms a pair with every other user. In the uplink (MAC) slot user 1
sends pair p's stream through a random beamformer V1[p], and partner p+1
pre-inverts its own uplink, Vj[p] = pinv(H_{p+1}) H_1 V1[p], so both
partners arrive at the relay inside one shared d-dimensional subspace. The
K-1 pair subspaces fill the relay space, so A = H_1 [V1[0] ... V1[K-2]] is
square and invertible, and the relay's receive filter for pair p is the
p-th d-row block of inv(A): it nulls every other pair and returns the clean
network-coded sum of the pair's symbol vectors. In the downlink (BC) slot
the relay broadcasts every sum through its own random precoder T[p], and
Tcat = [T[0] ... T[K-2]] is square and invertible. User u separates the
sums with the d-row blocks of pinv(D_u Tcat) and peels the messages apart
using its own transmitted symbols as side information. Because D_u has
full column rank after preparation, pinv(D_u Tcat) = inv(Tcat) pinv(D_u):
one inverse serves every user.

When the relay has more antennas than a user (N > M) the surplus relay
antennas are shut down; when the relay dimension is not divisible by K-1,
the channel is extended to a (K-1)-slot block so the streams split evenly.
Extended channels are kron(I_L, H), and pinv(kron(I_L, H)) =
kron(I_L, pinv(H)), so only base blocks are ever pseudo-inverted. A
trial's design therefore costs the inverses of A and Tcat plus two
batched pseudoinverses of base blocks (the partners' uplinks and the K
downlinks), whatever L is.

Plans are power agnostic: they store amplitudes per sqrt(P), so a single
plan serves an entire power sweep.

Every function takes one trial or a stack of trials along a leading trial
axis: a stacked ChannelSet with a sequence of generators, one per trial,
in place of one generator, giving plans and traces whose arrays carry the
same leading axis. Each design and round step is one batched LAPACK or
matmul call for the whole stack. Each trial draws from its own generator
exactly what it would draw alone, in the same order, and a resample or
redraw is redone on the trials that need it only, so a trial's results do
not depend on the stack it is in. A single trial runs as a stack of one.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import DofAllocation, common_only_allocation
from .channel import (
    ChannelSet,
    NetworkConfig,
    extend_channels,
    shutdown_relay_antennas,
    matrix_to_lists,
)
from .linalg import (
    orthonormal_columns,
    pseudo_inverse,
    pseudo_inverse_and_rank,
    random_gaussian_stack,
)

logger = logging.getLogger("mrc_dof_lab.ssa_nc")

# Plans with a relay or user filter block worse conditioned than this are
# redrawn once and counted as degenerate.
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
    """Every designed matrix of one scheme instance, as read-only stacks.

    Pair p (0-based) joins user 0 with user p+1. Per pair: V1[p] and
    Vj[p] are the two transmit beamformers, T[p] the broadcast precoder,
    and relay_filter[p] the relay's receive filter, the p-th d-row block
    of inv(H_0 [V1[0] ... V1[K-2]]). Per user u and pair p, rx_filter[u, p]
    is the p-th d-row block of pinv(D_u [T[0] ... T[K-2]]). Every filter
    maps its own pair's image to I_d and the other pairs' images to zero.
    Shapes, with K users, relay_dim = effective_N, user_dim = effective_M:

    - V1, Vj: (K-1, user_dim, d)
    - T: (K-1, relay_dim, d)
    - relay_filter: (K-1, d, relay_dim)
    - rx_filter: (K, K-1, d, user_dim)
    - g_cond: (K-1,); user_gain_cond: (K, K-1)

    A plan for a stack of S trials prefixes every array with the trial
    axis, and power_scale, bc_scale and degenerate are (S,) arrays in
    place of scalars.

    g_cond[p] and user_gain_cond[u, p] are the condition numbers of those
    filter blocks. They equal the condition numbers of the d x d mixing
    matrices each pair leaves once the other pairs are zero-forced.

    power_scale and bc_scale are transmit amplitudes per sqrt(P) for the
    users and the relay; they fold in the extension factor so the power
    budget is met per original time slot.
    """

    d: int
    effective_N: int
    effective_M: int
    extension_factor: int
    V1: np.ndarray
    Vj: np.ndarray
    T: np.ndarray
    relay_filter: np.ndarray
    rx_filter: np.ndarray
    g_cond: np.ndarray
    user_gain_cond: np.ndarray
    power_scale: float | np.ndarray
    bc_scale: float | np.ndarray
    degenerate: bool | np.ndarray = False

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one trial's plan, (S,) for a stack of S trials."""
        return self.V1.shape[:-3]

    @property
    def num_users(self) -> int:
        return self.rx_filter.shape[-4]

    @property
    def num_pairs(self) -> int:
        return self.V1.shape[-3]

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
    noise_on: bool


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
    """Shut down surplus relay antennas and extend until the relay
    dimension splits evenly over the K-1 pairs.

    Returns the effective channel set and the per-pair stream count d.
    """
    if channels.extension_factor != 1:
        raise ValueError("prepare_scheme expects unextended channels")
    base, L, d = extension_plan(config.K, config.M, config.N)
    eff = shutdown_relay_antennas(channels, base) if config.N > config.M else channels
    if L > 1:
        eff = extend_channels(eff, L)
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


def _draws(rngs, stack_shape: tuple[int, ...], count: int, *shape: int) -> np.ndarray:
    """``count`` CN(0, 1) arrays per trial, shaped stack_shape + (count, *shape)."""
    return random_gaussian_stack(count, shape, rngs).reshape(stack_shape + (count, *shape))


def _hcat(blocks: np.ndarray) -> np.ndarray:
    """[B_0 ... B_{P-1}] for the (..., P, r, c) stack of blocks B_p."""
    *lead, pairs, r, c = blocks.shape
    return blocks.swapaxes(-3, -2).reshape(*lead, r, pairs * c)


def _replaced(a: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Copy of the stacked array a with the given trials set to values."""
    out = np.array(a)
    out[rows] = values
    return out


def _aligned_draw(h0: np.ndarray, pairs: int, d: int, rngs):
    """Draw user 0's beamformers V1 for every trial of the stack and
    invert its aligned images A = H_0 [V1[0] ...]: V1, A, pinv(A), rank(A)."""
    V1 = orthonormal_columns(random_gaussian_stack(pairs, (h0.shape[-1], d), rngs))
    aligned = h0 @ _hcat(V1)
    relay_inv, rank = pseudo_inverse_and_rank(aligned)
    return V1, aligned, relay_inv, rank


def design_uplink(
    channels: ChannelSet, d: int, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw user 0's pair beamformers, align every partner onto them, and
    build the relay filters.

    V1[p] is random with orthonormal columns. The K-1 aligned images
    H_0 V1[p] must jointly span the relay space, so A = H_0 [V1[0] ...] is
    square and invertible; the trials with a rank-deficient draw resample
    it once. One batched SVD of A decides the rank and gives inv(A), whose
    d-row blocks are the relay filters. Partner p+1 pre-inverts its own
    uplink so that H_{p+1} Vj[p] = H_0 V1[p] holds exactly (the uplink has
    full row rank after preparation); under extension only the base block
    of each uplink is pseudo-inverted. Returns V1 and Vj, both
    (K-1, user_dim, d), and the relay filters (K-1, d, relay_dim), each
    with the channels' leading trial axis.
    """
    K = channels.num_users
    n_eff = channels.relay_dim
    m_eff = channels.user_dim
    L = channels.extension_factor
    if (K - 1) * d != n_eff:
        raise ValueError("stream count d must satisfy (K-1) d = relay dimension")
    if n_eff > m_eff:
        raise ValueError("uplink design needs relay dimension <= user dimension")
    rngs = _generators(rng, channels.stack_shape)
    stack = channels.stacked()
    h0 = stack.uplink[:, 0]
    V1, aligned, relay_inv, rank = _aligned_draw(h0, K - 1, d, rngs)
    redo = np.flatnonzero(rank != n_eff)
    if redo.size:
        for _ in redo:
            logger.warning("aligned subspaces rank deficient, resampling")
        again = _aligned_draw(h0[redo], K - 1, d, [rngs[i] for i in redo])
        V1, aligned, relay_inv = (
            _replaced(a, redo, b) for a, b in zip((V1, aligned, relay_inv), again)
        )
        failed = redo[again[3] != n_eff]
        for _ in failed:
            logger.warning("aligned subspaces rank deficient on the second draw too, giving up")
        if failed.size:
            raise SchemeDesignError(
                "aligned pair subspaces stayed rank deficient after resampling",
                trial=int(failed[0]),
            )
    n, m = n_eff // L, m_eff // L
    partner_pinv = pseudo_inverse(stack.uplink[:, 1:, :n, :m])
    # kron(I_L, partner_pinv[p]) @ (H_0 V1[p]): each pair's aligned image as
    # L base-row blocks, so only the base pseudoinverses are applied
    aligned_blocks = aligned.reshape(-1, L, n, K - 1, d).transpose(0, 3, 1, 2, 4)
    Vj = partner_pinv[:, :, np.newaxis] @ aligned_blocks
    lead = channels.stack_shape
    return (
        V1.reshape(lead + V1.shape[1:]),
        Vj.reshape(lead + (K - 1, m_eff, d)),
        relay_inv.reshape(lead + (K - 1, d, n_eff)),
    )


def design_downlink(channels: ChannelSet, rng) -> tuple[np.ndarray, np.ndarray]:
    """Random orthonormal broadcast precoders T, (K-1, relay_dim, d), plus
    every user's receive filters, (K, K-1, d, user_dim), each with the
    channels' leading trial axis.

    User u sees the stacked downlink images D_u Tcat, with
    Tcat = [T[0] ... T[K-2]] square; its filter for pair p is the p-th
    d-row block of pinv(D_u Tcat). D_u has full column rank once the user
    dimension is at least the relay dimension (preparation guarantees it),
    so pinv(D_u Tcat) = inv(Tcat) pinv(D_u), and under extension
    pinv(D_u) = kron(I_L, pinv(d_u)) of the base block d_u. One batched
    SVD of Tcat decides its rank and gives inv(Tcat), one batched SVD
    gives the K base-block pseudoinverses, and one broadcast product forms
    all K user inverses.
    """
    K = channels.num_users
    n_eff = channels.relay_dim
    m_eff = channels.user_dim
    L = channels.extension_factor
    d = n_eff // (K - 1)
    if (K - 1) * d != n_eff:
        raise ValueError("relay dimension must split evenly over the K-1 pairs")
    if m_eff < n_eff:
        raise SchemeDesignError(
            f"singular downlink gain: zero-forcing needs user dimension {m_eff} "
            f">= relay dimension {n_eff}"
        )
    rngs = _generators(rng, channels.stack_shape)
    T = orthonormal_columns(random_gaussian_stack(K - 1, (n_eff, d), rngs))
    t_inv, rank = pseudo_inverse_and_rank(_hcat(T))
    failed = np.flatnonzero(rank < n_eff)
    if failed.size:
        raise SchemeDesignError("broadcast precoders are rank deficient", trial=int(failed[0]))
    n, m = n_eff // L, m_eff // L
    down_pinv = pseudo_inverse(channels.stacked().downlink[..., :m, :n])
    # inv(Tcat) @ kron(I_L, down_pinv[u]) for every u, without forming the kron
    user_inv = t_inv.reshape(-1, 1, n_eff * L, n) @ down_pinv
    lead = channels.stack_shape
    return T.reshape(lead + T.shape[1:]), user_inv.reshape(lead + (K, K - 1, d, m_eff))


def _block_conds(blocks: np.ndarray) -> np.ndarray:
    """Condition numbers of a stack of filter blocks, in one batched SVD."""
    s = np.linalg.svd(blocks, compute_uv=False)
    low = s[..., -1]
    return np.divide(s[..., 0], low, out=np.full(low.shape, np.inf), where=low > 0)


def _design_once(stack: ChannelSet, d: int, rngs) -> dict[str, np.ndarray]:
    """One design draw for every trial of a stack: the plan's arrays by
    field name, each with the trial axis."""
    V1, Vj, relay_filter = design_uplink(stack, d, rngs)
    T, rx_filter = design_downlink(stack, rngs)
    return dict(
        V1=V1,
        Vj=Vj,
        T=T,
        relay_filter=relay_filter,
        rx_filter=rx_filter,
        g_cond=_block_conds(relay_filter),
        user_gain_cond=_block_conds(rx_filter),
    )


def _worst_conds(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Each trial's worst relay or user filter block condition number."""
    return np.maximum(
        arrays["g_cond"].max(axis=-1), arrays["user_gain_cond"].max(axis=(-2, -1))
    )


def _assemble_plan(
    stack: ChannelSet, d: int, arrays: dict[str, np.ndarray], degenerate: np.ndarray, lead: tuple
) -> SchemePlan:
    """The plan of a designed stack, shaped for ``lead``: () keeps only
    the single trial of a stack of one."""
    K = stack.num_users
    L = stack.extension_factor
    # Users share one amplitude so the relay recovers plain symbol sums; the
    # largest per-user budget binds and transmits exactly P per slot.
    V1 = arrays["V1"]
    tx = np.concatenate([V1.sum(axis=-3, keepdims=True), arrays["Vj"]], axis=-3)
    budgets = np.sum(tx.real**2 + tx.imag**2, axis=(-2, -1))
    power_scale = np.sqrt(L / budgets.max(axis=-1))
    # Relay budget is set against the re-encoded symbol covariance of the
    # forwarded sums: blocks E[w_p w_q^H] = (1 + delta_pq) I_d.
    t_cat = _hcat(arrays["T"])
    w_cov = np.kron(np.ones((K - 1, K - 1)) + np.eye(K - 1), np.eye(d))
    covariance = t_cat @ w_cov @ t_cat.conj().swapaxes(-1, -2)
    bc_scale = np.sqrt(L / np.real(np.trace(covariance, axis1=-2, axis2=-1)))
    fields = {name: a.reshape(lead + a.shape[1:]) for name, a in arrays.items()}
    # one plan serves every power level and trace of a trial: share, never write
    for a in fields.values():
        a.setflags(write=False)
    if not lead:
        power_scale, bc_scale = float(power_scale[0]), float(bc_scale[0])
        degenerate = bool(degenerate[0])
    return SchemePlan(
        d=d,
        effective_N=stack.relay_dim,
        effective_M=stack.user_dim,
        extension_factor=L,
        power_scale=power_scale,
        bc_scale=bc_scale,
        degenerate=degenerate,
        **fields,
    )


def design_scheme(
    config: NetworkConfig, channels: ChannelSet, rng
) -> tuple[ChannelSet, SchemePlan]:
    """Full design chain: preparation, uplink alignment and the relay
    inverse, downlink precoding and the user pseudoinverses, power scales.

    Designs one trial (one generator) or a stack (a stacked ChannelSet
    and one generator per trial). Every trial with a relay or user filter
    block beyond the conditioning guardrail is redrawn once with fresh
    randomness from its own generator and flagged degenerate. Returns the
    effective channels together with the plan.
    """
    eff, d = prepare_scheme(config, channels)
    rngs = _generators(rng, eff.stack_shape)
    stack = eff.stacked()
    arrays = _design_once(stack, d, rngs)
    worst = _worst_conds(arrays)
    redo = np.flatnonzero(~(worst <= COND_LIMIT))
    for i in redo:
        logger.warning("plan conditioning %.3e exceeds guardrail, redrawing", worst[i])
    if redo.size:
        try:
            again = _design_once(stack.select(redo), d, [rngs[i] for i in redo])
        except SchemeDesignError as exc:
            exc.trial = int(redo[exc.trial])
            raise
        arrays = {name: _replaced(a, redo, again[name]) for name, a in arrays.items()}
        for w in _worst_conds(again):
            if not w <= COND_LIMIT:
                logger.warning("plan conditioning %.3e still exceeds guardrail after one redraw", w)
    degenerate = np.zeros(len(rngs), dtype=bool)
    degenerate[redo] = True
    return eff, _assemble_plan(stack, d, arrays, degenerate, eff.stack_shape)


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
    """Uplink slot: every user beamforms its symbol block with amplitude
    power_scale * sqrt(P); the relay observes the superposition plus
    unit-variance noise when enabled, which needs rng.

    symbols holds one length-d vector per user, as a (K, d) array or a
    sequence, or a (S, K, d) array for a stacked plan.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    s = _vector_rows(symbols, plan.stack_shape, plan.num_users, plan.d, "symbol")
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis, np.newaxis]
    # user 0 sends on every pair's beamformer, partner p+1 on its own only
    x0 = plan.V1.sum(axis=-3, keepdims=True) @ s[..., :1, :, np.newaxis]
    x = a * np.concatenate([x0, plan.Vj @ s[..., 1:, :, np.newaxis]], axis=-3)
    y_r = np.sum(channels.uplink @ x, axis=-3)[..., 0]
    if noise_on:
        y_r = y_r + _draws(rngs, plan.stack_shape, 1, plan.effective_N)[..., 0, :]
    return y_r


def relay_process(plan: SchemePlan, y_r: np.ndarray, P: float) -> np.ndarray:
    """Zero-force, unmix, and rescale: row p of the (K-1, d) result is the
    network-coded sum of pair p's two symbol vectors (exactly, when
    noiseless)."""
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis]
    return (plan.relay_filter @ y_r[..., np.newaxis, :, np.newaxis])[..., 0] / a


def bc_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    w,
    P: float,
    rng=None,
    noise_on: bool = False,
) -> np.ndarray:
    """Downlink slot: the relay broadcasts every pair sum through its
    precoder with amplitude bc_scale * sqrt(P); noise, when enabled,
    needs rng.

    w holds one forwarded length-d vector per pair, as a (K-1, d) array or
    a sequence, or a (S, K-1, d) array for a stacked plan. Row u of the
    (K, user_dim) result is user u's observation.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    w = _vector_rows(w, plan.stack_shape, plan.num_pairs, plan.d, "forwarded")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis]
    x_r = b * np.sum(plan.T @ w[..., np.newaxis], axis=-3)[..., 0]
    y = (channels.downlink @ x_r[..., np.newaxis, :, np.newaxis])[..., 0]
    if noise_on:
        y = y + _draws(rngs, plan.stack_shape, plan.num_users, plan.effective_M)
    return y


def user_decode(
    plan: SchemePlan, y_u: np.ndarray, u: int, own_symbols: np.ndarray, P: float
) -> np.ndarray:
    """Recover the other users' symbol vectors at user u.

    The user zero-forces each pair, then peels: user 0 subtracts its own
    symbols from every sum; user u >= 1 first recovers user 0's symbols
    from its own pair, then subtracts them from the remaining sums.
    Returns a (K-1, d) array (with the plan's trial axis) whose row i
    belongs to sender other_users(K, u)[i].
    """
    if not 0 <= u < plan.num_users:
        raise ValueError("user index out of range")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis, np.newaxis]
    # row p: the sum of user 0's and user p+1's symbols
    what = (plan.rx_filter[..., u, :, :, :] @ np.asarray(y_u)[..., np.newaxis, :, np.newaxis])
    what = what[..., 0] / b
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
        noise_on=noise_on,
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
        "degenerate": plan.degenerate,
        "V1": [matrix_to_lists(m) for m in plan.V1],
        "Vj": [matrix_to_lists(m) for m in plan.Vj],
        "T": [matrix_to_lists(m) for m in plan.T],
        "relay_filter": [matrix_to_lists(m) for m in plan.relay_filter],
        "rx_filter": [[matrix_to_lists(m) for m in row] for row in plan.rx_filter],
        "g_cond": plan.g_cond.tolist(),
        "user_gain_cond": plan.user_gain_cond.tolist(),
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
