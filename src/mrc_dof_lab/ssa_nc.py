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
    random_gaussian_matrix,
    random_gaussian_vector,
)

logger = logging.getLogger("mrc_dof_lab.ssa_nc")

# Plans with a relay or user filter block worse conditioned than this are
# redrawn once and counted as degenerate.
COND_LIMIT = 1e8


class SchemeDesignError(RuntimeError):
    """A channel draw admitted no usable beamformer design."""


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
    power_scale: float
    bc_scale: float
    degenerate: bool = False

    @property
    def num_users(self) -> int:
        return len(self.rx_filter)

    @property
    def num_pairs(self) -> int:
        return len(self.V1)

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
    user_rx (K, user_dim), decoded (K, K-1, d). decoded[u, i] is user u's
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


def _orthonormal_draws(
    rows: int, cols: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` random rows x cols matrices with orthonormal columns,
    stacked along the first axis.

    The Gaussian draws are taken one matrix at a time, in order, and
    orthonormalised together in one stacked QR.
    """
    draws = np.stack([random_gaussian_matrix(rows, cols, rng) for _ in range(count)])
    return orthonormal_columns(draws)


def _gaussian_rows(count: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` CN(0, 1) vectors of length n as the rows of one array,
    drawn one vector after another."""
    return np.array([random_gaussian_vector(n, rng) for _ in range(count)])


def design_uplink(
    channels: ChannelSet, d: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw user 0's pair beamformers, align every partner onto them, and
    build the relay filters.

    V1[p] is random with orthonormal columns. The K-1 aligned images
    H_0 V1[p] must jointly span the relay space, so A = H_0 [V1[0] ...] is
    square and invertible; a rank-deficient draw is resampled once. One SVD
    of A decides the rank and gives inv(A), whose d-row blocks are the
    relay filters. Partner p+1 pre-inverts its own uplink so that
    H_{p+1} Vj[p] = H_0 V1[p] holds exactly (the uplink has full row rank
    after preparation); under extension only the base block of each uplink
    is pseudo-inverted. Returns V1 and Vj, both (K-1, user_dim, d), and the
    relay filters (K-1, d, relay_dim).
    """
    K = channels.num_users
    n_eff = channels.relay_dim
    m_eff = channels.user_dim
    L = channels.extension_factor
    if (K - 1) * d != n_eff:
        raise ValueError("stream count d must satisfy (K-1) d = relay dimension")
    if n_eff > m_eff:
        raise ValueError("uplink design needs relay dimension <= user dimension")
    h0 = channels.uplink[0]
    for attempt in range(2):
        V1 = _orthonormal_draws(m_eff, d, K - 1, rng)
        aligned = h0 @ np.hstack(V1)
        relay_inv, rank = pseudo_inverse_and_rank(aligned)
        if rank == n_eff:
            break
        if attempt == 0:
            logger.warning("aligned subspaces rank deficient, resampling")
    else:
        logger.warning("aligned subspaces rank deficient on the second draw too, giving up")
        raise SchemeDesignError("aligned pair subspaces stayed rank deficient after resampling")
    n, m = n_eff // L, m_eff // L
    partner_pinv = pseudo_inverse(np.stack([h[:n, :m] for h in channels.uplink[1:]]))
    # kron(I_L, partner_pinv[p]) @ (H_0 V1[p]): each pair's aligned image as
    # L base-row blocks, so only the base pseudoinverses are applied
    aligned_blocks = aligned.reshape(L, n, K - 1, d).transpose(2, 0, 1, 3)
    Vj = (partner_pinv[:, np.newaxis] @ aligned_blocks).reshape(K - 1, m_eff, d)
    return V1, Vj, relay_inv.reshape(K - 1, d, n_eff)


def design_downlink(
    channels: ChannelSet, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random orthonormal broadcast precoders T, (K-1, relay_dim, d), plus
    every user's receive filters, (K, K-1, d, user_dim).

    User u sees the stacked downlink images D_u Tcat, with
    Tcat = [T[0] ... T[K-2]] square; its filter for pair p is the p-th
    d-row block of pinv(D_u Tcat). D_u has full column rank once the user
    dimension is at least the relay dimension (preparation guarantees it),
    so pinv(D_u Tcat) = inv(Tcat) pinv(D_u), and under extension
    pinv(D_u) = kron(I_L, pinv(d_u)) of the base block d_u. One SVD of
    Tcat decides its rank and gives inv(Tcat), one batched SVD gives the K
    base-block pseudoinverses, and one broadcast product forms all K user
    inverses.
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
    T = _orthonormal_draws(n_eff, d, K - 1, rng)
    t_inv, rank = pseudo_inverse_and_rank(np.hstack(T))
    if rank < n_eff:
        raise SchemeDesignError("broadcast precoders are rank deficient")
    n, m = n_eff // L, m_eff // L
    down_pinv = pseudo_inverse(np.stack([h[:m, :n] for h in channels.downlink]))
    # inv(Tcat) @ kron(I_L, down_pinv[u]) for every u, without forming the kron
    user_inv = (t_inv.reshape(n_eff * L, n) @ down_pinv).reshape(K, n_eff, m_eff)
    return T, user_inv.reshape(K, K - 1, d, m_eff)


def _block_conds(blocks: np.ndarray) -> np.ndarray:
    """Condition numbers of a stack of filter blocks, in one batched SVD."""
    s = np.linalg.svd(blocks, compute_uv=False)
    low = s[..., -1]
    return np.divide(s[..., 0], low, out=np.full(low.shape, np.inf), where=low > 0)


def _assemble_plan(
    channels: ChannelSet, d: int, V1, Vj, relay_filter, T, rx_filter, degenerate: bool
) -> SchemePlan:
    K = channels.num_users
    L = channels.extension_factor
    # Users share one amplitude so the relay recovers plain symbol sums; the
    # largest per-user budget binds and transmits exactly P per slot.
    budgets = [float(np.linalg.norm(sum(V1)) ** 2)]
    budgets += [float(np.linalg.norm(v) ** 2) for v in Vj]
    power_scale = float(np.sqrt(L / max(budgets)))
    # Relay budget is set against the re-encoded symbol covariance of the
    # forwarded sums: blocks E[w_p w_q^H] = (1 + delta_pq) I_d.
    t_cat = np.hstack(T)
    w_cov = np.kron(np.ones((K - 1, K - 1)) + np.eye(K - 1), np.eye(d))
    sym_power = float(np.real(np.trace(t_cat @ w_cov @ t_cat.conj().T)))
    bc_scale = float(np.sqrt(L / sym_power))
    g_cond = _block_conds(relay_filter)
    user_gain_cond = _block_conds(rx_filter)
    # one plan serves every power level and trace of a trial: share, never write
    for a in (V1, Vj, T, relay_filter, rx_filter, g_cond, user_gain_cond):
        a.setflags(write=False)
    return SchemePlan(
        d=d,
        effective_N=channels.relay_dim,
        effective_M=channels.user_dim,
        extension_factor=L,
        V1=V1,
        Vj=Vj,
        T=T,
        relay_filter=relay_filter,
        rx_filter=rx_filter,
        g_cond=g_cond,
        user_gain_cond=user_gain_cond,
        power_scale=power_scale,
        bc_scale=bc_scale,
        degenerate=degenerate,
    )


def design_scheme(
    config: NetworkConfig, channels: ChannelSet, rng: np.random.Generator
) -> tuple[ChannelSet, SchemePlan]:
    """Full design chain: preparation, uplink alignment and the relay
    inverse, downlink precoding and the user pseudoinverses, power scales.

    A plan with a relay or user filter block beyond the conditioning
    guardrail is redrawn once with fresh randomness and flagged degenerate.
    Returns the effective channels together with the plan.
    """
    eff, d = prepare_scheme(config, channels)
    for attempt in range(2):
        V1, Vj, relay_filter = design_uplink(eff, d, rng)
        T, rx_filter = design_downlink(eff, rng)
        plan = _assemble_plan(eff, d, V1, Vj, relay_filter, T, rx_filter, degenerate=attempt > 0)
        worst = max(plan.g_cond.max(), plan.user_gain_cond.max())
        if worst <= COND_LIMIT:
            break
        if attempt == 0:
            logger.warning("plan conditioning %.3e exceeds guardrail, redrawing", worst)
    else:
        logger.warning("plan conditioning %.3e still exceeds guardrail after one redraw", worst)
    return eff, plan


def _vector_rows(vectors, count: int, d: int, what: str) -> np.ndarray:
    """The ``count`` length-d vectors as the rows of one array."""
    if len(vectors) != count:
        raise ValueError(f"need {count} {what} vectors, got {len(vectors)}")
    rows = np.asarray(vectors)
    if rows.shape != (count, d):
        raise ValueError(f"each {what} vector must have length {d}")
    return rows


def mac_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    symbols,
    P: float,
    rng: np.random.Generator | None = None,
    noise_on: bool = False,
) -> np.ndarray:
    """Uplink slot: every user beamforms its symbol block with amplitude
    power_scale * sqrt(P); the relay observes the superposition plus
    unit-variance noise when enabled.

    symbols holds one length-d vector per user, as a (K, d) array or a
    sequence.
    """
    s = _vector_rows(symbols, plan.num_users, plan.d, "symbol")
    a = plan.power_scale * np.sqrt(P)
    # user 0 sends on every pair's beamformer, partner p+1 on its own only
    x = a * np.vstack([sum(plan.V1) @ s[0], (plan.Vj @ s[1:, :, np.newaxis])[..., 0]])
    y_r = sum(h @ x_u for h, x_u in zip(channels.uplink, x))
    if noise_on:
        y_r = y_r + random_gaussian_vector(plan.effective_N, rng)
    return y_r


def relay_process(plan: SchemePlan, y_r: np.ndarray, P: float) -> np.ndarray:
    """Zero-force, unmix, and rescale: row p of the (K-1, d) result is the
    network-coded sum of pair p's two symbol vectors (exactly, when
    noiseless)."""
    a = plan.power_scale * np.sqrt(P)
    return plan.relay_filter @ y_r / a


def bc_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    w,
    P: float,
    rng: np.random.Generator | None = None,
    noise_on: bool = False,
) -> np.ndarray:
    """Downlink slot: the relay broadcasts every pair sum through its
    precoder with amplitude bc_scale * sqrt(P).

    w holds one forwarded length-d vector per pair, as a (K-1, d) array or
    a sequence. Row u of the (K, user_dim) result is user u's observation.
    """
    w = _vector_rows(w, plan.num_pairs, plan.d, "forwarded")
    b = plan.bc_scale * np.sqrt(P)
    x_r = b * sum(t @ w_p for t, w_p in zip(plan.T, w))
    y = np.array([h @ x_r for h in channels.downlink])
    if noise_on:
        y = y + _gaussian_rows(plan.num_users, plan.effective_M, rng)
    return y


def user_decode(
    plan: SchemePlan, y_u: np.ndarray, u: int, own_symbols: np.ndarray, P: float
) -> np.ndarray:
    """Recover the other users' symbol vectors at user u.

    The user zero-forces each pair, then peels: user 0 subtracts its own
    symbols from every sum; user u >= 1 first recovers user 0's symbols
    from its own pair, then subtracts them from the remaining sums.
    Returns a (K-1, d) array whose row i belongs to sender
    other_users(K, u)[i].
    """
    if not 0 <= u < plan.num_users:
        raise ValueError("user index out of range")
    b = plan.bc_scale * np.sqrt(P)
    # row p: the sum of user 0's and user p+1's symbols
    what = plan.rx_filter[u] @ y_u / b
    own = np.asarray(own_symbols)
    if u == 0:
        return what - own
    s0 = what[u - 1] - own
    rest = what - s0
    return np.vstack([s0, rest[: u - 1], rest[u:]])


def run_round(
    plan: SchemePlan,
    channels: ChannelSet,
    P: float,
    rng: np.random.Generator,
    noise_on: bool,
) -> TransmissionTrace:
    """Draw fresh unit-power symbols and push them through both phases and
    every user's decoder."""
    sent = _gaussian_rows(plan.num_users, plan.d, rng)
    y_r = mac_phase(plan, channels, sent, P, rng, noise_on)
    w = relay_process(plan, y_r, P)
    user_rx = bc_phase(plan, channels, w, P, rng, noise_on)
    decoded = np.array([user_decode(plan, user_rx[u], u, sent[u], P) for u in range(len(sent))])
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
    """JSON encoding of every designed matrix, for dumping a specific draw."""
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
