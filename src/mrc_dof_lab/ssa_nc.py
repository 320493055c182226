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
    CMatrix,
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


@dataclass(frozen=True)
class SchemePlan:
    """Every designed matrix of one scheme instance.

    Pair p (0-based) joins user 0 with user p+1. Per pair: V1[p] and
    Vj[p] are the two transmit beamformers (user_dim x d), T[p] the
    broadcast precoder (relay_dim x d), and relay_filter[p] the relay's
    receive filter (d x relay_dim), the p-th d-row block of
    inv(H_0 [V1[0] ... V1[K-2]]). Per user u and pair p, rx_filter[u][p]
    (d x user_dim) is the p-th d-row block of pinv(D_u [T[0] ... T[K-2]]).
    Every filter maps its own pair's image to I_d and the other pairs'
    images to zero.

    g_cond[p] and user_gain_cond[u][p] are the condition numbers of those
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
    V1: tuple[CMatrix, ...]
    Vj: tuple[CMatrix, ...]
    T: tuple[CMatrix, ...]
    relay_filter: tuple[CMatrix, ...]
    rx_filter: tuple[tuple[CMatrix, ...], ...]
    g_cond: tuple[float, ...]
    user_gain_cond: tuple[tuple[float, ...], ...]
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


@dataclass(frozen=True)
class TransmissionTrace:
    """One simulated channel use of the full two-phase chain.

    decoded[u] lists the recovered symbol vectors at user u, ordered by
    sending user index ascending (user u itself excluded).
    """

    sent: tuple[np.ndarray, ...]
    relay_rx: np.ndarray
    relay_fwd: tuple[np.ndarray, ...]
    user_rx: tuple[np.ndarray, ...]
    decoded: tuple[tuple[np.ndarray, ...], ...]
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


def _row_blocks(a: CMatrix, d: int) -> tuple[CMatrix, ...]:
    return tuple(a[i : i + d] for i in range(0, a.shape[0], d))


def _kron_apply(base: CMatrix, x: CMatrix, L: int) -> CMatrix:
    """kron(I_L, base) @ x without forming the block-diagonal matrix."""
    rows, cols = base.shape
    return (base @ x.reshape(L, cols, -1)).reshape(L * rows, -1)


def _orthonormal_draws(
    rows: int, cols: int, count: int, rng: np.random.Generator
) -> tuple[CMatrix, ...]:
    """``count`` random rows x cols matrices with orthonormal columns.

    The Gaussian draws are taken one matrix at a time, in order, and
    orthonormalised together in one stacked QR.
    """
    draws = np.stack([random_gaussian_matrix(rows, cols, rng) for _ in range(count)])
    return tuple(orthonormal_columns(draws))


def design_uplink(
    channels: ChannelSet, d: int, rng: np.random.Generator
) -> tuple[tuple[CMatrix, ...], tuple[CMatrix, ...], tuple[CMatrix, ...]]:
    """Draw user 0's pair beamformers, align every partner onto them, and
    build the relay filters.

    V1[p] is random with orthonormal columns. The K-1 aligned images
    H_0 V1[p] must jointly span the relay space, so A = H_0 [V1[0] ...] is
    square and invertible; a rank-deficient draw is resampled once. One SVD
    of A decides the rank and gives inv(A), whose d-row blocks are the
    relay filters. Partner p+1 pre-inverts its own uplink so that
    H_{p+1} Vj[p] = H_0 V1[p] holds exactly (the uplink has full row rank
    after preparation); under extension only the base block of each uplink
    is pseudo-inverted. Returns V1, Vj and the relay filters.
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
        logger.warning("aligned subspaces rank deficient on attempt %d, resampling", attempt)
    else:
        raise SchemeDesignError("aligned pair subspaces stayed rank deficient after resampling")
    n, m = n_eff // L, m_eff // L
    partner_pinv = pseudo_inverse(np.stack([h[:n, :m] for h in channels.uplink[1:]]))
    Vj = tuple(
        _kron_apply(partner_pinv[p], aligned[:, p * d : (p + 1) * d], L) for p in range(K - 1)
    )
    return V1, Vj, _row_blocks(relay_inv, d)


def design_downlink(
    channels: ChannelSet, rng: np.random.Generator
) -> tuple[tuple[CMatrix, ...], tuple[tuple[CMatrix, ...], ...]]:
    """Random orthonormal broadcast precoders T[p] plus every user's
    receive filters.

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
    return T, tuple(_row_blocks(inv, d) for inv in user_inv)


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
        g_cond=tuple(_block_conds(np.stack(relay_filter)).tolist()),
        user_gain_cond=tuple(map(tuple, _block_conds(np.array(rx_filter)).tolist())),
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
    plan = None
    for attempt in range(2):
        V1, Vj, relay_filter = design_uplink(eff, d, rng)
        T, rx_filter = design_downlink(eff, rng)
        plan = _assemble_plan(eff, d, V1, Vj, relay_filter, T, rx_filter, degenerate=attempt > 0)
        worst = max([*plan.g_cond, *(c for row in plan.user_gain_cond for c in row)])
        if worst <= COND_LIMIT:
            break
        logger.warning("plan conditioning %.3e exceeds guardrail, redrawing", worst)
    return eff, plan


def _check_symbols(plan: SchemePlan, symbols) -> None:
    if len(symbols) != plan.num_users:
        raise ValueError(f"need {plan.num_users} symbol vectors, got {len(symbols)}")
    for s in symbols:
        if np.asarray(s).shape != (plan.d,):
            raise ValueError(f"each symbol vector must have length {plan.d}")


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
    unit-variance noise when enabled."""
    _check_symbols(plan, symbols)
    a = plan.power_scale * np.sqrt(P)
    x = [a * (sum(plan.V1) @ np.asarray(symbols[0]))]
    x += [a * (plan.Vj[u - 1] @ np.asarray(symbols[u])) for u in range(1, plan.num_users)]
    y_r = sum(channels.uplink[u] @ x[u] for u in range(plan.num_users))
    if noise_on:
        y_r = y_r + random_gaussian_vector(plan.effective_N, rng)
    return y_r


def relay_process(plan: SchemePlan, y_r: np.ndarray, P: float) -> tuple[np.ndarray, ...]:
    """Zero-force, unmix, and rescale: per pair the relay recovers the
    network-coded sum of the two partners' symbol vectors (exactly, when
    noiseless)."""
    a = plan.power_scale * np.sqrt(P)
    return tuple(rf @ y_r / a for rf in plan.relay_filter)


def bc_phase(
    plan: SchemePlan,
    channels: ChannelSet,
    w,
    P: float,
    rng: np.random.Generator | None = None,
    noise_on: bool = False,
) -> tuple[np.ndarray, ...]:
    """Downlink slot: the relay broadcasts every pair sum through its
    precoder with amplitude bc_scale * sqrt(P)."""
    if len(w) != plan.num_pairs:
        raise ValueError(f"need {plan.num_pairs} forwarded vectors")
    for v in w:
        if np.asarray(v).shape != (plan.d,):
            raise ValueError(f"each forwarded vector must have length {plan.d}")
    b = plan.bc_scale * np.sqrt(P)
    x_r = b * sum(plan.T[p] @ np.asarray(w[p]) for p in range(plan.num_pairs))
    out = []
    for u in range(plan.num_users):
        y = channels.downlink[u] @ x_r
        if noise_on:
            y = y + random_gaussian_vector(plan.effective_M, rng)
        out.append(y)
    return tuple(out)


def user_decode(
    plan: SchemePlan, y_u: np.ndarray, u: int, own_symbols: np.ndarray, P: float
) -> tuple[np.ndarray, ...]:
    """Recover the other users' symbol vectors at user u.

    The user zero-forces each pair, then peels: user 0 subtracts its own
    symbols from every sum; user u >= 1 first recovers user 0's symbols
    from its own pair, then subtracts them from the remaining sums.
    Returned in sending-user order ascending.
    """
    if not 0 <= u < plan.num_users:
        raise ValueError("user index out of range")
    b = plan.bc_scale * np.sqrt(P)
    what = [plan.rx_filter[u][p] @ y_u / b for p in range(plan.num_pairs)]
    own = np.asarray(own_symbols)
    decoded: dict[int, np.ndarray] = {}
    if u == 0:
        for p in range(plan.num_pairs):
            decoded[p + 1] = what[p] - own
    else:
        s0 = what[u - 1] - own
        decoded[0] = s0
        for p in range(plan.num_pairs):
            if p + 1 != u:
                decoded[p + 1] = what[p] - s0
    return tuple(decoded[v] for v in other_users(plan.num_users, u))


def run_round(
    plan: SchemePlan,
    channels: ChannelSet,
    P: float,
    rng: np.random.Generator,
    noise_on: bool,
) -> TransmissionTrace:
    """Draw fresh unit-power symbols and push them through both phases and
    every user's decoder."""
    K = plan.num_users
    sent = tuple(random_gaussian_vector(plan.d, rng) for _ in range(K))
    y_r = mac_phase(plan, channels, sent, P, rng, noise_on)
    w = relay_process(plan, y_r, P)
    user_rx = bc_phase(plan, channels, w, P, rng, noise_on)
    decoded = tuple(user_decode(plan, user_rx[u], u, sent[u], P) for u in range(K))
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
        "g_cond": list(plan.g_cond),
        "user_gain_cond": [list(row) for row in plan.user_gain_cond],
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
