"""Signal-space alignment with network coding for the multi-way relay channel.

User 1 forms a pair with every other user. The scheme needs only that the
two users of a pair align at the relay in the uplink (MAC) slot and that
the broadcast zero-forces in the downlink (BC) slot, so any full-rank
choice of the relay-side subspaces works, and the relay draws both as
random unitaries. In the MAC slot the relay's aligned directions are the
d-column blocks U[p] of one random unitary U, and every user pre-inverts
its own uplink onto them: user 1 sends pair p's stream through
V1[p] = pinv(H_1) U[p] and partner p+1 through Vj[p] = pinv(H_{p+1}) U[p],
so both partners arrive at the relay inside U[p] (signal-space alignment
for network coding, Lee, Lim and Chun, IEEE Trans. IT 56(6), 2010). The
relay's receive filter for pair p is the p-th d-row block of U^H: it nulls
every other pair and returns the clean network-coded sum of the pair's
symbol vectors. In the BC slot the relay broadcasts every sum through the
d-column blocks T[p] of a second random unitary Tcat. User u separates
the sums with the d-row blocks of pinv(D_u Tcat) = Tcat^H pinv(D_u) (D_u
has full column rank after preparation) and peels the messages apart
using its own transmitted symbols as side information.

When the relay has more antennas than a user (N > M) the surplus relay
antennas are shut down; when the relay dimension is not divisible by K-1,
the scheme runs over a (K-1)-slot symbol extension so the streams split
evenly. The extension belongs to the scheme, not to the channel:
``extension_plan`` alone decides L, channel sets hold only the physical
matrices H, and the scheme applies the block channel kron(I_L, H)
implicitly. The designed matrices are built in the extended block, and
pinv(kron(I_L, H)) = kron(I_L, pinv(H)), so only the physical matrices
are ever pseudo-inverted; the MAC and BC phases split each transmit
vector into L slots and multiply every slot by H in one batched matmul.
The channel set already holds those pseudoinverses and their condition
numbers, from the SVDs that validated it, so the design makes no SVD of
its own: a trial's design costs two QR draws (U and Tcat), whatever L is,
and its conditioning is that of the channel alone.

Plans are power agnostic: they store amplitudes per sqrt(P), so a single
plan serves an entire power sweep.

Every function takes one trial or a stack of trials along a leading trial
axis: a stacked ChannelSet with a sequence of generators, one per trial,
in place of one generator, giving plans and traces whose arrays carry the
same leading axis. Each design and round step is one batched LAPACK or
matmul call for the whole stack. Each trial draws from its own generator
exactly what it would draw alone, in the same order, so a trial's results
do not depend on the stack it is in. A single trial runs as a stack of one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import DofAllocation, common_only_allocation
from .channel import ChannelSet, NetworkConfig, matrix_to_lists, shutdown_relay_antennas
from .linalg import orthonormal_columns, random_gaussian_stack

# A trial whose uplink or downlink matrix has a condition number above
# this is a design error. The relay-side subspaces are unitary, so the
# plan's conditioning is the channel's and a redraw could not lower it.
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
    and relay_filter[p] the relay's receive filter. The relay-side
    subspaces are random unitaries: H_0 V1[p] = H_{p+1} Vj[p] = U[p], the
    p-th d-column block of U, so relay_filter[p] is the p-th d-row block
    of U^H, and Tcat = [T[0] ... T[K-2]] is unitary. Per user u and pair
    p, rx_filter[u, p] is the p-th d-row block of pinv(D_u Tcat). Every
    filter maps its own pair's image to I_d and the other pairs' images
    to zero. Shapes, with K users and the extended dimensions
    relay_dim = effective_N and user_dim = effective_M, L times those of
    the channel set:

    - V1, Vj: (K-1, user_dim, d)
    - T: (K-1, relay_dim, d)
    - relay_filter: (K-1, d, relay_dim)
    - rx_filter: (K, K-1, d, user_dim)
    - uplink_cond, downlink_cond: (K,)

    A plan for a stack of S trials prefixes every array with the trial
    axis, and power_scale and bc_scale are (S,) arrays in place of scalars.

    uplink_cond[u] and downlink_cond[u] are the condition numbers of user
    u's physical uplink and downlink matrices h_u and d_u, read from the
    channel set's decomposition. Since U and Tcat are unitary they are the
    plan's whole conditioning: cond(pinv(D_u Tcat)) = downlink_cond[u],
    and each beamformer block has a condition number of at most
    uplink_cond[u].

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
    uplink_cond: np.ndarray
    downlink_cond: np.ndarray
    power_scale: float | np.ndarray
    bc_scale: float | np.ndarray

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


def _draws(rngs, stack_shape: tuple[int, ...], count: int, *shape: int) -> np.ndarray:
    """``count`` CN(0, 1) arrays per trial, shaped stack_shape + (count, *shape)."""
    return random_gaussian_stack(count, shape, rngs).reshape(stack_shape + (count, *shape))


def _unitary_draw(rngs, n: int) -> np.ndarray:
    """One random n x n unitary per trial, (S, n, n): the Householder Q
    factor of one CN(0, 1) draw, which is unitary whatever the draw."""
    return orthonormal_columns(random_gaussian_stack(1, (n, n), rngs)[:, 0])


def design_uplink(
    channels: ChannelSet, d: int, rng
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw the relay's aligned directions, pre-invert every user's uplink
    onto them, and build the relay filters.

    The directions are one random n_eff x n_eff unitary U per trial,
    n_eff = L relay_dim; pair p's is its p-th d-column block U[p]. Each
    uplink has full row rank after preparation, so user 0 sends pair p through
    V1[p] = pinv(H_0) U[p] and partner p+1 through
    Vj[p] = pinv(H_{p+1}) U[p], and H_0 V1[p] = H_{p+1} Vj[p] = U[p]
    exactly. H_u is kron(I_L, h_u) of the stored physical matrix h_u, with
    L from extension_plan, so pinv(H_u) = kron(I_L, pinv(h_u)); all K
    physical pseudoinverses and cond(h_u) are read from the channel set,
    which decomposed them when it was validated. The relay filters are
    the d-row blocks of inv(U) = U^H. Returns V1 and Vj, both
    (K-1, L user_dim, d), the relay filters (K-1, d, L relay_dim) and
    cond(h_u), (K,), each with the channels' leading trial axis.
    """
    K = channels.num_users
    n, m = channels.relay_dim, channels.user_dim
    if n > m:
        raise ValueError("uplink design needs relay dimension <= user dimension")
    _, L, _ = extension_plan(K, m, n)
    n_eff, m_eff = L * n, L * m
    if (K - 1) * d != n_eff:
        raise ValueError("stream count d must satisfy (K-1) d = extended relay dimension")
    U = _unitary_draw(_generators(rng, channels.stack_shape), n_eff)
    stack = channels.stacked()
    up_pinv, up_cond = stack.uplink_pinv, stack.uplink_cond
    # kron(I_L, up_pinv[u]) @ U[p]: each pair's direction as L row blocks
    # of the physical size, so only the physical pseudoinverses are applied
    blocks = U.reshape(-1, L, n, K - 1, d).transpose(0, 3, 1, 2, 4)
    V1 = up_pinv[:, :1, np.newaxis] @ blocks
    Vj = up_pinv[:, 1:, np.newaxis] @ blocks
    lead = channels.stack_shape
    return (
        V1.reshape(lead + (K - 1, m_eff, d)),
        Vj.reshape(lead + (K - 1, m_eff, d)),
        U.conj().swapaxes(-1, -2).reshape(lead + (K - 1, d, n_eff)),
        up_cond.reshape(lead + (K,)),
    )


def design_downlink(channels: ChannelSet, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random unitary broadcast precoders T, (K-1, L relay_dim, d), every
    user's receive filters, (K, K-1, d, L user_dim), and every user's
    downlink conditioning cond(d_u), (K,), each with the channels' leading
    trial axis.

    Tcat = [T[0] ... T[K-2]] is one random n_eff x n_eff unitary per
    trial, n_eff = L relay_dim. User u sees the stacked downlink images
    D_u Tcat; its filter for pair p is the p-th d-row block of
    pinv(D_u Tcat). D_u has full
    column rank once the user dimension is at least the relay dimension
    (preparation guarantees it), so pinv(D_u Tcat) = Tcat^H pinv(D_u), and
    D_u = kron(I_L, d_u) of the stored physical matrix d_u, with L and d
    from extension_plan, so pinv(D_u) = kron(I_L, pinv(d_u)). The K
    physical pseudoinverses and cond(d_u), which is also
    cond(pinv(D_u Tcat)), are read from the channel set's decomposition,
    and one broadcast product forms all K user inverses.
    """
    K = channels.num_users
    n, m = channels.relay_dim, channels.user_dim
    if m < n:
        raise SchemeDesignError(
            f"singular downlink gain: zero-forcing needs user dimension {m} "
            f">= relay dimension {n}"
        )
    _, L, d = extension_plan(K, m, n)
    n_eff, m_eff = L * n, L * m
    t_cat = _unitary_draw(_generators(rng, channels.stack_shape), n_eff)
    stack = channels.stacked()
    down_pinv, down_cond = stack.downlink_pinv, stack.downlink_cond
    # Tcat^H @ kron(I_L, down_pinv[u]) for every u, without forming the kron
    t_inv = t_cat.conj().swapaxes(-1, -2)
    user_inv = t_inv.reshape(-1, 1, n_eff * L, n) @ down_pinv
    T = t_cat.reshape(-1, n_eff, K - 1, d).swapaxes(-3, -2)
    lead = channels.stack_shape
    return (
        T.reshape(lead + (K - 1, n_eff, d)),
        user_inv.reshape(lead + (K, K - 1, d, m_eff)),
        down_cond.reshape(lead + (K,)),
    )


def _assemble_plan(stack: ChannelSet, arrays: dict[str, np.ndarray], lead: tuple) -> SchemePlan:
    """The plan of a designed stack, shaped for ``lead``: () keeps only
    the single trial of a stack of one."""
    _, L, d = extension_plan(stack.num_users, stack.user_dim, stack.relay_dim)
    n_eff = L * stack.relay_dim
    # Users share one amplitude so the relay recovers plain symbol sums; the
    # largest per-user budget binds and transmits exactly P per slot.
    V1 = arrays["V1"]
    tx = np.concatenate([V1.sum(axis=-3, keepdims=True), arrays["Vj"]], axis=-3)
    budgets = np.sum(tx.real**2 + tx.imag**2, axis=(-2, -1))
    power_scale = np.sqrt(L / budgets.max(axis=-1))
    # The forwarded sums have symbol covariance blocks E[w_p w_q^H] =
    # (1 + delta_pq) I_d and Tcat is unitary, so the relay's transmit power
    # trace(Tcat W Tcat^H) = trace(W) = 2 relay_dim in every trial.
    bc_scale = np.full(power_scale.shape, np.sqrt(L / (2 * n_eff)))
    fields = {name: a.reshape(lead + a.shape[1:]) for name, a in arrays.items()}
    # one plan serves every power level and trace of a trial: share, never write
    for a in fields.values():
        a.setflags(write=False)
    if not lead:
        power_scale, bc_scale = float(power_scale[0]), float(bc_scale[0])
    return SchemePlan(
        d=d,
        effective_N=n_eff,
        effective_M=L * stack.user_dim,
        extension_factor=L,
        power_scale=power_scale,
        bc_scale=bc_scale,
        **fields,
    )


def design_scheme(
    config: NetworkConfig, channels: ChannelSet, rng
) -> tuple[ChannelSet, SchemePlan]:
    """Full design chain: preparation, the unitary relay-side draws and the
    users' channel pseudoinverses in both phases, power scales.

    Designs one trial (one generator) or a stack (a stacked ChannelSet
    and one generator per trial). A trial whose uplink or downlink
    matrix has a condition number above COND_LIMIT raises
    SchemeDesignError naming its stack position: the relay-side draws are
    unitary, so the plan's conditioning is the channel's and no redraw
    could lower it. Returns the effective channels (after any antenna
    shutdown, never extended) together with the plan.
    """
    eff, d = prepare_scheme(config, channels)
    rngs = _generators(rng, eff.stack_shape)
    stack = eff.stacked()
    V1, Vj, relay_filter, uplink_cond = design_uplink(stack, d, rngs)
    T, rx_filter, downlink_cond = design_downlink(stack, rngs)
    worst = np.maximum(uplink_cond.max(axis=-1), downlink_cond.max(axis=-1))
    failed = np.flatnonzero(~(worst <= COND_LIMIT))
    if failed.size:
        raise SchemeDesignError(
            f"channel conditioning {worst[failed[0]]:.3e} exceeds the guardrail {COND_LIMIT:.3e}",
            trial=int(failed[0]),
        )
    arrays = dict(
        V1=V1,
        Vj=Vj,
        T=T,
        relay_filter=relay_filter,
        rx_filter=rx_filter,
        uplink_cond=uplink_cond,
        downlink_cond=downlink_cond,
    )
    return eff, _assemble_plan(stack, arrays, eff.stack_shape)


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
    power_scale * sqrt(P) through kron(I_L, h_u) of its physical uplink
    h_u, L = plan.extension_factor; the relay observes the superposition
    plus unit-variance noise when enabled, which needs rng.

    symbols holds one length-d vector per user, as a (K, d) array or a
    sequence, or a (S, K, d) array for a stacked plan.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    s = _vector_rows(symbols, plan.stack_shape, plan.num_users, plan.d, "symbol")
    a = _amplitude(plan.power_scale, P)[..., np.newaxis, np.newaxis, np.newaxis]
    # user 0 sends on every pair's beamformer, partner p+1 on its own only
    x0 = plan.V1.sum(axis=-3, keepdims=True) @ s[..., :1, :, np.newaxis]
    x = a * np.concatenate([x0, plan.Vj @ s[..., 1:, :, np.newaxis]], axis=-3)
    y_r = np.sum(_kron_apply(channels.uplink, x[..., 0], plan.extension_factor), axis=-2)
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
    precoder with amplitude bc_scale * sqrt(P), and user u receives it
    through kron(I_L, d_u) of its physical downlink d_u; noise, when
    enabled, needs rng.

    w holds one forwarded length-d vector per pair, as a (K-1, d) array or
    a sequence, or a (S, K-1, d) array for a stacked plan. Row u of the
    (K, user_dim) result is user u's observation.
    """
    rngs = _generators(rng, plan.stack_shape) if noise_on else None
    w = _vector_rows(w, plan.stack_shape, plan.num_pairs, plan.d, "forwarded")
    b = _amplitude(plan.bc_scale, P)[..., np.newaxis]
    x_r = b * np.sum(plan.T @ w[..., np.newaxis], axis=-3)[..., 0]
    y = _kron_apply(channels.downlink, x_r[..., np.newaxis, :], plan.extension_factor)
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
