"""Network configuration, random channel generation, and symbol extension.

The uplink channel of user j is an N x M matrix (relay antennas by user
antennas), the downlink an M x N matrix. Reciprocal operation means the
downlink is the plain transpose of the uplink. Extension by a factor L
replaces every matrix H by the block-diagonal kron(I_L, H), modelling L
consecutive uses of a constant channel as one block channel.

A ``ChannelSet`` holds one trial's channels as (K, N, M) / (K, M, N)
arrays, or a stack of trials with a leading trial axis. Every stored
matrix of an extended set is exactly kron(I_L, base) of its top-left base
block. Since rank(kron(I_L, H)) = L rank(H), the full-rank check runs on
the base blocks only, in one batched SVD for the whole stack, whatever the
extension factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import CMatrix, numeric_rank, random_gaussian_stack

_RANK_TOL = 1e-10
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NetworkConfig:
    """Antenna and power configuration of the K-user multi-way relay network.

    K users with M antennas each exchange messages through an N-antenna
    relay; there are no direct user-to-user links. P is the per-node
    transmit power budget on a linear scale. duplex_factor 0.5 rescales
    reported rates for half-duplex operation, 1.0 is full duplex.
    """

    K: int
    M: int
    N: int
    P: float = 1.0
    reciprocal: bool = True
    duplex_factor: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.M < 1 or self.N < 1:
            raise ValueError("antenna counts must be positive")
        if not (self.P > 0 and np.isfinite(self.P)):
            raise ValueError("P must be positive and finite")
        if self.duplex_factor not in (1.0, 0.5):
            raise ValueError("duplex_factor must be 1.0 or 0.5")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ValueError("seed must fit in 64 bits")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def trial_rng(self, trial: int) -> np.random.Generator:
        """Independent stream for one trial: seed XOR trial index."""
        return np.random.default_rng((self.seed ^ trial) & _SEED_MASK)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Uplink/downlink matrices for all K users, plus the extension factor.

    uplink[..., j, :, :] maps user j's antennas to the relay and
    downlink[..., j, :, :] the relay's antennas to user j. One trial is
    stored as (K, N, M) and (K, M, N) arrays, a stack of S trials as
    (S, K, N, M) and (S, K, M, N); the constructor also takes a sequence
    of K matrices for one trial. With L-fold extension N and M read L*N
    and L*M, and every stored matrix must equal kron(I_L, base) exactly,
    where base is its top-left N x M (uplink) or M x N (downlink) block.
    Every base block must be full rank, which makes every stored matrix
    full rank. Validation decides all base ranks of the whole stack in one
    batched SVD (downlink blocks transposed to stack with the uplink ones)
    and checks the block-diagonal structure by exact comparison.
    """

    uplink: np.ndarray
    downlink: np.ndarray
    extension_factor: int = 1

    def __post_init__(self) -> None:
        try:
            uplink = np.asarray(self.uplink, dtype=np.complex128)
            downlink = np.asarray(self.downlink, dtype=np.complex128)
        except ValueError as exc:
            raise ValueError("the matrices of each link must share one shape") from exc
        if uplink.ndim not in (3, 4) or uplink.shape[-3] < 2:
            raise ValueError("need uplink matrices for K >= 2 users, one trial or a stack")
        up_shape = uplink.shape[-2:]
        if downlink.shape != uplink.shape[:-2] + up_shape[::-1]:
            raise ValueError("downlink matrices must be transpose-shaped to the uplink")
        if self.extension_factor < 1:
            raise ValueError("extension_factor must be positive")
        L = self.extension_factor
        if up_shape[0] % L or up_shape[1] % L:
            raise ValueError("extended matrix shapes must be multiples of the extension factor")
        if not (np.all(np.isfinite(uplink)) and np.all(np.isfinite(downlink))):
            raise ValueError("channel entries must be finite")
        n, m = up_shape[0] // L, up_shape[1] // L
        up_base = uplink[..., :n, :m]
        down_base = downlink[..., :m, :n]
        if L > 1 and not (
            np.array_equal(uplink, _block_diagonal(up_base, L))
            and np.array_equal(downlink, _block_diagonal(down_base, L))
        ):
            raise ValueError("extended channel matrices must be kron(I_L, base) copies")
        base = np.concatenate([up_base, down_base.swapaxes(-1, -2)], axis=-3)
        if np.any(numeric_rank(base, _RANK_TOL) != min(n, m)):
            raise ValueError("channel matrix is rank deficient")
        object.__setattr__(self, "uplink", uplink)
        object.__setattr__(self, "downlink", downlink)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one trial, (S,) for a stack of S trials."""
        return self.uplink.shape[:-3]

    @property
    def num_users(self) -> int:
        return self.uplink.shape[-3]

    @property
    def relay_dim(self) -> int:
        """Relay-side dimension of the stored (possibly extended) matrices."""
        return self.uplink.shape[-2]

    @property
    def user_dim(self) -> int:
        return self.uplink.shape[-1]

    def stacked(self) -> ChannelSet:
        """The set as a stack: itself if stacked, else a stack of one."""
        return self if self.stack_shape else self._view(self.uplink[None], self.downlink[None])

    def select(self, trials) -> ChannelSet:
        """The given trials of a stack, as a stack."""
        return self._view(self.uplink[trials], self.downlink[trials])

    def _view(self, uplink: np.ndarray, downlink: np.ndarray, extension_factor=None) -> ChannelSet:
        # trials and extensions of a validated set are valid: skip validation
        view = object.__new__(ChannelSet)
        object.__setattr__(view, "uplink", uplink)
        object.__setattr__(view, "downlink", downlink)
        object.__setattr__(view, "extension_factor", extension_factor or self.extension_factor)
        return view


def generate_channels(config: NetworkConfig, rng) -> ChannelSet:
    """Draw i.i.d. CN(0, 1) channels for all users.

    ``rng`` is one generator for one trial, or a sequence of generators
    for a stack with one trial per generator. All K uplink matrices are
    drawn first so that the uplink realization at a given seed does not
    depend on the reciprocity mode; reciprocal downlinks are exact
    transposes and consume no draws.
    """
    uplink = random_gaussian_stack(config.K, (config.N, config.M), rng)
    if config.reciprocal:
        downlink = uplink.swapaxes(-1, -2).copy()
    else:
        downlink = random_gaussian_stack(config.K, (config.M, config.N), rng)
    return ChannelSet(uplink=uplink, downlink=downlink, extension_factor=1)


def _block_diagonal(blocks: np.ndarray, L: int) -> np.ndarray:
    """kron(I_L, B) for every B of a (..., r, c) stack, in one fill."""
    *lead, r, c = blocks.shape
    out = np.zeros((*lead, L, r, L, c), dtype=blocks.dtype)
    diag = np.arange(L)
    out[..., diag, :, diag, :] = blocks
    return out.reshape(*lead, L * r, L * c)


def extend_channels(channels: ChannelSet, L: int) -> ChannelSet:
    """Replace every matrix by diag(H, ..., H) with L copies (constant channel).

    Only unextended sets can be extended; L = 1 returns the input unchanged.
    Not validated again: the input is, and the fill is exactly kron(I_L, H).
    """
    if L < 1:
        raise ValueError("extension factor must be positive")
    if L == 1:
        return channels
    if channels.extension_factor != 1:
        raise ValueError("channel set is already extended")
    return channels._view(
        _block_diagonal(channels.uplink, L), _block_diagonal(channels.downlink, L), L
    )


def shutdown_relay_antennas(channels: ChannelSet, keep: int) -> ChannelSet:
    """Drop all but the first ``keep`` relay antennas.

    Removes trailing rows of every uplink matrix and trailing columns of
    every downlink matrix. Only meaningful before extension. Validated, as
    dropping rows can lose rank.
    """
    if channels.extension_factor != 1:
        raise ValueError("shut down antennas before extending the channel")
    if not 1 <= keep <= channels.relay_dim:
        raise ValueError("keep must be between 1 and the relay dimension")
    if keep == channels.relay_dim:
        return channels
    return ChannelSet(
        uplink=channels.uplink[..., :keep, :].copy(),
        downlink=channels.downlink[..., :, :keep].copy(),
        extension_factor=1,
    )


def matrix_to_lists(h: CMatrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(h)]


def matrix_from_lists(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def channels_to_json_dict(channels: ChannelSet) -> dict:
    """JSON-friendly encoding of one trial's set: per-slot K/M/N/L plus
    [re, im] entry pairs."""
    if channels.stack_shape:
        raise ValueError("only one trial's channel set can be encoded")
    L = channels.extension_factor
    return {
        "K": channels.num_users,
        "M": channels.user_dim // L,
        "N": channels.relay_dim // L,
        "L": L,
        "uplink": [matrix_to_lists(h) for h in channels.uplink],
        "downlink": [matrix_to_lists(h) for h in channels.downlink],
    }


def channels_from_json_dict(doc: dict) -> ChannelSet:
    uplink = [matrix_from_lists(m) for m in doc["uplink"]]
    downlink = [matrix_from_lists(m) for m in doc["downlink"]]
    return ChannelSet(uplink=uplink, downlink=downlink, extension_factor=int(doc["L"]))


def save_channels(channels: ChannelSet, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(channels_to_json_dict(channels), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_channels(path: str) -> ChannelSet:
    with open(path, "r", encoding="utf-8") as fh:
        return channels_from_json_dict(json.load(fh))


__all__ = [
    "NetworkConfig",
    "matrix_to_lists",
    "matrix_from_lists",
    "ChannelSet",
    "generate_channels",
    "extend_channels",
    "shutdown_relay_antennas",
    "channels_to_json_dict",
    "channels_from_json_dict",
    "save_channels",
    "load_channels",
]
