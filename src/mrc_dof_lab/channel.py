"""Network configuration, random channel generation, and symbol extension.

The uplink channel of user j is an N x M matrix (relay antennas by user
antennas), the downlink an M x N matrix. Reciprocal operation means the
downlink is the plain transpose of the uplink. Extension by a factor L
replaces every matrix H by the block-diagonal kron(I_L, H), modelling L
consecutive uses of a constant channel as one block channel.

A ``ChannelSet`` holds that structure as an invariant: every stored matrix
of an extended set is exactly kron(I_L, base) of its top-left base block.
Since rank(kron(I_L, H)) = L rank(H), the full-rank check runs on the 2K
base blocks only, in one batched SVD, whatever the extension factor.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .linalg import CMatrix, numeric_rank, random_gaussian_matrix

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
        if not self.P > 0:
            raise ValueError("P must be positive")
        if self.duplex_factor not in (1.0, 0.5):
            raise ValueError("duplex_factor must be 1.0 or 0.5")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ValueError("seed must fit in 64 bits")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def trial_rng(self, trial: int) -> np.random.Generator:
        """Independent stream for one trial: seed XOR trial index."""
        return np.random.default_rng((self.seed ^ trial) & _SEED_MASK)


@dataclass(frozen=True)
class ChannelSet:
    """Uplink/downlink matrices for all K users, plus the extension factor.

    uplink[j] maps user j's antennas to the relay, downlink[j] the relay's
    antennas to user j. With L-fold extension the stored shapes are
    (L*N, L*M) and (L*M, L*N), and every stored matrix must equal
    kron(I_L, base) exactly, where base is its top-left N x M (uplink) or
    M x N (downlink) block. Every base block must be full rank, which makes
    every stored matrix full rank. Validation decides all 2K base ranks in
    one batched SVD (downlink blocks transposed to stack with the uplink
    ones) and checks the block-diagonal structure by exact comparison.
    """

    uplink: tuple[CMatrix, ...]
    downlink: tuple[CMatrix, ...]
    extension_factor: int = 1

    def __post_init__(self) -> None:
        if len(self.uplink) != len(self.downlink) or len(self.uplink) < 2:
            raise ValueError("need matching uplink/downlink matrices for K >= 2 users")
        if self.extension_factor < 1:
            raise ValueError("extension_factor must be positive")
        L = self.extension_factor
        up_shape = self.uplink[0].shape
        down_shape = (up_shape[1], up_shape[0])
        for h in self.uplink:
            if h.shape != up_shape:
                raise ValueError("uplink matrices must share one shape")
        for h in self.downlink:
            if h.shape != down_shape:
                raise ValueError("downlink matrices must be transpose-shaped to the uplink")
        if up_shape[0] % L or up_shape[1] % L:
            raise ValueError("extended matrix shapes must be multiples of the extension factor")
        uplink = np.stack(self.uplink)
        downlink = np.stack(self.downlink)
        if not (np.all(np.isfinite(uplink)) and np.all(np.isfinite(downlink))):
            raise ValueError("channel entries must be finite")
        n, m = up_shape[0] // L, up_shape[1] // L
        up_base = uplink[:, :n, :m]
        down_base = downlink[:, :m, :n]
        if L > 1 and not (
            np.array_equal(uplink, _block_diagonal(up_base, L))
            and np.array_equal(downlink, _block_diagonal(down_base, L))
        ):
            raise ValueError("extended channel matrices must be kron(I_L, base) copies")
        base = np.concatenate([up_base, down_base.swapaxes(-1, -2)])
        if np.any(numeric_rank(base, _RANK_TOL) != min(n, m)):
            raise ValueError("channel matrix is rank deficient")

    @property
    def num_users(self) -> int:
        return len(self.uplink)

    @property
    def relay_dim(self) -> int:
        """Relay-side dimension of the stored (possibly extended) matrices."""
        return self.uplink[0].shape[0]

    @property
    def user_dim(self) -> int:
        return self.uplink[0].shape[1]


def generate_channels(config: NetworkConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw i.i.d. CN(0, 1) channels for all users.

    All K uplink matrices are drawn first so that the uplink realization at
    a given seed does not depend on the reciprocity mode; reciprocal
    downlinks are exact transposes and consume no draws.
    """
    uplink = tuple(random_gaussian_matrix(config.N, config.M, rng) for _ in range(config.K))
    if config.reciprocal:
        downlink = tuple(h.T.copy() for h in uplink)
    else:
        downlink = tuple(random_gaussian_matrix(config.M, config.N, rng) for _ in range(config.K))
    return ChannelSet(uplink=uplink, downlink=downlink, extension_factor=1)


def _block_diagonal(blocks: np.ndarray, L: int) -> np.ndarray:
    """kron(I_L, B) for every B of a (K, r, c) stack, in one fill."""
    K, r, c = blocks.shape
    out = np.zeros((K, L, r, L, c), dtype=blocks.dtype)
    diag = np.arange(L)
    out[:, diag, :, diag, :] = blocks
    return out.reshape(K, L * r, L * c)


def extend_channels(channels: ChannelSet, L: int) -> ChannelSet:
    """Replace every matrix by diag(H, ..., H) with L copies (constant channel).

    Only unextended sets can be extended; L = 1 returns the input unchanged.
    """
    if L < 1:
        raise ValueError("extension factor must be positive")
    if L == 1:
        return channels
    if channels.extension_factor != 1:
        raise ValueError("channel set is already extended")
    uplink = tuple(_block_diagonal(np.stack(channels.uplink), L))
    downlink = tuple(_block_diagonal(np.stack(channels.downlink), L))
    return ChannelSet(uplink=uplink, downlink=downlink, extension_factor=L)


def shutdown_relay_antennas(channels: ChannelSet, keep: int) -> ChannelSet:
    """Drop all but the first ``keep`` relay antennas.

    Removes trailing rows of every uplink matrix and trailing columns of
    every downlink matrix. Only meaningful before extension.
    """
    if channels.extension_factor != 1:
        raise ValueError("shut down antennas before extending the channel")
    if not 1 <= keep <= channels.relay_dim:
        raise ValueError("keep must be between 1 and the relay dimension")
    if keep == channels.relay_dim:
        return channels
    uplink = tuple(h[:keep, :].copy() for h in channels.uplink)
    downlink = tuple(h[:, :keep].copy() for h in channels.downlink)
    return ChannelSet(uplink=uplink, downlink=downlink, extension_factor=1)


def matrix_to_lists(h: CMatrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(h)]


def matrix_from_lists(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def channels_to_json_dict(channels: ChannelSet) -> dict:
    """JSON-friendly encoding: per-slot K/M/N/L plus [re, im] entry pairs."""
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
    uplink = tuple(matrix_from_lists(m) for m in doc["uplink"])
    downlink = tuple(matrix_from_lists(m) for m in doc["downlink"])
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
