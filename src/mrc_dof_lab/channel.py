"""Network configuration and random channel generation.

The uplink channel of user j is an N x M matrix (relay antennas by user
antennas), the downlink an M x N matrix. Reciprocal operation means the
downlink is the plain transpose of the uplink.

A ``ChannelSet`` holds one trial's physical channels as (K, N, M) /
(K, M, N) arrays, or a stack of trials with a leading trial axis. Symbol
extension is part of the scheme, not of the channel: ``ssa_nc`` applies
kron(I_L, H) implicitly, so a set never stores extended matrices.
Validation is the only place a channel matrix is decomposed: one batched
SVD of the uplink stack and one of the downlink stack decide every rank
and leave the pseudoinverses and condition numbers that the scheme's
design reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .linalg import CMatrix, pseudo_inverse_and_rank, random_gaussian_stack

_RANK_TOL = 1e-10
_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NetworkConfig:
    """Antenna configuration of the K-user multi-way relay network.

    K users with M antennas each exchange messages through an N-antenna
    relay; there are no direct user-to-user links. duplex_factor 0.5
    rescales reported rates for half-duplex operation, 1.0 is full duplex.
    """

    K: int
    M: int
    N: int
    reciprocal: bool = True
    duplex_factor: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.M < 1 or self.N < 1:
            raise ValueError("antenna counts must be positive")
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
    """Physical uplink/downlink matrices for all K users, with their
    pseudoinverses and condition numbers.

    uplink[..., j, :, :] maps user j's antennas to the relay and
    downlink[..., j, :, :] the relay's antennas to user j. One trial is
    stored as (K, N, M) and (K, M, N) arrays, a stack of S trials as
    (S, K, N, M) and (S, K, M, N); the constructor also takes a sequence
    of K matrices for one trial. Every matrix must be full rank.

    Validation decomposes the uplink stack and the downlink stack with one
    batched SVD each (``pseudo_inverse_and_rank``), decides every rank from
    them and keeps the rest: uplink_pinv[..., j] = pinv(h_j), (..., K, M, N),
    downlink_pinv[..., j] = pinv(d_j), (..., K, N, M), and uplink_cond and
    downlink_cond, the condition numbers of h_j and d_j, (..., K). Every
    field is read-only: the set marks the complex128 matrices it is given
    read-only too, so its stored decomposition stays theirs. Pass arrays
    the set may own; marking a view read-only leaves its base writable.
    """

    uplink: np.ndarray
    downlink: np.ndarray
    uplink_pinv: np.ndarray = field(init=False, repr=False)
    downlink_pinv: np.ndarray = field(init=False, repr=False)
    uplink_cond: np.ndarray = field(init=False, repr=False)
    downlink_cond: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            uplink = np.asarray(self.uplink, dtype=np.complex128)
            downlink = np.asarray(self.downlink, dtype=np.complex128)
        except ValueError as exc:
            raise ValueError("the matrices of each link must share one shape") from exc
        if uplink.ndim not in (3, 4) or uplink.shape[-3] < 2:
            raise ValueError("need uplink matrices for K >= 2 users, one trial or a stack")
        up_shape = uplink.shape[-2:]
        if min(up_shape) < 1:
            raise ValueError("channel matrices must have at least one row and one column")
        if downlink.shape != uplink.shape[:-2] + up_shape[::-1]:
            raise ValueError("downlink matrices must be transpose-shaped to the uplink")
        if not (np.all(np.isfinite(uplink)) and np.all(np.isfinite(downlink))):
            raise ValueError("channel entries must be finite")
        up_pinv, up_rank, up_cond = pseudo_inverse_and_rank(uplink, _RANK_TOL)
        down_pinv, down_rank, down_cond = pseudo_inverse_and_rank(downlink, _RANK_TOL)
        if np.any(up_rank != min(up_shape)) or np.any(down_rank != min(up_shape)):
            raise ValueError("channel matrix is rank deficient")
        self._store(
            uplink=uplink,
            downlink=downlink,
            uplink_pinv=up_pinv,
            downlink_pinv=down_pinv,
            uplink_cond=up_cond,
            downlink_cond=down_cond,
        )

    def _store(self, **arrays: np.ndarray) -> None:
        """Set the given fields, read-only."""
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """() for one trial, (S,) for a stack of S trials."""
        return self.uplink.shape[:-3]

    @property
    def num_users(self) -> int:
        return self.uplink.shape[-3]

    @property
    def relay_dim(self) -> int:
        """Relay antennas N (after any shutdown)."""
        return self.uplink.shape[-2]

    @property
    def user_dim(self) -> int:
        return self.uplink.shape[-1]

    def stacked(self) -> ChannelSet:
        """The set as a stack: itself if stacked, else a stack of one."""
        return self if self.stack_shape else self._view(lambda a: a[np.newaxis])

    def select(self, trials) -> ChannelSet:
        """The given trials of a stack, as a stack."""
        return self._view(lambda a: a[trials])

    def repeated(self, count: int) -> ChannelSet:
        """One trial's set as a stack of ``count`` identical trials: every
        field a read-only broadcast view of this set's, nothing copied."""
        if self.stack_shape:
            raise ValueError("only one trial's set can be repeated")
        return self._view(lambda a: np.broadcast_to(a, (count,) + a.shape))

    def _view(self, transform) -> ChannelSet:
        """The set with every field transformed alike along its leading
        axis. Trials of a validated set are valid, and their decomposition
        is theirs: skip validation."""
        view = object.__new__(ChannelSet)
        view._store(**{f.name: transform(getattr(self, f.name)) for f in fields(self)})
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
    return ChannelSet(uplink=uplink, downlink=downlink)


def shutdown_relay_antennas(channels: ChannelSet, keep: int) -> ChannelSet:
    """Drop all but the first ``keep`` relay antennas.

    Removes trailing rows of every uplink matrix and trailing columns of
    every downlink matrix. Validated, as dropping rows can lose rank.
    """
    if not 1 <= keep <= channels.relay_dim:
        raise ValueError("keep must be between 1 and the relay dimension")
    if keep == channels.relay_dim:
        return channels
    return ChannelSet(
        uplink=channels.uplink[..., :keep, :].copy(),
        downlink=channels.downlink[..., :, :keep].copy(),
    )


def matrix_to_lists(h: CMatrix) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(h)]


def matrix_from_lists(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def channels_to_json_dict(channels: ChannelSet) -> dict:
    """JSON-friendly encoding of one trial's set: K/M/N, the extension
    factor L (always 1: a set holds the physical channels) and [re, im]
    entry pairs."""
    if channels.stack_shape:
        raise ValueError("only one trial's channel set can be encoded")
    return {
        "K": channels.num_users,
        "M": channels.user_dim,
        "N": channels.relay_dim,
        "L": 1,
        "uplink": [matrix_to_lists(h) for h in channels.uplink],
        "downlink": [matrix_to_lists(h) for h in channels.downlink],
    }


def channels_from_json_dict(doc: dict) -> ChannelSet:
    """Decode and validate one trial's set; documents with L other than 1
    hold extended matrices, which a set never stores, and are rejected.
    A document that lacks a key, holds an entry other than an [re, im]
    pair of numbers, or whose K, M and N disagree with its matrices raises
    ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a channel document must be a JSON object")
    missing = [key for key in ("K", "M", "N", "L", "uplink", "downlink") if key not in doc]
    if missing:
        raise ValueError(f"channel document has no {', '.join(map(repr, missing))} entry")
    try:
        extended = int(doc["L"]) != 1
    except (TypeError, ValueError) as exc:
        raise ValueError(f"channel document L must be an integer, not {doc['L']!r}") from exc
    if extended:
        raise ValueError(f"channel documents must be unextended (L = 1), not L = {doc['L']}")
    try:
        uplink = [matrix_from_lists(m) for m in doc["uplink"]]
        downlink = [matrix_from_lists(m) for m in doc["downlink"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"channel entries must be [re, im] pairs of numbers: {exc}") from exc
    channels = ChannelSet(uplink=uplink, downlink=downlink)
    decoded = {"K": channels.num_users, "M": channels.user_dim, "N": channels.relay_dim}
    if any(doc[key] != value for key, value in decoded.items()):
        header = ", ".join(f"{key}={doc[key]!r}" for key in decoded)
        matrices = ", ".join(f"{key}={value}" for key, value in decoded.items())
        raise ValueError(f"channel document header {header} disagrees with its matrices {matrices}")
    return channels


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
    "shutdown_relay_antennas",
    "channels_to_json_dict",
    "channels_from_json_dict",
    "save_channels",
    "load_channels",
]
