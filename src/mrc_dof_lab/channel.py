"""Network configuration and random channel generation.

The uplink channel of user j is an N x M matrix (relay antennas by user
antennas), the downlink an M x N matrix. Reciprocal operation means the
downlink is the plain transpose of the uplink. Each trial draws from its
own random stream, ``NetworkConfig.trial_rng``: counter-based Philox
keyed by (seed, trial), one independent stream per pair. The analysis
reads its trials through ``NetworkConfig.trial_streams``, a
``TrialStreams`` reader that gives each trial that fresh stream, bit for
bit, from one Philox per read, re-keyed per trial, and opens no
generator per trial; ``_read_streams`` reads the trials of several
readers, of any seeds, through one Philox. A trial's channel heads its
one draw, which ``draw_channels`` makes. The analysis draws its trials
keeping only the min(N, M) relay antennas the scheme uses (``_draw``,
which leaves the validation to its caller), so a trial with N > M is
validated once, at that size; a channel dump holds all N.

A ``ChannelSet`` holds one trial's physical channels as (K, N, M) /
(K, M, N) arrays, or a stack of trials with a leading trial axis. Symbol
extension is part of the scheme, not of the channel: ``ssa_nc`` applies
kron(I_L, H) implicitly, so a set never stores extended matrices.
Validation is the only place a channel matrix is factored: a reciprocal
set takes one batched LU or QR factorization, of its uplink stack, and
any other set takes two, one per link. They decide every rank, with an
SVD only for a matrix their condition bound cannot decide, and leave the
pseudoinverses and condition bounds that the scheme's design reads. The
exact condition numbers are computed by an SVD on first read.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .linalg import (
    CMatrix,
    _freeze,
    pseudo_inverse_and_bound,
    pseudo_inverse_and_rank,
    random_gaussian_stacks,
)

_SEED_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class NetworkConfig:
    """Antenna configuration of the K-user multi-way relay network.

    K users with M antennas each exchange messages through an N-antenna
    relay; there are no direct user-to-user links. duplex_factor 0.5
    rescales reported rates for half-duplex operation, 1.0 is full duplex.
    K, M, N and seed must be integers (int or numpy integer, not bool),
    reciprocal a bool and duplex_factor a real number (``numbers.Real``),
    not a bool; any other type raises ValueError, since a float seed would
    run truncated, a string switch would run as true, duplex_factor True as
    full duplex and a Decimal 0.5 would fail only in the slope fit.
    """

    K: int
    M: int
    N: int
    reciprocal: bool = True
    duplex_factor: float = 1.0
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("K", "M", "N", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if not isinstance(self.reciprocal, bool):
            raise ValueError(f"reciprocal must be a bool, not {self.reciprocal!r}")
        if self.K < 2:
            raise ValueError("K must be at least 2")
        if self.M < 1 or self.N < 1:
            raise ValueError("antenna counts must be positive")
        duplex = self.duplex_factor
        # True == 1.0, Decimal("0.5") == 0.5 and 1 + 0j == 1.0, so only a
        # real number that is not a bool (numpy's bool is not one) passes on
        # to the value check
        real = isinstance(duplex, numbers.Real) and not isinstance(duplex, bool)
        if not real or duplex not in (1.0, 0.5):
            raise ValueError(f"duplex_factor must be 1.0 or 0.5, not {duplex!r}")
        if not 0 <= self.seed <= _SEED_MASK:
            raise ValueError("seed must fit in 64 bits")

    def trial_rng(self, trial: int) -> np.random.Generator:
        """The stream of one trial: counter-based Philox keyed by the two
        64-bit words (seed, trial), bit for bit Generator(Philox(key=k)) for
        the uint64 array k = [seed, trial]. Distinct (seed, trial) pairs are distinct keys, hence
        independent streams (Salmon, Moraes, Dror and Shaw, "Parallel random
        numbers: as easy as 1, 2, 3", SC'11); a trial's stream is
        reproducible and does not depend on the order trials run in. The
        key goes to Philox directly, so opening a stream builds no
        SeedSequence and reads no OS entropy. The trial must be an integer
        in [0, 2**64), else ValueError."""
        _check_trial(trial)
        return np.random.Generator(np.random.Philox(_trial_key_type()(self.seed, trial)))

    def trial_streams(self, trials) -> TrialStreams:
        """A reader of the given trials' streams, each read as
        ``trial_rng`` opens it; see ``TrialStreams``."""
        return TrialStreams(self.seed, trials)


def _check_trial(trial) -> None:
    """A trial index is an integer (int or numpy integer, not bool) in
    [0, 2**64): anything else raises ValueError, since a float or a bool
    would read a truncated index's stream."""
    if isinstance(trial, bool) or not isinstance(trial, (int, np.integer)):
        raise ValueError(f"trial must be an integer, not {trial!r}")
    if not 0 <= trial <= _SEED_MASK:
        raise ValueError(f"trial must be in [0, 2**64), not {trial!r}")


class TrialStreams:
    """The streams of some trials of one seed, read from their start.

    ``read(n)`` gives one row per trial, in the given order: row s is bit
    for bit ``trial_rng(trials[s]).standard_normal(n)``, the trial's fresh
    stream. A Philox stream is a pure function of its key and counter, so
    one Philox, built per ``read`` call, serves every row: re-keyed to
    (seed, trial) at counter 0 with an empty buffer through its public
    ``state``, it is that trial's fresh stream, and no generator is opened
    per trial. A reader holds only the seed and the trial indices, which
    may repeat and come in any order; each must be an integer in
    [0, 2**64). No generator outlives a call, so readers share no state.
    """

    __slots__ = ("seed", "trials")

    def __init__(self, seed: int, trials) -> None:
        self.seed = seed
        self.trials = tuple(trials)
        for trial in self.trials:
            _check_trial(trial)

    def read(self, n: int) -> np.ndarray:
        """The first n standard normal values of each trial's stream, one
        row per trial: one re-key and one standard_normal call per row."""
        z = np.empty((len(self.trials), n))
        _read_streams([(self, z)])
        return z


def _read_streams(reads) -> None:
    """Fill, for each (streams, z) pair of ``reads``, row s of the float64
    array z with the first z.shape[-1] values of the fresh stream of
    (streams.seed, streams.trials[s]), as ``TrialStreams.read`` gives them:
    one Philox serves every row of every pair, re-keyed per row, so readers
    of several seeds read in one call. z must be C-contiguous."""
    bits = np.random.Philox(_trial_key_type()(0, 0))
    draw = np.random.Generator(bits).standard_normal
    # a fresh stream's state, counter 0 and an empty buffer; plain ints,
    # which Philox converts to its uint64 words, top bit included
    key, zeros = [0, 0], (0, 0, 0, 0)
    fresh = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
             "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for streams, z in reads:
        key[0] = streams.seed
        for trial, row in zip(streams.trials, z):
            key[1] = trial
            bits.state = fresh
            draw(out=row)


class _TrialKey:
    """Hands Philox its two key words, (seed, trial), as they are: the
    seed source of one trial stream. Philox asks for exactly two uint64
    words, once, and copies them into its key; any other request raises.
    Philox takes it as an ISeedSequence once ``_trial_key_type`` has
    registered it as one."""

    __slots__ = ("_words",)

    def __init__(self, seed: int, trial: int) -> None:
        self._words = np.array([seed, trial], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a trial key holds exactly two uint64 words")
        return self._words


@cache
def _trial_key_type() -> type:
    """_TrialKey, registered as a numpy.random ISeedSequence on first use,
    so that importing the package does not import numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    return ISeedSequence.register(_TrialKey)


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """Physical uplink/downlink matrices for all K users, with their
    pseudoinverses and condition numbers.

    uplink[..., j, :, :] maps user j's antennas to the relay and
    downlink[..., j, :, :] the relay's antennas to user j. One trial is
    stored as (K, N, M) and (K, M, N) arrays, a stack of S trials as
    (S, K, N, M) and (S, K, M, N); the constructor also takes a sequence
    of K matrices for one trial. Every matrix must be full rank.

    Validation factors the uplink stack once with
    ``pseudo_inverse_and_bound``: an LU inverse when N = M, a QR
    pseudoinverse otherwise. A reciprocal set, whose downlink is exactly
    the plain transpose of its uplink, takes no second factorization and
    no second finite or rank check: d_j = h_j^T has h_j's entries,
    pseudoinverse pinv(h_j)^T and the same Frobenius norms. Any other set
    checks and factors its downlink stack as well. Reciprocity is read
    from the matrices alone. Each matrix's condition bound ||h||_F
    ||pinv(h)||_F certifies its full rank; a matrix it cannot certify is
    decided, and inverted, by an SVD, exactly as
    ``pseudo_inverse_and_rank`` decides it, and its condition number is
    then its bound. Validation keeps uplink_pinv[..., j] = pinv(h_j),
    (..., K, M, N), downlink_pinv[..., j] = pinv(d_j), (..., K, N, M), and
    the bounds uplink_cond_bound and downlink_cond_bound, (..., K), each at
    least the matrix's condition number and at most min(N, M) times it.
    uplink_cond and downlink_cond, the condition numbers of h_j and d_j,
    (..., K), are computed by ``pseudo_inverse_and_rank`` on first read (a
    reciprocal set's downlink_cond is its uplink_cond) and cached; a view
    made by ``stacked`` or ``select`` computes its own. Every array is
    read-only: the set marks the complex128 matrices it is given read-only
    too, so its stored decomposition stays theirs. Pass arrays the set may
    own; marking a view read-only leaves its base writable.
    """

    uplink: np.ndarray
    downlink: np.ndarray
    uplink_pinv: np.ndarray = field(init=False, repr=False)
    downlink_pinv: np.ndarray = field(init=False, repr=False)
    uplink_cond_bound: np.ndarray = field(init=False, repr=False)
    downlink_cond_bound: np.ndarray = field(init=False, repr=False)

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
        _check_finite(uplink)
        reciprocal = _is_reciprocal(uplink, downlink)
        # a reciprocal downlink holds the uplink's entries and shares its
        # rank, so only another downlink is checked and factored
        if not reciprocal:
            _check_finite(downlink)
        up_pinv, up_rank, up_bound = pseudo_inverse_and_bound(uplink)
        _check_rank(up_rank, min(up_shape))
        if reciprocal:
            # d = h^T shares h's singular values, and pinv(h^T) = pinv(h)^T
            down_pinv, down_bound = up_pinv.swapaxes(-1, -2).copy(), up_bound
        else:
            down_pinv, down_rank, down_bound = pseudo_inverse_and_bound(downlink)
            _check_rank(down_rank, min(up_shape))
        self._store(
            uplink=uplink,
            downlink=downlink,
            uplink_pinv=up_pinv,
            downlink_pinv=down_pinv,
            uplink_cond_bound=up_bound,
            downlink_cond_bound=down_bound,
        )

    @property
    def uplink_cond(self) -> np.ndarray:
        """Condition numbers of the uplink matrices, (..., K)."""
        return self._exact_cond[0]

    @property
    def downlink_cond(self) -> np.ndarray:
        """Condition numbers of the downlink matrices, (..., K)."""
        return self._exact_cond[1]

    @cached_property
    def _exact_cond(self) -> tuple[np.ndarray, np.ndarray]:
        """Both links' condition numbers, computed on first read by one SVD
        per link stack; a reciprocal set's downlink shares its uplink's, as
        validation took them."""
        up = _freeze(pseudo_inverse_and_rank(self.uplink)[2])
        if _is_reciprocal(self.uplink, self.downlink):
            return up, up
        return up, _freeze(pseudo_inverse_and_rank(self.downlink)[2])

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

    def _view(self, transform) -> ChannelSet:
        """The set with every field transformed alike along its leading
        axis. Trials of a validated set are valid, and their decomposition
        is theirs: skip validation. The view computes its own condition
        numbers on first read, which are the same bits, since an SVD's
        values for a matrix do not depend on the stack it is in."""
        view = object.__new__(ChannelSet)
        view._store(**{f.name: transform(getattr(self, f.name)) for f in fields(self)})
        return view


def _is_reciprocal(uplink: np.ndarray, downlink: np.ndarray) -> bool:
    """Whether every downlink matrix is exactly its uplink's plain
    transpose; the two stacks must be transpose-shaped."""
    return bool((downlink == uplink.swapaxes(-1, -2)).all())


def _check_finite(matrices: np.ndarray) -> None:
    if not np.isfinite(matrices).all():
        raise ValueError("channel entries must be finite")


def _check_rank(rank: np.ndarray, full: int) -> None:
    if (rank != full).any():
        raise ValueError("channel matrix is rank deficient")


def draw_channels(config: NetworkConfig, rng, after=()) -> tuple[ChannelSet, list[np.ndarray]]:
    """Draw i.i.d. CN(0, 1) channels for all users, then the (count,
    shape) parts ``after``, in one ``random_gaussian_stacks`` call; returns
    the validated set and the ``after`` arrays.

    ``rng`` is one generator for one trial, or, for a stack with one
    trial per row, a sequence of generators or a ``TrialStreams`` reader
    (see ``random_gaussian_stacks``). All K uplink matrices are
    drawn first so that the uplink realization at a given seed does not
    depend on the reciprocity mode; reciprocal downlinks are exact
    transposes and consume no draws and no decomposition.
    """
    uplink, downlink, drawn = _draw(config, rng, after, config.N)
    return ChannelSet(uplink=uplink, downlink=downlink), drawn


def _draw(config: NetworkConfig, rng, after, keep: int) -> tuple:
    """``draw_channels`` with the set cut to its first ``keep`` relay
    antennas and not yet validated: returns the uplink and downlink
    stacks, then the ``after`` arrays. For keep = min(N, M), the set they
    make is bit for bit ``shutdown_relay_antennas`` of the full set, from
    the same values.

    The full set's validation is skipped, and in exact arithmetic a
    full-rank kept block makes the full matrix full rank. The two rank
    decisions can differ only at the 1e-10 tolerance: a discarded row with
    a huge entry can make the full matrix read rank deficient while the
    kept block is well conditioned, and such a draw, rejected in full,
    passes here. A Gaussian draw is essentially never near that case.
    """
    uplink, *drawn = random_gaussian_stacks(_link_parts(config) + list(after), rng)
    downlink = uplink.swapaxes(-1, -2).copy() if config.reciprocal else drawn.pop(0)
    if keep < config.N:
        uplink, downlink = _relay_rows(uplink, downlink, keep)
    return uplink, downlink, drawn


def _link_parts(config: NetworkConfig) -> list:
    """The (count, shape) parts that head a trial's draw: every uplink,
    then, unless reciprocal, every downlink."""
    K, M, N = config.K, config.M, config.N
    return [(K, (N, M))] if config.reciprocal else [(K, (N, M)), (K, (M, N))]


def generate_channels(config: NetworkConfig, rng) -> ChannelSet:
    """The channel set alone, as ``draw_channels`` draws it."""
    return draw_channels(config, rng)[0]


def _relay_rows(uplink: np.ndarray, downlink: np.ndarray, keep: int) -> tuple:
    """The first ``keep`` relay antennas: the leading rows of every uplink
    matrix and the leading columns of every downlink matrix, as copies."""
    return uplink[..., :keep, :].copy(), downlink[..., :keep].copy()


def shutdown_relay_antennas(channels: ChannelSet) -> ChannelSet:
    """Keep the first min(N, M) relay antennas, the set itself when N <= M.

    Removes trailing rows of every uplink matrix and trailing columns of
    every downlink matrix. Validated, as dropping rows can lose rank.
    """
    keep = min(channels.relay_dim, channels.user_dim)
    if keep == channels.relay_dim:
        return channels
    uplink, downlink = _relay_rows(channels.uplink, channels.downlink, keep)
    return ChannelSet(uplink=uplink, downlink=downlink)


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
    "TrialStreams",
    "matrix_to_lists",
    "matrix_from_lists",
    "ChannelSet",
    "draw_channels",
    "generate_channels",
    "shutdown_relay_antennas",
    "channels_to_json_dict",
    "channels_from_json_dict",
    "save_channels",
    "load_channels",
]
