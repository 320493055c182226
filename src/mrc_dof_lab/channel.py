"""Network configuration and random channel generation.

The uplink channel of user j is an N x M matrix (relay antennas by user
antennas), the downlink an M x N matrix. Reciprocal operation means the
downlink is the plain transpose of the uplink. Each trial draws from its
own random stream, ``NetworkConfig.trial_rng``: counter-based Philox
keyed by (seed, trial), one independent stream per pair. The analysis
reads its trials through ``NetworkConfig.trial_streams``, a
``TrialStreams`` reader that gives each trial that fresh stream, bit for
bit, from one Philox re-keyed per trial, and opens no generator per
trial. Every draw goes through one routine, ``_fill``: it reads the
trials of any readers, of any seeds, or one generator, and writes each
trial's channel, and whatever the caller draws after it, in place into
the caller's arrays, the channel cut to the relay antennas the caller
keeps. It reads each reader key, (seed, trials), once per call, to the
longest length any caller's arrays take, since a shorter read of a
stream is a prefix of a longer one, and holds one key's raw values at a
time. ``generate_channels`` draws the full N x M set, which a channel
dump holds; the analysis keeps only the min(N, M) relay antennas the
scheme uses, so a trial with N > M is validated once, at that size.

A ``ChannelSet`` holds one trial's physical channels as (K, N, M) /
(K, M, N) arrays, or a stack of trials with a leading trial axis. Symbol
extension is part of the scheme, not of the channel: ``ssa_nc`` applies
kron(I_L, H) implicitly, so a set never stores extended matrices.
Validation is the only place a channel matrix is factored: a reciprocal
set takes one batched LU or QR factorization, of its uplink stack, and
any other set takes two, one per link. A drawn reciprocal set is built
from its uplink alone and so is reciprocal without comparing its links.
The factorizations decide every rank, with an SVD only for a matrix
their condition bound cannot decide, and leave the pseudoinverses and
condition bounds that the scheme's design reads. The exact condition
numbers are computed by an SVD on first read.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import cache, cached_property

import numpy as np

from .linalg import CMatrix, _freeze, pseudo_inverse_and_bound, pseudo_inverse_and_rank

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

    ``_fill`` reads a reader's trials in the given order, one row per
    trial: row s is bit for bit what ``trial_rng(trials[s])``, the trial's
    fresh stream, draws. A Philox stream is a pure function of its key and
    counter, so one Philox, built per ``_fill`` call, serves every row:
    re-keyed to (seed, trial) at counter 0 with an empty buffer through
    its public ``state``, it is that trial's fresh stream, and no
    generator is opened per trial. A reader holds only the seed and the
    trial indices, which may repeat and come in any order; each must be an
    integer in [0, 2**64). No generator outlives a call, so readers share
    no state.
    """

    __slots__ = ("seed", "trials")

    def __init__(self, seed: int, trials) -> None:
        self.seed = seed
        self.trials = tuple(trials)
        for trial in self.trials:
            _check_trial(trial)

    def _read(self, z: np.ndarray, bits, draw) -> None:
        """Fill row s of the C-contiguous float64 array z with the first
        z.shape[-1] values of trial s's fresh stream: ``bits`` is a Philox,
        re-keyed per row, and ``draw`` the standard_normal of a generator
        over it."""
        # a fresh stream's state, counter 0 and an empty buffer; plain ints,
        # which Philox converts to its uint64 words, top bit included
        key, zeros = [self.seed, 0], (0, 0, 0, 0)
        fresh = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                 "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for trial, row in zip(self.trials, z):
            key[1] = trial
            bits.state = fresh
            draw(out=row)


# Real and imaginary parts are N(0, 1/2), so E|a|^2 = 1. Scaling each by
# 1 / sqrt(2) gives the bits of (re + 1j im) / sqrt(2), up to the sign of an
# exactly zero part.
_SCALE = 1.0 / np.sqrt(2.0)


def _fill(segments) -> None:
    """Draw i.i.d. CN(0, 1) arrays in place: the one routine that turns
    standard normal values into a trial's complex arrays.

    Each segment is (source, parts, targets): ``parts`` is a tuple of the
    (count, shape) arrays one trial draws in turn, and ``targets`` one
    complex128 array per part, or None for a part the segment skips. A
    source is a ``TrialStreams`` reader, whose trial s writes row s of
    every target, or one ``np.random.Generator`` for one trial, drawn on
    from its state, whose targets have no trial axis; any other source
    raises TypeError. A trial takes one standard_normal call: each part's
    block (count, 2, *shape) in turn, each array's real then imaginary
    values, bit for bit what drawing the parts one after another gives. A
    target holds the leading block of its part's shape (the kept relay
    antennas: an uplink's first rows, a downlink's first columns), so a
    trial's cut is written here only.

    Each reader key, (seed, trials), is read once per call, to the longest
    length any of its segments takes, and every such segment writes its
    parts from that one read: a Philox stream is a pure function of its
    key and counter, so a shorter read is a prefix of a longer one. One
    Philox, re-keyed per trial, reads every key of the call, whatever its
    seed, and one key's raw values are held at a time. They are scaled in
    one pass, values no target keeps included, which costs less than
    scaling each target apart.
    """
    bits = np.random.Philox(_trial_key_type()(0, 0))
    draw = np.random.Generator(bits).standard_normal
    reads: dict = {}
    for segment in segments:
        source, parts, targets = segment
        if isinstance(source, TrialStreams):
            reads.setdefault((source.seed, source.trials), []).append(segment)
        elif isinstance(source, np.random.Generator):
            size, blocks = _blocks(parts)
            z = source.standard_normal(size)
            z *= _SCALE
            _write(z, blocks, targets)
        else:
            raise TypeError("a draw source is a TrialStreams reader, as "
                            "config.trial_streams(trials) gives, or one "
                            f"numpy Generator, not {type(source).__name__}")
    for same in reads.values():
        layouts = [_blocks(parts) for _, parts, _ in same]
        reader = same[0][0]
        z = np.empty((len(reader.trials), max(size for size, _ in layouts)))
        reader._read(z, bits, draw)
        z *= _SCALE
        for (_, _, targets), (_, blocks) in zip(same, layouts):
            _write(z, blocks, targets)


def _write(z: np.ndarray, blocks: tuple, targets) -> None:
    """Copy each part's kept block of the scaled values z, (..., values),
    into its target, skipping a None target."""
    lead = z.shape[:-1]
    for (start, stop, block, dims), target in zip(blocks, targets):
        if target is None:
            continue
        values = z[..., start:stop].reshape(lead + block)
        cut = tuple(map(slice, target.shape[target.ndim - dims :]))
        target.real = values[(..., 0, *cut)]
        target.imag = values[(..., 1, *cut)]


@cache
def _blocks(parts: tuple) -> tuple:
    """The standard normal values one trial of the parts takes, and each
    part's (start, stop, block shape (count, 2, *shape), len(shape)) among
    them."""
    if any(n < 1 for count, shape in parts for n in (count, *shape)):
        raise ValueError("draw dimensions must be positive")
    blocks, start = [], 0
    for count, shape in parts:
        stop = start + 2 * count * math.prod(shape)
        blocks.append((start, stop, (count, 2, *shape), len(shape)))
        start = stop
    return start, tuple(blocks)


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

    A set made from its uplink alone, ``ChannelSet(uplink)``, is
    reciprocal: it makes its downlink, the plain transpose of its uplink,
    itself. A set given both links is reciprocal when every downlink
    matrix is exactly its uplink's plain transpose, read from the matrices.
    ``reciprocal`` records which; a view keeps it.

    Validation factors the uplink stack once with
    ``pseudo_inverse_and_bound``: an LU inverse when N = M, a QR
    pseudoinverse otherwise. A reciprocal set takes no second
    factorization and no second finite or rank check: d_j = h_j^T has
    h_j's entries, pseudoinverse pinv(h_j)^T and the same Frobenius norms.
    Any other set checks and factors its downlink stack as well. Each
    matrix's condition bound ||h||_F ||pinv(h)||_F certifies its full
    rank; a matrix it cannot certify is decided, and inverted, by an SVD,
    exactly as ``pseudo_inverse_and_rank`` decides it, and its condition
    number is then its bound. Validation keeps uplink_pinv[..., j] = pinv(h_j),
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
    downlink: np.ndarray | None = None
    uplink_pinv: np.ndarray = field(init=False, repr=False)
    downlink_pinv: np.ndarray = field(init=False, repr=False)
    uplink_cond_bound: np.ndarray = field(init=False, repr=False)
    downlink_cond_bound: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        reciprocal = self.downlink is None
        try:
            uplink = np.asarray(self.uplink, dtype=np.complex128)
            if not reciprocal:
                downlink = np.asarray(self.downlink, dtype=np.complex128)
        except ValueError as exc:
            raise ValueError("the matrices of each link must share one shape") from exc
        if uplink.ndim not in (3, 4) or uplink.shape[-3] < 2:
            raise ValueError("need uplink matrices for K >= 2 users, one trial or a stack")
        up_shape = uplink.shape[-2:]
        if min(up_shape) < 1:
            raise ValueError("channel matrices must have at least one row and one column")
        if reciprocal:
            downlink = uplink.swapaxes(-1, -2).copy()
        elif downlink.shape != uplink.shape[:-2] + up_shape[::-1]:
            raise ValueError("downlink matrices must be transpose-shaped to the uplink")
        _check_finite(uplink)
        reciprocal = reciprocal or _is_reciprocal(uplink, downlink)
        object.__setattr__(self, "_reciprocal", reciprocal)
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
    def reciprocal(self) -> bool:
        """Whether every downlink matrix is its uplink's plain transpose."""
        return self._reciprocal

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
        if self.reciprocal:
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
        object.__setattr__(view, "_reciprocal", self.reciprocal)
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


def _link_parts(K: int, M: int, N: int, reciprocal: bool) -> tuple:
    """The (count, shape) parts that head a trial's draw: every uplink,
    then, unless reciprocal, every downlink. All K uplink matrices come
    first, so that the uplink realization at a given seed does not depend
    on the reciprocity mode; reciprocal downlinks are exact transposes and
    consume no draws."""
    return ((K, (N, M)),) if reciprocal else ((K, (N, M)), (K, (M, N)))


def generate_channels(config: NetworkConfig, rng) -> ChannelSet:
    """Draw i.i.d. CN(0, 1) channels for all users, the full N x M set,
    validated. ``rng`` is one generator for one trial, drawn on from its
    state, or a ``TrialStreams`` reader for a stack with one trial per
    row, each read from its start (see ``_fill``)."""
    lead = (len(rng.trials),) if isinstance(rng, TrialStreams) else ()
    parts = _link_parts(config.K, config.M, config.N, config.reciprocal)
    links = [np.empty(lead + (count, *shape), dtype=complex) for count, shape in parts]
    _fill([(rng, parts, links)])
    return ChannelSet(*links)


def shutdown_relay_antennas(channels: ChannelSet) -> ChannelSet:
    """Keep the first min(N, M) relay antennas, the set itself when N <= M.

    Removes trailing rows of every uplink matrix and trailing columns of
    every downlink matrix. Validated, as dropping rows can lose rank.
    """
    keep = min(channels.relay_dim, channels.user_dim)
    if keep == channels.relay_dim:
        return channels
    uplink = channels.uplink[..., :keep, :].copy()
    if channels.reciprocal:
        return ChannelSet(uplink)
    return ChannelSet(uplink, channels.downlink[..., :keep].copy())


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
    A document that lacks a key, whose K, M, N or L is not a JSON integer
    (a bool is not one), that holds an entry other than an [re, im] pair
    of numbers, or whose K, M and N disagree with its matrices raises
    ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a channel document must be a JSON object")
    missing = [key for key in ("K", "M", "N", "L", "uplink", "downlink") if key not in doc]
    if missing:
        raise ValueError(f"channel document has no {', '.join(map(repr, missing))} entry")
    for key in ("K", "M", "N", "L"):
        # a JSON integer: 1.0, true and "1" would pass int() or == 1
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValueError(f"channel document {key} must be an integer, not {key}={doc[key]!r}")
    if doc["L"] != 1:
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
    "generate_channels",
    "shutdown_relay_antennas",
    "channels_to_json_dict",
    "channels_from_json_dict",
    "save_channels",
    "load_channels",
]
