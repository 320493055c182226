"""Tests for network configuration and channel generation."""

import dataclasses
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrc_dof_lab import analysis, channel
from mrc_dof_lab.channel import (
    ChannelSet,
    NetworkConfig,
    channels_from_json_dict,
    channels_to_json_dict,
    generate_channels,
    load_channels,
    save_channels,
    shutdown_relay_antennas,
)
from mrc_dof_lab.linalg import (
    pseudo_inverse_and_bound,
    pseudo_inverse_and_rank,
    random_gaussian_stacks,
)
from mrc_dof_lab.ssa_nc import SchemeDesignError, design_scheme


def make(config):
    return generate_channels(config, np.random.default_rng(config.seed))


def make_trial(config, trial):
    return generate_channels(config, config.trial_rng(trial))


class TestNetworkConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(K=1, M=2, N=2),
            dict(K=3, M=0, N=2),
            dict(K=3, M=2, N=0),
            dict(K=3, M=-1, N=2),
            dict(K=3, M=2, N=2, duplex_factor=float("nan")),
            dict(K=3, M=2, N=2, seed=1 << 64),
            dict(K=3, M=2, N=2, duplex_factor=0.7),
            dict(K=3, M=2, N=2, seed=-1),
            # a float seed would run truncated, a string switch as true
            dict(K=3, M=2, N=2, seed=1.5),
            dict(K=3, M=2, N=2, reciprocal="no"),
            dict(K=3, M=2, N=2, reciprocal=1),
            dict(K=3.0, M=2, N=2),
            dict(K=3, M=2.5, N=2),
            dict(K=3, M=2, N="2"),
            dict(K=3, M=True, N=2),
            dict(K=3, M=2, N=2, seed=True),
            # True == 1.0 would run as full duplex
            dict(K=3, M=2, N=2, duplex_factor=True),
            dict(K=3, M=2, N=2, duplex_factor=np.True_),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    @pytest.mark.parametrize(
        "duplex", [Decimal("0.5"), 1 + 0j], ids=["decimal", "complex"]
    )
    def test_rejects_duplex_factor_that_is_not_real(self, duplex):
        # each equals an allowed value: a Decimal used to fail only in the
        # slope fit, with a TypeError that aborted a whole sweep, and a
        # complex one ran with a ComplexWarning
        assert duplex in (1.0, 0.5)
        with pytest.raises(ValueError, match="duplex_factor must be 1.0 or 0.5"):
            NetworkConfig(K=3, M=2, N=2, duplex_factor=duplex)

    @pytest.mark.parametrize("duplex", [Fraction(1, 2), np.float32(0.5), 1, np.float64(1.0)])
    def test_accepts_real_duplex_factor(self, duplex):
        assert NetworkConfig(K=3, M=2, N=2, duplex_factor=duplex).duplex_factor == duplex

    def test_accepts_numpy_integers(self):
        cfg = NetworkConfig(K=np.int64(3), M=np.int32(2), N=np.uint8(2), seed=np.uint64(9))
        plain = NetworkConfig(K=3, M=2, N=2, seed=9)
        assert cfg == plain
        assert np.array_equal(cfg.trial_rng(1).standard_normal(4),
                              plain.trial_rng(1).standard_normal(4))

    def test_trial_rng_is_deterministic(self):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=9)
        a = cfg.trial_rng(4).standard_normal(3)
        b = cfg.trial_rng(4).standard_normal(3)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed,trial", [(0, 0), (42, 1), (43, 0), (7, 12345)])
    def test_trial_rng_is_philox_keyed_by_seed_and_trial(self, seed, trial):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=seed)
        want = np.random.Generator(np.random.Philox(key=[seed, trial]))
        assert np.array_equal(cfg.trial_rng(trial).standard_normal(64), want.standard_normal(64))

    def test_trial_rng_takes_a_full_64_bit_seed(self):
        # the key words go to Philox unchanged, the top bit included
        seed, trial = (1 << 64) - 1, (1 << 40) + 3
        key = np.array([seed, trial], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal(16)
        got = NetworkConfig(K=3, M=2, N=2, seed=seed).trial_rng(trial).standard_normal(16)
        assert np.array_equal(got, want)

    def test_trial_rng_known_answer(self):
        # pinned: any change to the trial streams, numpy's Philox or its
        # normal sampler changes these words and values
        rng = NetworkConfig(K=3, M=2, N=2, seed=42).trial_rng(1)
        assert rng.bit_generator.random_raw(3).tolist() == [
            0x719965F2DEBB5C86,
            0xD0FF12852BFEFAA0,
            0x824F8A46917B59D3,
        ]
        rng = NetworkConfig(K=3, M=2, N=2, seed=42).trial_rng(1)
        want = [float.fromhex("0x1.bbd95443f9907p-1"), float.fromhex("0x1.df0231616e722p-1")]
        assert rng.standard_normal(2).tolist() == want

    def test_trial_key_hands_out_two_uint64_words_only(self):
        key = channel._TrialKey(5, 6)
        assert key.generate_state(2, np.uint64).tolist() == [5, 6]
        for words, dtype in ((4, np.uint64), (2, np.uint32), (1, np.uint64)):
            with pytest.raises(ValueError, match="exactly two uint64 words"):
                key.generate_state(words, dtype)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**40])
    def test_neighbouring_seeds_and_trials_draw_different_channels(self, seed):
        # a stream seeded by seed ^ trial gives these two pairs one stream for
        # even s and t; keyed streams keep every (seed, trial) pair apart
        for trial in range(4):
            a = make_trial(NetworkConfig(K=3, M=3, N=2, seed=seed), trial + 1)
            b = make_trial(NetworkConfig(K=3, M=3, N=2, seed=seed + 1), trial)
            assert not np.any(a.uplink == b.uplink)


# Trial indices that are not an integer in [0, 2**64); each used to open
# trial 1's stream (or raise OverflowError), as a float seed ran truncated.
BAD_TRIALS = [1.5, np.float64(1.9), True, np.True_, "1", None, -1, np.int64(-1), 2**64]
BAD_TRIAL_IDS = ["float", "numpy-float", "bool", "numpy-bool", "str", "none", "negative",
                 "numpy-negative", "2**64"]


class TestTrialStreams:
    """A TrialStreams reader gives each trial its fresh trial_rng stream,
    bit for bit, through one Philox per read."""

    @pytest.mark.parametrize("trial", BAD_TRIALS, ids=BAD_TRIAL_IDS)
    def test_trial_rng_rejects_bad_trial(self, trial):
        with pytest.raises(ValueError, match="trial must be"):
            NetworkConfig(K=3, M=2, N=2).trial_rng(trial)

    @pytest.mark.parametrize("trial", BAD_TRIALS, ids=BAD_TRIAL_IDS)
    def test_reader_rejects_bad_trial(self, trial):
        with pytest.raises(ValueError, match="trial must be"):
            NetworkConfig(K=3, M=2, N=2).trial_streams([0, trial])

    @pytest.mark.parametrize("trial", [np.int64(3), np.uint64(2**64 - 1), 2**64 - 1],
                             ids=["int64", "uint64-max", "int-max"])
    def test_integer_trials_accepted(self, trial):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=5)
        row = cfg.trial_streams([trial]).read(8)[0]
        assert np.array_equal(row, cfg.trial_rng(trial).standard_normal(8))

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        trials=st.lists(
            st.one_of(st.integers(0, 2**64 - 1), st.integers(2**63 - 2, 2**63 + 7),
                      st.integers(0, 9)),
            min_size=1,
            max_size=6,
        ),
        n=st.integers(1, 70),
    )
    @example(seed=2**64 - 1, trials=[2**63 + 7, 0, 2**63 + 7, 2**64 - 1, 3], n=5)
    def test_rows_are_trial_rng_streams(self, seed, trials, n):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=seed)
        got = cfg.trial_streams(trials).read(n)
        want = [cfg.trial_rng(t).standard_normal(n) for t in trials]
        assert got.shape == (len(trials), n)
        assert got.tobytes() == np.array(want).tobytes()

    def test_reader_known_answer(self):
        # pinned, as test_trial_rng_known_answer: trial 1 of seed 42, read
        # first, between and after another trial's row
        want = [float.fromhex("0x1.bbd95443f9907p-1"), float.fromhex("0x1.df0231616e722p-1")]
        rows = NetworkConfig(K=3, M=2, N=2, seed=42).trial_streams([1, 0, 1]).read(2)
        assert rows[0].tolist() == rows[2].tolist() == want
        assert rows[1].tolist() != want

    def test_reads_repeat(self):
        # a reader holds no generator: every read starts each stream afresh
        reader = NetworkConfig(K=3, M=2, N=2, seed=8).trial_streams(range(2, 5))
        assert reader.read(9).tobytes() == reader.read(9).tobytes()

    def test_one_read_serves_several_seeds(self, monkeypatch):
        # readers of other seeds, trials and row lengths share one Philox,
        # and each row is its trial's fresh stream
        seeds_trials_n = [(2**64 - 1, [3, 0], 7), (5, [3], 12), (0, [2**63, 3, 3], 1)]
        reads = [(NetworkConfig(K=3, M=2, N=2, seed=seed).trial_streams(trials),
                  np.empty((len(trials), n))) for seed, trials, n in seeds_trials_n]
        built = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a: built.append(1) or real(*a))
        channel._read_streams(reads)
        assert built == [1]
        for (seed, trials, n), (_, z) in zip(seeds_trials_n, reads):
            cfg = NetworkConfig(K=3, M=2, N=2, seed=seed)
            want = [cfg.trial_rng(t).standard_normal(n) for t in trials]
            assert z.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("reciprocal", [True, False], ids=["rec", "nonrec"])
    def test_draw_equals_generator_list(self, reciprocal):
        cfg = NetworkConfig(K=3, M=4, N=6, seed=2**63 + 1, reciprocal=reciprocal)
        parts = [(3, (2,)), (1, (5,))]
        trials = [4, 2**63, 4]
        got = channel.draw_channels(cfg, cfg.trial_streams(trials), parts)
        want = channel.draw_channels(cfg, [cfg.trial_rng(t) for t in trials], parts)
        for a, b in zip((got[0].uplink, got[0].downlink, *got[1]),
                        (want[0].uplink, want[0].downlink, *want[1])):
            assert a.tobytes() == b.tobytes()


class TestGenerateChannels:
    def test_reciprocal_downlink_is_exact_transpose(self):
        cs = make(NetworkConfig(K=3, M=2, N=3, reciprocal=True, seed=1))
        assert np.array_equal(cs.downlink[1], cs.uplink[1].T)

    def test_shapes_and_rank(self):
        cs = make(NetworkConfig(K=4, M=4, N=3, seed=2))
        assert len(cs.uplink) == 4
        for h in cs.uplink:
            assert h.shape == (3, 4)
            assert pseudo_inverse_and_rank(h)[1] == 3
        for h in cs.downlink:
            assert h.shape == (4, 3)

    def test_same_seed_same_channels(self):
        a = make(NetworkConfig(K=3, M=2, N=2, seed=5))
        b = make(NetworkConfig(K=3, M=2, N=2, seed=5))
        for ha, hb in zip([*a.uplink, *a.downlink], [*b.uplink, *b.downlink]):
            assert np.array_equal(ha, hb)

    def test_uplink_identical_across_reciprocity_modes(self):
        # downlink draws are skipped, not reordered
        rec = make(NetworkConfig(K=3, M=2, N=2, seed=6, reciprocal=True))
        ind = make(NetworkConfig(K=3, M=2, N=2, seed=6, reciprocal=False))
        for ha, hb in zip(rec.uplink, ind.uplink):
            assert np.array_equal(ha, hb)
        assert not np.array_equal(ind.downlink[0], rec.downlink[0])


class TestShutdown:
    def test_drops_trailing_relay_antennas(self):
        cs = make(NetworkConfig(K=3, M=2, N=5, seed=10))
        cut = shutdown_relay_antennas(cs)
        assert cut.relay_dim == 2
        assert np.array_equal(cut.uplink[1], cs.uplink[1][:2, :])
        assert np.array_equal(cut.downlink[1], cs.downlink[1][:, :2])

    def test_rank_deficient_kept_rows_rejected(self):
        # a full-column-rank 4 x 2 uplink whose first two rows are parallel:
        # dropping rows can lose rank, so the shutdown result is validated
        uplink = np.array(make(NetworkConfig(K=2, M=2, N=4, seed=11)).uplink)
        uplink[0, 1] = 2.0 * uplink[0, 0]
        cs = ChannelSet(uplink=uplink, downlink=uplink.swapaxes(-1, -2))
        assert pseudo_inverse_and_rank(uplink[0])[1] == 2
        with pytest.raises(ValueError, match="rank deficient"):
            shutdown_relay_antennas(cs)

    def test_noop_when_keeping_all(self):
        cs = make(NetworkConfig(K=3, M=2, N=2, seed=10))
        assert shutdown_relay_antennas(cs) is cs


class TestDrawnCut:
    """The analysis's trial draw keeps the first min(N, M) relay antennas
    of its full N x M draw and is validated once, at that size: bit for
    bit the shutdown of the full set, from the same values of the same
    stream."""

    @staticmethod
    def drawn(cfg, rng):
        """The analysis's draw of one stack of one row."""
        drawn, sent, _ = analysis._draw_one(cfg, rng, None, False, min(cfg.N, cfg.M))
        return drawn, sent

    @pytest.mark.parametrize("trials", [None, 3], ids=["single", "stacked"])
    @pytest.mark.parametrize("reciprocal", [True, False])
    @pytest.mark.parametrize("k,m,n", [(3, 4, 6), (4, 2, 5)])  # 4/2/5 runs L = 3
    def test_equals_shutdown_of_full_set(self, k, m, n, reciprocal, trials):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7, reciprocal=reciprocal)

        def rng():
            return cfg.trial_rng(0) if trials is None else [cfg.trial_rng(t) for t in range(trials)]

        drawn, sent = self.drawn(cfg, rng())
        full_rng = rng()
        full = generate_channels(cfg, full_rng)
        cut = shutdown_relay_antennas(full)
        assert full.relay_dim == n and drawn.relay_dim == cut.relay_dim == min(n, m)
        names = [f.name for f in dataclasses.fields(ChannelSet)] + ["uplink_cond", "downlink_cond"]
        for name in names:
            got, want = getattr(drawn, name), getattr(cut, name)
            assert got.shape == want.shape and got.dtype == want.dtype, name
            assert got.flags.c_contiguous == want.flags.c_contiguous, name
            assert got.tobytes() == want.tobytes(), name
        # the symbols follow the whole N x M draw in the stream, as before
        more = random_gaussian_stacks([(k, sent.shape[-1:])], full_rng)[0]
        assert more.tobytes() == sent.tobytes()

    @pytest.mark.parametrize("reciprocal", [True, False])
    @pytest.mark.parametrize("k,m,n", [(3, 4, 6), (4, 2, 5)])
    def test_pooled_draw_equals_lone_draw(self, k, m, n, reciprocal):
        # the stack drawn after one of K + 1 users, whose kept matrices
        # share its pool and its validation, and the stack drawn alone
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7, reciprocal=reciprocal)
        other = dataclasses.replace(cfg, K=k + 1, seed=8)
        stacks = [analysis._Stack((c,), 0, 3) for c in (other, cfg)]
        rows = [analysis._stack_rows((c,), 3, 0, 3) for c in (other, cfg)]
        [_, (pooled, sent)] = analysis._draw_batch(stacks, rows)
        lone, lone_sent = self.drawn(cfg, cfg.trial_streams(range(3)))
        names = [f.name for f in dataclasses.fields(ChannelSet)] + ["uplink_cond", "downlink_cond"]
        for name in names:
            got, want = getattr(pooled, name), getattr(lone, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert sent.tobytes() == lone_sent.tobytes()

    def test_rank_deficient_kept_block_raises(self, monkeypatch):
        # trial 1's user 2 draws a full-rank 6 x 4 uplink whose first two
        # rows are parallel: the kept 4 x 4 block, the one the scheme
        # uses, is rank deficient, and the drawn stack is rejected
        cfg = NetworkConfig(K=3, M=4, N=6, seed=7)
        real = channel._read_streams
        full = []

        def parallel_rows(reads):
            real(reads)
            for streams, z in reads:
                # trial 1's uplinks: (user, real or imaginary part, row, column)
                uplinks = z[streams.trials.index(1), : 3 * 2 * 6 * 4].reshape(3, 2, 6, 4)
                uplinks[2, :, 1] = 2.0 * uplinks[2, :, 0]
                full.append(uplinks[2, 0] + 1j * uplinks[2, 1])

        monkeypatch.setattr(channel, "_read_streams", parallel_rows)
        with pytest.raises(ValueError, match="rank deficient"):
            self.drawn(cfg, cfg.trial_streams(range(3)))
        assert pseudo_inverse_and_rank(full[0])[1] == 4
        with pytest.raises(ValueError, match="rank deficient"):
            analysis.verify_noiseless(cfg, 3)


class TestSerialization:
    def test_round_trip(self):
        cs = make(NetworkConfig(K=3, M=2, N=3, seed=12, reciprocal=False))
        doc = channels_to_json_dict(cs)
        assert doc["K"] == 3 and doc["M"] == 2 and doc["N"] == 3 and doc["L"] == 1
        back = channels_from_json_dict(doc)
        for ha, hb in zip([*cs.uplink, *cs.downlink], [*back.uplink, *back.downlink]):
            assert np.array_equal(ha, hb)

    def test_extended_document_rejected(self):
        # a set holds the physical channels only: L is always 1 on disk
        doc = channels_to_json_dict(make(NetworkConfig(K=3, M=2, N=2, seed=14)))
        doc["L"] = 2
        with pytest.raises(ValueError, match="L = 1"):
            channels_from_json_dict(doc)

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda doc: [doc], "JSON object"),
            (lambda doc: {k: v for k, v in doc.items() if k != "downlink"}, "'downlink'"),
            (lambda doc: {**doc, "L": [1]}, "L must be an integer"),
            (lambda doc: {**doc, "uplink": 3.0}, "[re, im] pairs"),
            (lambda doc: {**doc, "uplink": [[[[1.0, 0.0, 2.0]]]] * 3}, "[re, im] pairs"),
            (lambda doc: {k: v for k, v in doc.items() if k != "N"}, "'N'"),
            (lambda doc: {**doc, "K": 9, "M": 2}, "header K=9, M=2, N=1 disagrees"),
            (lambda doc: {**doc, "N": "1"}, "N='1'"),
        ],
        ids=[
            "not-an-object", "no-downlink", "list-L", "bare-number-link", "triple-entry",
            "no-N", "wrong-K-and-M", "string-N",
        ],
    )
    def test_malformed_document_rejected(self, damage, message):
        # a channel file is outside input: every defect is a ValueError
        doc = channels_to_json_dict(make(NetworkConfig(K=3, M=1, N=1, seed=14)))
        with pytest.raises(ValueError, match=re.escape(message)):
            channels_from_json_dict(damage(doc))

    def test_stack_cannot_be_encoded(self):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=14)
        stack = generate_channels(cfg, [cfg.trial_rng(t) for t in range(2)])
        with pytest.raises(ValueError, match="only one trial's channel set can be encoded"):
            channels_to_json_dict(stack)
        channels_to_json_dict(stack.select(0))

    def test_entry_encoding(self):
        cs = make(NetworkConfig(K=2, M=1, N=1, seed=13))
        doc = channels_to_json_dict(cs)
        entry = doc["uplink"][0][0][0]
        assert entry == [cs.uplink[0][0, 0].real, cs.uplink[0][0, 0].imag]


class TestChannelSetValidation:
    def test_rejects_rank_deficient(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="rank deficient"):
            ChannelSet(uplink=(h, h), downlink=(h.T, h.T))

    def test_rejects_rank_deficient_downlink_alone(self):
        # without reciprocity the downlink is decomposed on its own: a
        # full-rank uplink does not vouch for a rank-one downlink
        cs = make(NetworkConfig(K=3, M=3, N=2, seed=16, reciprocal=False))
        downlink = np.array(cs.downlink)
        downlink[2, :, 1] = 3.0 * downlink[2, :, 0]
        assert (pseudo_inverse_and_rank(cs.uplink)[1] == 2).all()
        with pytest.raises(ValueError, match="rank deficient"):
            ChannelSet(uplink=cs.uplink, downlink=downlink)

    def test_rejects_empty_matrices(self):
        with pytest.raises(ValueError, match="at least one row"):
            ChannelSet(uplink=np.zeros((3, 0, 2)), downlink=np.zeros((3, 2, 0)))

    def test_rejects_rank_deficient_trial_of_a_stack(self):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=15)
        stack = generate_channels(cfg, [cfg.trial_rng(t) for t in range(3)])
        assert stack.stack_shape == (3,) and stack.num_users == 3
        uplink = stack.uplink.copy()
        uplink[1, 2] = np.ones((2, 2))
        with pytest.raises(ValueError, match="rank deficient"):
            ChannelSet(uplink=uplink, downlink=stack.downlink)

    def test_rejects_shape_mismatch(self):
        a = np.eye(2, dtype=complex)
        b = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="the matrices of each link must share one shape"):
            ChannelSet(uplink=(a, b), downlink=(a.T, b.T))

    def test_rejects_ragged_downlink(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="the matrices of each link must share one shape"):
            ChannelSet(uplink=(h, h), downlink=(h, np.eye(2, 3, dtype=complex)))

    def test_rejects_one_user(self):
        h = np.eye(2, dtype=complex)
        with pytest.raises(ValueError, match="need uplink matrices for K >= 2 users"):
            ChannelSet(uplink=(h,), downlink=(h,))

    def test_rejects_downlink_not_transpose_shaped(self):
        # two 2 x 3 uplinks need 3 x 2 downlinks
        h = np.eye(2, 3, dtype=complex)
        with pytest.raises(ValueError, match="transpose-shaped to the uplink"):
            ChannelSet(uplink=(h, h), downlink=(h, h))

    def test_non_finite_downlink_rejected_before_any_factorization(self, lapack_calls):
        # a downlink that is not the uplink's transpose is checked on its own
        cs = make(NetworkConfig(K=3, M=2, N=3, seed=16, reciprocal=False))
        downlink = np.array(cs.downlink)
        downlink[1, 0, 2] = np.inf
        del lapack_calls[:]
        with pytest.raises(ValueError, match="channel entries must be finite"):
            ChannelSet(uplink=cs.uplink, downlink=downlink)
        assert lapack_calls == []


# A reciprocal set's downlink decomposition is the uplink's transposed,
# which differs from a fresh factorization or SVD of the downlink at the
# rounding floor. Measured over 8-trial stacks at seed 7 for K in
# {2, 3, 4, 5, 8} and every M, N in 1..8: at most 6.3e-15 of the matrix's
# largest pseudoinverse entry and 3.2e-15 relative for the condition bound,
# against a fresh factorization, and 1.1e-14 relative for the condition
# number against a fresh SVD.
RECIPROCAL_RTOL = 1e-12


def _assert_fresh_decomposition(cs, reciprocal):
    """The set's stored decomposition is that of its stored matrices, and
    nothing it holds can be written. The uplink side is bit for bit a
    fresh pseudo_inverse_and_bound, and its condition numbers a fresh
    pseudo_inverse_and_rank. A reciprocal set's downlink side is exactly
    the uplink's transposed and within RECIPROCAL_RTOL of fresh calls; any
    other set's is bit for bit fresh calls."""
    up_pinv, _, up_bound = pseudo_inverse_and_bound(cs.uplink)
    down_pinv, _, down_bound = pseudo_inverse_and_bound(cs.downlink)
    up_cond = pseudo_inverse_and_rank(cs.uplink)[2]
    down_cond = pseudo_inverse_and_rank(cs.downlink)[2]
    assert np.array_equal(cs.uplink_pinv, up_pinv)
    assert np.array_equal(cs.uplink_cond_bound, up_bound)
    assert np.array_equal(cs.uplink_cond, up_cond)
    if reciprocal:
        assert np.array_equal(cs.downlink_pinv, cs.uplink_pinv.swapaxes(-1, -2))
        assert np.array_equal(cs.downlink_cond_bound, cs.uplink_cond_bound)
        assert np.array_equal(cs.downlink_cond, cs.uplink_cond)
        scale = np.abs(down_pinv).max(axis=(-1, -2), keepdims=True)
        assert np.all(np.abs(cs.downlink_pinv - down_pinv) <= RECIPROCAL_RTOL * scale)
        for stored, fresh in ((cs.downlink_cond_bound, down_bound), (cs.downlink_cond, down_cond)):
            np.testing.assert_allclose(stored, fresh, rtol=RECIPROCAL_RTOL, atol=0)
    else:
        assert np.array_equal(cs.downlink_pinv, down_pinv)
        assert np.array_equal(cs.downlink_cond_bound, down_bound)
        assert np.array_equal(cs.downlink_cond, down_cond)
    names = [f.name for f in dataclasses.fields(cs)] + ["uplink_cond", "downlink_cond"]
    for name in names:
        assert not getattr(cs, name).flags.writeable, name


class TestStoredDecomposition:
    """Validation's factorizations are the only decomposition of a set's
    matrices: the pseudoinverses and condition bounds it keeps, and the
    condition numbers it computes on first read, must be those of its
    matrices however the set was made. These cases draw independent
    downlinks; TestStoredDecompositionReciprocal runs them on reciprocal
    ones."""

    RECIPROCAL = False

    @property
    def cfg(self):
        return NetworkConfig(K=4, M=4, N=3, seed=17, reciprocal=self.RECIPROCAL)

    def stack(self):
        return generate_channels(self.cfg, [self.cfg.trial_rng(t) for t in range(3)])

    def test_one_trial(self):
        cs = make(self.cfg)
        assert cs.uplink_pinv.shape == (4, 4, 3) and cs.downlink_pinv.shape == (4, 3, 4)
        assert cs.uplink_cond.shape == cs.downlink_cond.shape == (4,)
        _assert_fresh_decomposition(cs, self.RECIPROCAL)

    def test_stack(self):
        cs = self.stack()
        assert cs.uplink_pinv.shape == (3, 4, 4, 3) and cs.downlink_cond.shape == (3, 4)
        _assert_fresh_decomposition(cs, self.RECIPROCAL)

    def test_stacked_one_trial(self):
        cs = make(self.cfg).stacked()
        assert cs.stack_shape == (1,)
        _assert_fresh_decomposition(cs, self.RECIPROCAL)

    @pytest.mark.parametrize("trials", [[2, 0], [0] * 3])
    def test_select(self, trials):
        cs = self.stack().select(trials)
        assert cs.stack_shape == (len(trials),)
        _assert_fresh_decomposition(cs, self.RECIPROCAL)

    def test_shutdown(self):
        cfg = NetworkConfig(K=3, M=4, N=6, seed=18, reciprocal=self.RECIPROCAL)
        cs = shutdown_relay_antennas(generate_channels(cfg, np.random.default_rng(cfg.seed)))
        assert cs.uplink_pinv.shape == (3, 4, 4)
        _assert_fresh_decomposition(cs, self.RECIPROCAL)

    def test_given_matrices_are_frozen(self):
        # the set keeps the arrays it is given and marks them read-only, so
        # no later write can put the matrices and their stored
        # decomposition out of step
        drawn = make(self.cfg)
        uplink, downlink = np.array(drawn.uplink), np.array(drawn.downlink)
        cs = ChannelSet(uplink=uplink, downlink=downlink)
        for given in (uplink, downlink):
            with pytest.raises(ValueError, match="read-only"):
                given[0] = 0.0
        _assert_fresh_decomposition(cs, self.RECIPROCAL)


class TestStoredDecompositionReciprocal(TestStoredDecomposition):
    """The same cases on reciprocal sets, which factor their uplink only."""

    RECIPROCAL = True


class TestReciprocalShortcut:
    """Reciprocity is read from the matrices alone: only a downlink that is
    exactly the plain transpose of the uplink skips its own factorization.
    The uplinks are 3 x 4, so each link stack takes one QR (of the 4 x 3
    conjugate transposes)."""

    CFG = NetworkConfig(K=3, M=4, N=3, seed=19)

    def stack(self):
        return generate_channels(self.CFG, [self.CFG.trial_rng(t) for t in range(2)])

    def test_reciprocal_stack_factors_uplink_only(self, lapack_calls):
        cs = self.stack()
        assert lapack_calls == [("qr", (2, 3, 4, 3))]
        _assert_fresh_decomposition(cs, reciprocal=True)

    def test_conjugate_transpose_is_not_reciprocal(self, lapack_calls):
        uplink = self.stack().uplink
        cs = ChannelSet(uplink=uplink, downlink=uplink.conj().swapaxes(-1, -2))
        assert lapack_calls == [("qr", (2, 3, 4, 3))] * 3
        _assert_fresh_decomposition(cs, reciprocal=False)

    def test_one_changed_downlink_entry_is_not_reciprocal(self, lapack_calls):
        drawn = self.stack()
        downlink = np.array(drawn.downlink)
        downlink[1, 2, 3, 0] += 1e-3
        cs = ChannelSet(uplink=drawn.uplink, downlink=downlink)
        assert lapack_calls == [("qr", (2, 3, 4, 3))] * 3
        _assert_fresh_decomposition(cs, reciprocal=False)

    def test_rank_deficient_reciprocal_set_rejected(self, lapack_calls):
        # the rank-one-short matrix alone is decided by an SVD
        uplink = np.array(self.stack().uplink)
        uplink[1, 0, 2] = 2.0 * uplink[1, 0, 0]
        with pytest.raises(ValueError, match="rank deficient"):
            ChannelSet(uplink=uplink, downlink=uplink.swapaxes(-1, -2).copy())
        assert lapack_calls == [("qr", (2, 3, 4, 3))] * 2 + [("svd", (1, 3, 4))]

    def test_non_finite_reciprocal_set_rejected(self, lapack_calls):
        uplink = np.array(self.stack().uplink)
        uplink[0, 1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ChannelSet(uplink=uplink, downlink=uplink.swapaxes(-1, -2).copy())
        assert lapack_calls == [("qr", (2, 3, 4, 3))]

    def test_reloaded_reciprocal_file_factors_uplink_only(self, tmp_path, lapack_calls):
        path = str(tmp_path / "channels.json")
        save_channels(make(self.CFG), path)
        del lapack_calls[:]
        cs = load_channels(path)
        assert lapack_calls == [("qr", (3, 4, 3))]
        _assert_fresh_decomposition(cs, reciprocal=True)


def _with_singular_values(h, values):
    """h with its singular values replaced by ``values``, largest first."""
    u, _, vh = np.linalg.svd(h, full_matrices=False)
    return (u * values) @ vh


class TestBoundFallback:
    """A matrix the condition bound cannot decide is decided, and
    inverted, by an SVD of that matrix alone; its stack-mates keep the
    results they have in any other stack."""

    CFG = NetworkConfig(K=3, M=3, N=3, seed=20)
    # kappa_2 = 4e9: above COND_LIMIT, below the rank tolerance's 1e10, and
    # kappa_F = 5.7e9 is too close to 1e10 for the bound to certify full rank
    ILL = np.array([1.0, 1.0, 2.5e-10])

    def drawn(self):
        return generate_channels(self.CFG, [self.CFG.trial_rng(t) for t in range(3)])

    def with_ill_matrix(self):
        """The drawn stack with trial 1's user 2 ill conditioned, reciprocal."""
        uplink = np.array(self.drawn().uplink)
        uplink[1, 2] = _with_singular_values(uplink[1, 2], self.ILL)
        return uplink, uplink.swapaxes(-1, -2).copy()

    def test_only_the_ill_matrix_takes_an_svd(self, lapack_calls):
        uplink, downlink = self.with_ill_matrix()
        del lapack_calls[:]
        cs = ChannelSet(uplink=uplink, downlink=downlink)
        assert lapack_calls == [("inv", (3, 3, 3, 3)), ("svd", (1, 3, 3))]
        alone = pseudo_inverse_and_rank(uplink[1, 2])
        assert np.array_equal(cs.uplink_pinv[1, 2], alone[0])
        assert np.array_equal(cs.downlink_pinv[1, 2], alone[0].T)
        # the SVD's condition number is the matrix's bound
        assert cs.uplink_cond_bound[1, 2] == cs.uplink_cond[1, 2] == alone[2]
        assert alone[2] == pytest.approx(4e9, rel=1e-6)
        assert np.array_equal(cs.uplink_pinv, pseudo_inverse_and_bound(uplink)[0])
        with pytest.raises(SchemeDesignError, match="guardrail") as info:
            design_scheme(self.CFG, cs)
        assert info.value.trial == 1

    def test_stack_mates_do_not_depend_on_the_fallback(self):
        # the route is chosen per matrix: the well-conditioned trials'
        # pseudoinverses and plans are the same bits with or without an
        # ill-conditioned stack-mate, and as one trial alone
        clean = self.drawn()
        mixed = ChannelSet(*self.with_ill_matrix())
        for t in (0, 2):
            alone = ChannelSet(uplink=clean.uplink[t].copy(), downlink=clean.downlink[t].copy())
            for name in ("uplink_pinv", "downlink_pinv", "uplink_cond_bound"):
                assert np.array_equal(getattr(mixed, name)[t], getattr(clean, name)[t]), name
                assert np.array_equal(getattr(alone, name), getattr(clean, name)[t]), name
        plans = [design_scheme(self.CFG, cs.select([0, 2])) for cs in (clean, mixed)]
        for name in ("beamformers", "power_scale", "bc_scale"):
            assert np.array_equal(getattr(plans[0], name), getattr(plans[1], name)), name
        assert np.array_equal(plans[0].rx_filter, plans[1].rx_filter)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 2), (2, 4)])
    @pytest.mark.parametrize("kind", ["dependent", "zero"])
    def test_exactly_singular_matrix_rejected(self, shape, kind):
        # square, tall and wide: the failed factorization is caught, and
        # the SVD finds the lost rank
        rows, cols = shape
        g = np.random.default_rng(21)
        uplink = g.standard_normal((2, rows, cols)) + 1j * g.standard_normal((2, rows, cols))
        if kind == "zero":
            uplink[1] = 0.0
        elif rows >= cols:
            uplink[1, :, 1] = uplink[1, :, 0]
        else:
            uplink[1, 1] = uplink[1, 0]
        for downlink in (uplink.swapaxes(-1, -2).copy(), uplink.conj().swapaxes(-1, -2)):
            with pytest.raises(ValueError, match="rank deficient"):
                ChannelSet(uplink=uplink, downlink=downlink)
