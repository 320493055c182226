"""Tests for network configuration and channel generation."""

import re

import numpy as np
import pytest

from mrc_dof_lab.channel import (
    ChannelSet,
    NetworkConfig,
    channels_from_json_dict,
    channels_to_json_dict,
    generate_channels,
    shutdown_relay_antennas,
)
from mrc_dof_lab.linalg import pseudo_inverse_and_rank


def make(config):
    return generate_channels(config, config.rng())


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
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            NetworkConfig(**kwargs)

    def test_trial_rng_is_deterministic(self):
        cfg = NetworkConfig(K=3, M=2, N=2, seed=9)
        a = cfg.trial_rng(4).standard_normal(3)
        b = cfg.trial_rng(4).standard_normal(3)
        assert np.array_equal(a, b)


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
        cut = shutdown_relay_antennas(cs, 2)
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
            shutdown_relay_antennas(cs, 2)

    def test_noop_when_keeping_all(self):
        cs = make(NetworkConfig(K=3, M=2, N=2, seed=10))
        assert shutdown_relay_antennas(cs, 2) is cs


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
        with pytest.raises(ValueError):
            ChannelSet(uplink=(a, b), downlink=(a.T, b.T))


def _assert_fresh_decomposition(cs):
    """The set's stored decomposition is bit for bit a fresh one of its
    stored matrices, and no field can be written."""
    up_pinv, _, up_cond = pseudo_inverse_and_rank(cs.uplink)
    down_pinv, _, down_cond = pseudo_inverse_and_rank(cs.downlink)
    stored = dict(
        uplink_pinv=up_pinv,
        downlink_pinv=down_pinv,
        uplink_cond=up_cond,
        downlink_cond=down_cond,
    )
    for name, fresh in stored.items():
        assert np.array_equal(getattr(cs, name), fresh), name
    for name in ("uplink", "downlink", *stored):
        assert not getattr(cs, name).flags.writeable, name


class TestStoredDecomposition:
    """Validation's SVDs are the only decomposition of a set's matrices:
    the pseudoinverses and condition numbers it keeps must be those of its
    matrices however the set was made."""

    CFG = NetworkConfig(K=4, M=4, N=3, seed=17, reciprocal=False)

    def stack(self):
        return generate_channels(self.CFG, [self.CFG.trial_rng(t) for t in range(3)])

    def test_one_trial(self):
        cs = make(self.CFG)
        assert cs.uplink_pinv.shape == (4, 4, 3) and cs.downlink_pinv.shape == (4, 3, 4)
        assert cs.uplink_cond.shape == cs.downlink_cond.shape == (4,)
        _assert_fresh_decomposition(cs)

    def test_stack(self):
        cs = self.stack()
        assert cs.uplink_pinv.shape == (3, 4, 4, 3) and cs.downlink_cond.shape == (3, 4)
        _assert_fresh_decomposition(cs)

    def test_stacked_one_trial(self):
        cs = make(self.CFG).stacked()
        assert cs.stack_shape == (1,)
        _assert_fresh_decomposition(cs)

    @pytest.mark.parametrize("trials", [[2, 0], [0] * 3])
    def test_select(self, trials):
        # [0] * 3 repeats a loaded trial across a stack, as --load-channels does
        cs = self.stack().select(trials)
        assert cs.stack_shape == (len(trials),)
        _assert_fresh_decomposition(cs)

    def test_shutdown(self):
        cfg = NetworkConfig(K=3, M=4, N=6, seed=18)
        cs = shutdown_relay_antennas(generate_channels(cfg, cfg.rng()), 4)
        assert cs.uplink_pinv.shape == (3, 4, 4)
        _assert_fresh_decomposition(cs)

    def test_given_matrices_are_frozen(self):
        # the set keeps the arrays it is given and marks them read-only, so
        # no later write can put the matrices and their stored
        # decomposition out of step
        uplink = np.array(make(self.CFG).uplink)
        cs = ChannelSet(uplink=uplink, downlink=uplink.swapaxes(-1, -2))
        with pytest.raises(ValueError, match="read-only"):
            uplink[0] = 0.0
        _assert_fresh_decomposition(cs)
