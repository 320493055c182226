"""Tests for network configuration and channel generation."""

import numpy as np
import pytest

from mrc_dof_lab.channel import (
    ChannelSet,
    NetworkConfig,
    channels_from_json_dict,
    channels_to_json_dict,
    extend_channels,
    generate_channels,
    shutdown_relay_antennas,
)
from mrc_dof_lab.linalg import numeric_rank


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
            assert numeric_rank(h, 1e-10) == 3
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


class TestExtendChannels:
    def test_l1_is_identity(self):
        cs = make(NetworkConfig(K=3, M=2, N=2, seed=3))
        assert extend_channels(cs, 1) is cs

    def test_block_diagonal_structure(self):
        cs = make(NetworkConfig(K=2, M=4, N=3, seed=4))
        ext = extend_channels(cs, 2)
        h = cs.uplink[0]
        he = ext.uplink[0]
        assert he.shape == (6, 8)
        assert np.array_equal(he[:3, :4], h)
        assert np.array_equal(he[3:, 4:], h)
        assert np.all(he[:3, 4:] == 0)
        assert np.all(he[3:, :4] == 0)
        assert numeric_rank(he, 1e-10) == 6

    def test_rank_scales_with_extension(self):
        cs = make(NetworkConfig(K=3, M=4, N=3, seed=8))
        ext = extend_channels(cs, 2)
        assert ext.relay_dim == 6
        assert ext.relay_dim % 2 == 0  # divisible by K - 1
        for h, he in zip(cs.uplink, ext.uplink):
            assert numeric_rank(he, 1e-10) == 2 * numeric_rank(h, 1e-10)

    def test_unvalidated_result_passes_validation(self):
        # extend_channels skips re-validation; the validating constructor
        # accepts what it builds, for a stack and independent downlinks
        cfg = NetworkConfig(K=3, M=4, N=3, seed=16, reciprocal=False)
        ext = extend_channels(generate_channels(cfg, [cfg.trial_rng(t) for t in range(3)]), 2)
        checked = ChannelSet(ext.uplink, ext.downlink, extension_factor=2)
        assert np.array_equal(checked.uplink, ext.uplink)
        assert np.array_equal(checked.downlink, ext.downlink)

    def test_double_extension_rejected(self):
        cs = extend_channels(make(NetworkConfig(K=3, M=2, N=2, seed=3)), 2)
        with pytest.raises(ValueError):
            extend_channels(cs, 2)


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
        assert numeric_rank(uplink[0], 1e-10) == 2
        with pytest.raises(ValueError, match="rank deficient"):
            shutdown_relay_antennas(cs, 2)

    def test_noop_when_keeping_all(self):
        cs = make(NetworkConfig(K=3, M=2, N=2, seed=10))
        assert shutdown_relay_antennas(cs, 2) is cs


class TestSerialization:
    def test_extended_round_trip(self):
        cs = extend_channels(make(NetworkConfig(K=3, M=4, N=3, seed=14, reciprocal=False)), 2)
        doc = channels_to_json_dict(cs)
        assert doc["M"] == 4 and doc["N"] == 3 and doc["L"] == 2
        back = channels_from_json_dict(doc)
        assert back.extension_factor == 2
        for ha, hb in zip([*cs.uplink, *cs.downlink], [*back.uplink, *back.downlink]):
            assert np.array_equal(ha, hb)

    def test_round_trip(self):
        cs = make(NetworkConfig(K=3, M=2, N=3, seed=12, reciprocal=False))
        doc = channels_to_json_dict(cs)
        assert doc["K"] == 3 and doc["M"] == 2 and doc["N"] == 3 and doc["L"] == 1
        back = channels_from_json_dict(doc)
        for ha, hb in zip([*cs.uplink, *cs.downlink], [*back.uplink, *back.downlink]):
            assert np.array_equal(ha, hb)

    def test_entry_encoding(self):
        cs = make(NetworkConfig(K=2, M=1, N=1, seed=13))
        doc = channels_to_json_dict(cs)
        entry = doc["uplink"][0][0][0]
        assert entry == [cs.uplink[0][0, 0].real, cs.uplink[0][0, 0].imag]


class TestChannelSetValidation:
    def test_rejects_rank_deficient(self):
        h = np.ones((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            ChannelSet(uplink=(h, h), downlink=(h.T, h.T))

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

    def test_rejects_extended_set_that_is_not_block_copies(self):
        ext = extend_channels(make(NetworkConfig(K=3, M=3, N=2, seed=15)), 2)
        off_block = ext.uplink[1].copy()
        off_block[0, 3] = 1e-3  # outside the diagonal blocks
        other_copy = ext.downlink[2].copy()
        other_copy[3:, 2:] *= 1.0 + 1e-12  # second diagonal block differs from the first
        with pytest.raises(ValueError, match="kron"):
            ChannelSet(
                uplink=(ext.uplink[0], off_block, ext.uplink[2]),
                downlink=ext.downlink,
                extension_factor=2,
            )
        with pytest.raises(ValueError, match="kron"):
            ChannelSet(
                uplink=ext.uplink,
                downlink=(ext.downlink[0], ext.downlink[1], other_copy),
                extension_factor=2,
            )

    def test_rejects_extension_of_rank_deficient_base(self):
        good = make(NetworkConfig(K=2, M=2, N=2, seed=16))
        low = np.ones((2, 2), dtype=complex)
        eye = np.eye(2)
        with pytest.raises(ValueError, match="rank deficient"):
            ChannelSet(
                uplink=(np.kron(eye, good.uplink[0]), np.kron(eye, low)),
                downlink=tuple(np.kron(eye, h) for h in good.downlink),
                extension_factor=2,
            )

    def test_rejects_shape_not_divisible_by_extension(self):
        h = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="multiples"):
            ChannelSet(uplink=(h, h), downlink=(h, h), extension_factor=2)
