"""Tests for the alignment scheme design and the two-phase transmission chain."""

import dataclasses
import itertools
import logging
from fractions import Fraction
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab import analysis, channel, ssa_nc
from mrc_dof_lab.analysis import draw_trials, stream_sinrs, verify_noiseless
from mrc_dof_lab.bounds import check_percut_bounds, cutset_dof, total_dof
from mrc_dof_lab.channel import ChannelSet, NetworkConfig, generate_channels
from mrc_dof_lab.linalg import BOUND_MARGIN, subspace_distance
from mrc_dof_lab.ssa_nc import (
    COND_LIMIT,
    SchemeDesignError,
    bc_phase,
    build_allocation,
    design_scheme,
    extension_plan,
    mac_phase,
    plan_to_json_dict,
    relay_process,
    run_round,
    user_decode,
)


def gaussian_stack(count, n, g):
    """``count`` CN(0, 1) vectors of length n, drawn on from generator g
    as one (count, (n,)) part of a trial's draw."""
    out = np.empty((count, n), dtype=complex)
    channel._fill([(g, ((count, (n,)),), [out])])
    return out


def gaussian_vector(n, g):
    """One length-n CN(0, 1) vector from generator g."""
    return gaussian_stack(1, n, g)[0]


def designed(k, m, n, seed=0, trial=0, **config):
    cfg = NetworkConfig(K=k, M=m, N=n, seed=seed, **config)
    rng = cfg.trial_rng(trial)
    cs = generate_channels(cfg, rng)
    plan = design_scheme(cfg, cs)
    return cfg, plan.channels, plan, rng


def drawn_round(cfg, rng, P, noise=False):
    """(plan, trace) of one round of the trials of ``rng``, one generator
    or a trial-stream reader, drawn the way the analysis draws them."""
    channels, sent, noise_pair = draw_trials(cfg, rng, noise=noise)
    plan = design_scheme(cfg, channels)
    return plan, run_round(plan, P, sent, noise_pair)


def extended(plan, matrices):
    """np.kron(I_L, h) of every physical matrix h of a (..., r, c) stack,
    with the plan's extension factor L."""
    h = np.asarray(matrices)
    eye = np.eye(plan.extension_factor)
    out = np.array([np.kron(eye, m) for m in h.reshape((-1,) + h.shape[-2:])])
    return out.reshape(h.shape[:-2] + out.shape[-2:])


class TestPrepareScheme:
    @pytest.mark.parametrize(
        "k,m,n,base,L,d",
        [
            (3, 3, 2, 2, 1, 1),  # divisible, no extension
            (4, 2, 5, 2, 3, 2),  # shutdown to 2, then 3-slot extension
            (3, 4, 3, 3, 2, 3),  # extension only
        ],
    )
    def test_bookkeeping(self, k, m, n, base, L, d):
        assert extension_plan(k, m, n) == (base, L, d)
        cfg = NetworkConfig(K=k, M=m, N=n, seed=1)
        plan = design_scheme(cfg, generate_channels(cfg, np.random.default_rng(cfg.seed)))
        eff = plan.channels
        assert (plan.d, plan.extension_factor) == (d, L)
        # the set stays physical: the scheme extends it implicitly
        assert (eff.relay_dim, eff.user_dim) == (base, m)
        block = np.kron(np.eye(L), eff.uplink[0])
        assert block.shape == ((k - 1) * d, L * m)
        assert np.linalg.matrix_rank(block) == (k - 1) * d

    def test_shutdown_keeps_user_antennas(self):
        cfg = NetworkConfig(K=4, M=3, N=6, seed=1)
        plan = design_scheme(cfg, generate_channels(cfg, np.random.default_rng(cfg.seed)))
        eff = plan.channels
        assert eff.relay_dim == 3 and eff.user_dim == 3 and plan.d == 1


def _uplink_beamformers(cfg):
    """The effective channels and the plan's extended V1 and Vj."""
    plan = design_scheme(cfg, generate_channels(cfg, np.random.default_rng(cfg.seed)))
    return plan.channels, plan.V1, plan.Vj


class TestDesignUplink:
    def test_alignment_distance(self):
        eff, V1, Vj = _uplink_beamformers(NetworkConfig(K=3, M=3, N=2, seed=2))
        for p in range(2):
            dist = subspace_distance(eff.uplink[0] @ V1[p], eff.uplink[p + 1] @ Vj[p])
            assert dist <= 1e-10

    def test_aligned_directions_fill_relay_space(self):
        eff, V1, _ = _uplink_beamformers(NetworkConfig(K=3, M=3, N=2, seed=3))
        cat = np.hstack([eff.uplink[0] @ v for v in V1])
        assert cat.shape == (2, 2)
        assert np.linalg.matrix_rank(cat) == 2

    def test_span_invariant_to_mixing(self):
        eff, V1, _ = _uplink_beamformers(NetworkConfig(K=3, M=4, N=2, seed=4))
        c = np.array([[1.7 - 0.3j]])
        assert subspace_distance(eff.uplink[0] @ V1[0], eff.uplink[0] @ (V1[0] @ c)) <= 1e-12


def _null_space(a):
    """Orthonormal basis of {x : a x = 0}, cut at 1e-10 of the top singular value."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vh[rank:].conj().T


def _zero_forcing_oracle(images, p):
    """Receive filter G^{-1} W^H for pair p, and cond(G), built the long way.

    W is an orthonormal basis of the directions free of every other pair's
    image, aimed at pair p's image; G = W^H image_p is the d x d mixing
    matrix the pair is left with.
    """
    others = [img for i, img in enumerate(images) if i != p]
    basis = _null_space(np.hstack(others).conj().T)
    w = basis @ np.linalg.qr(basis.conj().T @ images[p])[0]
    g = w.conj().T @ images[p]
    return np.linalg.solve(g, w.conj().T), np.linalg.cond(g)


class TestDesignRelayZf:
    """Relay zero-forcing: the plan's relay filters, rows of the identity."""

    def test_zero_forcing_and_mixing(self):
        # relay_filter[p] @ H_0 V1[i] = delta_pi I_d: zero-force, then unmix
        cfg, eff, plan, _ = designed(4, 5, 3, seed=5)
        d = plan.d
        for p in range(3):
            assert plan.relay_filter[p].shape == (d, 3)
            for i in range(3):
                target = np.eye(d) if i == p else np.zeros((d, d))
                got = plan.relay_filter[p] @ eff.uplink[0] @ plan.V1[i]
                assert np.linalg.norm(got - target) <= 1e-9

    def test_k3_unit_vector_structure(self):
        # with two pairs in a 2-dim relay space, relay_filter[0] is one row;
        # scaled to unit norm it is orthogonal to the other pair's direction
        cfg, eff, plan, _ = designed(3, 3, 2, seed=6)
        row = plan.relay_filter[0] / np.linalg.norm(plan.relay_filter[0])
        other = eff.uplink[0] @ plan.V1[1]
        assert row.shape == (1, 2)
        assert abs(row @ other) <= 1e-12 * np.linalg.norm(other)

    def test_independent_of_other_users_channels(self):
        # user 1's beamformers and the relay filters never read user 2's uplink
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        eff = generate_channels(cfg, np.random.default_rng(cfg.seed))
        perturbed_up = list(eff.uplink)
        h2 = perturbed_up[1].copy()
        h2[0, 0] += 0.37
        perturbed_up[1] = h2
        eff2 = ChannelSet(uplink=tuple(perturbed_up), downlink=eff.downlink)
        plan = design_scheme(cfg, eff)
        plan2 = design_scheme(cfg, eff2)
        assert not np.allclose(plan.Vj[0], plan2.Vj[0])
        assert np.array_equal(plan.V1, plan2.V1)
        assert np.array_equal(plan.relay_filter, plan2.relay_filter)


class TestFilterOracle:
    @pytest.mark.parametrize(
        "k,m,n",
        [
            (3, 5, 4),  # plain, d = 2, user null spaces wider than d
            (3, 4, 6),  # relay antennas shut down to 4, d = 2
            (4, 4, 4),  # 3-slot extension, 12 x 12 matrices, d = 4
        ],
    )
    def test_filters_equal_null_space_construction(self, k, m, n):
        cfg, eff, plan, _ = designed(k, m, n, seed=25)
        up, down = extended(plan, eff.uplink), extended(plan, eff.downlink)
        aligned = [up[0] @ v for v in plan.V1]
        for p in range(plan.num_pairs):
            want, _ = _zero_forcing_oracle(aligned, p)
            got = plan.relay_filter[p]
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        for u in range(k):
            images = [down[u] @ t for t in plan.T]
            for p in range(plan.num_pairs):
                want, _ = _zero_forcing_oracle(images, p)
                got = plan.rx_filter[u][p]
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("k,m,n", [(3, 5, 4), (3, 4, 6), (4, 4, 4)])
    def test_guard_equals_inverse_conds_and_bounds_every_block(self, k, m, n):
        # H_0 V1cat = I and Tcat = I, so the relay inverse is I and the
        # guard is the base blocks' own conditioning: uplink_cond[u] bounds
        # user u's beamformer blocks, downlink_cond[u] equals
        # cond(pinv(D_u Tcat)) and bounds every user filter block; the
        # channels are not reciprocal, so the two guards differ
        cfg, eff, plan, _ = designed(k, m, n, seed=25, reciprocal=False)
        up, down = extended(plan, eff.uplink), extended(plan, eff.downlink)
        eye = np.eye(plan.effective_N)
        relay_inv = np.vstack(plan.relay_filter)
        assert np.linalg.norm(relay_inv @ relay_inv.conj().T - eye) <= 1e-12
        aligned = [up[0] @ v for v in plan.V1]
        assert np.linalg.norm(np.hstack(aligned) - relay_inv.conj().T) <= 1e-10
        t_cat = np.hstack(plan.T)
        assert np.linalg.norm(t_cat.conj().T @ t_cat - eye) <= 1e-12
        for p in range(plan.num_pairs):
            assert _zero_forcing_oracle(aligned, p)[1] <= 1 + 1e-10
        for u in range(k):
            up_cond = np.linalg.cond(eff.uplink[u])
            down_cond = np.linalg.cond(eff.downlink[u])
            assert abs(plan.channels.uplink_cond[u] - up_cond) <= 1e-10 * up_cond
            assert abs(plan.channels.downlink_cond[u] - down_cond) <= 1e-10 * down_cond
            beams = plan.V1 if u == 0 else [plan.Vj[u - 1]]
            for v in beams:
                assert np.linalg.cond(v) <= plan.channels.uplink_cond[u] * (1 + 1e-10)
            user_inv = np.linalg.pinv(down[u] @ t_cat)
            assert abs(np.linalg.cond(user_inv) - down_cond) <= 1e-10 * down_cond
            images = [down[u] @ t for t in plan.T]
            for p in range(plan.num_pairs):
                bound = plan.channels.downlink_cond[u] * (1 + 1e-10)
                assert _zero_forcing_oracle(images, p)[1] <= bound


class TestUserFilterOracle:
    """The sliced user inverse kron(I_L, pinv(d_u)) against a direct
    pseudoinverse of the full downlink image D_u Tcat, Tcat = I."""

    @pytest.mark.parametrize(
        "k,m,n",
        [
            (3, 5, 4),  # plain, user dimension above the relay dimension
            (3, 4, 6),  # relay antennas shut down to 4
            (4, 4, 4),  # 3-slot extension, 12 x 12 matrices
        ],
    )
    def test_rx_filters_are_row_blocks_of_direct_pinv(self, k, m, n):
        cfg, eff, plan, _ = designed(k, m, n, seed=26)
        down = extended(plan, eff.downlink)
        t_cat = np.hstack(plan.T)
        for u in range(k):
            want = np.linalg.pinv(down[u] @ t_cat)
            got = np.vstack(plan.rx_filter[u])
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestIdentitySubspaces:
    """With U = Tcat = I the plan is slices of the channel set's stored
    pseudoinverses, and the relay is a per-stream rescale: every identity
    below holds bit for bit."""

    CASES = [
        (4, 4, 3),  # plain, d = 1
        (8, 8, 8),  # 7-slot extension, 56 x 56 matrices
        (3, 4, 6),  # relay antennas shut down to 4
    ]

    @pytest.mark.parametrize("k,m,n", CASES)
    @pytest.mark.parametrize("trials", [None, 2], ids=["single", "stacked"])
    def test_plan_is_pinv_blocks_and_identity_blocks(self, k, m, n, trials):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7, reciprocal=False)
        rng = cfg.trial_rng(0) if trials is None else cfg.trial_streams(range(trials))
        plan = design_scheme(cfg, generate_channels(cfg, rng))
        eff = plan.channels
        d, n_eff = plan.d, plan.effective_N
        eye = np.eye(n_eff)
        for i in [()] if trials is None else [(t,) for t in range(trials)]:
            up = extended(plan, eff.uplink_pinv[i])
            down = extended(plan, eff.downlink_pinv[i])
            for p in range(k - 1):
                cols = slice(p * d, (p + 1) * d)
                assert np.array_equal(plan.V1[i][p], up[0][:, cols])
                assert np.array_equal(plan.Vj[i][p], up[p + 1][:, cols])
                assert np.array_equal(plan.T[i][p], eye[:, cols])
                assert np.array_equal(plan.relay_filter[i][p], eye[cols])
                for u in range(k):
                    assert np.array_equal(plan.rx_filter[i][u, p], down[u][cols])

    @pytest.mark.parametrize("k,m,n", CASES)
    def test_relay_and_broadcast_equal_identity_products(self, k, m, n):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=8)
        plan = design_scheme(cfg, generate_channels(cfg, cfg.trial_streams(range(2))))
        eff = plan.channels
        P = 3.0
        g = np.random.default_rng(8)
        s = gaussian_vector(2 * k * plan.d, g).reshape(2, k, plan.d)
        noise = gaussian_stack(2, plan.effective_N, g)
        y_r = mac_phase(plan, s, P, noise)
        a = plan.power_scale[:, None, None] * np.sqrt(P)
        want = (plan.relay_filter @ y_r[:, None, :, None])[..., 0] / a
        w = relay_process(plan, y_r, P)
        assert np.array_equal(w, want)
        b = plan.bc_scale * np.sqrt(P)
        x_r = b * np.sum(plan.T @ w[..., None], axis=-3)[..., 0]
        want = ssa_nc._kron_apply(eff.downlink, x_r[:, None, :], plan.extension_factor)
        assert np.array_equal(bc_phase(plan, w, P), want)

    @pytest.mark.parametrize("k,m,n", CASES + [(4, 2, 5), (3, 4, 3), (5, 4, 4), (6, 6, 5)])
    def test_power_scale_equals_extended_budget(self, k, m, n):
        # each user's budget is the squared norm of its extended transmit
        # matrix, user 0's summed over its pairs from contiguous V1 blocks.
        # Without an extension the physical computation gives the same bits;
        # with one it sums user 0's L equal slots as L times one, and every
        # budget without the zeros, so only the summation order differs
        cfg = NetworkConfig(K=k, M=m, N=n, seed=10)
        plan = design_scheme(cfg, generate_channels(cfg, cfg.trial_streams(range(40))))
        own = np.ascontiguousarray(plan.V1).sum(axis=-3, keepdims=True)
        tx = np.concatenate([own, plan.Vj], axis=-3)
        budgets = np.sum(tx.real**2 + tx.imag**2, axis=(-2, -1))
        want = np.sqrt(plan.extension_factor / budgets.max(axis=-1))
        if plan.extension_factor == 1:
            assert np.array_equal(plan.power_scale, want)
        else:
            # a sum of e nonnegative terms is within e eps of exact, relative
            entries = plan.effective_M * plan.d
            rtol = entries * np.finfo(float).eps
            np.testing.assert_allclose(plan.power_scale, want, rtol=rtol, atol=0)

    def test_each_slot_is_one_pair_at_full_extension(self):
        # L = K-1 and d = min(N, M): pair p's streams are exactly slot p, so
        # its beamformers and filters are zero outside it and hold the
        # physical pseudoinverse inside it
        cfg, eff, plan, _ = designed(4, 4, 4, seed=9)
        assert (plan.extension_factor, plan.d) == (3, 4)
        m = eff.user_dim
        for p in range(3):
            slot = slice(p * m, (p + 1) * m)
            rest = np.ones(plan.effective_M, dtype=bool)
            rest[slot] = False
            assert np.array_equal(plan.V1[p][slot], eff.uplink_pinv[0])
            assert np.array_equal(plan.Vj[p][slot], eff.uplink_pinv[p + 1])
            assert not plan.V1[p][rest].any() and not plan.Vj[p][rest].any()
            for u in range(4):
                assert np.array_equal(plan.rx_filter[u, p][:, slot], eff.downlink_pinv[u])
                assert not plan.rx_filter[u, p][:, rest].any()


def _stacked_plan(cfg, trials):
    return design_scheme(cfg, generate_channels(cfg, cfg.trial_streams(trials)))


# K=3, M=3, N=2 at seed 7: the guards of trials 0-7 are 1.68, 2.46, 2.51,
# 2.68, 4.65, 2.52, 2.10 and 2.11 (measured; a redraw cannot change them).
GUARD_CFG = dict(K=3, M=3, N=2, seed=7)


class TestDesignFailurePaths:
    """Failure paths at K=3, M=3, N=2, d=1: the design draws nothing, so
    only the channel's conditioning and a set of other dimensions than the
    configuration's can fail it."""

    CFG = GUARD_CFG

    @pytest.mark.parametrize(
        "config,given",
        [
            ((3, 4, 3), (3, 4, 5)),  # one relay antenna too many
            ((3, 3, 2), (3, 4, 2)),  # one user antenna too many
            ((3, 4, 6), (3, 4, 5)),  # one relay antenna short of a shutdown
            ((3, 4, 6), (3, 4, 4)),  # the antennas a shutdown keeps, given as a set
            ((4, 4, 3), (3, 4, 3)),  # one user short
        ],
        ids=["N", "M", "N-shutdown", "N-kept", "K"],
    )
    def test_dimension_mismatch_raises(self, config, given):
        cfg = NetworkConfig(*config, seed=7)
        wrong = NetworkConfig(*given, seed=7)
        cs = generate_channels(wrong, np.random.default_rng(wrong.seed))
        want = "K={}, M={}, N={}; the configuration is K={}, M={}, N={}".format(*given, *config)
        with pytest.raises(ValueError, match=want):
            design_scheme(cfg, cs)
        with pytest.raises(ValueError, match=want):
            verify_noiseless(cfg, 2, channels=cs)

    def test_conditioning_guardrail_raises_without_redraw(self, monkeypatch, caplog):
        # every condition number is at least 1, so the first trial fails at
        # once: nothing is redrawn or logged
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 0.5)
        with pytest.raises(SchemeDesignError, match=r"trial 0 \(seed 7\): channel conditioning"):
            verify_noiseless(NetworkConfig(**self.CFG), trials=3)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_guard_reads_both_directions(self, monkeypatch):
        # without reciprocity the downlink guards of trials 0-7 are 4.59,
        # 6.44, 12.62, 2.76, 1.86, 2.63, 3.29 and 2.72 (measured), while the
        # uplink ones are those of GUARD_CFG: at 4.0 the downlinks of trials
        # 0-2 exceed the limit, before trial 4's uplink does, and over
        # trials 3-7, whose downlinks stay below it, only trial 4's uplink
        # (stack position 1) exceeds it
        cfg = NetworkConfig(**GUARD_CFG, reciprocal=False)
        plan = _stacked_plan(cfg, range(8))
        eff = plan.channels
        down, up = eff.downlink_cond.max(axis=-1), eff.uplink_cond.max(axis=-1)
        assert np.flatnonzero(down > 4.0).tolist() == [0, 1, 2]
        assert np.flatnonzero(up > 4.0).tolist() == [4]
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 4.0)
        for trials, position in ((range(8), 0), (range(3, 8), 1)):
            with pytest.raises(SchemeDesignError) as err:
                _stacked_plan(cfg, trials)
            assert err.value.trial == position

    def test_guardrail_fires_at_one_stream_per_pair(self, monkeypatch):
        # d = 1, where every filter block is one row: the limit sits between
        # the measured guards, so trials 3 and 4 exceed it, and the first of
        # them is named by its global index whatever the stack size
        cfg = NetworkConfig(**self.CFG)
        limit = 2.6
        plan = _stacked_plan(cfg, range(8))
        assert plan.d == 1
        eff = plan.channels
        worst = np.maximum(eff.uplink_cond.max(axis=-1), eff.downlink_cond.max(axis=-1))
        assert np.flatnonzero(worst > limit).tolist() == [3, 4]
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", limit)
        assert verify_noiseless(cfg, trials=3).noiseless_max_error <= 1e-8
        with pytest.raises(SchemeDesignError, match=r"^trial 3 \(seed 7\): channel"):
            verify_noiseless(cfg, trials=8)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 2 * 3 * 2 * 3)
        assert analysis._stack_size(cfg) == 2
        with pytest.raises(SchemeDesignError, match=r"^trial 3 \(seed 7\): channel"):
            verify_noiseless(cfg, trials=8)


class TestConditionGuard:
    """The guard decides every trial as the SVD's condition numbers do. A
    trial passes on its condition bounds alone when they are at most
    COND_LIMIT / BOUND_MARGIN; only the others are read exactly, with one
    SVD of those trials. The 2 x 2 matrices here are the bound's tightest
    case, kappa_F = kappa_2 + 1 / kappa_2, so only the margin separates the
    two at the limit."""

    CFG = NetworkConfig(K=2, M=2, N=2, seed=23)
    # user 1's uplink condition number in each trial: across the band the
    # bound leaves to the SVD, and within 1e-3 relative of the limit
    KAPPAS = np.concatenate(
        [np.geomspace(1e7, 1e9, 11), COND_LIMIT * (1 + np.linspace(-1e-3, 1e-3, 9))]
    )

    def channels(self):
        drawn = generate_channels(self.CFG, self.CFG.trial_streams(range(len(self.KAPPAS))))
        uplink = np.array(drawn.uplink)
        for t, kappa in enumerate(self.KAPPAS):
            u, _, vh = np.linalg.svd(uplink[t, 1])
            uplink[t, 1] = (u * [1.0, 1.0 / kappa]) @ vh
        return ChannelSet(uplink=uplink, downlink=uplink.swapaxes(-1, -2).copy())

    def test_decisions_equal_the_svd(self):
        cs = self.channels()
        worst = np.maximum(cs.uplink_cond.max(axis=-1), cs.downlink_cond.max(axis=-1))
        fails = worst > COND_LIMIT
        assert fails.any() and not fails.all()
        for t in range(len(self.KAPPAS)):
            one = ChannelSet(uplink=cs.uplink[t].copy(), downlink=cs.downlink[t].copy())
            if fails[t]:
                with pytest.raises(SchemeDesignError, match="guardrail"):
                    design_scheme(self.CFG, one)
            else:
                design_scheme(self.CFG, one)

    def test_only_undecided_trials_are_read_exactly(self, lapack_calls):
        cs = self.channels()
        worst = np.maximum(cs.uplink_cond.max(axis=-1), cs.downlink_cond.max(axis=-1))
        bound = np.maximum(cs.uplink_cond_bound.max(axis=-1), cs.downlink_cond_bound.max(axis=-1))
        undecided = np.flatnonzero(bound > COND_LIMIT / BOUND_MARGIN)
        assert 0 < undecided.size < len(self.KAPPAS)
        del lapack_calls[:]
        with pytest.raises(SchemeDesignError) as err:
            design_scheme(self.CFG, cs)
        assert err.value.trial == np.flatnonzero(worst > COND_LIMIT)[0]
        assert lapack_calls == [("svd", (undecided.size, 2, 2, 2))]
        del lapack_calls[:]
        kept = np.flatnonzero(worst <= COND_LIMIT)
        design_scheme(self.CFG, cs.select(kept))
        assert lapack_calls == [("svd", (np.isin(kept, undecided).sum(), 2, 2, 2))]


    @pytest.mark.parametrize("link", ["uplink", "downlink"])
    def test_over_limit_trial_reaches_the_exact_check(self, link, lapack_calls):
        # one trial over the limit among well-conditioned ones, on either
        # link of a non-reciprocal stack: the bounds' early return must not
        # pass it, and that trial alone is read exactly, one SVD per link
        cfg = NetworkConfig(K=2, M=2, N=2, seed=23, reciprocal=False)
        drawn = generate_channels(cfg, cfg.trial_streams(range(6)))
        links = {"uplink": np.array(drawn.uplink), "downlink": np.array(drawn.downlink)}
        u, _, vh = np.linalg.svd(links[link][4, 1])
        links[link][4, 1] = (u * [1.0, 1e-9]) @ vh
        cs = ChannelSet(**links)
        del lapack_calls[:]
        with pytest.raises(SchemeDesignError, match="exceeds the guardrail") as err:
            design_scheme(cfg, cs)
        assert err.value.trial == 4
        assert lapack_calls == [("svd", (1, 2, 2, 2))] * 2
        del lapack_calls[:]
        design_scheme(cfg, cs.select([0, 1, 2, 3, 5]))
        assert lapack_calls == []


PLAN_FIELDS = (
    "V1", "Vj", "T", "relay_filter", "rx_filter", "channels.uplink_cond",
    "channels.downlink_cond", "power_scale", "beamformers",
)
TRACE_FIELDS = ("sent", "relay_rx", "relay_fwd", "user_rx", "decoded")
SINR_FIELDS = ("mac", "bc", "end_to_end")


def _single_runs(cfg, trials):
    """(plan, noisy trace, SINRs) of each trial designed and run alone."""
    runs = []
    for trial in trials:
        plan, trace = drawn_round(cfg, cfg.trial_rng(trial), 10.0, noise=True)
        runs.append((plan, trace, stream_sinrs(plan, 3.0)))
    return runs


def _stacked_run(cfg, trials):
    """(plan, noisy trace, SINRs) of the trials designed and run as one stack."""
    plan, trace = drawn_round(cfg, cfg.trial_streams(trials), 10.0, noise=True)
    return plan, trace, stream_sinrs(plan, 3.0)


def _assert_stack_matches(stacked, singles):
    for t, single in enumerate(singles):
        assert stacked[0].bc_scale == single[0].bc_scale, t
        for fields, whole, one in zip((PLAN_FIELDS, TRACE_FIELDS, SINR_FIELDS), stacked, single):
            for name in fields:
                got = np.asarray(attrgetter(name)(whole))[t]
                assert np.array_equal(got, attrgetter(name)(one)), (t, name)


class TestTrialStacks:
    """A stack designs and runs every trial bit for bit as it runs alone."""

    @pytest.mark.parametrize(
        "k,m,n",
        list(itertools.product((3, 4, 5), (2, 3, 4), (2, 3, 4))) + [(4, 4, 3), (6, 6, 5), (3, 5, 4)],
    )
    def test_stack_equals_single_trials(self, k, m, n):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7)
        plan, trace, _ = stacked = _stacked_run(cfg, range(3))
        assert plan.stack_shape == (3,) and trace.decoded.shape[0] == 3
        _assert_stack_matches(stacked, _single_runs(cfg, range(3)))

    def test_raised_trial_leaves_the_others_unchanged(self, monkeypatch):
        # at this limit only trial 3 (guard 2.68) of trials 0-3 exceeds the
        # guardrail: it raises alone and in the stack, and the stack of the
        # other three designs and runs each of them as it runs alone
        cfg = NetworkConfig(**GUARD_CFG)
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 2.6)
        kept = [0, 1, 2]
        with pytest.raises(SchemeDesignError) as err:
            _single_runs(cfg, [3])
        assert err.value.trial == 0
        with pytest.raises(SchemeDesignError) as err:
            _stacked_run(cfg, range(4))
        assert err.value.trial == 3
        _assert_stack_matches(_stacked_run(cfg, kept), _single_runs(cfg, kept))

    def test_design_error_names_stack_position(self, monkeypatch):
        # trials 3 and 4 exceed this limit: the error names the first of them
        # by its position in the stack that was designed
        cfg = NetworkConfig(**GUARD_CFG)
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 2.6)
        for trials, position in ((range(8), 3), ([2, 4], 1), ([4, 3], 0)):
            with pytest.raises(SchemeDesignError) as err:
                _stacked_plan(cfg, trials)
            assert err.value.trial == position

    @pytest.mark.parametrize("reciprocal", [True, False])
    @pytest.mark.parametrize("k,m,n", [(4, 4, 3), (3, 4, 6), (8, 8, 8)])
    def test_one_trial_plan_serves_a_stack(self, k, m, n, reciprocal):
        # a given set's one-trial plan (3/4/6 shut down, 8/8/8 with L = 7)
        # takes a stack of symbols and noise by broadcasting: each trial's
        # trace is bit for bit its own single-trial round through the plan
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7, reciprocal=reciprocal)
        channels = generate_channels(cfg, cfg.trial_rng(0))
        plan = design_scheme(cfg, channels)
        _, sent, (relay, user) = draw_trials(cfg, cfg.trial_streams(range(3)), channels, noise=True)
        whole = run_round(plan, 10.0, sent, (relay, user))
        assert plan.stack_shape == () and whole.decoded.shape[0] == 3
        assert whole.decoded.flags.c_contiguous
        for t in range(3):
            one = run_round(plan, 10.0, sent[t], (relay[t], user[t]))
            for name in TRACE_FIELDS:
                assert np.array_equal(getattr(whole, name)[t], getattr(one, name)), (t, name)
        # every array is checked against the trial axes of the first
        for wrong in ((relay[:2], user), (relay, user[:2]), (relay[0], user)):
            with pytest.raises(ValueError, match="per trial"):
                run_round(plan, 10.0, sent, wrong)

    def test_round_inputs_must_match_stack(self):
        # a 3-trial plan takes symbols and noise for each of its 3 trials
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        plan = _stacked_plan(cfg, range(3))
        streams = cfg.trial_streams(range(3))
        _, sent, (relay, user) = draw_trials(cfg, streams, plan.channels, noise=True)
        for wrong in (
            (sent[:2],),
            (sent[0],),
            (sent, (relay[:2], user)),
            (sent, (relay, user[0])),
        ):
            with pytest.raises(ValueError, match="per trial"):
                run_round(plan, 1.0, *wrong)


class TestLapackBudget:
    """Channel validation is the only place a channel matrix is factored,
    and no trial path takes an SVD: each validation factors a reciprocal
    set's uplink stack alone, whose pseudoinverses transposed are the
    downlink's, and both link stacks of any other set, each with one inv
    when its matrices are square and one qr when they are not. The design
    slices their pseudoinverses and reads their condition bounds, so one
    stacked design factors nothing, whatever the extension factor; a set
    is validated again only after a relay shutdown, which can lose rank
    and leaves square matrices. The analysis draws its stacks already cut
    to min(N, M) relay antennas, so each of its trials is validated once.
    These cases draw reciprocal channels; TestLapackBudgetIndependent
    draws independent downlinks."""

    RECIPROCAL = True
    LINKS_FACTORED = 1

    CASES = [
        (4, 4, 3, 0),  # plain, 3 x 4 uplinks
        (8, 8, 8, 0),  # 7-slot extension, 56 x 56 matrices
        (3, 4, 6, 1),  # 6 x 4 uplinks, relay antennas shut down to 4
    ]

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"svd": 0, "qr": 0, "inv": 0, "solve": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("svd", "qr", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr(
            ChannelSet, "__post_init__", counted("validate", ChannelSet.__post_init__)
        )
        return calls

    def budget(self, validated):
        """The exact calls for validations of the given (rows, columns)
        uplink shapes."""
        calls = {"svd": 0, "qr": 0, "inv": 0, "solve": 0, "validate": len(validated)}
        for rows, cols in validated:
            calls["inv" if rows == cols else "qr"] += self.LINKS_FACTORED
        return calls

    def config(self, k, m, n):
        return NetworkConfig(K=k, M=m, N=n, seed=7, reciprocal=self.RECIPROCAL)

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_calls_per_design(self, monkeypatch, k, m, n, validations):
        cfg = self.config(k, m, n)
        channels = generate_channels(cfg, cfg.trial_streams(range(2)))
        calls = self.count_calls(monkeypatch)
        plan = design_scheme(cfg, channels)
        assert plan.stack_shape == (2,)
        assert calls == self.budget([(m, m)] * validations)

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_calls_per_trial_path(self, monkeypatch, k, m, n, validations):
        # a stack's whole path, draw to decoded round: the draw's
        # validation is its only factorization, unless a shutdown
        # validates the cut set again
        cfg = self.config(k, m, n)
        calls = self.count_calls(monkeypatch)
        drawn_round(cfg, cfg.trial_streams(range(2)), 10.0, noise=True)
        assert calls == self.budget([(n, m)] + [(m, m)] * validations)

    @pytest.mark.parametrize("k,m,n", [case[:3] for case in CASES])
    def test_calls_per_analysis_stack(self, monkeypatch, k, m, n):
        # the analysis's own stack, draw to noiseless round: the draw keeps
        # min(N, M) relay antennas before its one validation, so 3/4/6
        # takes one inv of its 4 x 4 blocks and no qr
        cfg = self.config(k, m, n)
        calls = self.count_calls(monkeypatch)
        for _, plan, sent in analysis._stacks([(cfg,)], 2):
            run_round(plan, 1.0, sent)
        assert calls == self.budget([(min(n, m), m)])

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_design_draws_nothing(self, monkeypatch, k, m, n, validations):
        # the design opens no random stream, of a stack or of one trial
        cfg = self.config(k, m, n)
        channels = generate_channels(cfg, cfg.trial_streams(range(2)))

        def no_stream(*args, **kwargs):
            raise AssertionError("the design opened a random stream")

        for name in ("Generator", "Philox", "default_rng"):
            monkeypatch.setattr(np.random, name, no_stream)
        design_scheme(cfg, channels)
        design_scheme(cfg, channels.select([1]))


class TestLapackBudgetIndependent(TestLapackBudget):
    """The same budget with independent downlinks: both link stacks are
    factored in each validation."""

    RECIPROCAL = False
    LINKS_FACTORED = 2


@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(
    k=st.integers(3, 5),
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_noiseless_decode_exact_at_cutset(k, m, n, seed):
    report = verify_noiseless(NetworkConfig(K=k, M=m, N=n, seed=seed), trials=1)
    assert report.noiseless_max_error <= 1e-8
    assert report.achieved_streams == report.cutset == cutset_dof(k, m, n)


def _by_slot(per_user, L):
    """Spread each user's row of a (..., K, e) array over the L slots,
    (..., K, L, e): user 0's in every slot, partner p+1's in its pair's
    slot only, exact zeros elsewhere."""
    K = per_user.shape[-2]
    slot = np.arange(K - 1) // ((K - 1) // L)
    out = np.zeros(per_user.shape[:-1] + (L,) + per_user.shape[-1:], dtype=per_user.dtype)
    out[..., 0, :, :] = per_user[..., :1, :]
    out[..., np.arange(1, K), slot, :] = per_user[..., 1:, :]
    return out


class TestPowerInput:
    @pytest.mark.parametrize("P", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "step", ["mac_phase", "relay_process", "bc_phase", "user_decode", "run_round",
                 "stream_sinrs"],
    )
    def test_power_must_be_positive_and_finite(self, step, P):
        # every phase, the round and the SINRs refuse a power that would
        # give NaN or inf amplitudes
        cfg, eff, plan, rng = designed(3, 3, 2, seed=7)
        _, sent, (relay, user) = draw_trials(cfg, rng, eff, noise=True)
        forwarded = np.zeros((plan.num_pairs, plan.d), dtype=complex)
        args = {
            "mac_phase": (plan, sent, P),
            "relay_process": (plan, relay, P),
            "bc_phase": (plan, forwarded, P),
            "user_decode": (plan, user, sent, P),
            "run_round": (plan, P, sent, (relay, user)),
            "stream_sinrs": (plan, P),
        }[step]
        call = stream_sinrs if step == "stream_sinrs" else getattr(ssa_nc, step)
        with pytest.raises(ValueError, match="P must be positive and finite"):
            call(*args)


class TestMacPhase:
    def test_zero_symbols_zero_output(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        zeros = [np.zeros(plan.d, dtype=complex)] * 3
        y = mac_phase(plan, zeros, P=1.0)
        assert np.linalg.norm(y) == 0.0

    def test_aligned_superposition_identity(self):
        # noiseless relay input equals the pair-sum form through user 1's channel
        cfg, eff, plan, rng = designed(3, 3, 2, seed=8)
        s = [gaussian_vector(plan.d, rng) for _ in range(3)]
        y = mac_phase(plan, s, P=4.0)
        a = plan.power_scale * 2.0
        h0 = eff.uplink[0]
        expected = a * sum(h0 @ plan.V1[p] @ (s[0] + s[p + 1]) for p in range(2))
        assert np.allclose(y, expected, atol=1e-10)

    def test_power_audit(self):
        # 1e4 symbol draws: the binding user transmits P, nobody exceeds it
        cfg, eff, plan, _ = designed(3, 3, 2, seed=9)
        P = 10.0
        a = plan.power_scale * np.sqrt(P)
        g = np.random.default_rng(1234)
        draws = 10**4
        powers = []
        for u in range(3):
            s = (g.standard_normal((plan.d, draws)) + 1j * g.standard_normal((plan.d, draws)))
            s /= np.sqrt(2.0)
            mat = sum(plan.V1) if u == 0 else plan.Vj[u - 1]
            x = a * (mat @ s)
            powers.append(float(np.mean(np.sum(np.abs(x) ** 2, axis=0))))
        assert max(powers) == pytest.approx(P, rel=0.03)
        assert all(p <= P * 1.03 for p in powers)

    @pytest.mark.parametrize(
        "k,m,n,L", [(4, 4, 3, 1), (5, 4, 4, 1), (5, 3, 4, 4), (8, 8, 8, 7)]
    )
    def test_slot_sum_equals_scatter_and_sum(self, k, m, n, L):
        # the relay hears each slot's partner images added to user 0's in
        # user order: bit for bit the spread of every image over the slots,
        # zeros included, summed over the users
        cfg = NetworkConfig(K=k, M=m, N=n, seed=31)
        channels, s, _ = draw_trials(cfg, cfg.trial_streams(range(3)))
        plan = design_scheme(cfg, channels)
        assert plan.extension_factor == L
        P = 7.0
        a = (plan.power_scale * np.sqrt(P))[:, np.newaxis, np.newaxis, np.newaxis]
        images = (plan.channels.uplink @ (a * (plan.beamformers @ s[..., np.newaxis])))[..., 0]
        oracle = _by_slot(images, L).sum(axis=-3).reshape(3, plan.effective_N)
        got = mac_phase(plan, s, P)
        assert got.shape == oracle.shape and got.tobytes() == oracle.tobytes()

    def test_symbol_shape_mismatch(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        bad = [np.zeros(plan.d + 1, dtype=complex)] * 3
        with pytest.raises(ValueError):
            mac_phase(plan, bad, P=1.0)

    @pytest.mark.parametrize("shape", [(3,), (1, 2), (2, 2)])
    def test_noise_shape_mismatch(self, shape):
        # relay noise is one length-effective_N vector per trial, no count axis
        cfg, eff, plan, _ = designed(3, 3, 2)
        assert plan.effective_N == 2
        zeros = np.zeros((3, plan.d), dtype=complex)
        with pytest.raises(ValueError, match="one relay noise vector of length 2 per trial"):
            mac_phase(plan, zeros, 1.0, np.zeros(shape, dtype=complex))


class TestRelayProcess:
    def test_recovers_pair_sums(self):
        cfg, eff, plan, rng = designed(4, 4, 3, seed=10)
        s = [gaussian_vector(plan.d, rng) for _ in range(4)]
        y = mac_phase(plan, s, P=2.0)
        w = relay_process(plan, y, P=2.0)
        for p in range(3):
            assert np.linalg.norm(w[p] - (s[0] + s[p + 1])) <= 1e-10

    def test_network_coded_cancellation(self):
        cfg, eff, plan, rng = designed(3, 3, 2, seed=11)
        s1 = gaussian_vector(plan.d, rng)
        s = [s1, -s1, gaussian_vector(plan.d, rng)]
        y = mac_phase(plan, s, P=1.0)
        w = relay_process(plan, y, P=1.0)
        assert np.linalg.norm(w[0]) <= 1e-10

    def test_noise_shrinks_as_sqrt_power(self):
        # fixed noise realization: the residual scales exactly like 1/sqrt(P)
        cfg, eff, plan, _ = designed(3, 3, 2, seed=12)
        s = [np.zeros(plan.d, dtype=complex)] * 3
        residuals = []
        for P in (1e2, 1e4, 1e6):
            noise = gaussian_vector(plan.effective_N, np.random.default_rng(77))
            y = mac_phase(plan, s, P=P, noise=noise)
            w = relay_process(plan, y, P=P)
            residuals.append(np.linalg.norm(np.concatenate(w)))
        assert residuals[0] / residuals[1] == pytest.approx(10.0, rel=1e-9)
        assert residuals[1] / residuals[2] == pytest.approx(10.0, rel=1e-9)


class TestDownlinkAndDecode:
    def test_user_zero_forcing_nullity(self):
        # rx_filter[u][p] @ D_u T[i] = delta_pi I_d
        cfg, eff, plan, _ = designed(3, 3, 2, seed=13)
        for u in range(3):
            for p in range(2):
                assert plan.rx_filter[u][p].shape == (1, 3)
                for i in range(2):
                    got = plan.rx_filter[u][p] @ eff.downlink[u] @ plan.T[i]
                    target = np.eye(1) if i == p else np.zeros((1, 1))
                    assert np.linalg.norm(got - target) <= 1e-9

    def test_rx_depends_only_on_own_pair(self):
        # a single nonzero forwarded vector reaches only its own filter output
        cfg, eff, plan, rng = designed(4, 4, 3, seed=14)
        w = [np.zeros(plan.d, dtype=complex) for _ in range(3)]
        w[1] = gaussian_vector(plan.d, rng)
        y = bc_phase(plan, w, P=3.0)
        b = plan.bc_scale * np.sqrt(3.0)
        for u in range(4):
            est = [plan.rx_filter[u][p] @ y[u] / b for p in range(3)]
            assert np.linalg.norm(est[0]) <= 1e-9
            assert np.linalg.norm(est[2]) <= 1e-9
            assert np.allclose(est[1], w[1], atol=1e-9)

    def test_bc_zero_forward_zero_output(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        w = [np.zeros(plan.d, dtype=complex)] * 2
        y = bc_phase(plan, w, P=1.0)
        assert all(np.linalg.norm(v) == 0.0 for v in y)

    def test_single_pair_output_in_precoder_span(self):
        cfg, eff, plan, rng = designed(3, 3, 2, seed=15)
        w = [np.zeros(plan.d, dtype=complex)] * 2
        w[0] = gaussian_vector(plan.d, rng)
        y = bc_phase(plan, w, P=1.0)
        img = eff.downlink[1] @ plan.T[0]
        assert subspace_distance(y[1].reshape(-1, 1), img) <= 1e-9

    def test_relay_power_audit(self):
        cfg, eff, plan, _ = designed(3, 3, 2, seed=16)
        P = 10.0
        b = plan.bc_scale * np.sqrt(P)
        g = np.random.default_rng(4321)
        draws = 10**4
        acc = 0.0
        for _ in range(draws):
            s = [gaussian_vector(plan.d, g) for _ in range(3)]
            w = [s[0] + s[p + 1] for p in range(2)]
            x_r = b * sum(plan.T[p] @ w[p] for p in range(2))
            acc += float(np.sum(np.abs(x_r) ** 2))
        assert acc / draws == pytest.approx(P, rel=0.03)

    def test_noiseless_decode_exact(self):
        cfg = NetworkConfig(K=4, M=5, N=3, seed=17)
        _, trace = drawn_round(cfg, cfg.trial_rng(0), 1.0)
        for u in range(4):
            for idx, v in enumerate([v for v in range(4) if v != u]):
                err = np.linalg.norm(trace.decoded[u][idx] - trace.sent[v])
                assert err <= 1e-8 * np.linalg.norm(trace.sent[v])

    @pytest.mark.parametrize("k,m,n", [(4, 4, 3), (4, 2, 5), (8, 8, 8)])
    @pytest.mark.parametrize("trials", [None, 3], ids=["single", "stacked"])
    def test_round_draws_symbols_then_relay_then_user_noise(self, k, m, n, trials):
        # a trial's one draw is, bit for bit, the channel, the symbols, the
        # relay noise and the user noise drawn one after another, and the
        # round adds the noise it is given
        cfg = NetworkConfig(K=k, M=m, N=n, seed=19)

        rng = cfg.trial_rng(0) if trials is None else cfg.trial_streams(range(trials))
        plan, trace = drawn_round(cfg, rng, 5.0, noise=True)
        # each trial's generator, drawn on part by part
        drawn = []
        for t in range(trials or 1):
            g = cfg.trial_rng(t)
            drawn.append((generate_channels(cfg, g).uplink, gaussian_stack(k, plan.d, g),
                          gaussian_vector(plan.effective_N, g),
                          gaussian_stack(k, plan.effective_M, g)))
        uplink, sent, relay_noise, user_noise = (
            np.stack(a) if trials else a[0] for a in zip(*drawn))
        kept = plan.channels.relay_dim  # after any shutdown
        assert np.array_equal(uplink[..., :kept, :], plan.channels.uplink)
        relay_rx = mac_phase(plan, sent, 5.0, relay_noise)
        user_rx = bc_phase(plan, relay_process(plan, relay_rx, 5.0), 5.0, user_noise)
        for got, want in ((trace.sent, sent), (trace.relay_rx, relay_rx), (trace.user_rx, user_rx)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_round_decodes_every_user_in_one_call(self, monkeypatch):
        cfg = NetworkConfig(K=4, M=4, N=3, seed=17)
        channels, sent, _ = draw_trials(cfg, cfg.trial_streams(range(3)))
        plan = design_scheme(cfg, channels)
        calls = []
        real = ssa_nc._decode

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ssa_nc, "_decode", counted)
        run_round(plan, 1.0, sent)
        assert len(calls) == 1

    @pytest.mark.parametrize("k", range(2, 10))
    def test_sender_table_rows_are_other_users(self, k):
        table = ssa_nc.sender_table(k)
        oracle = np.array([[v for v in range(k) if v != u] for u in range(k)])
        assert table.shape == (k, k - 1) and table.dtype == oracle.dtype
        assert np.array_equal(table, oracle)

    def test_sender_table_is_built_once_and_read_only(self):
        table = ssa_nc.sender_table(4)
        assert ssa_nc.sender_table(4) is table
        assert not table.flags.writeable

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (3, 4), (1, 3, 3)])
    def test_bc_noise_shape_mismatch(self, shape):
        # user noise is one length-effective_M vector per user and trial
        cfg, eff, plan, _ = designed(3, 3, 2)
        w = np.zeros((2, plan.d), dtype=complex)
        with pytest.raises(ValueError, match="3 noise vectors of length 3 per trial"):
            bc_phase(plan, w, 1.0, np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("which", ["user_rx", "sent"])
    def test_decode_shape_mismatch(self, which):
        cfg, eff, plan, rng = designed(3, 3, 2)
        good = {
            "user_rx": np.zeros((3, plan.effective_M), dtype=complex),
            "sent": np.zeros((3, plan.d), dtype=complex),
        }
        good[which] = good[which][:2]
        with pytest.raises(ValueError, match="per trial"):
            user_decode(plan, good["user_rx"], good["sent"], P=1.0)

    def test_zero_side_information(self):
        # a user with all-zero own symbols reads user 1's message directly
        cfg, eff, plan, rng = designed(3, 3, 2, seed=18)
        s = [gaussian_vector(plan.d, rng) for _ in range(3)]
        s[1] = np.zeros(plan.d, dtype=complex)
        y_r = mac_phase(plan, s, P=1.0)
        w = relay_process(plan, y_r, P=1.0)
        y = bc_phase(plan, w, P=1.0)
        decoded = user_decode(plan, y, s, P=1.0)[1]
        b = plan.bc_scale
        what = plan.rx_filter[1][0] @ y[1] / b
        assert np.allclose(decoded[0], what, atol=1e-12)
        assert np.allclose(decoded[0], s[0], atol=1e-9)

    def test_decode_mse_slope_minus_one(self):
        # per-symbol MSE across P in {1e2, 1e3, 1e4} over 200 trials
        from mrc_dof_lab.analysis import decode_mse_sweep

        cfg = NetworkConfig(K=3, M=3, N=2, seed=19)
        grid = [1e2, 1e3, 1e4]
        mse = decode_mse_sweep(cfg, grid, 200)
        x = np.log10(grid)
        y = np.log10(mse)
        xc = x - x.mean()
        slope = float(xc @ y / (xc @ xc))
        assert abs(slope + 1.0) <= 0.1


class TestImplicitExtension:
    """The MAC and BC phases apply kron(I_L, H) of the physical channels
    without forming it: a round's receive signals equal explicit np.kron
    products of the plan, the physical channels and the sent symbols."""

    @pytest.mark.parametrize(
        "k,m,n,L",
        [
            (3, 4, 3, 2),  # extension only
            (4, 2, 5, 3),  # relay shut down to 2, then 3-slot extension
            (8, 8, 8, 7),  # 56 x 56 blocks
        ],
    )
    @pytest.mark.parametrize("trials", [None, 3], ids=["single", "stacked"])
    def test_round_equals_explicit_kron_products(self, k, m, n, L, trials):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=31)
        rng = cfg.trial_rng(0) if trials is None else cfg.trial_streams(range(trials))
        P = 4.0
        plan, trace = drawn_round(cfg, rng, P)
        eff = plan.channels
        assert plan.extension_factor == L
        up, down = extended(plan, eff.uplink), extended(plan, eff.downlink)
        for i in [()] if trials is None else [(t,) for t in range(trials)]:
            a = np.asarray(plan.power_scale)[i] * np.sqrt(P)
            b = plan.bc_scale * np.sqrt(P)
            s, V1, Vj = trace.sent[i], plan.V1[i], plan.Vj[i]
            tx = [sum(V1) @ s[0]] + [Vj[p] @ s[p + 1] for p in range(k - 1)]
            want = a * sum(up[i][u] @ tx[u] for u in range(k))
            got = trace.relay_rx[i]
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            x_r = b * sum(plan.T[i][p] @ trace.relay_fwd[i][p] for p in range(k - 1))
            for u in range(k):
                want = down[i][u] @ x_r
                got = trace.user_rx[i][u]
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestAllocationAndPlan:
    @pytest.mark.parametrize(
        "k,m,n,per_user,total",
        [
            (3, 3, 2, Fraction(1), 6),
            (3, 4, 3, Fraction(3, 2), 9),
            (4, 3, 6, Fraction(1), 12),
        ],
    )
    def test_build_allocation(self, k, m, n, per_user, total):
        cfg, eff, plan, _ = designed(k, m, n, seed=20)
        alloc = build_allocation(plan)
        assert all(c == per_user for c in alloc.common)
        assert total_dof(alloc, k) == total == cutset_dof(k, m, n)

    def test_allocation_saturates_every_cut(self):
        cfg, eff, plan, _ = designed(4, 2, 5, seed=21)
        alloc = build_allocation(plan)
        ok, _ = check_percut_bounds(alloc, 4, 2, 5)
        assert ok
        limit = min(2, 5)
        for i in range(4):
            cut = sum(alloc.common[j] for j in range(4) if j != i)
            assert cut == limit

    def test_streams_per_slot(self):
        cfg, eff, plan, _ = designed(3, 4, 3, seed=22)
        assert plan.streams_per_slot == 9

    def test_k2_degenerates_to_two_way_relay(self):
        cfg = NetworkConfig(K=2, M=2, N=1, seed=23)
        plan, trace = drawn_round(cfg, cfg.trial_rng(0), 1.0)
        assert plan.num_pairs == 1 and plan.d == 1
        assert np.allclose(trace.decoded[0][0], trace.sent[1], atol=1e-9)
        assert np.allclose(trace.decoded[1][0], trace.sent[0], atol=1e-9)

    @pytest.mark.parametrize(
        "k,m,n",
        [
            (3, 3, 2),  # d = 1
            (3, 4, 6),  # shutdown: relay 4, user 4, d = 2
            (4, 4, 4),  # 3-slot extension: relay 12, user 12, d = 4
            (2, 2, 3),  # two-way relay: dropping each user's own row leaves a view
        ],
    )
    def test_plan_and_trace_shapes(self, k, m, n):
        cfg, eff, plan, rng = designed(k, m, n, seed=24)
        r, u, d = plan.effective_N, plan.effective_M, plan.d
        assert extended(plan, eff.uplink).shape == (k, r, u)
        assert plan.V1.shape == plan.Vj.shape == (k - 1, u, d)
        assert plan.T.shape == (k - 1, r, d)
        assert plan.relay_filter.shape == (k - 1, d, r)
        assert plan.rx_filter.shape == (k, k - 1, d, u)
        assert plan.channels.uplink_cond.shape == plan.channels.downlink_cond.shape == (k,)
        _, trace = drawn_round(cfg, cfg.trial_rng(0), 10.0, noise=True)
        assert trace.sent.shape == (k, d)
        assert trace.relay_rx.shape == (r,)
        assert trace.relay_fwd.shape == (k - 1, d)
        assert trace.user_rx.shape == (k, u)
        assert trace.decoded.shape == (k, k - 1, d)
        assert trace.decoded.flags.c_contiguous
        _, stacked = drawn_round(cfg, cfg.trial_streams(range(2)), 10.0, noise=True)
        assert stacked.decoded.shape == (2, k, k - 1, d)
        assert stacked.decoded.flags.c_contiguous

    def test_plan_arrays_read_only(self):
        # the plan stores the effective set itself, at 3/4/6 shut down to
        # relay dimension 4, and the beamformers; the set's arrays and the
        # derived extended filters are read-only too
        for k, m, n in ((4, 4, 4), (3, 4, 6)):
            cfg, eff, plan, _ = designed(k, m, n, seed=24)
            assert (eff.relay_dim, eff.user_dim) == (4, 4)
            assert [f.name for f in dataclasses.fields(plan)] == [
                "channels", "d", "extension_factor", "power_scale", "beamformers",
            ]
            arrays = {f.name: getattr(eff, f.name) for f in dataclasses.fields(eff)}
            for name in ("beamformers", "V1", "Vj", "T", "relay_filter", "rx_filter"):
                arrays[name] = getattr(plan, name)
            for name, a in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 0

    def test_stacked_plan_cannot_be_encoded(self):
        plan = _stacked_plan(NetworkConfig(K=3, M=3, N=2, seed=24), range(2))
        with pytest.raises(ValueError, match="only one trial's plan can be encoded"):
            plan_to_json_dict(plan)

    def test_plan_json_structure(self):
        cfg, eff, plan, _ = designed(3, 3, 2, seed=24)
        doc = plan_to_json_dict(plan)
        assert doc["d"] == 1 and doc["extension_factor"] == 1
        assert len(doc["V1"]) == len(doc["Vj"]) == 2
        assert doc["bc_scale"] == plan.bc_scale == np.sqrt(1 / 4)
        assert len(doc["rx_filter"]) == 3 and len(doc["rx_filter"][0]) == 2
        assert len(doc["uplink_cond"]) == len(doc["downlink_cond"]) == 3
        # the identity blocks T and relay_filter are not dumped
        assert not {"T", "relay_filter", "F", "G", "UZF", "g_cond", "user_gain_cond",
                    "degenerate"} & doc.keys()
        entry = doc["V1"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2
