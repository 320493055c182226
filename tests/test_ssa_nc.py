"""Tests for the alignment scheme design and the two-phase transmission chain."""

import dataclasses
import itertools
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab import analysis, ssa_nc
from mrc_dof_lab.analysis import stream_sinrs, verify_noiseless
from mrc_dof_lab.bounds import check_percut_bounds, cutset_dof, total_dof
from mrc_dof_lab.channel import ChannelSet, NetworkConfig, generate_channels
from mrc_dof_lab.linalg import random_gaussian_vector, subspace_distance
from mrc_dof_lab.ssa_nc import (
    SchemeDesignError,
    bc_phase,
    build_allocation,
    design_downlink,
    design_scheme,
    design_uplink,
    extension_plan,
    mac_phase,
    other_users,
    plan_to_json_dict,
    prepare_scheme,
    relay_process,
    run_round,
    user_decode,
)


def designed(k, m, n, seed=0, trial=0, **config):
    cfg = NetworkConfig(K=k, M=m, N=n, seed=seed, **config)
    rng = cfg.trial_rng(trial)
    cs = generate_channels(cfg, rng)
    eff, plan = design_scheme(cfg, cs)
    return cfg, eff, plan, rng


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
        cs = generate_channels(cfg, cfg.rng())
        eff, got_d = prepare_scheme(cfg, cs)
        assert got_d == d
        # the set stays physical: the scheme extends it implicitly
        assert (eff.relay_dim, eff.user_dim) == (base, m)
        block = np.kron(np.eye(L), eff.uplink[0])
        assert block.shape == ((k - 1) * d, L * m)
        assert np.linalg.matrix_rank(block) == (k - 1) * d

    def test_shutdown_keeps_user_antennas(self):
        cfg = NetworkConfig(K=4, M=3, N=6, seed=1)
        cs = generate_channels(cfg, cfg.rng())
        eff, d = prepare_scheme(cfg, cs)
        assert eff.relay_dim == 3 and eff.user_dim == 3 and d == 1


def _uplink_beamformers(cfg):
    """The effective channels and the plan's extended V1 and Vj."""
    eff, plan = design_scheme(cfg, generate_channels(cfg, cfg.rng()))
    return eff, plan.V1, plan.Vj


class TestDesignUplink:
    def test_returns_the_sets_own_decomposition(self):
        cfg = NetworkConfig(K=3, M=4, N=3, seed=2)
        eff, d = prepare_scheme(cfg, generate_channels(cfg, cfg.rng()))
        pinv, cond = design_uplink(eff, d)
        assert pinv is eff.uplink_pinv and cond is eff.uplink_cond
        with pytest.raises(ValueError, match="stream count d"):
            design_uplink(eff, d + 1)

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
        eff, _ = prepare_scheme(cfg, generate_channels(cfg, cfg.rng()))
        perturbed_up = list(eff.uplink)
        h2 = perturbed_up[1].copy()
        h2[0, 0] += 0.37
        perturbed_up[1] = h2
        eff2 = ChannelSet(uplink=tuple(perturbed_up), downlink=eff.downlink)
        _, plan = design_scheme(cfg, eff)
        _, plan2 = design_scheme(cfg, eff2)
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
            assert abs(plan.uplink_cond[u] - up_cond) <= 1e-10 * up_cond
            assert abs(plan.downlink_cond[u] - down_cond) <= 1e-10 * down_cond
            beams = plan.V1 if u == 0 else [plan.Vj[u - 1]]
            for v in beams:
                assert np.linalg.cond(v) <= plan.uplink_cond[u] * (1 + 1e-10)
            user_inv = np.linalg.pinv(down[u] @ t_cat)
            assert abs(np.linalg.cond(user_inv) - down_cond) <= 1e-10 * down_cond
            images = [down[u] @ t for t in plan.T]
            for p in range(plan.num_pairs):
                assert _zero_forcing_oracle(images, p)[1] <= plan.downlink_cond[u] * (1 + 1e-10)


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
        rng = cfg.trial_rng(0) if trials is None else [cfg.trial_rng(t) for t in range(trials)]
        eff, plan = design_scheme(cfg, generate_channels(cfg, rng))
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
        rngs = [cfg.trial_rng(t) for t in range(2)]
        eff, plan = design_scheme(cfg, generate_channels(cfg, rngs))
        P = 3.0
        s = random_gaussian_vector(2 * k * plan.d, rngs[0]).reshape(2, k, plan.d)
        y_r = mac_phase(plan, eff, s, P, rngs, noise_on=True)
        a = plan.power_scale[:, None, None] * np.sqrt(P)
        want = (plan.relay_filter @ y_r[:, None, :, None])[..., 0] / a
        w = relay_process(plan, y_r, P)
        assert np.array_equal(w, want)
        b = plan.bc_scale[:, None] * np.sqrt(P)
        x_r = b * np.sum(plan.T @ w[..., None], axis=-3)[..., 0]
        want = ssa_nc._kron_apply(eff.downlink, x_r[:, None, :], plan.extension_factor)
        assert np.array_equal(bc_phase(plan, eff, w, P), want)

    @pytest.mark.parametrize("k,m,n", CASES + [(4, 2, 5), (3, 4, 3), (5, 4, 4), (6, 6, 5)])
    def test_power_scale_equals_extended_budget(self, k, m, n):
        # each user's budget is the squared norm of its extended transmit
        # matrix, user 0's summed over its pairs from contiguous V1 blocks;
        # the physical computation gives the same bits
        cfg = NetworkConfig(K=k, M=m, N=n, seed=10)
        _, plan = design_scheme(cfg, generate_channels(cfg, [cfg.trial_rng(t) for t in range(40)]))
        own = np.ascontiguousarray(plan.V1).sum(axis=-3, keepdims=True)
        tx = np.concatenate([own, plan.Vj], axis=-3)
        budgets = np.sum(tx.real**2 + tx.imag**2, axis=(-2, -1))
        want = np.sqrt(plan.extension_factor / budgets.max(axis=-1))
        assert np.array_equal(plan.power_scale, want)

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
    rngs = [cfg.trial_rng(t) for t in trials]
    return design_scheme(cfg, generate_channels(cfg, rngs))[1]


# K=3, M=3, N=2 at seed 7: the guards of trials 0-7 are 2.05, 1.93, 3.29,
# 2.37, 2.39, 5.72, 3.15 and 5.69 (measured; a redraw cannot change them).
GUARD_CFG = dict(K=3, M=3, N=2, seed=7)


class TestDesignFailurePaths:
    """Failure paths at K=3, M=3, N=2, d=1: the design draws nothing, so
    only the channel's conditioning and an unprepared set can fail it."""

    CFG = GUARD_CFG

    def test_downlink_on_unprepared_shutdown_set_raises(self):
        cfg = NetworkConfig(K=3, M=2, N=4, seed=7)
        cs = generate_channels(cfg, cfg.rng())
        with pytest.raises(SchemeDesignError, match="user dimension 2 >= relay dimension 4"):
            design_downlink(cs)

    def test_conditioning_guardrail_raises_without_redraw(self, monkeypatch, caplog):
        # every condition number is at least 1, so the first trial fails at
        # once: nothing is redrawn or logged
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 0.5)
        with pytest.raises(SchemeDesignError, match=r"trial 0 \(seed 7\): channel conditioning"):
            verify_noiseless(NetworkConfig(**self.CFG), trials=3)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    def test_guard_reads_both_directions(self, monkeypatch):
        # without reciprocity the downlink guards of trials 0-7 are 2.86,
        # 2.51, 4.46, 2.47, 3.30, 1.92, 2.82 and 3.45 (measured), while the
        # uplink ones are those of GUARD_CFG: at 4.0 only trial 2's downlink
        # exceeds the limit before trial 5's uplink does, at 5.0 only the
        # uplinks of trials 5 and 7 exceed it
        cfg = NetworkConfig(**GUARD_CFG, reciprocal=False)
        plan = _stacked_plan(cfg, range(8))
        assert np.flatnonzero(plan.downlink_cond.max(axis=-1) > 4.0).tolist() == [2]
        assert np.flatnonzero(plan.uplink_cond.max(axis=-1) > 4.0).tolist() == [5, 7]
        for limit, trial in ((4.0, 2), (5.0, 5)):
            monkeypatch.setattr(ssa_nc, "COND_LIMIT", limit)
            with pytest.raises(SchemeDesignError) as err:
                _stacked_plan(cfg, range(8))
            assert err.value.trial == trial

    def test_guardrail_fires_at_one_stream_per_pair(self, monkeypatch):
        # d = 1, where every filter block is one row: the limit sits between
        # the measured guards, so trials 5 and 7 exceed it, and the first of
        # them is named by its global index whatever the stack size
        cfg = NetworkConfig(**self.CFG)
        limit = 5.0
        plan = _stacked_plan(cfg, range(8))
        assert plan.d == 1
        worst = np.maximum(plan.uplink_cond.max(axis=-1), plan.downlink_cond.max(axis=-1))
        assert np.flatnonzero(worst > limit).tolist() == [5, 7]
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", limit)
        assert verify_noiseless(cfg, trials=5).degenerate_draws == 0
        with pytest.raises(SchemeDesignError, match=r"^trial 5 \(seed 7\): channel"):
            verify_noiseless(cfg, trials=8)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 2 * 3 * 2 * 3)
        assert analysis._stack_size(cfg) == 2
        with pytest.raises(SchemeDesignError, match=r"^trial 5 \(seed 7\): channel"):
            verify_noiseless(cfg, trials=8)


PLAN_FIELDS = (
    "V1", "Vj", "T", "relay_filter", "rx_filter", "uplink_cond", "downlink_cond",
    "power_scale", "bc_scale",
)
TRACE_FIELDS = ("sent", "relay_rx", "relay_fwd", "user_rx", "decoded")
SINR_FIELDS = ("mac", "bc", "end_to_end")


def _single_runs(cfg, trials):
    """(plan, noisy trace, SINRs) of each trial designed and run alone."""
    runs = []
    for trial in trials:
        rng = cfg.trial_rng(trial)
        eff, plan = design_scheme(cfg, generate_channels(cfg, rng))
        trace = run_round(plan, eff, 10.0, rng, noise_on=True)
        runs.append((plan, trace, stream_sinrs(plan, 3.0)))
    return runs


def _stacked_run(cfg, trials):
    """(plan, noisy trace, SINRs) of the trials designed and run as one stack."""
    rngs = [cfg.trial_rng(trial) for trial in trials]
    eff, plan = design_scheme(cfg, generate_channels(cfg, rngs))
    trace = run_round(plan, eff, 10.0, rngs, noise_on=True)
    return plan, trace, stream_sinrs(plan, 3.0)


def _assert_stack_matches(stacked, singles):
    for t, single in enumerate(singles):
        for fields, whole, one in zip((PLAN_FIELDS, TRACE_FIELDS, SINR_FIELDS), stacked, single):
            for name in fields:
                got = np.asarray(getattr(whole, name))[t]
                assert np.array_equal(got, getattr(one, name)), (t, name)


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
        # at this limit only trial 2 (guard 3.29) of trials 0-3 exceeds the
        # guardrail: it raises alone and in the stack, and the stack of the
        # other three designs and runs each of them as it runs alone
        cfg = NetworkConfig(**GUARD_CFG)
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 3.0)
        kept = [0, 1, 3]
        with pytest.raises(SchemeDesignError) as err:
            _single_runs(cfg, [2])
        assert err.value.trial == 0
        with pytest.raises(SchemeDesignError) as err:
            _stacked_run(cfg, range(4))
        assert err.value.trial == 2
        _assert_stack_matches(_stacked_run(cfg, kept), _single_runs(cfg, kept))

    def test_design_error_names_stack_position(self, monkeypatch):
        # trials 5 and 7 exceed this limit: the error names the first of them
        # by its position in the stack that was designed
        cfg = NetworkConfig(**GUARD_CFG)
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 5.0)
        for trials, position in ((range(8), 5), ([6, 7], 1), ([7, 5], 0)):
            with pytest.raises(SchemeDesignError) as err:
                _stacked_plan(cfg, trials)
            assert err.value.trial == position

    def test_generator_count_must_match_stack(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        rngs = [cfg.trial_rng(trial) for trial in range(3)]
        eff, plan = design_scheme(cfg, generate_channels(cfg, rngs))
        for wrong in (rngs[:2], rngs[0]):
            with pytest.raises(ValueError, match="one generator per trial"):
                run_round(plan, eff, 1.0, wrong, noise_on=False)


class TestLapackBudget:
    """Channel validation is the only place a channel matrix is decomposed:
    one SVD of the uplink and one of the downlink stack, whose
    pseudoinverses and condition numbers the design slices. One stacked
    design therefore takes no SVD and no QR, whatever the extension
    factor; the channels are validated again, with two more SVDs, only
    after a relay shutdown, which can lose rank."""

    CASES = [
        (4, 4, 3, 0),  # plain
        (8, 8, 8, 0),  # 7-slot extension, 56 x 56 matrices
        (3, 4, 6, 1),  # relay antennas shut down to 4
    ]

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"svd": 0, "qr": 0, "validate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        monkeypatch.setattr(
            ChannelSet, "__post_init__", counted("validate", ChannelSet.__post_init__)
        )
        return calls

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_calls_per_design(self, monkeypatch, k, m, n, validations):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7)
        rngs = [cfg.trial_rng(t) for t in range(2)]
        channels = generate_channels(cfg, rngs)
        calls = self.count_calls(monkeypatch)
        _, plan = design_scheme(cfg, channels)
        assert plan.stack_shape == (2,)
        assert calls == {"svd": 2 * validations, "qr": 0, "validate": validations}

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_calls_per_trial_path(self, monkeypatch, k, m, n, validations):
        # a stack's whole path, draw to decoded round: the draw's
        # validation is its only decomposition, unless a shutdown validates
        # the cut set again
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7)
        rngs = [cfg.trial_rng(t) for t in range(2)]
        calls = self.count_calls(monkeypatch)
        eff, plan = design_scheme(cfg, generate_channels(cfg, rngs))
        run_round(plan, eff, 10.0, rngs, noise_on=True)
        assert calls == {"svd": 2 + 2 * validations, "qr": 0, "validate": 1 + validations}

    @pytest.mark.parametrize("k,m,n,validations", CASES)
    def test_design_draws_nothing(self, k, m, n, validations):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=7)
        rngs = [cfg.trial_rng(t) for t in range(2)]
        channels = generate_channels(cfg, rngs)
        before = [g.bit_generator.state for g in rngs]
        design_scheme(cfg, channels)
        design_scheme(cfg, channels.select([1]))
        assert [g.bit_generator.state for g in rngs] == before


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


class TestMacPhase:
    def test_zero_symbols_zero_output(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        zeros = [np.zeros(plan.d, dtype=complex)] * 3
        y = mac_phase(plan, eff, zeros, P=1.0, rng=rng, noise_on=False)
        assert np.linalg.norm(y) == 0.0

    def test_aligned_superposition_identity(self):
        # noiseless relay input equals the pair-sum form through user 1's channel
        cfg, eff, plan, rng = designed(3, 3, 2, seed=8)
        s = [random_gaussian_vector(plan.d, rng) for _ in range(3)]
        y = mac_phase(plan, eff, s, P=4.0, rng=rng, noise_on=False)
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

    def test_symbol_shape_mismatch(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        bad = [np.zeros(plan.d + 1, dtype=complex)] * 3
        with pytest.raises(ValueError):
            mac_phase(plan, eff, bad, P=1.0, rng=rng, noise_on=False)

    def test_noise_without_generator_rejected(self):
        cfg, eff, plan, _ = designed(3, 3, 2)
        zeros = np.zeros((3, plan.d), dtype=complex)
        with pytest.raises(ValueError, match="generator"):
            mac_phase(plan, eff, zeros, 1.0, noise_on=True)
        with pytest.raises(ValueError, match="generator"):
            bc_phase(plan, eff, zeros[:2], 1.0, noise_on=True)


class TestRelayProcess:
    def test_recovers_pair_sums(self):
        cfg, eff, plan, rng = designed(4, 4, 3, seed=10)
        s = [random_gaussian_vector(plan.d, rng) for _ in range(4)]
        y = mac_phase(plan, eff, s, P=2.0, rng=rng, noise_on=False)
        w = relay_process(plan, y, P=2.0)
        for p in range(3):
            assert np.linalg.norm(w[p] - (s[0] + s[p + 1])) <= 1e-10

    def test_network_coded_cancellation(self):
        cfg, eff, plan, rng = designed(3, 3, 2, seed=11)
        s1 = random_gaussian_vector(plan.d, rng)
        s = [s1, -s1, random_gaussian_vector(plan.d, rng)]
        y = mac_phase(plan, eff, s, P=1.0, rng=rng, noise_on=False)
        w = relay_process(plan, y, P=1.0)
        assert np.linalg.norm(w[0]) <= 1e-10

    def test_noise_shrinks_as_sqrt_power(self):
        # fixed noise realization: the residual scales exactly like 1/sqrt(P)
        cfg, eff, plan, _ = designed(3, 3, 2, seed=12)
        s = [np.zeros(plan.d, dtype=complex)] * 3
        residuals = []
        for P in (1e2, 1e4, 1e6):
            rng = np.random.default_rng(77)
            y = mac_phase(plan, eff, s, P=P, rng=rng, noise_on=True)
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
        w[1] = random_gaussian_vector(plan.d, rng)
        y = bc_phase(plan, eff, w, P=3.0, rng=rng, noise_on=False)
        b = plan.bc_scale * np.sqrt(3.0)
        for u in range(4):
            est = [plan.rx_filter[u][p] @ y[u] / b for p in range(3)]
            assert np.linalg.norm(est[0]) <= 1e-9
            assert np.linalg.norm(est[2]) <= 1e-9
            assert np.allclose(est[1], w[1], atol=1e-9)

    def test_bc_zero_forward_zero_output(self):
        cfg, eff, plan, rng = designed(3, 3, 2)
        w = [np.zeros(plan.d, dtype=complex)] * 2
        y = bc_phase(plan, eff, w, P=1.0, rng=rng, noise_on=False)
        assert all(np.linalg.norm(v) == 0.0 for v in y)

    def test_single_pair_output_in_precoder_span(self):
        cfg, eff, plan, rng = designed(3, 3, 2, seed=15)
        w = [np.zeros(plan.d, dtype=complex)] * 2
        w[0] = random_gaussian_vector(plan.d, rng)
        y = bc_phase(plan, eff, w, P=1.0, rng=rng, noise_on=False)
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
            s = [random_gaussian_vector(plan.d, g) for _ in range(3)]
            w = [s[0] + s[p + 1] for p in range(2)]
            x_r = b * sum(plan.T[p] @ w[p] for p in range(2))
            acc += float(np.sum(np.abs(x_r) ** 2))
        assert acc / draws == pytest.approx(P, rel=0.03)

    def test_noiseless_decode_exact(self):
        cfg, eff, plan, rng = designed(4, 5, 3, seed=17)
        trace = run_round(plan, eff, P=1.0, rng=rng, noise_on=False)
        for u in range(4):
            for idx, v in enumerate(other_users(4, u)):
                err = np.linalg.norm(trace.decoded[u][idx] - trace.sent[v])
                assert err <= 1e-8 * np.linalg.norm(trace.sent[v])

    def test_zero_side_information(self):
        # a user with all-zero own symbols reads user 1's message directly
        cfg, eff, plan, rng = designed(3, 3, 2, seed=18)
        s = [random_gaussian_vector(plan.d, rng) for _ in range(3)]
        s[1] = np.zeros(plan.d, dtype=complex)
        y_r = mac_phase(plan, eff, s, P=1.0, rng=rng, noise_on=False)
        w = relay_process(plan, y_r, P=1.0)
        y = bc_phase(plan, eff, w, P=1.0, rng=rng, noise_on=False)
        decoded = user_decode(plan, y[1], 1, s[1], P=1.0)
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
        rng = cfg.trial_rng(0) if trials is None else [cfg.trial_rng(t) for t in range(trials)]
        eff, plan = design_scheme(cfg, generate_channels(cfg, rng))
        assert plan.extension_factor == L
        P = 4.0
        trace = run_round(plan, eff, P, rng, noise_on=False)
        up, down = extended(plan, eff.uplink), extended(plan, eff.downlink)
        for i in [()] if trials is None else [(t,) for t in range(trials)]:
            a = np.asarray(plan.power_scale)[i] * np.sqrt(P)
            b = np.asarray(plan.bc_scale)[i] * np.sqrt(P)
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
        alloc = build_allocation(plan, k)
        assert all(c == per_user for c in alloc.common)
        assert total_dof(alloc, k) == total == cutset_dof(k, m, n)

    def test_allocation_saturates_every_cut(self):
        cfg, eff, plan, _ = designed(4, 2, 5, seed=21)
        alloc = build_allocation(plan, 4)
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
        cfg, eff, plan, rng = designed(2, 2, 1, seed=23)
        assert plan.num_pairs == 1 and plan.d == 1
        trace = run_round(plan, eff, P=1.0, rng=rng, noise_on=False)
        assert np.allclose(trace.decoded[0][0], trace.sent[1], atol=1e-9)
        assert np.allclose(trace.decoded[1][0], trace.sent[0], atol=1e-9)

    @pytest.mark.parametrize(
        "k,m,n",
        [
            (3, 3, 2),  # d = 1
            (3, 4, 6),  # shutdown: relay 4, user 4, d = 2
            (4, 4, 4),  # 3-slot extension: relay 12, user 12, d = 4
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
        assert plan.uplink_cond.shape == plan.downlink_cond.shape == (k,)
        trace = run_round(plan, eff, P=10.0, rng=rng, noise_on=True)
        assert trace.sent.shape == (k, d)
        assert trace.relay_rx.shape == (r,)
        assert trace.relay_fwd.shape == (k - 1, d)
        assert trace.user_rx.shape == (k, u)
        assert trace.decoded.shape == (k, k - 1, d)

    def test_plan_arrays_read_only(self):
        # the plan stores the effective set's own physical decomposition;
        # the extended filters are derived, read-only too
        cfg, eff, plan, _ = designed(4, 4, 4, seed=24)
        arrays = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
        arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {"uplink_pinv", "downlink_pinv", "uplink_cond", "downlink_cond"}
        for name in arrays:
            assert np.shares_memory(arrays[name], getattr(eff, name)), name
        arrays.update({name: getattr(plan, name) for name in ("V1", "Vj", "T", "relay_filter",
                                                              "rx_filter")})
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_repeated_plan_is_broadcast_views(self):
        cfg, eff, plan, _ = designed(4, 2, 5, seed=24)
        stack = plan.repeated(3)
        assert stack.stack_shape == (3,) and stack.power_scale.shape == (3,)
        for name in PLAN_FIELDS:
            got = getattr(stack, name)
            assert not got.flags.writeable, name
            assert all(np.array_equal(g, getattr(plan, name)) for g in got), name
        assert np.shares_memory(stack.uplink_pinv, eff.uplink_pinv)
        with pytest.raises(ValueError, match="one trial"):
            stack.repeated(2)

    def test_plan_json_structure(self):
        cfg, eff, plan, _ = designed(3, 3, 2, seed=24)
        doc = plan_to_json_dict(plan)
        assert doc["d"] == 1 and doc["extension_factor"] == 1
        assert len(doc["V1"]) == 2 and len(doc["relay_filter"]) == 2
        assert len(doc["rx_filter"]) == 3 and len(doc["rx_filter"][0]) == 2
        assert len(doc["uplink_cond"]) == len(doc["downlink_cond"]) == 3
        assert not {"F", "G", "UZF", "g_cond", "user_gain_cond", "degenerate"} & doc.keys()
        entry = doc["V1"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2
