"""Tests for the alignment scheme design and the two-phase transmission chain."""

import dataclasses
import itertools
import logging
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab import linalg, ssa_nc
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


def designed(k, m, n, seed=0, trial=0):
    cfg = NetworkConfig(K=k, M=m, N=n, seed=seed)
    rng = cfg.trial_rng(trial)
    cs = generate_channels(cfg, rng)
    eff, plan = design_scheme(cfg, cs, rng)
    return cfg, eff, plan, rng


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
        assert eff.extension_factor == L
        assert eff.relay_dim == base * L
        assert eff.relay_dim == (k - 1) * d

    def test_shutdown_keeps_user_antennas(self):
        cfg = NetworkConfig(K=4, M=3, N=6, seed=1)
        cs = generate_channels(cfg, cfg.rng())
        eff, d = prepare_scheme(cfg, cs)
        assert eff.relay_dim == 3 and eff.user_dim == 3 and d == 1


class TestDesignUplink:
    def test_alignment_distance(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=2)
        rng = cfg.rng()
        cs = generate_channels(cfg, rng)
        eff, d = prepare_scheme(cfg, cs)
        V1, Vj, _ = design_uplink(eff, d, rng)
        for p in range(2):
            dist = subspace_distance(eff.uplink[0] @ V1[p], eff.uplink[p + 1] @ Vj[p])
            assert dist <= 1e-10

    def test_aligned_directions_fill_relay_space(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=3)
        rng = cfg.rng()
        eff, d = prepare_scheme(cfg, generate_channels(cfg, rng))
        V1, _, _ = design_uplink(eff, d, rng)
        cat = np.hstack([eff.uplink[0] @ v for v in V1])
        assert cat.shape == (2, 2)
        assert np.linalg.matrix_rank(cat) == 2

    def test_span_invariant_to_mixing(self):
        cfg = NetworkConfig(K=3, M=4, N=2, seed=4)
        rng = cfg.rng()
        eff, d = prepare_scheme(cfg, generate_channels(cfg, rng))
        V1, _, _ = design_uplink(eff, d, rng)
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
    """Relay zero-forcing: the relay filters that design_uplink returns."""

    def test_zero_forcing_and_mixing(self):
        # relay_filter[p] @ H_0 V1[i] = delta_pi I_d: zero-force, then unmix
        cfg = NetworkConfig(K=4, M=5, N=3, seed=5)
        rng = cfg.rng()
        eff, d = prepare_scheme(cfg, generate_channels(cfg, rng))
        V1, _, relay_filter = design_uplink(eff, d, rng)
        for p in range(3):
            assert relay_filter[p].shape == (d, 3)
            for i in range(3):
                target = np.eye(d) if i == p else np.zeros((d, d))
                got = relay_filter[p] @ eff.uplink[0] @ V1[i]
                assert np.linalg.norm(got - target) <= 1e-9

    def test_k3_unit_vector_structure(self):
        # with two pairs in a 2-dim relay space, relay_filter[0] is one row;
        # scaled to unit norm it is orthogonal to the other pair's direction
        cfg = NetworkConfig(K=3, M=3, N=2, seed=6)
        rng = cfg.rng()
        eff, d = prepare_scheme(cfg, generate_channels(cfg, rng))
        V1, _, relay_filter = design_uplink(eff, d, rng)
        row = relay_filter[0] / np.linalg.norm(relay_filter[0])
        other = eff.uplink[0] @ V1[1]
        assert row.shape == (1, 2)
        assert abs(row @ other) <= 1e-12 * np.linalg.norm(other)

    def test_independent_of_other_users_channels(self):
        # the relay filter is built from user 1's uplink and beamformers only
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        eff, d = prepare_scheme(cfg, generate_channels(cfg, cfg.rng()))
        perturbed_up = list(eff.uplink)
        h2 = perturbed_up[1].copy()
        h2[0, 0] += 0.37
        perturbed_up[1] = h2
        eff2 = ChannelSet(uplink=tuple(perturbed_up), downlink=eff.downlink)
        _, Vj, relay_filter = design_uplink(eff, d, np.random.default_rng(70))
        _, Vj2, relay_filter2 = design_uplink(eff2, d, np.random.default_rng(70))
        assert not np.allclose(Vj[0], Vj2[0])
        for p in range(2):
            assert np.array_equal(relay_filter[p], relay_filter2[p])


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
        aligned = [eff.uplink[0] @ v for v in plan.V1]
        for p in range(plan.num_pairs):
            want, cond = _zero_forcing_oracle(aligned, p)
            got = plan.relay_filter[p]
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
            assert abs(plan.g_cond[p] - cond) <= 1e-10 * cond
        for u in range(k):
            images = [eff.downlink[u] @ t for t in plan.T]
            for p in range(plan.num_pairs):
                want, cond = _zero_forcing_oracle(images, p)
                got = plan.rx_filter[u][p]
                assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
                assert abs(plan.user_gain_cond[u][p] - cond) <= 1e-10 * cond


class TestUserFilterOracle:
    """The factored user inverse inv(Tcat) kron(I_L, pinv(d_u)) against a
    direct pseudoinverse of the full downlink image D_u Tcat."""

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
        t_cat = np.hstack(plan.T)
        for u in range(k):
            want = np.linalg.pinv(eff.downlink[u] @ t_cat)
            got = np.vstack(plan.rx_filter[u])
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def _stub_design_draws(monkeypatch, degenerate):
    """Make matrix i of a trial's Gaussian draws in the scheme (counted
    from 0 per trial generator, trials numbered in the order their
    generators first draw) a matrix of ones whenever degenerate(trial, i)
    holds. Counts are per generator because a stacked design interleaves
    the trials' draws. The real draws are still taken, so every generator
    advances as it would."""
    trials = {}
    taken = {}

    def draw(count, shape, rngs):
        out = np.array(linalg.random_gaussian_stack(count, shape, rngs))
        for row, g in zip(out, rngs):
            trial = trials.setdefault(g, len(trials))
            for j in range(count):
                if degenerate(trial, taken.get(g, 0) + j):
                    row[j] = 1.0
            taken[g] = taken.get(g, 0) + count
        return out

    monkeypatch.setattr(ssa_nc, "random_gaussian_stack", draw)


def _warnings(caplog, word):
    return [r for r in caplog.records if r.levelno == logging.WARNING and word in r.getMessage()]


class TestDesignFailurePaths:
    """Fault injection: K=3, M=3, N=2 has d=1, so one design draws two V1
    columns (draws 0 and 1) and two T columns (draws 2 and 3). Two equal
    columns make the aligned or the precoder matrix rank deficient."""

    CFG = dict(K=3, M=3, N=2, seed=7)

    def test_rank_deficient_v1_resampled_once(self, monkeypatch, caplog):
        _stub_design_draws(monkeypatch, lambda trial, i: i < 2)
        report = verify_noiseless(NetworkConfig(**self.CFG), trials=1)
        assert len(_warnings(caplog, "resampling")) == 1
        assert report.noiseless_max_error <= 1e-8
        assert report.achieved_streams == report.cutset
        assert report.degenerate_draws == 0

    def test_two_rank_deficient_draws_raise_with_trial_and_seed(self, monkeypatch, caplog):
        # both of trial 1's V1 attempts (its draws 0-3) are degenerate
        _stub_design_draws(monkeypatch, lambda trial, i: trial == 1 and i < 4)
        with pytest.raises(SchemeDesignError, match=r"trial 1 \(seed 7\): aligned pair"):
            verify_noiseless(NetworkConfig(**self.CFG), trials=2)
        assert len(_warnings(caplog, "resampling")) == 1
        assert len(_warnings(caplog, "giving up")) == 1

    def test_rank_deficient_precoders_raise(self, monkeypatch):
        cfg = NetworkConfig(**self.CFG)
        eff, _ = prepare_scheme(cfg, generate_channels(cfg, cfg.rng()))
        _stub_design_draws(monkeypatch, lambda trial, i: True)
        with pytest.raises(SchemeDesignError, match="precoders are rank deficient"):
            design_downlink(eff, cfg.rng())

    def test_downlink_on_unprepared_shutdown_set_raises(self):
        cfg = NetworkConfig(K=3, M=2, N=4, seed=7)
        cs = generate_channels(cfg, cfg.rng())
        with pytest.raises(SchemeDesignError, match="user dimension 2 >= relay dimension 4"):
            design_downlink(cs, cfg.rng())

    def test_downlink_on_unextended_uneven_set_rejected(self):
        # relay dimension 3 does not split over K-1 = 2 pairs without extension
        cfg = NetworkConfig(K=3, M=3, N=3, seed=7)
        cs = generate_channels(cfg, cfg.rng())
        with pytest.raises(ValueError, match="split evenly"):
            design_downlink(cs, cfg.rng())

    def test_conditioning_guardrail_flags_and_counts_degenerate(self, monkeypatch, caplog):
        # every condition number is at least 1, so each plan is redrawn once
        # and the redrawn plan exceeds the limit too: two warnings per trial,
        # of which only the first announces a redraw
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 0.5)
        report = verify_noiseless(NetworkConfig(**self.CFG), trials=3)
        assert report.degenerate_draws == 3
        assert len(_warnings(caplog, "guardrail")) == 6
        assert len(_warnings(caplog, "redrawing")) == 3
        assert report.noiseless_max_error <= 1e-8


PLAN_FIELDS = (
    "V1", "Vj", "T", "relay_filter", "rx_filter", "g_cond", "user_gain_cond",
    "power_scale", "bc_scale", "degenerate",
)
TRACE_FIELDS = ("sent", "relay_rx", "relay_fwd", "user_rx", "decoded")
SINR_FIELDS = ("mac", "bc", "end_to_end")


def _single_runs(cfg, trials):
    """(plan, noisy trace, SINRs) of each trial designed and run alone."""
    runs = []
    for trial in range(trials):
        rng = cfg.trial_rng(trial)
        eff, plan = design_scheme(cfg, generate_channels(cfg, rng), rng)
        trace = run_round(plan, eff, 10.0, rng, noise_on=True)
        runs.append((plan, trace, stream_sinrs(plan, 3.0)))
    return runs


def _stacked_run(cfg, trials):
    """(plan, noisy trace, SINRs) of the trials designed and run as one stack."""
    rngs = [cfg.trial_rng(trial) for trial in range(trials)]
    eff, plan = design_scheme(cfg, generate_channels(cfg, rngs), rngs)
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
        plan, trace, _ = stacked = _stacked_run(cfg, 3)
        assert plan.stack_shape == (3,) and trace.decoded.shape[0] == 3
        _assert_stack_matches(stacked, _single_runs(cfg, 3))

    def test_resample_and_redraw_touch_only_their_trials(self, monkeypatch, caplog):
        # trial 2's first V1 draw is degenerate and resampled; at this limit
        # only trial 3's first plan (worst condition number 11.5, the others
        # at most 9.9) exceeds the guardrail and is redrawn
        cfg = NetworkConfig(K=3, M=4, N=3, seed=7)
        monkeypatch.setattr(ssa_nc, "COND_LIMIT", 10.5)
        _stub_design_draws(monkeypatch, lambda trial, i: trial == 2 and i < 2)
        singles = _single_runs(cfg, 4)
        assert [plan.degenerate for plan, _, _ in singles] == [False, False, False, True]
        _stub_design_draws(monkeypatch, lambda trial, i: trial == 2 and i < 2)
        stacked = _stacked_run(cfg, 4)
        assert len(_warnings(caplog, "resampling")) == 2
        assert len(_warnings(caplog, "redrawing")) == 2
        _assert_stack_matches(stacked, singles)

    def test_design_error_names_stack_position(self, monkeypatch):
        _stub_design_draws(monkeypatch, lambda trial, i: trial == 2 and i < 4)
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        rngs = [cfg.trial_rng(trial) for trial in range(4)]
        with pytest.raises(SchemeDesignError) as err:
            design_scheme(cfg, generate_channels(cfg, rngs), rngs)
        assert err.value.trial == 2

    def test_generator_count_must_match_stack(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=7)
        rngs = [cfg.trial_rng(trial) for trial in range(3)]
        channels = generate_channels(cfg, rngs)
        with pytest.raises(ValueError, match="one generator per trial"):
            design_scheme(cfg, channels, rngs[:2])
        with pytest.raises(ValueError, match="one generator per trial"):
            design_scheme(cfg, channels, rngs[0])


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
        assert (r, u) == (eff.relay_dim, eff.user_dim)
        assert plan.V1.shape == plan.Vj.shape == (k - 1, u, d)
        assert plan.T.shape == (k - 1, r, d)
        assert plan.relay_filter.shape == (k - 1, d, r)
        assert plan.rx_filter.shape == (k, k - 1, d, u)
        assert plan.g_cond.shape == (k - 1,)
        assert plan.user_gain_cond.shape == (k, k - 1)
        trace = run_round(plan, eff, P=10.0, rng=rng, noise_on=True)
        assert trace.sent.shape == (k, d)
        assert trace.relay_rx.shape == (r,)
        assert trace.relay_fwd.shape == (k - 1, d)
        assert trace.user_rx.shape == (k, u)
        assert trace.decoded.shape == (k, k - 1, d)

    def test_plan_arrays_read_only(self):
        cfg, eff, plan, _ = designed(4, 4, 4, seed=24)
        arrays = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
        arrays = {name: a for name, a in arrays.items() if isinstance(a, np.ndarray)}
        assert set(arrays) == {
            "V1", "Vj", "T", "relay_filter", "rx_filter", "g_cond", "user_gain_cond"
        }
        for name, a in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 0

    def test_plan_json_structure(self):
        cfg, eff, plan, _ = designed(3, 3, 2, seed=24)
        doc = plan_to_json_dict(plan)
        assert doc["d"] == 1 and doc["extension_factor"] == 1
        assert len(doc["V1"]) == 2 and len(doc["relay_filter"]) == 2
        assert len(doc["rx_filter"]) == 3 and len(doc["rx_filter"][0]) == 2
        assert not {"F", "G", "UZF"} & doc.keys()
        entry = doc["V1"][0][0][0]
        assert isinstance(entry, list) and len(entry) == 2
