"""Tests for noiseless verification, SINR computation, and slope estimation."""

import dataclasses
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrc_dof_lab.analysis import (
    REPORT_COLUMNS,
    DofReport,
    decode_mse_sweep,
    draw_trials,
    format_number,
    report_csv_row,
    simulate_report,
    stream_sinrs,
    sweep_reports,
    validate_power_grid,
    verify_noiseless,
)
from mrc_dof_lab.bounds import bound_row, cutset_dof
from mrc_dof_lab.channel import (
    ChannelSet,
    NetworkConfig,
    generate_channels,
    load_channels,
    save_channels,
)
from mrc_dof_lab import analysis, bounds, channel, ssa_nc
from mrc_dof_lab.ssa_nc import design_scheme, run_round

GRID = [1e2, 1e3, 1e4, 1e5, 1e6]


def nan_rounds(monkeypatch):
    """Make every round decode NaN symbols."""
    real = ssa_nc.run_round

    def nan_round(*args, **kwargs):
        trace = real(*args, **kwargs)
        return dataclasses.replace(trace, decoded=np.full_like(trace.decoded, np.nan))

    monkeypatch.setattr(ssa_nc, "run_round", nan_round)


def redesigned_mse(cfg, trials):
    """Per-symbol decode MSE at unit power, each trial designed alone from
    a fresh trial generator: its mean error variance, summed in trial
    order, over the trials."""
    acc = 0.0
    for trial in range(trials):
        channels, _, _ = draw_trials(cfg, cfg.trial_rng(trial))
        acc += analysis.decode_error_variance(design_scheme(cfg, channels)).mean()
    return acc / trials


def round_mse(cfg, trials, P):
    """Per-symbol decode MSE of noisy rounds at power P, each trial
    designed alone: the exact expectation over CN(0, I) noise, from the
    rounds themselves. A round is linear in its noise, so with zero
    symbols each unit noise vector's round decodes one column of the
    trial's error map, and an entry's variance is its row's squared norm."""
    acc = 0.0
    for trial in range(trials):
        channels, sent, _ = draw_trials(cfg, cfg.trial_rng(trial))
        plan = design_scheme(cfg, channels)
        n, m = plan.effective_N, plan.effective_M
        basis = np.eye(n + cfg.K * m, dtype=complex)
        zero = np.zeros((len(basis),) + sent.shape, dtype=complex)
        noise = (basis[:, :n], basis[:, n:].reshape(-1, cfg.K, m))
        decoded = run_round(plan, P, zero, noise).decoded
        acc += np.mean(np.sum(np.abs(decoded) ** 2, axis=0))
    return acc / trials


def trial_stacks(group, trials, channels=None):
    """(plan, sent) of each stack of a group of configurations."""
    return [(plan, sent) for _, plan, sent in analysis._stacks([tuple(group)], trials, channels)]


def plan_for(k, m, n, seed=0):
    cfg = NetworkConfig(K=k, M=m, N=n, seed=seed)
    rng = cfg.trial_rng(0)
    cs = generate_channels(cfg, rng)
    return design_scheme(cfg, cs)


class TestVerifyNoiseless:
    def test_3_3_2(self):
        rep = verify_noiseless(NetworkConfig(K=3, M=3, N=2, seed=1), 25)
        assert rep.achieved_streams == 6 == rep.cutset
        assert rep.noiseless_max_error <= 1e-8
        assert rep.L == 1 and rep.d == 1

    def test_5_5_4(self):
        rep = verify_noiseless(NetworkConfig(K=5, M=5, N=4, seed=2), 10)
        assert rep.achieved_streams == 20 == cutset_dof(5, 5, 4)
        assert rep.noiseless_max_error <= 1e-8

    def test_k2_two_way_relay(self):
        rep = verify_noiseless(NetworkConfig(K=2, M=2, N=1, seed=3), 10)
        assert rep.achieved_streams == 2
        assert rep.private_only is None
        assert "degenerate" in rep.notes

    def test_error_invariant_to_power(self):
        # the audit runs at unit power; the same symbols through the same
        # plan decode exactly, to the rounding floor, at any other power
        plan = plan_for(3, 3, 2, seed=4)
        senders = ssa_nc.sender_table(3)
        sent = draw_trials(NetworkConfig(K=3, M=3, N=2), np.random.default_rng(4), plan.channels)[1]

        def worst_error(P):
            trace = run_round(plan, P, sent)
            return float(np.max(np.abs(trace.decoded - trace.sent[senders])))

        assert worst_error(1.0) <= 1e-12
        assert worst_error(1e6) <= 1e-12

    def test_fixed_channels_reused(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=5)
        cs = generate_channels(cfg, np.random.default_rng(cfg.seed))
        rep = verify_noiseless(cfg, 5, channels=cs)
        assert rep.noiseless_max_error <= 1e-8

    def test_loaded_channels_give_every_trial_one_plan(self, tmp_path):
        # the design draws nothing, so a fixed set's one-trial plan serves
        # every trial of a stack and only the symbol draws differ; the
        # errors and the report are those of a stack of identical trials,
        # each designed from a copy of the set
        cfg = NetworkConfig(K=4, M=4, N=3, seed=5)
        path = str(tmp_path / "channels.json")
        save_channels(generate_channels(cfg, np.random.default_rng(cfg.seed)), path)
        loaded = load_channels(path)
        [(plan, sent)] = trial_stacks([cfg], 4, loaded)
        assert plan.stack_shape == () and sent.shape[0] == 4
        assert not any(np.array_equal(s, sent[0]) for s in sent[1:])
        copies = ChannelSet(uplink=np.stack([loaded.uplink] * 4),
                            downlink=np.stack([loaded.downlink] * 4))
        want = analysis._noiseless_round_errors(design_scheme(cfg, copies), sent)
        assert np.array_equal(analysis._noiseless_round_errors(plan, sent), want)
        assert verify_noiseless(cfg, 4, channels=loaded).noiseless_max_error == want.max()

    def test_nan_round_reports_nan(self, monkeypatch):
        nan_rounds(monkeypatch)
        rep = verify_noiseless(NetworkConfig(K=3, M=3, N=2, seed=5), 3)
        assert np.isnan(rep.noiseless_max_error)

    def test_loaded_channels_are_designed_once(self, monkeypatch, tmp_path):
        # a loaded 3/4/6 set loses two relay antennas: one design and one
        # validation of that single trial serve all 100 trials, and every
        # stack yields that one plan as it was designed
        cfg = NetworkConfig(K=3, M=4, N=6, seed=5)
        path = str(tmp_path / "channels.json")
        save_channels(generate_channels(cfg, np.random.default_rng(cfg.seed)), path)
        loaded = load_channels(path)
        designs, validations = [], []
        design, validate = ssa_nc.design_scheme, ChannelSet.__post_init__

        def counted_design(config, channels):
            designs.append(channels.stack_shape)
            return design(config, channels)

        def counted_validate(cs):
            validate(cs)
            validations.append(cs.stack_shape)

        monkeypatch.setattr(ssa_nc, "design_scheme", counted_design)
        monkeypatch.setattr(ChannelSet, "__post_init__", counted_validate)
        # 3 * 4 * 4 stored entries per trial: 30 trials per stack
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 48 * 30)
        assert verify_noiseless(cfg, 100, channels=loaded).noiseless_max_error <= 1e-8
        assert designs == [()] and validations == [()]
        stacks = trial_stacks([cfg], 100, loaded)
        assert designs == [(), ()] and validations == [(), ()]
        assert [len(sent) for _, sent in stacks] == [30] * 3 + [10]
        plan = stacks[0][0]
        assert plan.stack_shape == () and plan.channels.relay_dim == 4
        assert all(p is plan for p, _ in stacks)


class TestStreamSinrs:
    def test_shapes(self):
        plan = plan_for(4, 4, 3, seed=6)
        s = stream_sinrs(plan, 10.0)
        assert s.mac.shape == (3, 1)
        assert s.bc.shape == (4, 3, 1)
        assert s.end_to_end.shape == (4, 3, 1)
        assert s.flat().size == 12

    def test_min_of_phases(self):
        plan = plan_for(3, 3, 2, seed=7)
        s = stream_sinrs(plan, 5.0)
        assert np.all(s.end_to_end <= s.bc + 1e-12)
        for u in range(3):
            assert np.all(s.end_to_end[u] <= s.mac + 1e-12)

    @pytest.mark.parametrize("trials", [None, 4], ids=["single", "stacked"])
    def test_min_reads_both_phases(self, trials):
        # at seed 1 the MAC SINR is the smaller one for some streams and
        # the BC SINR for the others, so the minimum must read both
        cfg = NetworkConfig(K=3, M=3, N=2, seed=1)
        rng = cfg.trial_rng(0) if trials is None else cfg.trial_streams(range(trials))
        s = stream_sinrs(design_scheme(cfg, generate_channels(cfg, rng)), 5.0)
        mac = s.mac[..., np.newaxis, :, :]
        assert (mac < s.bc).any() and (s.bc < mac).any()
        assert np.array_equal(s.end_to_end, np.minimum(s.bc, mac))

    def test_exact_homogeneity_in_power(self):
        plan = plan_for(3, 3, 2, seed=8)
        s1 = stream_sinrs(plan, 3.0)
        s10 = stream_sinrs(plan, 30.0)
        assert np.allclose(s10.mac, 10.0 * s1.mac, rtol=1e-14, atol=0.0)
        assert np.allclose(s10.bc, 10.0 * s1.bc, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k,m,n", [(4, 4, 3), (3, 4, 6), (8, 8, 8)])
    @pytest.mark.parametrize("trials", [None, 3], ids=["single", "stacked"])
    def test_equals_extended_filter_rows(self, k, m, n, trials):
        # the physical row norms give the extended filters' noise powers,
        # bit for bit: every relay filter row is an identity row, every user
        # filter row a row of pinv(d_u) placed in one slot
        cfg = NetworkConfig(K=k, M=m, N=n, seed=11)
        rng = cfg.trial_rng(0) if trials is None else cfg.trial_streams(range(trials))
        plan = design_scheme(cfg, generate_channels(cfg, rng))
        P = 7.0
        a2 = np.asarray(plan.power_scale) ** 2 * P
        b2 = np.asarray(plan.bc_scale) ** 2 * P
        mac = 2.0 * a2[..., None, None] / analysis._row_power(plan.relay_filter)
        bc = 2.0 * b2[..., None, None, None] / analysis._row_power(plan.rx_filter)
        got = stream_sinrs(plan, P)
        assert np.array_equal(got.mac, mac) and np.array_equal(got.bc, bc)

    def test_vanishes_with_power(self):
        plan = plan_for(3, 3, 2, seed=9)
        assert float(stream_sinrs(plan, 1e-12).flat().max()) < 1e-6

    def test_matches_monte_carlo(self):
        # brute-force noise-draw oracle: empirical signal power over
        # empirical shaped-noise power, 1e5 draws, within 5 percent
        plan = plan_for(3, 3, 2, seed=10)
        P = 10.0
        cf = stream_sinrs(plan, P)
        g = np.random.default_rng(99)
        draws = 10**5
        halves = np.sqrt(2.0)
        s1 = (g.standard_normal((plan.d, draws)) + 1j * g.standard_normal((plan.d, draws))) / halves
        s2 = (g.standard_normal((plan.d, draws)) + 1j * g.standard_normal((plan.d, draws))) / halves
        sig = np.mean(np.abs(s1 + s2) ** 2, axis=1)
        a = plan.power_scale * np.sqrt(P)
        z = (
            g.standard_normal((plan.effective_N, draws))
            + 1j * g.standard_normal((plan.effective_N, draws))
        ) / halves
        for p in range(plan.num_pairs):
            noise = np.mean(np.abs(plan.relay_filter[p] @ z / a) ** 2, axis=1)
            assert sig / noise == pytest.approx(cf.mac[p], rel=0.05)
        b = plan.bc_scale * np.sqrt(P)
        zu = (
            g.standard_normal((plan.effective_M, draws))
            + 1j * g.standard_normal((plan.effective_M, draws))
        ) / halves
        for u in range(3):
            for p in range(plan.num_pairs):
                noise = np.mean(np.abs(plan.rx_filter[u][p] @ zu / b) ** 2, axis=1)
                assert sig / noise == pytest.approx(cf.bc[u, p], rel=0.05)


class TestSlopeEstimation:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            validate_power_grid([1.0, 2.0])
        with pytest.raises(ValueError):
            validate_power_grid([1e2, 1e2, 1e3])
        with pytest.raises(ValueError):
            validate_power_grid([1.0, 5.0, 10.0])

    @pytest.mark.parametrize(
        "grid", [[1e2, float("nan"), 1e6], [1e2, 1e4, float("inf")]], ids=["nan", "inf"]
    )
    def test_non_finite_grid_rejected(self, grid):
        with pytest.raises(ValueError, match="powers must be finite"):
            simulate_report(NetworkConfig(K=3, M=3, N=2, seed=11), grid, 3)

    def test_two_way_relay_slope(self):
        cfg = NetworkConfig(K=2, M=1, N=1, seed=11)
        rep = simulate_report(cfg, GRID, 50)
        assert rep.slope_estimate == pytest.approx(2.0, rel=0.05)
        assert rep.slope_stderr >= 0.0

    def test_half_duplex_halves_exactly(self):
        full = NetworkConfig(K=3, M=3, N=2, seed=12, duplex_factor=1.0)
        half = NetworkConfig(K=3, M=3, N=2, seed=12, duplex_factor=0.5)
        s_full = simulate_report(full, GRID, 10).slope_estimate
        s_half = simulate_report(half, GRID, 10).slope_estimate
        assert s_half == 0.5 * s_full

    def test_slope_never_exceeds_bound(self):
        for k, m, n in [(3, 3, 2), (3, 4, 3), (4, 4, 3)]:
            cfg = NetworkConfig(K=k, M=m, N=n, seed=13)
            slope = simulate_report(cfg, GRID, 20).slope_estimate
            assert slope <= cutset_dof(k, m, n) * 1.05

    @pytest.mark.parametrize("k,m,n", [(4, 8, 8), (8, 8, 8)])
    def test_large_configs_reach_cutset(self, k, m, n):
        # with identity relay-side subspaces the plan's conditioning is the
        # channel's, and the finite-grid slope meets the cut-set within 3%
        # even where the affine power offset is largest
        slope = simulate_report(NetworkConfig(K=k, M=m, N=n, seed=42), GRID, 20).slope_estimate
        cutset = cutset_dof(k, m, n)
        assert abs(slope - cutset) <= 0.03 * cutset

    @pytest.mark.parametrize(
        "k,m,n,duplex,trials",
        [(4, 4, 3, 1.0, 7), (3, 4, 3, 0.5, 5), (4, 2, 5, 1.0, 1)],
    )
    def test_fit_equals_loop_reference(self, k, m, n, duplex, trials):
        # the broadcast fit against the per-trial, per-power loops it replaced
        cfg = NetworkConfig(K=k, M=m, N=n, seed=28, duplex_factor=duplex)
        stacks = trial_stacks([cfg], trials)
        gammas = np.concatenate([stream_sinrs(plan, 1.0).flat() for plan, _ in stacks])
        grid = np.asarray(GRID)
        top = grid[-4:]
        x = np.log2(top)
        L = ssa_nc.extension_plan(k, m, n)[1]

        def ols(y):
            xc = x - x.mean()
            return float(np.dot(xc, y) / np.dot(xc, xc))

        def curve(gamma):
            return np.array([duplex * float(np.sum(np.log2(1.0 + gamma * p))) / L for p in top])

        want = ols(curve(gammas.mean(axis=0)))
        per_trial = [ols(curve(g)) for g in gammas]
        want_err = float(np.std(per_trial, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
        slope, stderr = analysis._fit_slope(cfg, grid, gammas)
        assert abs(slope - want) <= 1e-12 * abs(want)
        if trials == 1:
            assert stderr == want_err == 0.0
        else:
            # per-trial slopes that agree to delta = 1e-12 max|slope| move the
            # ddof=1 std by at most sqrt(n) delta / sqrt(n - 1), as the std is
            # that multiple of the 2-norm of the centred slopes, and the
            # stderr, std / sqrt(n), by at most delta / sqrt(n - 1)
            delta = 1e-12 * max(abs(y) for y in per_trial)
            assert abs(stderr - want_err) <= delta / np.sqrt(trials - 1)


class TestMseSweep:
    def test_monotone_decreasing(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=14)
        mse = decode_mse_sweep(cfg, [1e2, 1e3, 1e4], 20)
        assert np.all(np.diff(mse) < 0)

    def test_seeds_give_independent_sweeps(self):
        # seeds 0-7 share no trial stream, so their MSEs differ; streams
        # seeded by seed ^ trial would run one set of 8 trials in 8 orders
        configs = [NetworkConfig(K=3, M=3, N=2, seed=s) for s in range(8)]
        assert len({decode_mse_sweep(cfg, [1.0], 8)[0] for cfg in configs}) == 8

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3)])
    def test_equals_redesign_per_power(self, k, m, n):
        # reference: redesign every trial from a fresh trial generator and
        # scale its unit-power variances by 1/P; one design per stack must
        # give the same bits
        grid = [1e2, 1e4, 1e6]
        cfg = NetworkConfig(K=k, M=m, N=n, seed=26)
        expected = np.array([redesigned_mse(cfg, 4) / P for P in grid])
        assert np.array_equal(decode_mse_sweep(cfg, grid, 4), expected)

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3), (4, 2, 5)])
    def test_equals_rounds_at_each_power(self, k, m, n):
        # the scaled unit-power variances against the noise expectation of
        # the rounds run at each P
        grid = [1e2, 1e3, 1e4, 1e5, 1e6]
        cfg = NetworkConfig(K=k, M=m, N=n, seed=26)
        expected = np.array([round_mse(cfg, 4, P) for P in grid])
        assert np.allclose(decode_mse_sweep(cfg, grid, 4), expected, rtol=1e-12, atol=0.0)

    def test_no_round_one_variance_per_stack(self, monkeypatch):
        # 3/3/2 holds 18 user filter entries per trial: three trials per
        # stack. The sweep draws each stack without noise and reads its
        # variances off the plan: no round, no noise
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 54)

        def no_round(*args, **kwargs):
            raise AssertionError("the MSE sweep ran a round")

        draws, stacks = [], []
        real_draw, real_variance = analysis._draw, analysis.decode_error_variance

        def drawn(stacks, cut, channels=None, noise=False):
            draws.append(noise)
            return real_draw(stacks, cut, channels, noise)

        def variance(plan):
            stacks.append(plan.stack_shape)
            return real_variance(plan)

        monkeypatch.setattr(ssa_nc, "run_round", no_round)
        monkeypatch.setattr(analysis, "_draw", drawn)
        monkeypatch.setattr(analysis, "decode_error_variance", variance)
        decode_mse_sweep(NetworkConfig(K=3, M=3, N=2, seed=14), GRID, 5)
        assert draws == [False, False] and stacks == [(3,), (2,)]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            decode_mse_sweep(NetworkConfig(K=3, M=3, N=2, seed=14), [1e2, 1e3, 1e4], 0)

    @pytest.mark.parametrize(
        "run,nan_grid_error",
        [
            (lambda cfg, grid, trials: verify_noiseless(cfg, trials), "trials"),
            (
                lambda cfg, grid, trials: verify_noiseless(
                    cfg, trials, generate_channels(cfg, cfg.trial_rng(0))
                ),
                "trials",
            ),
            (simulate_report, "finite"),
            (decode_mse_sweep, "finite"),
        ],
        ids=["verify", "verify-given-set", "simulate", "mse"],
    )
    def test_every_entry_point_rejects_zero_trials(self, monkeypatch, run, nan_grid_error):
        # one check, before any design; an entry point with a grid checks it first
        def no_design(*args, **kwargs):
            raise AssertionError("designed before the trial count was checked")

        cfg = NetworkConfig(K=3, M=3, N=2, seed=14)
        monkeypatch.setattr(ssa_nc, "design_scheme", no_design)
        with pytest.raises(ValueError, match="trials must be positive"):
            run(cfg, GRID, 0)
        with pytest.raises(ValueError, match=nan_grid_error):
            run(cfg, [float("nan"), 1e3, 1e4], 0)

    @pytest.mark.parametrize("trials", [True, 2.5, 3.0, "3", np.float64(2.0), None],
                             ids=["true", "2.5", "3.0", "str", "float64", "none"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg, trials: verify_noiseless(cfg, trials),
            lambda cfg, trials: simulate_report(cfg, GRID, trials),
            lambda cfg, trials: sweep_reports([cfg], trials),
            lambda cfg, trials: decode_mse_sweep(cfg, GRID, trials),
        ],
        ids=["verify", "simulate", "sweep", "mse"],
    )
    def test_every_entry_point_rejects_non_integer_trials(self, monkeypatch, run, trials):
        # a trial count is an int or numpy integer, not a bool, checked
        # before any draw: True would run one trial and report trials=True
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before the trial count was checked")

        monkeypatch.setattr(channel, "_fill", no_draw)
        message = re.escape(f"trials must be an integer, not {trials!r}")
        with pytest.raises(ValueError, match=message):
            run(NetworkConfig(K=3, M=3, N=2, seed=14), trials)

    def test_numpy_integer_trials_are_a_count(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=14)
        report = verify_noiseless(cfg, np.int64(3))
        assert type(report.trials) is int and report == verify_noiseless(cfg, 3)
        assert np.array_equal(decode_mse_sweep(cfg, GRID, np.uint8(3)),
                              decode_mse_sweep(cfg, GRID, 3))

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([], "empty"),
            ([float("nan"), 1e3, 1e4], "finite"),
            ([1e2, float("inf")], "finite"),
            ([1e2, 0.0, 1e4], "positive"),
        ],
    )
    def test_rejects_bad_grid_before_any_design(self, monkeypatch, grid, message):
        def no_design(*args, **kwargs):
            raise AssertionError("designed before the grid was checked")

        monkeypatch.setattr(ssa_nc, "design_scheme", no_design)
        with pytest.raises(ValueError, match=message):
            decode_mse_sweep(NetworkConfig(K=3, M=3, N=2, seed=14), grid, 2)


class TestPhysicalTrialPath:
    """Rounds, SINRs and stacks read the plan at physical size: nothing on
    the trial path builds an extended filter."""

    @pytest.mark.parametrize("k,m,n", [(8, 8, 8), (4, 4, 3)])
    def test_runs_without_extended_filters(self, monkeypatch, k, m, n):
        def refuse(*args):
            raise AssertionError("extended filter built on the trial path")

        monkeypatch.setattr(ssa_nc, "_kron_eye", refuse)
        for name in ("V1", "Vj", "T", "relay_filter", "rx_filter"):
            monkeypatch.setattr(ssa_nc.SchemePlan, name, property(refuse))
        cfg = NetworkConfig(K=k, M=m, N=n, seed=12)
        assert verify_noiseless(cfg, 3).noiseless_max_error <= 1e-8
        assert simulate_report(cfg, GRID, 3).noiseless_max_error <= 1e-8
        assert np.all(np.isfinite(decode_mse_sweep(cfg, GRID, 3)))
        plan = design_scheme(cfg, generate_channels(cfg, np.random.default_rng(cfg.seed)))
        with pytest.raises(AssertionError, match="extended filter"):
            plan.rx_filter

    def test_batch_invariant_at_full_extension(self, monkeypatch):
        # L = K-1 at 8/8/8: one trial per stack and the default stack give
        # the same per-trial errors and MSE, bit for bit
        cfg = NetworkConfig(K=8, M=8, N=8, seed=13)

        def run():
            stacks = trial_stacks([cfg], 6)
            errors = [analysis._noiseless_round_errors(plan, sent) for plan, sent in stacks]
            return np.concatenate(errors), decode_mse_sweep(cfg, GRID, 6)

        errors, mse = run()
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 1)
        assert analysis._stack_size(cfg) == 1
        one_errors, one_mse = run()
        assert np.array_equal(errors, one_errors) and np.array_equal(mse, one_mse)

    @pytest.mark.parametrize("k,m,n", [(4, 4, 3), (5, 3, 4), (3, 4, 6)])
    def test_audit_equals_the_row_norm_formula(self, monkeypatch, k, m, n):
        # the audit gathers the sent symbols once and takes each message's
        # norm: bit for bit the norms of the sent rows, gathered afterwards
        cfg = NetworkConfig(K=k, M=m, N=n, seed=14)
        ((plan, sent),) = trial_stacks([cfg], 4)
        traces = []
        real = ssa_nc.run_round

        def recorded(*args, **kwargs):
            traces.append(real(*args, **kwargs))
            return traces[-1]

        monkeypatch.setattr(ssa_nc, "run_round", recorded)
        got = analysis._noiseless_round_errors(plan, sent)
        (trace,) = traces
        senders = np.array([[v for v in range(k) if v != u] for u in range(k)])
        sent_norm = np.linalg.norm(trace.sent, axis=-1)[..., senders]
        err = np.sqrt(np.sum(np.abs(trace.decoded - trace.sent[..., senders, :]) ** 2, axis=-1))
        oracle = np.max(err / np.maximum(sent_norm, 1e-300), axis=(-2, -1))
        assert got.shape == (4,) and got.tobytes() == oracle.tobytes()

    def test_stack_size_counts_stored_entries(self):
        # K * min(N, M) * M stored entries per trial, whatever the extension
        assert analysis._stack_size(NetworkConfig(K=8, M=8, N=8)) == 64
        assert analysis._stack_size(NetworkConfig(K=3, M=4, N=6)) == 2**15 // 48


class LoggedGenerator(np.random.Generator):
    """A generator that logs each standard_normal call as the (seed,
    trial) key of the stream it reads, and whether it reads that stream
    from its start: counter 0 and an empty buffer."""

    log: list

    def standard_normal(self, *args, **kwargs):
        state = self.bit_generator.state
        seed, trial = state["state"]["key"].tolist()
        fresh = not state["state"]["counter"].any() and state["buffer_pos"] == 4
        self.log.append((seed, trial, fresh))
        return super().standard_normal(*args, **kwargs)


class TestOneDrawPerTrial:
    """Every entry point, called cold, reads each trial's stream once,
    from its start, in one standard_normal call: channel and symbols come
    from one call. The analysis opens no ``trial_rng`` stream and builds
    one Philox per ``channel._fill`` call. The MSE sweep after a noiseless
    pass reads, validates and designs nothing for the stack whose plan it
    takes."""

    @staticmethod
    def reads(monkeypatch):
        """Log every standard_normal call of the readers by its stream's
        key, and count the reads (``channel._fill`` calls, which every
        draw makes) and the Philox generators built; any
        trial_rng call fails. 4/4/3 stores 4 * 3 * 4 entries per trial:
        stacks of 2, 2 and 1 trials, each a batch of its own."""
        log, counts = [], {"read": 0, "philox": 0}
        real_read, real_philox = channel._fill, np.random.Philox

        def read(segments):
            counts["read"] += 1
            return real_read(segments)

        def philox(*args, **kwargs):
            counts["philox"] += 1
            return real_philox(*args, **kwargs)

        def no_trial_rng(config, trial):
            raise AssertionError(f"trial {trial} opened through trial_rng")

        monkeypatch.setattr(LoggedGenerator, "log", log, raising=False)
        monkeypatch.setattr(np.random, "Generator", LoggedGenerator)
        monkeypatch.setattr(np.random, "Philox", philox)
        monkeypatch.setattr(channel, "_fill", read)
        monkeypatch.setattr(NetworkConfig, "trial_rng", no_trial_rng)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 48 * 2)
        return log, counts

    @staticmethod
    def per_trial(log, seed):
        """Reads per trial; each from its stream's start, under the seed."""
        assert all(s == seed and fresh for s, _, fresh in log)
        trials = [t for _, t, _ in log]
        return {t: trials.count(t) for t in trials}

    @staticmethod
    def built(monkeypatch):
        """The stack shape of each ChannelSet validated and of each
        design_scheme call from here on."""
        sets, designs = [], []
        real_set, real_design = ChannelSet.__post_init__, ssa_nc.design_scheme

        def validated(self):
            sets.append(np.shape(self.uplink)[:-3])
            real_set(self)

        def designed(config, channels):
            designs.append(channels.stack_shape)
            return real_design(config, channels)

        monkeypatch.setattr(ChannelSet, "__post_init__", validated)
        monkeypatch.setattr(ssa_nc, "design_scheme", designed)
        return sets, designs

    @pytest.mark.parametrize("reciprocal", [True, False], ids=["rec", "nonrec"])
    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg, trials, given: verify_noiseless(cfg, trials),
            lambda cfg, trials, given: verify_noiseless(cfg, trials, given),
            lambda cfg, trials, given: simulate_report(cfg, GRID, trials),
            lambda cfg, trials, given: decode_mse_sweep(cfg, GRID, trials),
        ],
        ids=["verify", "verify-given-set", "simulate", "mse"],
    )
    def test_one_standard_normal_call_per_trial(self, monkeypatch, run, reciprocal):
        cfg = NetworkConfig(K=4, M=4, N=3, seed=21, reciprocal=reciprocal)
        given = generate_channels(cfg, np.random.default_rng(3))
        log, counts = self.reads(monkeypatch)
        run(cfg, 5, given)
        assert self.per_trial(log, 21) == dict.fromkeys(range(5), 1)
        assert counts == {"read": 3, "philox": 3}

    @pytest.mark.parametrize("reciprocal", [True, False], ids=["rec", "nonrec"])
    def test_simulate_then_mse_reads_each_trial_once(self, monkeypatch, reciprocal):
        # each pass reads a trial at most once: the sweep draws the stacks
        # before the last one again, and takes the last one's plan (trial
        # 4) without reading, validating or designing it
        cfg = NetworkConfig(K=4, M=4, N=3, seed=21, reciprocal=reciprocal)
        log, counts = self.reads(monkeypatch)
        simulate_report(cfg, GRID, 5)
        assert self.per_trial(log, 21) == dict.fromkeys(range(5), 1)
        log.clear()
        sets, designs = self.built(monkeypatch)
        decode_mse_sweep(cfg, GRID, 5)
        assert self.per_trial(log, 21) == dict.fromkeys(range(4), 1)
        assert sets == designs == [(2,), (2,)]
        assert counts == {"read": 5, "philox": 5}

    @pytest.mark.parametrize("elements,batches", [(2**15, 1), (552, 3)],
                             ids=["one-batch", "three-batches"])
    @pytest.mark.parametrize("reciprocal", [True, False], ids=["rec", "nonrec"])
    def test_sweep_reads_each_trial_once_per_batch(self, monkeypatch, reciprocal, elements,
                                                   batches):
        # every row of a K x M x N grid at one seed reads the streams of
        # trials 0 to 3: a batch reads each once, through one Philox.
        # Groups of 276, 368 and 460 stored entries for K = 3, 4 and 5 make
        # one batch, or three of at most 552
        configs = [NetworkConfig(K=k, M=m, N=n, seed=21, reciprocal=reciprocal)
                   for k, m, n in itertools.product((3, 4, 5), (2, 3), (2, 3))]
        log, counts = self.reads(monkeypatch)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", elements)
        reports = sweep_reports(configs, 4)
        assert all(isinstance(report, DofReport) for report in reports)
        assert self.per_trial(log, 21) == dict.fromkeys(range(4), batches)
        assert counts == {"read": batches, "philox": batches}

    @pytest.mark.parametrize("reciprocal", [True, False], ids=["rec", "nonrec"])
    def test_simulate_then_mse_in_one_stack(self, monkeypatch, reciprocal):
        # one stack holds every trial: the sweep takes its plan, and reads
        # no trial and builds no set and no plan
        cfg = NetworkConfig(K=4, M=4, N=3, seed=21, reciprocal=reciprocal)
        log, counts = self.reads(monkeypatch)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 48 * 5)
        simulate_report(cfg, GRID, 5)
        sets, designs = self.built(monkeypatch)
        decode_mse_sweep(cfg, GRID, 5)
        assert self.per_trial(log, 21) == dict.fromkeys(range(5), 1)
        assert sets == designs == []
        assert counts == {"read": 1, "philox": 1}


class TestHandoff:
    """The MSE sweep takes the plan of the last stack a noiseless pass
    designed, and gives the bits a cold sweep gives."""

    @staticmethod
    def stacks_designed(monkeypatch):
        """The stack shape of each design_scheme call from here on."""
        shapes = []
        real = ssa_nc.design_scheme

        def counted(config, channels):
            shapes.append(channels.stack_shape)
            return real(config, channels)

        monkeypatch.setattr(ssa_nc, "design_scheme", counted)
        return shapes

    @pytest.mark.parametrize(
        "k,m,n,reciprocal",
        [(3, 3, 2, True), (5, 3, 3, True), (3, 4, 6, True), (4, 4, 3, False)],
        ids=["3-3-2", "5-3-3-L4", "3-4-6-shutdown", "4-4-3-nonrec"],
    )
    def test_warm_equals_cold(self, monkeypatch, k, m, n, reciprocal):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=31, reciprocal=reciprocal)
        if (k, m, n) == (5, 3, 3):
            assert ssa_nc.extension_plan(k, m, n)[1] == 4
        cold = decode_mse_sweep(cfg, GRID, 6)
        assert not analysis._handoff
        simulate_report(cfg, GRID, 6)
        assert list(analysis._handoff) == [(cfg, 0, 6)]
        designs = self.stacks_designed(monkeypatch)
        warm = decode_mse_sweep(cfg, GRID, 6)
        assert designs == [] and not analysis._handoff
        assert np.array_equal(warm, cold)

    @pytest.mark.parametrize(
        "k,m,n,reciprocal",
        [(5, 3, 3, True), (3, 4, 6, True), (4, 4, 3, False)],
        ids=["5-3-3-L4", "3-4-6-shutdown", "4-4-3-nonrec"],
    )
    def test_handed_off_plan_is_each_trials_cold_plan(self, monkeypatch, k, m, n, reciprocal):
        # the sweep reads the variances of the plan it takes, and trial by
        # trial they are those of that trial drawn and designed alone
        cfg = NetworkConfig(K=k, M=m, N=n, seed=2**64 - 1, reciprocal=reciprocal)
        simulate_report(cfg, GRID, 4)
        [handed] = analysis._handoff.values()
        real = analysis.decode_error_variance
        read = []

        def logged(plan):
            read.append((plan, real(plan)))
            return read[-1][1]

        monkeypatch.setattr(analysis, "decode_error_variance", logged)
        decode_mse_sweep(cfg, GRID, 4)
        [(plan, variances)] = read
        assert plan is handed and not analysis._handoff
        for t in range(4):
            channels = draw_trials(cfg, cfg.trial_rng(t))[0]
            assert variances[t].tobytes() == real(design_scheme(cfg, channels)).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=25, database=None)
    @given(
        shape=st.sampled_from([(3, 3, 2, True), (5, 3, 3, True), (3, 4, 6, True),
                               (4, 4, 3, False)]),
        elements=st.integers(1, 400),
        trials=st.integers(1, 9),
    )
    def test_warm_equals_cold_at_any_stack_size(self, shape, elements, trials):
        # whatever the stack budget, the sweep gives the same bits cold,
        # after a noiseless pass over the same trials, and at the default
        k, m, n, reciprocal = shape
        cfg = NetworkConfig(K=k, M=m, N=n, seed=33, reciprocal=reciprocal)
        analysis._handoff.clear()
        default = decode_mse_sweep(cfg, GRID, trials)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "STACK_ELEMENTS", elements)
            cold = decode_mse_sweep(cfg, GRID, trials)
            verify_noiseless(cfg, trials)
            assert len(analysis._handoff) == 1
            warm = decode_mse_sweep(cfg, GRID, trials)
            assert not analysis._handoff
        assert cold.tobytes() == warm.tobytes() == default.tobytes()

    def test_only_the_last_stack_is_reused(self, monkeypatch):
        # 3/3/2 stores 18 entries per trial: stacks of 3, 3 and 1 trials
        cfg = NetworkConfig(K=3, M=3, N=2, seed=31)
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 54)
        cold = decode_mse_sweep(cfg, GRID, 7)
        verify_noiseless(cfg, 7)
        assert list(analysis._handoff) == [(cfg, 6, 7)]
        designs = self.stacks_designed(monkeypatch)
        assert np.array_equal(decode_mse_sweep(cfg, GRID, 7), cold)
        assert designs == [(3,), (3,)]

    @pytest.mark.parametrize(
        "other,trials",
        [({"seed": 32}, 6), ({}, 5), ({}, 7), ({"reciprocal": False}, 6),
         ({"duplex_factor": 0.5}, 6)],
        ids=["seed", "fewer-trials", "more-trials", "reciprocity", "duplex"],
    )
    def test_other_requests_reuse_nothing(self, monkeypatch, other, trials):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=31)
        taker = dataclasses.replace(cfg, **other)
        cold = decode_mse_sweep(taker, GRID, trials)
        simulate_report(cfg, GRID, 6)
        designs = self.stacks_designed(monkeypatch)
        assert np.array_equal(decode_mse_sweep(taker, GRID, trials), cold)
        assert designs == [(trials,)]
        # the sweep left the stack it did not match
        assert list(analysis._handoff) == [(cfg, 0, 6)]

    def test_design_error_leaves_nothing(self, monkeypatch):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=31)
        simulate_report(cfg, GRID, 6)

        def fail(config, channels):
            raise ssa_nc.SchemeDesignError("singular", 0)

        monkeypatch.setattr(ssa_nc, "design_scheme", fail)
        with pytest.raises(ssa_nc.SchemeDesignError, match="trial 0"):
            verify_noiseless(cfg, 6)
        assert not analysis._handoff

    def test_given_set_leaves_nothing(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=31)
        simulate_report(cfg, GRID, 6)
        verify_noiseless(cfg, 6, generate_channels(cfg, cfg.trial_rng(0)))
        assert not analysis._handoff

    def test_second_sweep_draws_again(self, monkeypatch):
        cfg = NetworkConfig(K=4, M=4, N=3, seed=31)
        simulate_report(cfg, GRID, 6)
        first = decode_mse_sweep(cfg, GRID, 6)
        designs = self.stacks_designed(monkeypatch)
        assert np.array_equal(decode_mse_sweep(cfg, GRID, 6), first)
        assert designs == [(6,)]


def decode_error_map(plan):
    """Per trial, the linear map from the joint noise [n_r; n_0; ...; n_{K-1}]
    of one unit-power round to every decoded error, rows ordered as
    TransmissionTrace.decoded: (S, K (K-1) d, relay_dim + K user_dim).

    The relay forwards its estimate of pair p's sum with error F_p n_r, and
    user u's filter adds G_{u,p} n_u. User 0 subtracts its own symbols from
    every sum; user u >= 1 peels sender 0 from pair q = u-1, so that pair's
    error reaches every other message it decodes.
    """
    K, d, n, m = plan.num_users, plan.d, plan.effective_N, plan.effective_M
    F = plan.relay_filter / plan.power_scale[:, None, None, None]
    G = plan.rx_filter / plan.bc_scale
    rows = []
    for u in range(K):
        q = u - 1
        for sender in (v for v in range(K) if v != u):
            p = sender - 1
            if u == 0:
                relay, user = F[:, p], G[:, 0, p]
            elif sender == 0:
                relay, user = F[:, q], G[:, u, q]
            else:
                relay, user = F[:, p] - F[:, q], G[:, u, p] - G[:, u, q]
            row = np.zeros((len(F), d, n + K * m), dtype=complex)
            row[:, :, :n] = relay
            row[:, :, n + u * m : n + (u + 1) * m] = user
            rows.append(row)
    return np.concatenate(rows, axis=1)


# (K, M, N, reciprocal): both slot layouts, L = 1 and L = K-1, a relay
# shutdown, K = 2 and a non-reciprocal set
CLOSED_FORM_CASES = [
    (3, 3, 2, True), (4, 4, 3, True), (4, 2, 5, True), (3, 4, 3, True), (5, 3, 3, True),
    (4, 4, 4, False), (8, 8, 8, True), (3, 4, 6, True), (5, 4, 2, True), (2, 2, 1, True),
    (2, 3, 3, True),
]


def closed_form_case(k, m, n, reciprocal, trials=3):
    """The config and the plan of its first stack of ``trials`` trials."""
    cfg = NetworkConfig(K=k, M=m, N=n, seed=29, reciprocal=reciprocal)
    [(plan, _)] = trial_stacks([cfg], trials)
    return cfg, plan


class TestClosedFormMse:
    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (4, 4, 3), (4, 2, 5), (3, 4, 3)])
    def test_monte_carlo_matches_closed_form(self, k, m, n):
        # with C = A A^H for a trial's error map A and CN(0, I) noise, the
        # trial's squared decode error has mean tr C and variance ||C||_F^2;
        # the relay noise is shared by every user, so A is built jointly.
        # The noisy rounds take their noise from the trials' own draws
        trials = 400
        cfg = NetworkConfig(K=k, M=m, N=n, seed=29)
        channels, sent, noise = draw_trials(cfg, cfg.trial_streams(range(trials)), noise=True)
        plan = design_scheme(cfg, channels)
        A = decode_error_map(plan)
        C = A @ A.conj().swapaxes(-1, -2)
        mean = float(np.sum(np.real(np.trace(C, axis1=-2, axis2=-1))))
        var = float(np.sum(np.abs(C) ** 2))
        trace = run_round(plan, 1.0, sent, noise)
        sq_err = float(np.sum(np.abs(trace.decoded - sent[:, ssa_nc.sender_table(k)]) ** 2))
        symbols = trials * k * (k - 1) * plan.d
        assert abs(sq_err - mean) / symbols <= 5.0 * np.sqrt(var) / symbols

    @pytest.mark.parametrize("k,m,n,reciprocal", CLOSED_FORM_CASES)
    def test_variance_is_the_error_maps_row_power(self, k, m, n, reciprocal):
        # each entry's variance is the squared norm of its row of the error
        # map, diag(A A^H), and the sweep at P is their mean over P
        cfg, plan = closed_form_case(k, m, n, reciprocal)
        A = decode_error_map(plan)
        want = np.real(np.einsum("...ij,...ij->...i", A, A.conj())).reshape(3, k, k - 1, plan.d)
        got = analysis.decode_error_variance(plan)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want) / want) <= 1e-12
        grid = np.array([1.0, 1e3])
        assert np.allclose(decode_mse_sweep(cfg, grid, 3), want.mean() / grid, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k,m,n,reciprocal", CLOSED_FORM_CASES)
    def test_single_pair_messages_match_stream_sinrs(self, k, m, n, reciprocal):
        # a message that crosses one relay pair (decoder 0, or sender 0)
        # carries that pair's sum of two unit-power symbols with the relay's
        # and its decoder's noise added: 2 / variance is the SINR of the
        # two hops' noise powers added, 1 / (1/mac + 1/bc), at P = 1
        _, plan = closed_form_case(k, m, n, reciprocal)
        s = stream_sinrs(plan, 1.0)
        chain = 1.0 / (1.0 / s.mac[:, np.newaxis] + 1.0 / s.bc)
        variance = analysis.decode_error_variance(plan)
        users = np.arange(1, k)
        # decoder 0 takes sender p+1 off pair p; decoder u takes sender 0,
        # its first message, off its own pair u-1
        got = np.concatenate([2.0 / variance[:, 0], 2.0 / variance[:, users, 0]], axis=-2)
        want = np.concatenate([chain[:, 0], chain[:, users, users - 1]], axis=-2)
        assert np.max(np.abs(got - want) / want) <= 1e-12


class TestReports:
    def test_csv_row_and_header(self):
        rep = verify_noiseless(NetworkConfig(K=3, M=3, N=2, seed=15), 5)
        cells = report_csv_row(rep).split(",")
        assert len(cells) == len(REPORT_COLUMNS.split(","))
        row = dict(zip(REPORT_COLUMNS.split(","), cells))
        assert row["K"] == "3" and row["streams"] == "6" and row["cutset"] == "6"
        assert row["slope"] == "" and row["slope_stderr"] == ""  # no slope estimated
        assert list(rep.to_json_dict()) == REPORT_COLUMNS.split(",") + ["notes"]

    def test_simulate_report_includes_slope(self):
        rep = simulate_report(NetworkConfig(K=3, M=3, N=2, seed=16), GRID, 10)
        assert rep.slope_estimate is not None
        assert rep.noiseless_max_error <= 1e-8
        doc = rep.to_json_dict()
        assert doc["streams"] == 6 and doc["slope"] == rep.slope_estimate

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3), (2, 2, 1)])
    def test_simulate_slope_equals_estimate(self, k, m, n):
        # the report's slope is, bit for bit, the fit of the SINRs of each
        # trial designed alone, and the rest of the report is verify's
        cfg = NetworkConfig(K=k, M=m, N=n, seed=27)
        rep = simulate_report(cfg, GRID, 6)
        gammas = [
            stream_sinrs(design_scheme(cfg, draw_trials(cfg, cfg.trial_rng(t))[0]), 1.0).flat()
            for t in range(6)
        ]
        estimate = analysis._fit_slope(cfg, np.asarray(GRID), np.stack(gammas))
        assert (rep.slope_estimate, rep.slope_stderr) == estimate
        audit = dataclasses.replace(rep, slope_estimate=None, slope_stderr=None)
        assert audit == verify_noiseless(cfg, 6)

    def test_report_rejects_stream_excess(self):
        with pytest.raises(ValueError):
            DofReport(
                K=3, M=3, N=2, L=1, d=1, achieved_streams=7, cutset=6,
                private_only=None, slope_estimate=None, slope_stderr=None,
                noiseless_max_error=0.0, trials=1,
            )

    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(Fraction(6)) == "6"
        assert format_number(Fraction(24, 7)) == repr(24 / 7)
        assert format_number(3) == "3"
        assert format_number(2.5) == "2.5"
        assert format_number(True) == "1" and format_number(np.int64(4)) == "4"


class TestTable1:
    def test_k3_m2_sweep(self):
        rows = [bound_row(3, 2, n) for n in (1, 2, 3, 4)]
        assert [float(r.private_only) for r in rows] == [2, 4, 6, 6]
        assert [r.cutset for r in rows] == [3, 6, 6, 6]
        assert [float(r.gain) for r in rows] == [1, 2, 0, 0]

    def test_k4_case_2_3_boundary(self):
        # both private-only case formulas evaluate to 2N = 48 at N/M = 12/7
        row = bound_row(4, 14, 24)
        assert row.private_only == 48
        assert row.case_index in (2, 3)
        assert row.cutset == 4 * 14

    def test_k4_case5(self):
        row = bound_row(4, 1, 3)
        assert row.case_index == 5
        assert row.private_only == 4 and row.cutset == 4


def report_bits(report):
    """Every field of a report, floats by their exact repr."""
    return [repr(v) for v in dataclasses.astuple(report)]


def alone(config, trials, grid):
    """The report of one row run by itself."""
    if grid is None:
        return verify_noiseless(config, trials)
    return simulate_report(config, grid, trials)


def bad_uplink(monkeypatch, seed, diagonal):
    """Make the kept 2 x 2 block of user 0's uplink in trial 1 of the given
    seed, for M = 2, diag(diagonal) / sqrt(2); every other value as
    drawn."""
    real = channel._fill

    def fill(segments):
        real(segments)
        for streams, _, targets in segments:
            # a stack that takes its users' uplinks from a stack of more
            # users writes none (a None target)
            if streams.seed == seed and 1 in streams.trials and targets[0] is not None:
                # the kept uplinks head a trial's targets: (trial, user, row, column)
                targets[0][streams.trials.index(1), 0] = np.diag(diagonal) / np.sqrt(2.0)

    monkeypatch.setattr(channel, "_fill", fill)


class TestSweepReports:
    """A sweep audits the rows of one kept relay shape as one group, and
    draws and validates the groups' stacks in batches, a pool of matrices
    per kept shape across K: each row still draws from its own streams,
    so its report is, field for field and bit for bit, the one it gets
    alone."""

    # K = 2; both reciprocity modes of 3/2/N in one call; N < M, N = M and
    # N > M rows; another seed and a repeated row in a group; half duplex
    CONFIGS = [
        NetworkConfig(K=2, M=2, N=2, seed=3),
        NetworkConfig(K=2, M=2, N=3, seed=3),
        NetworkConfig(K=3, M=2, N=2, seed=3),
        NetworkConfig(K=3, M=2, N=3, seed=3),
        NetworkConfig(K=3, M=2, N=4, seed=9),
        NetworkConfig(K=3, M=2, N=3, seed=3),
        NetworkConfig(K=3, M=2, N=2, seed=3, reciprocal=False),
        NetworkConfig(K=3, M=2, N=4, seed=3, reciprocal=False),
        NetworkConfig(K=4, M=3, N=2, seed=3, duplex_factor=0.5),
        NetworkConfig(K=4, M=3, N=3, seed=3, duplex_factor=0.5),
        NetworkConfig(K=4, M=3, N=5, seed=3, duplex_factor=0.5),
    ]

    def test_bounds_are_asked_once_per_shape(self, monkeypatch):
        # the reports read each (K, M, N)'s bounds from a cache that asks
        # the public bounds functions on a miss only; K = 2's RegimeError
        # is cached as no private-only value
        calls = []
        for name in ("private_only_dof", "cutset_dof"):
            def counted(*args, real=getattr(bounds, name), name=name):
                calls.append((name, args))
                return real(*args)

            monkeypatch.setattr(bounds, name, counted)
        analysis._bounds.cache_clear()
        first = sweep_reports(self.CONFIGS, 2)
        assert sweep_reports(self.CONFIGS, 2) == first
        shapes = sorted({(c.K, c.M, c.N) for c in self.CONFIGS})
        assert sorted(calls) == sorted((name, shape) for name in ("cutset_dof", "private_only_dof")
                                       for shape in shapes)
        assert [r.private_only is None for r in first] == [c.K == 2 for c in self.CONFIGS]

    @pytest.mark.parametrize("grid", [None, GRID], ids=["noiseless", "grid"])
    @pytest.mark.parametrize("elements", [None, 24], ids=["one-stack", "straddling"])
    def test_rows_equal_their_reports_alone(self, monkeypatch, grid, elements):
        if elements is not None:
            # 3/2/N keeps 3 * 2 * 2 entries per trial: stacks of 2 trials,
            # which straddle the rows of 3 trials each
            monkeypatch.setattr(analysis, "STACK_ELEMENTS", elements)
            assert analysis._stack_size(self.CONFIGS[2]) == 2
        designs = []
        real = ssa_nc.design_scheme

        def counted(config, channels):
            designs.append(channels.stack_shape)
            return real(config, channels)

        monkeypatch.setattr(ssa_nc, "design_scheme", counted)
        reports = sweep_reports(self.CONFIGS, 3, grid)
        # 5 kept shapes, in order of first row: 2/2/2 (2 rows), 3/2/2
        # reciprocal (4 rows), 3/2/2 not (2 rows), 4/3/2 (1 row), 4/3/3 (2
        # rows); capped, 2/2/2 stacks 3 trials, 3/2/2 2 and 4/3/N 1
        if elements is None:
            assert designs == [(6,), (12,), (6,), (3,), (6,)]
        else:
            assert designs == [(3,)] * 2 + [(2,)] * 9 + [(1,)] * 9
        for config, report in zip(self.CONFIGS, reports):
            assert report_bits(report) == report_bits(alone(config, 3, grid)), config

    @settings(derandomize=True, deadline=None, max_examples=40, database=None)
    @given(
        k=st.integers(2, 5),
        m=st.integers(1, 4),
        extra=st.lists(st.integers(-2, 2), min_size=1, max_size=3),
        reciprocal=st.lists(st.booleans(), min_size=3, max_size=3),
        half=st.booleans(),
        trials=st.integers(1, 9),
        grid=st.sampled_from([None, GRID]),
    )
    def test_random_groups_equal_rows_alone(self, k, m, extra, reciprocal, half, trials, grid):
        configs = [
            NetworkConfig(K=k, M=m, N=max(1, m + e), reciprocal=r,
                          duplex_factor=0.5 if half else 1.0, seed=11 + e)
            for e, r in zip(extra, reciprocal)
        ]
        for config, report in zip(configs, sweep_reports(configs, trials, grid)):
            assert report_bits(report) == report_bits(alone(config, trials, grid)), config

    def test_failing_row_gets_its_own_error(self, monkeypatch):
        # trial 1 of the seed-5 row draws a 2 x 2 uplink of condition number
        # 1e9, full rank but over the design's guardrail: the group fails, and each row
        # runs alone, the seed-5 row to the error that names its own trial
        bad_uplink(monkeypatch, 5, [1.0, 1e-9])
        configs = [NetworkConfig(K=3, M=2, N=n, seed=s) for n, s in [(2, 4), (3, 5), (4, 4)]]
        results = sweep_reports(configs, 3)
        with pytest.raises(ssa_nc.SchemeDesignError) as raised:
            verify_noiseless(configs[1], 3)
        assert str(raised.value).startswith("trial 1 (seed 5): channel conditioning")
        assert type(results[1]) is ssa_nc.SchemeDesignError
        assert str(results[1]) == str(raised.value)
        for i in (0, 2):
            assert report_bits(results[i]) == report_bits(verify_noiseless(configs[i], 3))

    # K = 2 to 5 at M = 2, N = 2 and 3, in both reciprocity modes: every
    # row keeps 2 x 2 uplinks, so one pool per mode spans four K
    ACROSS_K = [
        NetworkConfig(K=k, M=2, N=n, seed=3 + k, reciprocal=reciprocal)
        for reciprocal in (True, False) for k in (2, 3, 4, 5) for n in (2, 3)
    ]

    @staticmethod
    def built(monkeypatch):
        """The uplink shape of each ChannelSet validated and the stack
        shape of each design_scheme call from here on."""
        validated, designs = [], []
        real_set, real_design = ChannelSet.__post_init__, ssa_nc.design_scheme

        def counted_set(channels):
            validated.append(np.shape(channels.uplink))
            real_set(channels)

        def counted_design(config, channels):
            designs.append(channels.stack_shape)
            return real_design(config, channels)

        monkeypatch.setattr(ChannelSet, "__post_init__", counted_set)
        monkeypatch.setattr(ssa_nc, "design_scheme", counted_design)
        return validated, designs

    # the same rows at one seed: rows of one N and reciprocity mode differ
    # only in K, and the largest K listed last or first
    ONE_SEED = [dataclasses.replace(config, seed=3) for config in ACROSS_K]
    LARGEST_K_FIRST = sorted(ONE_SEED, key=lambda config: (not config.reciprocal, -config.K))

    @pytest.mark.parametrize("grid", [None, GRID], ids=["noiseless", "grid"])
    @pytest.mark.parametrize(
        "configs,elements,want_validated,want_designs",
        [
            # 672 stored entries in one batch: one pool per mode, of
            # 3 * 2 * (2 + 3 + 4 + 5) = 84 matrices
            (ACROSS_K, None, [(1, 84, 2, 2)] * 2, [(6,)] * 8),
            # stacks of 7, 5, 3 and 3 trials for K = 2 to 5: K = 3's last
            # trial and K = 4's first stack share a batch and a pool, and
            # the other batches hold one stack each
            (ACROSS_K, 60, [(6, 2, 2, 2), (5, 3, 2, 2), (1, 15, 2, 2), (3, 4, 2, 2),
                            (3, 5, 2, 2), (3, 5, 2, 2)] * 2,
             [(6,), (5,), (1,), (3,), (3,), (3,), (3,)] * 2),
            # at one seed the K = 5 stack writes and validates the
            # reciprocal uplinks, alone in its pool, and K = 2 to 4 take
            # their users of them; the non-reciprocal rows share nothing
            (ONE_SEED, None, [(6, 5, 2, 2), (1, 84, 2, 2)], [(6,)] * 8),
            (LARGEST_K_FIRST, None, [(6, 5, 2, 2), (1, 84, 2, 2)], [(6,)] * 8),
            # whole stacks of 48, 72, 96 and 120 entries: K = 2 and 3 share
            # the first batch of each mode, where K = 3 writes the
            # reciprocal uplinks, and K = 4 and 5 are batches of their own
            (ONE_SEED, 120, [(6, 3, 2, 2), (6, 4, 2, 2), (6, 5, 2, 2), (1, 30, 2, 2),
                             (6, 4, 2, 2), (6, 5, 2, 2)], [(6,)] * 8),
        ],
        ids=["one-batch", "straddling", "one-seed", "one-seed-largest-k-first",
             "one-seed-largest-k-in-another-batch"],
    )
    def test_pool_spans_k_in_both_reciprocity_modes(self, monkeypatch, grid, configs, elements,
                                                    want_validated, want_designs):
        # each group, of K 2 x 2 matrices per trial, holds 2 rows of 3
        # trials; the design calls are those of a group-by-group audit
        if elements is not None:
            monkeypatch.setattr(analysis, "STACK_ELEMENTS", elements)
        validated, designs = self.built(monkeypatch)
        reports = sweep_reports(configs, 3, grid)
        assert designs == want_designs and validated == want_validated
        for config, report in zip(configs, reports):
            assert report_bits(report) == report_bits(alone(config, 3, grid)), config

    @pytest.mark.parametrize(
        "diagonal,error,seed,failing",
        [
            ([1.0, 1e-9], ssa_nc.SchemeDesignError, 5, [2]),
            ([1.0, 0.0], ValueError, 5, [2]),
            ([1.0, 1e-9], ssa_nc.SchemeDesignError, 4, [0, 1, 3]),
            ([1.0, 0.0], ValueError, 4, [0, 1, 3]),
        ],
        ids=["guardrail", "rank-deficient", "guardrail-shared-matrix",
             "rank-deficient-shared-matrix"],
    )
    def test_failing_row_in_a_shared_pool_gets_its_own_error(self, monkeypatch, diagonal, error,
                                                             seed, failing):
        # trial 1 of the given seed fails its design, or the validation of
        # the pool the K = 4 row at seed 5 shares with K = 2, 3 and 5 at
        # seed 4, where K = 5 writes the uplinks that K = 2 and 3 take
        # their users of: each failing row gets the error it gets alone,
        # and every other row its report
        bad_uplink(monkeypatch, seed, diagonal)
        configs = [NetworkConfig(K=k, M=2, N=3, seed=5 if k == 4 else 4) for k in (2, 3, 4, 5)]
        validated, _ = self.built(monkeypatch)
        results = sweep_reports(configs, 3)
        # 3 trials of K = 4 at seed 5 and of K = 5 at seed 4
        assert validated[0] == (1, 27, 2, 2)
        for i, config in enumerate(configs):
            if i in failing:
                with pytest.raises(error) as raised:
                    verify_noiseless(config, 3)
                assert type(results[i]) is error and str(results[i]) == str(raised.value)
            else:
                assert report_bits(results[i]) == report_bits(verify_noiseless(config, 3))

    def test_group_of_one_hands_off_and_larger_group_does_not(self):
        one = NetworkConfig(K=3, M=3, N=2, seed=31)
        sweep_reports([one], 6)
        assert list(analysis._handoff) == [(one, 0, 6)]
        sweep_reports([NetworkConfig(K=3, M=2, N=2), NetworkConfig(K=3, M=2, N=3)], 6)
        assert not analysis._handoff

    @pytest.mark.parametrize(
        "trials,grid,message",
        [(0, None, "trials must be positive"), (2, [1e2, 1e3], "at least 3 points")],
    )
    def test_run_wide_errors_raise_before_any_row(self, monkeypatch, trials, grid, message):
        def no_row(*args, **kwargs):
            raise AssertionError("a row ran")

        monkeypatch.setattr(analysis, "_audit", no_row)
        with pytest.raises(ValueError, match=message):
            sweep_reports([NetworkConfig(K=3, M=2, N=2)], trials, grid)
