"""Tests for noiseless verification, SINR computation, and slope estimation."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from mrc_dof_lab.analysis import (
    DofReport,
    decode_mse_sweep,
    estimate_dof_slope,
    format_number,
    report_csv_row,
    reproduce_table1,
    simulate_report,
    stream_sinrs,
    validate_power_grid,
    verify_noiseless,
)
from mrc_dof_lab.bounds import cutset_dof
from mrc_dof_lab.channel import (
    ChannelSet,
    NetworkConfig,
    generate_channels,
    load_channels,
    save_channels,
)
from mrc_dof_lab import analysis, ssa_nc
from mrc_dof_lab.ssa_nc import design_scheme, other_users, run_round

GRID = [1e2, 1e3, 1e4, 1e5, 1e6]


def nan_rounds(monkeypatch):
    """Make every round decode NaN symbols."""
    real = ssa_nc.run_round

    def nan_round(*args, **kwargs):
        trace = real(*args, **kwargs)
        return dataclasses.replace(trace, decoded=np.full_like(trace.decoded, np.nan))

    monkeypatch.setattr(ssa_nc, "run_round", nan_round)


def redesigned_mse(cfg, trials, P):
    """Per-symbol decode MSE of one noisy round at power P per trial, each
    trial designed alone from a fresh trial generator, summed in trial
    order."""
    k = cfg.K
    senders = np.array([other_users(k, u) for u in range(k)])
    acc = 0.0
    count = 0
    for trial in range(trials):
        rng = cfg.trial_rng(trial)
        eff, plan = design_scheme(cfg, generate_channels(cfg, rng))
        trace = run_round(plan, eff, P, rng, noise_on=True)
        diff = trace.decoded - trace.sent[senders]
        acc += np.sum(np.sum(np.abs(diff) ** 2, axis=-1))
        count += diff.size
    return acc / count


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
        eff, plan = plan_for(3, 3, 2, seed=4)
        senders = analysis._sender_table(3)

        def worst_error(P):
            trace = run_round(plan, eff, P, np.random.default_rng(4), noise_on=False)
            return float(np.max(np.abs(trace.decoded - trace.sent[senders])))

        assert worst_error(1.0) <= 1e-12
        assert worst_error(1e6) <= 1e-12

    def test_fixed_channels_reused(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=5)
        cs = generate_channels(cfg, cfg.rng())
        rep = verify_noiseless(cfg, 5, channels=cs)
        assert rep.noiseless_max_error <= 1e-8

    def test_loaded_channels_give_every_trial_one_plan(self, tmp_path):
        # the design draws nothing, so a fixed set designs the same plan in
        # every trial of a stack; only the symbol draws differ
        cfg = NetworkConfig(K=4, M=4, N=3, seed=5)
        path = str(tmp_path / "channels.json")
        save_channels(generate_channels(cfg, cfg.rng()), path)
        [(rngs, eff, plan)] = analysis._trial_stacks(cfg, 4, load_channels(path))
        assert plan.stack_shape == (4,)
        for name in ("V1", "Vj", "T", "relay_filter", "rx_filter", "uplink_cond",
                     "downlink_cond", "power_scale", "bc_scale"):
            arrays = np.asarray(getattr(plan, name))
            assert all(np.array_equal(a, arrays[0]) for a in arrays[1:]), name
        sent = ssa_nc.run_round(plan, eff, 1.0, rngs, noise_on=False).sent
        assert not any(np.array_equal(s, sent[0]) for s in sent[1:])

    def test_nan_round_reports_nan(self, monkeypatch):
        nan_rounds(monkeypatch)
        rep = verify_noiseless(NetworkConfig(K=3, M=3, N=2, seed=5), 3)
        assert np.isnan(rep.noiseless_max_error)

    def test_loaded_channels_are_designed_once(self, monkeypatch, tmp_path):
        # a loaded 3/4/6 set loses two relay antennas: one design and one
        # validation of that single trial serve all 100 trials, and every
        # stack reads the plan through broadcast views of it
        cfg = NetworkConfig(K=3, M=4, N=6, seed=5)
        path = str(tmp_path / "channels.json")
        save_channels(generate_channels(cfg, cfg.rng()), path)
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
        stacks = list(analysis._trial_stacks(cfg, 100, loaded))
        assert [len(rngs) for rngs, _, _ in stacks] == [30, 30, 30, 10]
        first = stacks[0][2].uplink_pinv
        for _, eff, plan in stacks:
            for a in (eff.uplink, eff.downlink_pinv, plan.uplink_pinv, plan.downlink_pinv,
                      plan.uplink_cond, plan.power_scale):
                assert a.strides[0] == 0 and not a.flags.writeable
            assert np.shares_memory(plan.uplink_pinv, first)
            assert np.shares_memory(plan.downlink_pinv, eff.downlink_pinv)


class TestStreamSinrs:
    def test_shapes(self):
        eff, plan = plan_for(4, 4, 3, seed=6)
        s = stream_sinrs(plan, 10.0)
        assert s.mac.shape == (3, 1)
        assert s.bc.shape == (4, 3, 1)
        assert s.end_to_end.shape == (4, 3, 1)
        assert s.flat().size == 12

    def test_min_of_phases(self):
        eff, plan = plan_for(3, 3, 2, seed=7)
        s = stream_sinrs(plan, 5.0)
        assert np.all(s.end_to_end <= s.bc + 1e-12)
        for u in range(3):
            assert np.all(s.end_to_end[u] <= s.mac + 1e-12)

    def test_exact_homogeneity_in_power(self):
        eff, plan = plan_for(3, 3, 2, seed=8)
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
        rng = cfg.trial_rng(0) if trials is None else [cfg.trial_rng(t) for t in range(trials)]
        _, plan = design_scheme(cfg, generate_channels(cfg, rng))
        P = 7.0
        a2 = np.asarray(plan.power_scale) ** 2 * P
        b2 = np.asarray(plan.bc_scale) ** 2 * P
        mac = 2.0 * a2[..., None, None] / analysis._row_power(plan.relay_filter)
        bc = 2.0 * b2[..., None, None, None] / analysis._row_power(plan.rx_filter)
        got = stream_sinrs(plan, P)
        assert np.array_equal(got.mac, mac) and np.array_equal(got.bc, bc)

    def test_vanishes_with_power(self):
        eff, plan = plan_for(3, 3, 2, seed=9)
        assert float(stream_sinrs(plan, 1e-12).flat().max()) < 1e-6

    def test_matches_monte_carlo(self):
        # brute-force noise-draw oracle: empirical signal power over
        # empirical shaped-noise power, 1e5 draws, within 5 percent
        eff, plan = plan_for(3, 3, 2, seed=10)
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
            estimate_dof_slope(NetworkConfig(K=3, M=3, N=2, seed=11), grid, 3)

    def test_two_way_relay_slope(self):
        cfg = NetworkConfig(K=2, M=1, N=1, seed=11)
        slope, stderr = estimate_dof_slope(cfg, GRID, 50)
        assert slope == pytest.approx(2.0, rel=0.05)
        assert stderr >= 0.0

    def test_half_duplex_halves_exactly(self):
        full = NetworkConfig(K=3, M=3, N=2, seed=12, duplex_factor=1.0)
        half = NetworkConfig(K=3, M=3, N=2, seed=12, duplex_factor=0.5)
        s_full, _ = estimate_dof_slope(full, GRID, 10)
        s_half, _ = estimate_dof_slope(half, GRID, 10)
        assert s_half == 0.5 * s_full

    def test_slope_never_exceeds_bound(self):
        for k, m, n in [(3, 3, 2), (3, 4, 3), (4, 4, 3)]:
            cfg = NetworkConfig(K=k, M=m, N=n, seed=13)
            slope, _ = estimate_dof_slope(cfg, GRID, 20)
            assert slope <= cutset_dof(k, m, n) * 1.05

    @pytest.mark.parametrize("k,m,n", [(4, 8, 8), (8, 8, 8)])
    def test_large_configs_reach_cutset(self, k, m, n):
        # with identity relay-side subspaces the plan's conditioning is the
        # channel's, and the finite-grid slope meets the cut-set within 3%
        # even where the affine power offset is largest
        slope, _ = estimate_dof_slope(NetworkConfig(K=k, M=m, N=n, seed=42), GRID, 20)
        cutset = cutset_dof(k, m, n)
        assert abs(slope - cutset) <= 0.03 * cutset

    @pytest.mark.parametrize(
        "k,m,n,duplex,trials",
        [(4, 4, 3, 1.0, 7), (3, 4, 3, 0.5, 5), (4, 2, 5, 1.0, 1)],
    )
    def test_fit_equals_loop_reference(self, k, m, n, duplex, trials):
        # the broadcast fit against the per-trial, per-power loops it replaced
        cfg = NetworkConfig(K=k, M=m, N=n, seed=28, duplex_factor=duplex)
        gammas = np.concatenate(
            [stream_sinrs(plan, 1.0).flat() for _, _, plan in analysis._trial_stacks(cfg, trials)]
        )
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
        assert abs(stderr - want_err) <= 1e-12 * want_err


class TestMseSweep:
    def test_monotone_decreasing(self):
        cfg = NetworkConfig(K=3, M=3, N=2, seed=14)
        mse = decode_mse_sweep(cfg, [1e2, 1e3, 1e4], 20)
        assert np.all(np.diff(mse) < 0)

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3)])
    def test_equals_redesign_per_power(self, k, m, n):
        # reference: redesign every trial from a fresh trial generator and
        # scale its unit-power round by 1/P; one design per trial must give
        # the same bits
        grid = [1e2, 1e4, 1e6]
        cfg = NetworkConfig(K=k, M=m, N=n, seed=26)
        expected = np.array([redesigned_mse(cfg, 4, 1.0) / P for P in grid])
        assert np.array_equal(decode_mse_sweep(cfg, grid, 4), expected)

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3), (4, 2, 5)])
    def test_equals_rounds_at_each_power(self, k, m, n):
        # the scaled unit-power round against a noisy round run at each P
        grid = [1e2, 1e3, 1e4, 1e5, 1e6]
        cfg = NetworkConfig(K=k, M=m, N=n, seed=26)
        expected = np.array([redesigned_mse(cfg, 4, P) for P in grid])
        assert np.allclose(decode_mse_sweep(cfg, grid, 4), expected, rtol=1e-12, atol=0.0)

    def test_one_round_per_stack(self, monkeypatch):
        # 3/3/2 holds 18 user filter entries per trial: three trials per stack
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 54)
        real = ssa_nc.run_round
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["noise_on"])
            return real(*args, **kwargs)

        monkeypatch.setattr(ssa_nc, "run_round", counted)
        decode_mse_sweep(NetworkConfig(K=3, M=3, N=2, seed=14), GRID, 5)
        assert calls == [True, True]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            decode_mse_sweep(NetworkConfig(K=3, M=3, N=2, seed=14), [1e2, 1e3, 1e4], 0)

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
        _, plan = design_scheme(cfg, generate_channels(cfg, cfg.rng()))
        with pytest.raises(AssertionError, match="extended filter"):
            plan.rx_filter

    def test_batch_invariant_at_full_extension(self, monkeypatch):
        # L = K-1 at 8/8/8: one trial per stack and the default stack give
        # the same per-trial errors and MSE, bit for bit
        cfg = NetworkConfig(K=8, M=8, N=8, seed=13)

        def run():
            stacks = analysis._trial_stacks(cfg, 6)
            errors = [analysis._noiseless_round_errors(cfg, *stack) for stack in stacks]
            return np.concatenate(errors), decode_mse_sweep(cfg, GRID, 6)

        errors, mse = run()
        monkeypatch.setattr(analysis, "STACK_ELEMENTS", 1)
        assert analysis._stack_size(cfg) == 1
        one_errors, one_mse = run()
        assert np.array_equal(errors, one_errors) and np.array_equal(mse, one_mse)

    def test_stack_size_counts_stored_entries(self):
        # K * min(N, M) * M stored entries per trial, whatever the extension
        assert analysis._stack_size(NetworkConfig(K=8, M=8, N=8)) == 64
        assert analysis._stack_size(NetworkConfig(K=3, M=4, N=6)) == 2**15 // 48


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
    G = plan.rx_filter / plan.bc_scale[:, None, None, None, None]
    rows = []
    for u in range(K):
        q = u - 1
        for sender in other_users(K, u):
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


class TestClosedFormMse:
    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (4, 4, 3), (4, 2, 5), (3, 4, 3)])
    def test_monte_carlo_matches_closed_form(self, k, m, n):
        # with C = A A^H for a trial's error map A and CN(0, I) noise, the
        # trial's squared decode error has mean tr C and variance ||C||_F^2;
        # the relay noise is shared by every user, so A is built jointly
        trials = 400
        cfg = NetworkConfig(K=k, M=m, N=n, seed=29)
        mean = 0.0
        var = 0.0
        for _, _, plan in analysis._trial_stacks(cfg, trials):
            A = decode_error_map(plan)
            C = A @ A.conj().swapaxes(-1, -2)
            mean += float(np.sum(np.real(np.trace(C, axis1=-2, axis2=-1))))
            var += float(np.sum(np.abs(C) ** 2))
        symbols = trials * k * (k - 1) * plan.d
        mse = decode_mse_sweep(cfg, [1.0], trials)[0]
        assert abs(mse - mean / symbols) <= 5.0 * np.sqrt(var) / symbols


class TestReports:
    def test_csv_row_and_header(self):
        rep = verify_noiseless(NetworkConfig(K=3, M=3, N=2, seed=15), 5)
        row = report_csv_row(rep)
        cells = row.split(",")
        assert cells[0] == "3" and cells[5] == "6" and cells[6] == "6"
        assert cells[8] == "" and cells[9] == ""  # no slope estimated

    def test_simulate_report_includes_slope(self):
        rep = simulate_report(NetworkConfig(K=3, M=3, N=2, seed=16), GRID, 10)
        assert rep.slope_estimate is not None
        assert rep.noiseless_max_error <= 1e-8
        doc = rep.to_json_dict()
        assert doc["streams"] == 6 and doc["slope"] == rep.slope_estimate

    @pytest.mark.parametrize("k,m,n", [(3, 3, 2), (3, 4, 3)])
    def test_simulate_slope_equals_estimate(self, k, m, n):
        cfg = NetworkConfig(K=k, M=m, N=n, seed=27)
        rep = simulate_report(cfg, GRID, 6)
        assert (rep.slope_estimate, rep.slope_stderr) == estimate_dof_slope(cfg, GRID, 6)
        assert rep.noiseless_max_error == verify_noiseless(cfg, 6).noiseless_max_error

    def test_report_rejects_stream_excess(self):
        with pytest.raises(ValueError):
            DofReport(
                K=3, M=3, N=2, L=1, d=1, achieved_streams=7, cutset=6,
                private_only=None, slope_estimate=None, slope_stderr=None,
                noiseless_max_error=0.0, trials=1, degenerate_draws=0,
            )

    def test_format_number(self):
        assert format_number(None) == ""
        assert format_number(Fraction(6)) == "6"
        assert format_number(Fraction(24, 7)) == repr(24 / 7)
        assert format_number(3) == "3"
        assert format_number(2.5) == "2.5"


class TestTable1:
    def test_k3_m2_sweep(self):
        rows = reproduce_table1(3, 2, [1, 2, 3, 4])
        assert [float(r.private_only) for r in rows] == [2, 4, 6, 6]
        assert [r.cutset for r in rows] == [3, 6, 6, 6]
        assert [float(r.gain) for r in rows] == [1, 2, 0, 0]

    def test_k4_case_2_3_boundary(self):
        # both private-only case formulas evaluate to 2N = 48 at N/M = 12/7
        (row,) = reproduce_table1(4, 14, [24])
        assert row.private_only == 48
        assert row.case_index in (2, 3)
        assert row.cutset == 4 * 14

    def test_k4_case5(self):
        (row,) = reproduce_table1(4, 1, [3])
        assert row.case_index == 5
        assert row.private_only == 4 and row.cutset == 4

    def test_agrees_with_bounds_module(self):
        from mrc_dof_lab.bounds import bound_row

        for n in range(1, 8):
            (row,) = reproduce_table1(5, 3, [n])
            assert row == bound_row(5, 3, n)
