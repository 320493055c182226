"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

from fractions import Fraction

import numpy as np

from mrc_dof_lab import analysis, bounds, ssa_nc
from mrc_dof_lab.channel import NetworkConfig, generate_channels
from mrc_dof_lab.cli import main
from mrc_dof_lab.linalg import subspace_distance

GRID = [1e2, 1e3, 1e4, 1e5, 1e6]


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_noiseless_exactness():
    configs = [(3, 3, 2), (4, 4, 3), (4, 5, 3), (5, 5, 4), (4, 3, 6)]
    worst = 0.0
    for k, m, n in configs:
        rep = analysis.verify_noiseless(NetworkConfig(K=k, M=m, N=n, seed=42), 100)
        worst = max(worst, rep.noiseless_max_error)
        if rep.achieved_streams != k * min(m, n) or rep.noiseless_max_error > 1e-8:
            _report(
                "1 noiseless exactness",
                False,
                f"config ({k},{m},{n}): streams={rep.achieved_streams}, "
                f"err={rep.noiseless_max_error:.3e}",
            )
    _report("1 noiseless exactness", True, f"5 configs x 100 draws, max err {worst:.3e}")


def test_criterion_2_symbol_extension():
    rep = analysis.verify_noiseless(NetworkConfig(K=3, M=4, N=3, seed=42), 100)
    per_block = rep.K * (rep.K - 1) * rep.d
    ok = (
        rep.L == 2
        and per_block == 18
        and rep.achieved_streams == 9 == 3 * 3
        and rep.noiseless_max_error <= 1e-8
    )
    _report(
        "2 symbol extension",
        ok,
        f"L={rep.L}, block streams={per_block}, per slot={rep.achieved_streams}, "
        f"err={rep.noiseless_max_error:.3e}",
    )


def test_criterion_3_slope_oracle():
    results = []
    for (k, m, n), target in [((3, 3, 2), 6.0), ((4, 3, 6), 12.0)]:
        rep = analysis.simulate_report(NetworkConfig(K=k, M=m, N=n, seed=42), GRID, 100)
        results.append(((k, m, n), rep.slope_estimate, rep.slope_stderr, target))
    ok = all(abs(s - t) <= 0.03 * t for _, s, _, t in results)
    detail = "; ".join(
        f"{cfg}: slope={s:.3f} (target {t:.0f} +-3%)" for cfg, s, _, t in results
    )
    _report("3 slope oracle", ok, detail)


def test_criterion_4_alignment_and_zero_forcing():
    counts = {(3, 3, 2): 334, (4, 4, 3): 333, (5, 5, 4): 333}
    worst_align = 0.0
    worst_zf = 0.0
    for (k, m, n), plans in counts.items():
        cfg = NetworkConfig(K=k, M=m, N=n, seed=42)
        for trial in range(plans):
            rng = cfg.trial_rng(trial)
            cs = generate_channels(cfg, rng)
            plan = ssa_nc.design_scheme(cfg, cs)
            eff = plan.channels
            aligned = [eff.uplink[0] @ v for v in plan.V1]
            for p in range(plan.num_pairs):
                dist = subspace_distance(aligned[p], eff.uplink[p + 1] @ plan.Vj[p])
                worst_align = max(worst_align, dist)
            # every receive filter, rows scaled to unit norm, must null the
            # other pairs' images at the relay and at each user
            receivers = [(plan.relay_filter, aligned)]
            receivers += [
                (plan.rx_filter[u], [eff.downlink[u] @ t for t in plan.T]) for u in range(k)
            ]
            for filters, images in receivers:
                for p, f in enumerate(filters):
                    unit_rows = f / np.linalg.norm(f, axis=1, keepdims=True)
                    for i, img in enumerate(images):
                        if i != p:
                            worst_zf = max(worst_zf, float(np.linalg.norm(unit_rows @ img)))
    ok = worst_align <= 1e-10 and worst_zf <= 1e-9
    _report(
        "4 alignment invariant",
        ok,
        f"1000 plans: max alignment dist {worst_align:.3e}, "
        f"max ZF residual (unit filter rows) {worst_zf:.3e}",
    )


def test_criterion_5_bound_consistency():
    for k in range(3, 9):
        for m in range(1, 13):
            for n in range(1, 13):
                if bounds.private_only_dof(k, m, n) > bounds.cutset_dof(k, m, n):
                    _report("5 bound consistency", False, f"gain negative at ({k},{m},{n})")
                base, L, d = ssa_nc.extension_plan(k, m, n)
                alloc = bounds.common_only_allocation(k, Fraction(d, L))
                ok, violations = bounds.check_percut_bounds(alloc, k, m, n)
                limit = min(m, n)
                cuts = [
                    sum(alloc.common[j] for j in range(k) if j != i) for i in range(k)
                ]
                if not ok or any(c != limit for c in cuts):
                    _report(
                        "5 bound consistency",
                        False,
                        f"cut saturation fails at ({k},{m},{n}): {violations or cuts}",
                    )
    _report(
        "5 bound consistency", True,
        "K in 3..8, M,N in 1..12: private_only <= cutset, all receiver cuts saturated",
    )


def test_criterion_6_table1_reproduction(capsys):
    code = main(["table1", "--k", "3", "--m", "2", "--nmax", "4"])
    out1 = capsys.readouterr().out
    rows1 = [line.split(",") for line in out1.strip().splitlines() if not line.startswith("#")][1:]
    got = {
        "private": [r[4] for r in rows1],
        "common": [r[5] for r in rows1],
        "gain": [r[6] for r in rows1],
    }
    ok1 = (
        code == 0
        and got["private"] == ["2", "4", "6", "6"]
        and got["common"] == ["3", "6", "6", "6"]
        and got["gain"] == ["1", "2", "0", "0"]
    )
    code = main(["table1", "--k", "4", "--m", "14"])
    out2 = capsys.readouterr().out
    rows2 = [line.split(",") for line in out2.strip().splitlines() if not line.startswith("#")][1:]
    by_n = {int(r[2]): r for r in rows2}
    # at the case 2/3 boundary both private-only formulas give 2N = 48
    ok2 = code == 0 and by_n[24][4] == "48"
    with capsys.disabled():
        _report(
            "6 table1 reproduction",
            ok1 and ok2,
            f"k3m2 rows exact: {ok1}; k4m14 boundary private-only 48: {ok2}",
        )


def test_criterion_7_determinism(tmp_path, capsys):
    pairs = []
    for name, argv in [
        ("verify", ["verify", "--k", "3", "--m", "3", "--n", "2", "--trials", "10",
                    "--seed", "42"]),
        ("table1", ["table1", "--k", "4", "--m", "7", "--nmax", "17"]),
        ("sweep", ["sweep", "--k", "3", "--m", "2,3", "--n", "2", "--trials", "2",
                   "--seed", "42"]),
    ]:
        files = []
        for run_idx in (0, 1):
            path = tmp_path / f"{name}_{run_idx}.out"
            code = main(argv + ["--out", str(path)])
            capsys.readouterr()
            assert code == 0
            files.append(path.read_bytes())
        pairs.append((name, files[0] == files[1]))
    ok = all(same for _, same in pairs)
    with capsys.disabled():
        _report("7 determinism", ok, ", ".join(f"{n}: {'same' if s else 'DIFFERS'}" for n, s in pairs))


def test_criterion_8_degradation():
    cfg = NetworkConfig(K=3, M=3, N=2, seed=42)
    grid = [1e2, 1e3, 1e4, 1e5]
    mse = analysis.decode_mse_sweep(cfg, grid, 100)
    monotone = bool(np.all(np.diff(mse) < 0))
    x = np.log10(np.asarray(grid))
    y = np.log10(mse)
    xc = x - x.mean()
    slope = float(xc @ y / (xc @ xc))
    ok = monotone and -1.15 <= slope <= -0.85
    _report(
        "8 degradation",
        ok,
        f"MSE {mse[0]:.3e} -> {mse[-1]:.3e}, monotone={monotone}, log slope {slope:.3f}",
    )
