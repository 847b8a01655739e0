"""Acceptance suite: every headline result at its stated tolerance.

Each test prints one PASS line on success (run ``pytest -v -rA`` to see
them); a failure prints the measured values via the assertion message.
The Monte Carlo experiments use a fixed master seed and are fully
deterministic, worker count included. Criteria 5 and 6 are the long
ones (minutes to tens of minutes); everything else finishes in seconds.
"""

import math

import numpy as np
import pytest
from oracle import mi_from_mse_trace

from relaylab.channel import SystemConfig, sample_realization
from relaylab.cli import main, run_design_check
from relaylab.metrics import (
    channel_eigenvalues,
    evaluate_realization,
    mi_lower_bound,
)
from relaylab.numerics import SeedSpec
from relaylab.simulator import SweepSpec, fit_slope, run_point, run_sweep
from relaylab.transceiver import (
    build_design,
    error_cov_decomposed,
    waterfill_phi,
)

MASTER_SEED = 20260808
SHAPES = [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 1), (4, 2, 3)]


def _report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_closed_form_reproduction(capsys):
    """Diversity orders 4 and 1 for 2x2x2 at R = 0.42 and 2; 0 for 2x2x1 at R = 2."""
    assert main(["theory", "--ns", "2", "--nr", "2", "--nd", "2", "--rates", "0.42,2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
    assert rows[1][:3] == ["0.42", "2", "4"]
    assert rows[2][:3] == ["2", "1", "1"]
    assert main(["theory", "--ns", "2", "--nr", "2", "--nd", "1", "--rates", "2"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
    assert rows[1][:3] == ["2", "1", "0"]
    with capsys.disabled():
        _report("1 closed-form reproduction", "(m_bar, d) = (2,4), (1,1), (1,0)")


def test_criterion_2_covariance_identity_suite(capsys):
    """Error covariance decomposition and R_y identity, 500 draws per shape, 1e-9.

    Runs the ``design-check`` battery, which holds both identities (and
    its other checks) at their tolerances on the same draws.
    """
    results = run_design_check(SHAPES, 500, 10.0, MASTER_SEED)
    worst_cov = max(result.worst["decomposition_gap"][0] for result in results)
    worst_ry = max(result.worst["ry_gap"][0] for result in results)
    assert worst_cov <= 1e-9, f"covariance decomposition gap {worst_cov:.3e}"
    assert worst_ry <= 1e-9, f"R_y identity gap {worst_ry:.3e}"
    failed = {result.shape: (result.worst, result.breaches[:5]) for result in results if not result.ok}
    assert not failed, f"design-check battery failed: {failed}"
    with capsys.disabled():
        _report("2 covariance identity suite",
                f"max gaps: decomposition {worst_cov:.2e}, R_y {worst_ry:.2e}")


def test_criterion_3_waterfilling_suite(capsys):
    """Power budget and per-mode water-filling formula on 1e4 random instances."""
    phi, nu = waterfill_phi(np.array([2.0]), np.array([3.0]), 1.0)
    assert phi[0] ** 2 == pytest.approx(0.5, abs=1e-8)
    assert nu == pytest.approx(0.375, abs=1e-8)

    rng = np.random.default_rng(MASTER_SEED)
    worst_power = 0.0
    worst_mode = 0.0
    for _ in range(10_000):
        m = int(rng.integers(1, 7))
        lam_y = np.sort(rng.gamma(2.0, rng.uniform(0.1, 10.0), size=m))[::-1]
        lam_g = np.sort(rng.gamma(2.0, rng.uniform(0.1, 10.0), size=m))[::-1]
        if rng.random() < 0.25:
            lam_g[int(rng.integers(0, m)):] = 0.0
        p_r = float(rng.gamma(2.0, rng.uniform(0.5, 20.0)) + 0.05)
        phi, nu = waterfill_phi(lam_y, lam_g, p_r)
        products = lam_y * lam_g
        if not np.any(products > 0):
            assert np.all(phi == 0.0) and math.isinf(nu)
            continue
        worst_power = max(worst_power, abs(float(np.sum(lam_y * phi**2)) - p_r) / p_r)
        active = products > 0
        formula = np.maximum(np.sqrt(products[active] / nu) - 1.0, 0.0) / products[active]
        worst_mode = max(worst_mode, float(np.max(np.abs(phi[active] ** 2 - formula))))
        assert np.all(phi[~active] == 0.0)
    assert worst_power <= 1e-8, f"power mismatch {worst_power:.3e}"
    assert worst_mode <= 1e-8, f"per-mode residual {worst_mode:.3e}"
    with capsys.disabled():
        _report("3 water-filling KKT/power suite",
                f"max power mismatch {worst_power:.2e}, per-mode residual {worst_mode:.2e}")


def test_criterion_4_jensen_and_inclusion_suite(capsys):
    """mi_exact >= lower bound - 1e-9 and outage event inclusion on 1e4 draws."""
    draws_per_case = 10_000 // (len(SHAPES) * 3) + 1  # ~1.7e3 per shape over 3 SNRs
    checked = 0
    min_slack = math.inf
    for shape in SHAPES:
        n_s, n_r, n_d = shape
        for rho, rate in ((1.0, 0.42), (10.0, 2.0), (100.0, 1.0)):
            config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=rho, rate_bpcu=rate)
            for draw in range(draws_per_case):
                chan = sample_realization(config, SeedSpec(MASTER_SEED + 1, draw))
                design = build_design(config, chan)
                cov = error_cov_decomposed(config, chan, design)
                report = evaluate_realization(config, chan)
                middle = mi_from_mse_trace(float(np.sum(cov.per_stream_mse)), rho, n_s)
                lam_h, lam_g = channel_eigenvalues(config, chan)
                lower = mi_lower_bound(lam_h, lam_g, rho, n_s)
                assert report.mi_exact >= middle - 1e-9
                assert middle >= lower - 1e-9
                min_slack = min(min_slack, report.mi_exact - lower)
                if report.outage_exact:
                    assert report.outage_bound
                checked += 1
    assert checked >= 10_000
    with capsys.disabled():
        _report("4 rate-bound chain and inclusion",
                f"{checked} draws, min (mi_exact - bound) = {min_slack:.3e}")


@pytest.mark.slow
def test_criterion_5_high_rate_slope(capsys):
    """2x2x2 at R = 2: fitted slope within +-0.3 of the closed form d = 1."""
    config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
    spec = SweepSpec(
        config=config,
        snr_grid_db=(10.0, 15.0, 20.0, 25.0, 30.0),
        trials_per_point=10**6,
        outage_mode="bound",
        master_seed=MASTER_SEED,
    )
    curve = run_sweep(spec, workers=2)
    fit = fit_slope(curve)
    assert fit.d_theory == 1
    assert abs(fit.d_hat - 1.0) <= 0.3, f"d_hat = {fit.d_hat:.3f}"
    assert len(fit.window_snr_db) == 5  # every point usable at 1e6 trials
    with capsys.disabled():
        _report("5 high-rate diversity slope", f"d_hat = {fit.d_hat:.3f} vs d = 1")


@pytest.mark.slow
def test_criterion_6_low_rate_slope(capsys):
    """2x2x2 at R = 0.42, adaptive up to 1e8 trials/point over 5-20 dB.

    One-sided check: the fitted slope clears 2.5 by a wide margin and the
    high-SNR end of the window runs at the vicinity of the full diversity
    4 (the finite-SNR slope of the outage bound approaches 4 from above,
    so the asymptote shows up as slope >= ~4 rather than as a slow climb
    from below).
    """
    config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=0.42)
    spec = SweepSpec(
        config=config,
        snr_grid_db=(5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0),
        trials_per_point=10**8,
        outage_mode="bound",
        master_seed=MASTER_SEED,
        adaptive=True,
        target_outages=200,
    )
    curve = run_sweep(spec, workers=2)
    fit = fit_slope(curve, min_count=20)
    assert fit.d_theory == 4
    assert fit.d_hat >= 2.5, f"d_hat = {fit.d_hat:.3f}"
    assert len(fit.window_snr_db) >= 3

    # slope over the top half of the usable window has reached ~4
    window = [p for p in curve.points if p.snr_db in fit.window_snr_db]
    top = window[len(window) // 2 - 1 :]
    x = np.array([p.snr_db / 10.0 for p in top])
    y = np.log10([p.p_out for p in top])
    d_top = -np.polyfit(x, y, 1)[0]
    assert d_top >= 3.25, f"top-half slope {d_top:.3f}"
    with capsys.disabled():
        _report(
            "6 low-rate diversity slope",
            f"d_hat = {fit.d_hat:.3f} over {fit.window_snr_db} dB, "
            f"top-half slope {d_top:.3f} (asymptote 4)",
        )


def test_criterion_7_rate_dependence_crossover(capsys):
    """2x2x1 at 15 dB: outage at R = 0.42 at least 10x below R = 2."""
    results = {}
    for rate in (0.42, 2.0):
        config = SystemConfig(n_s=2, n_r=2, n_d=1, rate_bpcu=rate)
        outages, trials = run_point(
            config, 15.0, 10**6, "bound", master_seed=MASTER_SEED, point_index=0, workers=2
        )
        results[rate] = outages / trials
    assert results[0.42] <= results[2.0] / 10.0, f"p = {results}"
    with capsys.disabled():
        _report(
            "7 rate-dependence crossover",
            f"p(R=0.42) = {results[0.42]:.3e} vs p(R=2) = {results[2.0]:.3e}",
        )


def test_criterion_8_determinism_across_workers(tmp_path, capsys):
    """Same spec and seed, different worker counts: byte-identical CSV."""
    config_text = (
        "[system]\nn_s = 2\nn_r = 2\nn_d = 2\nrate_bpcu = 2.0\n\n"
        "[sweep]\nsnr_grid_db = 5, 10, 15\ntrials_per_point = 20000\n"
        f"outage_mode = bound\nmaster_seed = {MASTER_SEED}\n"
    )
    config_path = tmp_path / "sweep.ini"
    config_path.write_text(config_text)
    outputs = []
    for workers in (1, 2):
        out_dir = tmp_path / f"workers{workers}"
        code = main([
            "simulate", "--config", str(config_path), "--out-dir", str(out_dir),
            "--workers", str(workers),
        ])
        assert code == 0
        outputs.append((out_dir / "curve.csv").read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        _report("8 determinism", f"{len(outputs[0])} CSV bytes identical for workers 1 vs 2")
