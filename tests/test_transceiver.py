"""Transceiver design: Wiener receiver, water-filling, covariance identities.

The two-term error covariance is checked against the independent direct
MMSE formula on every shape, including configurations with more source
antennas than relay antennas where the receiver-output covariance is
rank deficient. Water levels are checked against hand-solved closed
forms.
"""

import math

import numpy as np
import pytest

from relaylab.channel import ChannelRealization, SystemConfig, sample_realization, sample_realization_batch
from relaylab.cli import _second_hop_mse_trace
from relaylab.numerics import ContractViolation, SeedSpec, sample_complex_gaussian_batch
from relaylab.transceiver import (
    RankDeficiencyError,
    build_design,
    destination_receiver,
    destination_receiver_second_hop,
    error_cov_decomposed,
    error_cov_direct,
    optimal_gamma_batch,
    relay_power,
    relay_receiver,
    ry_identity_gap,
    signal_covariance,
    waterfill_phi,
    waterfill_phi_batch,
)

# (5, 3, 3) and (3, 1, 2) take the order-M Gram H H^H of h at orders 3 and 1
SHAPES = [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 1), (4, 2, 3), (5, 3, 3), (3, 1, 2)]


def _draw(shape, rho, seed, stream):
    n_s, n_r, n_d = shape
    config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=rho)
    return config, sample_realization(config, SeedSpec(seed, stream))


class TestPerDrawInputs:
    # Beyond the rows of test_boundaries.py (rho = -1, 0, -5 and nan there)
    @pytest.mark.parametrize(
        "name,call",
        [
            ("rho", lambda h, g, q: relay_receiver(h, True)),
            ("rho", lambda h, g, q: relay_power(h, q, float("inf"))),
            ("h", lambda h, g, q: relay_power(h * np.nan, q, 1.0)),  # was nan
            ("q", lambda h, g, q: relay_power(h, q * np.inf, 1.0)),
            ("q", lambda h, g, q: destination_receiver(h, g, q * np.nan, 1.0)),
        ],
        ids=["relay_receiver-rho-bool", "relay_power-rho-inf", "relay_power-h-nan", "relay_power-q-inf",
             "destination_receiver-q-nan"],
    )
    def test_rejects_by_name(self, name, call):
        config, chan = _draw((2, 2, 2), rho=10.0, seed=40, stream=0)
        q = build_design(config, chan).q
        with pytest.raises(ContractViolation, match=f"^{name} "):
            call(chan.h, chan.g, q)


class TestRelayReceiver:
    def test_scalar(self):
        l = relay_receiver(np.array([[1.0 + 0j]]), rho=1.0)
        assert l[0, 0] == pytest.approx(0.5)

    def test_zero_channel(self):
        l = relay_receiver(np.zeros((2, 3), dtype=complex), rho=4.0)
        assert np.all(l == 0)

    def test_wiener_orthogonality_identity(self):
        # E[(y - x) y^H] = 0: l (rho H H^H + I) l^H == rho H^H l^H
        h = sample_complex_gaussian_batch(3, 2, 1, np.array([0], dtype=np.uint64))[0]
        rho = 10.0
        l = relay_receiver(h, rho)
        lhs = l @ (rho * h @ h.conj().T + np.eye(3)) @ l.conj().T
        rhs = rho * h.conj().T @ l.conj().T
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


class TestSignalCovariance:
    def test_zero_channel(self):
        r_y = signal_covariance(np.zeros((2, 2), dtype=complex), rho=3.0)
        assert np.allclose(r_y, 0.0)

    def test_scalar(self):
        r_y = signal_covariance(np.array([[1.0 + 0j]]), rho=1.0)
        assert r_y[0, 0] == pytest.approx(0.5)

    def test_rank_deficient_when_more_source_antennas(self):
        h = sample_complex_gaussian_batch(2, 3, 2, np.array([0], dtype=np.uint64))[0]  # n_r=2, n_s=3
        r_y = signal_covariance(h, rho=10.0)
        values = np.linalg.eigvalsh(r_y)[::-1]
        assert values[2] <= 1e-9 * values[0]

    def test_complement_identity_across_draws(self):
        for stream in range(50):
            h = sample_complex_gaussian_batch(3, 2, 3, np.array([stream], dtype=np.uint64))[0]
            assert ry_identity_gap(h, rho=10.0) <= 1e-9

    def test_values_below_rho(self):
        for shape in SHAPES:
            config, chan = _draw(shape, rho=25.0, seed=4, stream=0)
            design = build_design(config, chan)
            assert np.all(design.lambda_y > 0)
            assert np.all(design.lambda_y < config.rho)


class TestWaterfill:
    def test_single_mode_closed_form(self):
        # lam_y=2, lam_g=3, p_r=1: solve (1/3)(sqrt(6/nu)-1) = 1 by hand.
        phi, nu = waterfill_phi(np.array([2.0]), np.array([3.0]), 1.0)
        assert phi[0] ** 2 == pytest.approx(0.5, abs=1e-8)
        assert nu == pytest.approx(0.375, abs=1e-8)

    def test_dead_second_hop(self):
        phi, nu = waterfill_phi(np.array([2.0, 1.0]), np.zeros(2), 5.0)
        assert np.all(phi == 0.0)
        assert math.isinf(nu)

    def test_two_mode_active_set_oracle(self):
        # Both modes active: with s = 1/sqrt(nu),
        # (1/4)(2s - 1) + (s - 1) = 10  =>  s = 7.5, nu = 1/56.25,
        # |phi|^2 = [(2s-1)/4, s-1] / [lam_y lam_g] = [3.5, 6.5].
        lam_y = np.array([1.0, 1.0])
        lam_g = np.array([4.0, 1.0])
        phi, nu = waterfill_phi(lam_y, lam_g, 10.0)
        assert nu == pytest.approx(1 / 56.25, rel=1e-8)
        assert phi[0] ** 2 == pytest.approx(3.5, rel=1e-8)
        assert phi[1] ** 2 == pytest.approx(6.5, rel=1e-8)
        assert np.sum(lam_y * phi**2) == pytest.approx(10.0, rel=1e-8)

    def test_budget_binds_and_per_mode_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            m = int(rng.integers(1, 7))
            lam_y = np.sort(rng.gamma(2.0, 2.0, size=m))[::-1]
            lam_g = np.sort(rng.gamma(2.0, 2.0, size=m))[::-1]
            if rng.random() < 0.3:
                lam_g[rng.integers(0, m):] = 0.0
            p_r = float(rng.gamma(2.0, 5.0) + 0.1)
            phi, nu = waterfill_phi(lam_y, lam_g, p_r)
            if np.all(lam_y * lam_g == 0):
                assert np.all(phi == 0.0)
                continue
            assert abs(np.sum(lam_y * phi**2) - p_r) <= 1e-8 * p_r
            expected_sq = np.where(
                lam_y * lam_g > 0,
                np.maximum(np.sqrt(lam_y * lam_g / nu) - 1.0, 0.0)
                / np.where(lam_y * lam_g > 0, lam_y * lam_g, 1.0),
                0.0,
            )
            assert np.max(np.abs(phi**2 - expected_sq)) <= 1e-8
            assert np.all(phi[lam_g == 0.0] == 0.0)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ContractViolation):
            waterfill_phi(np.array([-1.0]), np.array([1.0]), 1.0)
        with pytest.raises(ContractViolation):
            waterfill_phi(np.array([1.0]), np.array([1.0]), 0.0)

    def test_rejects_unsorted_inputs(self):
        with pytest.raises(ContractViolation):
            waterfill_phi(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("stack", ["lambda_y", "lambda_g"])
    def test_rejects_non_finite_eigenvalues(self, stack, bad):
        def args(vec):
            return (vec, np.ones_like(vec)) if stack == "lambda_y" else (np.ones_like(vec), vec)

        with pytest.raises(ContractViolation, match=stack):
            waterfill_phi(*args(np.array([bad, 1.0])), 1.0)
        with pytest.raises(ContractViolation, match=stack):
            waterfill_phi_batch(*args(np.array([[2.0, 1.0], [1.0, bad]])), 1.0)

    def test_rejects_non_finite_budget(self):
        for p_r in (float("nan"), float("inf")):
            with pytest.raises(ContractViolation):
                waterfill_phi(np.array([1.0]), np.array([1.0]), p_r)

    @pytest.mark.parametrize("p_r", [True, float("nan"), float("inf"), 0.0, -1.0, "1"])
    def test_rejects_bad_budget_by_name(self, p_r):
        with pytest.raises(ContractViolation, match="p_r"):
            waterfill_phi(np.array([1.0]), np.array([1.0]), p_r)

    def test_batch_rows_equal_single_rows(self):
        rng = np.random.default_rng(20)
        lam_y = np.sort(rng.gamma(2.0, 2.0, size=(200, 3)), axis=1)[:, ::-1]
        lam_g = np.sort(rng.gamma(2.0, 2.0, size=(200, 3)), axis=1)[:, ::-1]
        lam_g[::4, 1:] = 0.0
        lam_g[::7] = 0.0
        phi, nu = waterfill_phi_batch(lam_y, lam_g, 3.0)
        for i in range(200):
            phi_i, nu_i = waterfill_phi(lam_y[i], lam_g[i], 3.0)
            assert np.array_equal(phi[i], phi_i)
            assert nu[i] == nu_i
        assert np.all(np.isinf(nu[::7])) and np.all(phi[::7] == 0.0)


class TestOptimalGammaBatch:
    def test_matches_decomposed_route(self):
        # 1e4 draws over every shape and four SNRs against the per-draw design
        # (1e3 is the 30 dB top of the exact-mode workloads)
        rhos = (1.0, 10.0, 100.0, 1000.0)
        draws = 10_000 // (len(SHAPES) * len(rhos)) + 1
        worst = 0.0
        for shape in SHAPES:
            for rho in rhos:
                config = SystemConfig(*shape, rho=rho)
                h, g = sample_realization_batch(config, 23, np.arange(draws, dtype=np.uint64))
                batched = optimal_gamma_batch(config, h, g)
                for i in range(draws):
                    chan = ChannelRealization(h=h[i], g=g[i])
                    ref = error_cov_decomposed(config, chan, build_design(config, chan)).gamma
                    worst = max(worst, float(np.max(np.abs(batched[i] - ref) / ref)))
        assert worst <= 1e-9, f"worst relative SINR gap {worst:.3e}"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_dead_hops_match_direct_route(self, shape):
        # h = 0 makes the decomposed route raise RankDeficiencyError; the
        # batch needs no fallback and agrees with the direct formula
        n_s, n_r, n_d = shape
        config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=10.0)
        h, g = sample_realization_batch(config, 24, np.arange(4, dtype=np.uint64))
        h[0] = 0.0
        g[1] = 0.0
        h[2] = 0.0
        g[2] = 0.0
        batched = optimal_gamma_batch(config, h, g)
        for i in range(4):
            chan = ChannelRealization(h=h[i], g=g[i])
            direct = error_cov_direct(config, chan, build_design(config, chan).q).gamma
            assert np.allclose(batched[i], direct, rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(batched[:3])) <= 1e-12

    @pytest.mark.parametrize("shape", [(4, 2, 3), (5, 3, 3), (2, 2, 2), (2, 3, 2)])
    def test_rank_one_first_hop_matches_direct_route(self, shape):
        # h = s1 a1 b1^H + s2 a2 b2^H with s2 / s1 = 0 or 1e-7: the small
        # modes of the order-M Gram must give finite, oracle-equal SINRs
        n_s, n_r, n_d = shape
        config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=100.0)
        h, g = sample_realization_batch(config, 26, np.arange(8, dtype=np.uint64))
        for i in range(8):
            a, s, bh = np.linalg.svd(h[i], full_matrices=False)
            s[1] = 0.0 if i % 2 == 0 else 1e-7 * s[0]
            s[2:] = 0.0
            h[i] = (a * s) @ bh
        batched = optimal_gamma_batch(config, h, g)
        assert np.all(np.isfinite(batched))
        for i in range(8):
            chan = ChannelRealization(h=h[i], g=g[i])
            direct = error_cov_direct(config, chan, build_design(config, chan).q).gamma
            assert np.allclose(batched[i], direct, rtol=1e-9, atol=1e-12)

    # Per shape: h whose order-2 Gram has a = b, c = 0 (a multiple of I),
    # h whose Gram has a = b, c != 0, and a g whose top two Gram eigenvalues
    # are both 2, on which every basis of the degenerate first hop gives
    # the same SINRs (a random g then sits with the second h)
    EQUAL_DIAGONAL = {
        (4, 2, 3): ([[1, 1j, 0, 0], [0, 0, 1, -1]], [[1, 1, 1j, 0], [1, 0, 1, 1]], [[1, 1], [1, -1], [0, 0]]),
        (2, 2, 2): ([[1, 1], [1, -1]], [[2, 1], [1, 2]], [[1, 1], [1, -1]]),
        (2, 3, 2): ([[1, 1], [1, -1], [0, 0]], [[1, 0], [1j, 1], [0, -1j]], [[1, 1, 0], [1, -1, 0]]),
    }

    @pytest.mark.parametrize("shape", list(EQUAL_DIAGONAL))
    def test_equal_diagonal_grams_match_direct_route(self, shape):
        scalar_h, coupled_h, isotropic_g = (np.array(x, dtype=complex) for x in self.EQUAL_DIAGONAL[shape])
        config = SystemConfig(*shape, rho=10.0)
        _, g = sample_realization_batch(config, 28, np.arange(2, dtype=np.uint64))
        h = np.stack([scalar_h, coupled_h])
        g[0] = isotropic_g
        batched = optimal_gamma_batch(config, h, g)
        for i in range(2):
            chan = ChannelRealization(h=h[i], g=g[i])
            direct = error_cov_direct(config, chan, build_design(config, chan).q).gamma
            assert np.allclose(batched[i], direct, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("shape", [(4, 2, 3), (2, 2, 2), (2, 3, 2), (5, 3, 3)])
    def test_order_two_gram_takes_no_lapack_eigh(self, shape, monkeypatch):
        config = SystemConfig(*shape, rho=10.0)
        h, g = sample_realization_batch(config, 29, np.arange(16, dtype=np.uint64))

        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        if config.m_dim == 2:
            assert np.all(np.isfinite(optimal_gamma_batch(config, h, g)))
        else:  # eigh stays for M != 2
            with pytest.raises(AssertionError, match="eigh called"):
                optimal_gamma_batch(config, h, g)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("stack", ["h", "g"])
    def test_rejects_non_finite_channels(self, stack, bad):
        config = SystemConfig(n_s=4, n_r=2, n_d=3, rho=10.0)
        h, g = sample_realization_batch(config, 27, np.arange(3, dtype=np.uint64))
        (h if stack == "h" else g)[1, 0, 1] = bad
        with pytest.raises(ContractViolation, match=f"stack {stack} "):
            optimal_gamma_batch(config, h, g)

    def test_rejects_mismatched_stacks(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rho=10.0)
        h, g = sample_realization_batch(config, 25, np.arange(3, dtype=np.uint64))
        with pytest.raises(ContractViolation):
            optimal_gamma_batch(config, h, g[:2])
        with pytest.raises(ContractViolation):
            optimal_gamma_batch(config, h[0], g[0])


class TestBuildDesign:
    def test_scalar_pipeline_hand_values(self):
        config = SystemConfig(n_s=1, n_r=1, n_d=1, rho=1.0, p_r=1.0)
        chan = ChannelRealization(h=np.ones((1, 1), dtype=complex), g=np.ones((1, 1), dtype=complex))
        design = build_design(config, chan)
        assert design.l[0, 0] == pytest.approx(0.5)
        assert design.r_y[0, 0] == pytest.approx(0.5)
        assert design.lambda_y[0] == pytest.approx(0.5)
        assert design.lambda_g[0] == pytest.approx(1.0)
        assert design.phi[0] ** 2 == pytest.approx(2.0, rel=1e-8)
        assert design.nu == pytest.approx(0.125, rel=1e-8)
        assert abs(design.q[0, 0]) == pytest.approx(math.sqrt(2) / 2, rel=1e-8)
        assert abs(design.w[0, 0]) == pytest.approx(math.sqrt(2) / 4, rel=1e-8)
        assert relay_power(chan.h, design.q, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_asymmetric_2x2x1(self):
        config, chan = _draw((2, 2, 1), rho=10.0, seed=5, stream=3)
        design = build_design(config, chan)
        assert design.w.shape == (2, 1)
        assert design.q.shape == (2, 2)
        spent = relay_power(chan.h, design.q, config.rho)
        assert spent <= config.p_r * (1 + 1e-8)
        assert spent == pytest.approx(config.p_r, rel=1e-6)
        # only min(n_r, n_d) = 1 usable second-hop mode
        assert design.lambda_g[1] == 0.0
        assert design.phi[1] == 0.0

    def test_dead_second_hop(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rho=10.0)
        chan_live = sample_realization(config, SeedSpec(6, 0))
        chan = ChannelRealization(h=chan_live.h, g=np.zeros((2, 2), dtype=complex))
        design = build_design(config, chan)
        assert np.all(design.phi == 0.0)
        assert np.all(design.q == 0.0)
        assert np.all(design.w == 0.0)

    def test_dead_first_hop(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rho=10.0)
        chan_live = sample_realization(config, SeedSpec(6, 1))
        chan = ChannelRealization(h=np.zeros((2, 2), dtype=complex), g=chan_live.g)
        design = build_design(config, chan)
        assert np.all(design.q == 0.0)
        assert np.all(design.w == 0.0)
        cov = error_cov_direct(config, chan, design.q)
        assert np.allclose(cov.r_e, config.rho * np.eye(2))

    def test_power_binds_across_shapes(self):
        for shape in SHAPES:
            for stream in range(10):
                config, chan = _draw(shape, rho=10.0, seed=7, stream=stream)
                design = build_design(config, chan)
                spent = relay_power(chan.h, design.q, config.rho)
                assert spent <= config.p_r * (1 + 1e-8)
                if np.any(design.phi > 0):
                    assert spent == pytest.approx(config.p_r, rel=1e-6)

    def test_unit_precoder_always_feasible(self):
        # Tr(B R_y B^H) < rho * M for B built from Phi = I
        for shape in SHAPES:
            config, chan = _draw(shape, rho=10.0, seed=9, stream=1)
            design = build_design(config, chan)
            b_eye = design.v_g_tilde @ design.u_y_tilde.conj().T
            spent = float(np.real(np.trace(b_eye @ design.r_y @ b_eye.conj().T)))
            assert spent < config.rho * config.m_dim


class TestErrorCovariance:
    def test_no_relaying(self):
        config, chan = _draw((2, 2, 2), rho=7.0, seed=10, stream=0)
        cov = error_cov_direct(config, chan, np.zeros((2, 2), dtype=complex))
        assert np.allclose(cov.r_e, 7.0 * np.eye(2))
        assert np.allclose(cov.gamma, 0.0)

    def test_scalar_value_both_routes(self):
        config = SystemConfig(n_s=1, n_r=1, n_d=1, rho=1.0, p_r=1.0)
        chan = ChannelRealization(h=np.ones((1, 1), dtype=complex), g=np.ones((1, 1), dtype=complex))
        design = build_design(config, chan)
        direct = error_cov_direct(config, chan, design.q)
        decomposed = error_cov_decomposed(config, chan, design)
        assert direct.r_e[0, 0].real == pytest.approx(0.75, rel=1e-8)
        assert decomposed.r_e[0, 0].real == pytest.approx(0.75, rel=1e-8)

    def test_dead_second_hop_reduces_to_prior(self):
        # g = 0 with n_s <= n_r: R_e = (H^H H + I/rho)^-1 + U L U^H = rho I
        config = SystemConfig(n_s=2, n_r=3, n_d=2, rho=5.0)
        live = sample_realization(config, SeedSpec(11, 0))
        chan = ChannelRealization(h=live.h, g=np.zeros((2, 3), dtype=complex))
        design = build_design(config, chan)
        cov = error_cov_decomposed(config, chan, design)
        assert np.linalg.norm(cov.r_e - 5.0 * np.eye(2)) <= 1e-9 * np.linalg.norm(cov.r_e)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_decomposition_matches_direct(self, shape):
        for stream in range(40):
            config, chan = _draw(shape, rho=10.0, seed=12, stream=stream)
            design = build_design(config, chan)
            direct = error_cov_direct(config, chan, design.q)
            decomposed = error_cov_decomposed(config, chan, design)
            gap = np.linalg.norm(direct.r_e - decomposed.r_e) / np.linalg.norm(direct.r_e)
            assert gap <= 1e-9

    @pytest.mark.parametrize("shape", SHAPES)
    def test_decomposition_holds_for_arbitrary_precoder(self, shape):
        n_s, n_r, n_d = shape
        m = min(n_s, n_r)
        rng = np.random.default_rng(13)
        for stream in range(25):
            config, chan = _draw(shape, rho=10.0, seed=14, stream=stream)
            design = build_design(config, chan)
            b1 = rng.standard_normal((n_r, m)) + 1j * rng.standard_normal((n_r, m))
            b1[:m, :m] += 0.5 * np.eye(m)
            b = b1 @ design.u_y_tilde.conj().T
            direct = error_cov_direct(config, chan, b @ design.l)
            decomposed = error_cov_decomposed(config, chan, design, relay_precoder=b)
            gap = np.linalg.norm(direct.r_e - decomposed.r_e) / np.linalg.norm(direct.r_e)
            assert gap <= 1e-9

    def test_receiver_form_equivalence(self):
        for shape in SHAPES:
            for stream in range(15):
                config, chan = _draw(shape, rho=10.0, seed=15, stream=stream)
                design = build_design(config, chan)
                alt = destination_receiver_second_hop(design.r_y, design.b, chan.g)
                ref = max(np.linalg.norm(design.w), 1e-30)
                assert np.linalg.norm(design.w - alt) / ref <= 1e-9

    def test_bounds_and_gamma(self):
        for shape in SHAPES:
            for stream in range(15):
                config, chan = _draw(shape, rho=10.0, seed=16, stream=stream)
                design = build_design(config, chan)
                cov = error_cov_decomposed(config, chan, design)
                eigs = np.linalg.eigvalsh(cov.r_e)
                assert eigs.min() > 0
                assert eigs.max() <= config.rho * (1 + 1e-9)
                assert np.all(cov.gamma >= -1e-9)

    def test_waterfilling_is_optimal_among_feasible_diagonals(self):
        rng = np.random.default_rng(17)
        for stream in range(20):
            config, chan = _draw((2, 2, 2), rho=10.0, seed=18, stream=stream)
            design = build_design(config, chan)
            if not np.any(design.phi > 0):
                continue
            base = _second_hop_mse_trace(design.lambda_y, design.lambda_g, design.phi)
            for _ in range(10):
                phi = np.abs(design.phi + 0.2 * rng.standard_normal(2))
                phi[design.lambda_g == 0.0] = 0.0
                spent = np.sum(design.lambda_y * phi**2)
                if spent == 0.0:
                    continue
                phi *= math.sqrt(config.p_r / spent)
                trial = _second_hop_mse_trace(design.lambda_y, design.lambda_g, phi)
                assert trial >= base * (1 - 1e-7)

    def test_rank_deficiency_error(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rho=10.0)
        live = sample_realization(config, SeedSpec(19, 0))
        chan = ChannelRealization(h=np.zeros((2, 2), dtype=complex), g=live.g)
        design = build_design(config, chan)
        with pytest.raises(RankDeficiencyError):
            error_cov_decomposed(config, chan, design)
