"""Rate metrics: exact MI, eigenvalue lower bound, outage indicators.

Frozen expected values come from hand evaluations of the scalar pipeline
and the bound formulas; the chain mi_exact >= trace bound >= eigenvalue
bound and the outage event inclusion are checked on seeded draws.
"""

import math

import numpy as np
import pytest
from oracle import mi_from_mse_trace

from relaylab.channel import ChannelRealization, SystemConfig, sample_realization, sample_realization_batch
from relaylab.metrics import (
    bound_statistic,
    channel_eigenvalues,
    evaluate_realization,
    mi_lower_bound,
    mutual_info_joint,
    outage_bound_statistic,
    outage_separate,
    outage_threshold,
)
from relaylab.numerics import ContractViolation, SeedSpec, gram_eigvals_desc
from relaylab.simulator import _count_outages_bound
from relaylab.theory import m_bar
from relaylab.transceiver import build_design, error_cov_decomposed

SHAPES = [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 4), (2, 2, 1), (4, 2, 3)]


class TestMutualInfo:
    def test_zero_sinr(self):
        assert mutual_info_joint(np.zeros(2)) == 0.0

    def test_single_stream(self):
        assert mutual_info_joint(np.array([3.0])) == pytest.approx(1.0)

    def test_scalar_pipeline_value(self):
        # gamma = 1/3 from the hand-solved 1x1x1 design at rho = 1
        assert mutual_info_joint(np.array([1.0 / 3.0])) == pytest.approx(
            0.5 * math.log2(4.0 / 3.0)
        )

    def test_clips_roundoff(self):
        assert mutual_info_joint(np.array([-1e-10])) == 0.0
        with pytest.raises(ContractViolation):
            mutual_info_joint(np.array([-1e-3]))

    def test_rejects_nan(self):
        # a NaN rate would read as "not in outage" (nan <= R is False)
        with pytest.raises(ContractViolation, match="NaN"):
            mutual_info_joint(np.array([np.nan, 1.0]))
        with pytest.raises(ContractViolation, match="NaN"):
            mutual_info_joint(np.array([[1.0, 1.0], [1.0, np.nan]]))


class TestSinrInput:
    # A finite draw always gives a finite SINR, so an infinite one is refused like NaN
    @pytest.mark.parametrize(
        "gamma",
        [[np.inf, 1.0], [np.nan, 1.0], [[1.0, 1.0], [np.inf, 1.0]], [[1.0, 1.0], [1.0, np.nan]]],
        ids=["vector-inf", "vector-nan", "stack-inf", "stack-nan"],
    )
    @pytest.mark.parametrize("route", ["mutual_info_joint", "outage_separate"])
    def test_rejects_non_finite(self, route, gamma):
        call = {"mutual_info_joint": mutual_info_joint, "outage_separate": lambda g: outage_separate(g, 1.0, 2)}[route]
        with pytest.raises(ContractViolation, match="^gamma has NaN or infinite entries"):
            call(np.array(gamma))


class TestLowerBound:
    def test_scalar_hand_value(self):
        # 1x1x1, lam_h = lam_g = rho = 1: -(1/2) log2(1/2 + 1/3)
        value = mi_lower_bound(np.array([1.0]), np.array([1.0]), rho=1.0, n_s=1)
        assert value == pytest.approx(-0.5 * math.log2(5.0 / 6.0))
        assert value <= 0.5 * math.log2(4.0 / 3.0)  # below the exact MI

    def test_perfect_channels_large(self):
        value = mi_lower_bound(np.array([1e12]), np.array([1e12]), rho=1.0, n_s=1)
        assert value > 15.0

    def test_vanishing_snr(self):
        value = mi_lower_bound(np.array([1.0, 1.0]), np.array([1.0, 1.0]), rho=1e-12, n_s=2)
        assert abs(value) < 1e-9  # may be barely negative; reports clip at 0

    def test_zero_padded_first_hop(self):
        # n_s=3, n_r=2: third eigenvalue is a structural zero
        value = mi_lower_bound(np.array([2.0, 1.0, 0.0]), np.array([1.0, 1.0]), rho=10.0, n_s=3)
        assert np.isfinite(value)


class TestOutageBound:
    def test_threshold_low_rate(self):
        statistic, m = outage_bound_statistic(
            np.array([1.0, 1.0]), np.array([1.0, 1.0]), rho=10.0, n_s=2, rate_bpcu=0.42
        )
        assert m == pytest.approx(2.0 * 2.0 ** (-0.42))
        assert math.ceil(m) == 2  # the integer threshold at this rate
        assert statistic > 0

    def test_threshold_high_rate(self):
        _, m = outage_bound_statistic(
            np.array([1.0, 1.0]), np.array([1.0, 1.0]), rho=10.0, n_s=2, rate_bpcu=2.0
        )
        assert m == pytest.approx(0.5)
        assert math.ceil(m) == 1

    def test_perfect_channels_no_outage(self):
        statistic, m = outage_bound_statistic(
            np.array([1e12, 1e12]), np.array([1e12, 1e12]), rho=1.0, n_s=2, rate_bpcu=0.42
        )
        assert statistic < 1e-10
        assert statistic < m

    def test_threshold_matches_m_bar(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n_s = int(rng.integers(1, 7))
            m_dim = int(rng.integers(1, n_s + 1))
            rate = float(rng.uniform(0.0, 6.0))
            m = max(outage_threshold(n_s, m_dim, rate), 0.0)
            if abs(m - round(m)) < 1e-9:
                continue  # integer boundary: snapping semantics tested in theory
            assert m_bar(n_s, m_dim, rate) == math.ceil(m)


class TestBoundInputs:
    """The bound statistic and its two callers reject input that would
    otherwise come back as a plausible number (a NaN statistic reads as
    "not in outage"); zero eigenvalues stay legal, as a dead hop gives them."""

    @pytest.mark.parametrize(
        "case",  # (the argument the error must name, lambda_h, lambda_g, rho)
        [
            ("lambda_h", [np.nan, 1.0], [1.0, 1.0], 10.0),
            ("lambda_h", [1.0, -1e-3], [1.0, 1.0], 10.0),
            ("lambda_g", [1.0, 1.0], [np.inf, 1.0], 10.0),
            ("lambda_g", [1.0, 1.0], [1.0, np.nan], 10.0),
            ("rho", [1.0, 1.0], [1.0, 1.0], -1.0),
            ("rho", [1.0, 1.0], [1.0, 1.0], 0.0),
            ("rho", [1.0, 1.0], [1.0, 1.0], float("nan")),
            ("rho", [1.0, 1.0], [1.0, 1.0], float("inf")),
        ],
    )
    @pytest.mark.parametrize("route", ["bound_statistic", "outage_bound_statistic", "mi_lower_bound"])
    def test_rejects(self, case, route):
        name, lambda_h, lambda_g, rho = case
        call = {
            "bound_statistic": lambda: bound_statistic(np.array(lambda_h), np.array(lambda_g), rho),
            "outage_bound_statistic": lambda: outage_bound_statistic(np.array(lambda_h), np.array(lambda_g), rho, 2, 1.0),
            "mi_lower_bound": lambda: mi_lower_bound(np.array(lambda_h), np.array(lambda_g), rho, 2),
        }[route]
        with pytest.raises(ContractViolation, match=name):
            call()

    def test_mi_lower_bound_checks_n_s_and_padding(self):
        with pytest.raises(ContractViolation, match="n_s"):
            mi_lower_bound(np.zeros(0), np.zeros(0), 10.0, 0)
        with pytest.raises(ContractViolation, match="lambda_h"):
            mi_lower_bound(np.array([1.0, np.nan]), np.array([1.0]), 10.0, 2)

    def test_zero_eigenvalues_are_legal(self):
        assert bound_statistic(np.zeros(2), np.zeros(2), 10.0) == pytest.approx(2.0)


class TestOutageSeparate:
    def test_boundary_is_not_outage(self):
        assert not outage_separate(np.array([3.0, 3.0]), rate_bpcu=2.0, n_s=2)

    def test_dead_stream(self):
        assert outage_separate(np.array([3.0, 0.0]), rate_bpcu=2.0, n_s=2)

    def test_low_rate(self):
        assert not outage_separate(np.array([1.0, 1.0]), rate_bpcu=0.42, n_s=2)

    def test_rejects_nan(self):
        with pytest.raises(ContractViolation, match="NaN"):
            outage_separate(np.array([np.nan, 1.0]), rate_bpcu=1.0, n_s=2)

    @pytest.mark.parametrize(
        "case",  # (the argument the error must name, rate_bpcu, n_s)
        [
            ("rate_bpcu", float("nan"), 2),  # was "not in outage"
            ("rate_bpcu", -1.0, 2),
            ("n_s", 1.0, 0),  # was ZeroDivisionError
            ("n_s", 1.0, 2.0),
        ],
    )
    def test_rejects_bad_scalars(self, case):
        name, rate, n_s = case
        with pytest.raises(ContractViolation, match=name):
            outage_separate(np.array([3.0, 3.0]), rate_bpcu=rate, n_s=n_s)


class TestJensenChainAndInclusion:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_chain_and_inclusion(self, shape):
        n_s, n_r, n_d = shape
        for stream in range(60):
            rho = [1.0, 10.0, 100.0][stream % 3]
            rate = [0.42, 2.0][stream % 2]
            config = SystemConfig(n_s=n_s, n_r=n_r, n_d=n_d, rho=rho, rate_bpcu=rate)
            chan = sample_realization(config, SeedSpec(100, stream))
            design = build_design(config, chan)
            cov = error_cov_decomposed(config, chan, design)
            report = evaluate_realization(config, chan)

            middle = mi_from_mse_trace(float(np.sum(cov.per_stream_mse)), rho, n_s)
            lam_h, lam_g = channel_eigenvalues(config, chan)
            lower = mi_lower_bound(lam_h, lam_g, rho, n_s)
            assert report.mi_exact >= middle - 1e-9
            assert middle >= lower - 1e-9
            assert report.mi_exact >= report.mi_lower_bound - 1e-9
            if report.outage_exact:
                assert report.outage_bound

    def test_bound_statistic_equals_lower_bound_event(self):
        # statistic >= m iff the eigenvalue bound is at or below the rate
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rho=3.0, rate_bpcu=1.3)
        for stream in range(200):
            chan = sample_realization(config, SeedSpec(101, stream))
            report = evaluate_realization(config, chan)
            lam_h, lam_g = channel_eigenvalues(config, chan)
            raw_lower = mi_lower_bound(lam_h, lam_g, config.rho, config.n_s)
            assert report.outage_bound == (raw_lower <= config.rate_bpcu)


class TestMonotonicity:
    def test_better_channels_never_hurt(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n_s = int(rng.integers(1, 5))
            m_dim = int(rng.integers(1, n_s + 1))
            lam_h = np.sort(rng.gamma(2.0, 1.0, size=n_s))[::-1]
            lam_h[m_dim:] = 0.0
            lam_g = np.sort(rng.gamma(2.0, 1.0, size=m_dim))[::-1]
            rho = float(rng.uniform(0.5, 50.0))
            scale = float(rng.uniform(1.0, 4.0))
            lb = mi_lower_bound(lam_h, lam_g, rho, n_s)
            lb_scaled = mi_lower_bound(scale * lam_h, scale * lam_g, rho, n_s)
            assert lb_scaled >= lb - 1e-12
            s1, _ = outage_bound_statistic(lam_h[:m_dim], lam_g, rho, n_s, 1.0)
            s2, _ = outage_bound_statistic(scale * lam_h[:m_dim], scale * lam_g, rho, n_s, 1.0)
            assert s2 <= s1 + 1e-12


class TestChannelEigenvalues:
    def test_structural_zeros(self):
        config = SystemConfig(n_s=3, n_r=2, n_d=4, rho=1.0)
        chan = sample_realization(config, SeedSpec(5, 0))
        lam_h, lam_g = channel_eigenvalues(config, chan)
        assert lam_h.shape == (3,)
        assert lam_h[2] == 0.0  # rank min(3, 2) = 2
        assert lam_g.shape == (2,)
        assert np.all(lam_g > 0)

    def test_second_hop_padding(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=1, rho=1.0)
        chan = sample_realization(config, SeedSpec(5, 1))
        _, lam_g = channel_eigenvalues(config, chan)
        assert lam_g.shape == (2,)
        assert lam_g[1] == 0.0  # rank min(2, 1) = 1


class TestScalarRoutesAreBatchRows:
    # the scalar metrics are one-row views of the batched routes the
    # simulator counts with, so their values agree bit for bit
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rows_equal_bitwise(self, shape):
        config = SystemConfig(*shape, rho=10.0, rate_bpcu=1.0)
        n_s, m = config.n_s, config.m_dim
        h, g = sample_realization_batch(config, 7, np.arange(50, dtype=np.uint64))
        lam_h = gram_eigvals_desc(h, n_s)
        lam_g = gram_eigvals_desc(g, m)
        statistic = bound_statistic(lam_h[:, :m], lam_g, config.rho)
        lower = mi_lower_bound(lam_h, lam_g, config.rho, n_s)
        outages = 0
        for i in range(h.shape[0]):
            row_h, row_g = channel_eigenvalues(config, ChannelRealization(h=h[i], g=g[i]))
            assert np.array_equal(row_h, lam_h[i]) and np.array_equal(row_g, lam_g[i])
            s, threshold = outage_bound_statistic(row_h[:m], row_g, config.rho, n_s, config.rate_bpcu)
            assert s == statistic[i]
            assert mi_lower_bound(row_h, row_g, config.rho, n_s) == lower[i]
            outages += s >= threshold
        assert _count_outages_bound(config, h, g) == outages


class TestDeadFirstHop:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 2, 2), (4, 2, 3)])
    def test_zero_rate_and_outage(self, shape):
        config = SystemConfig(*shape, rho=10.0, rate_bpcu=0.5)
        chan = sample_realization(config, SeedSpec(3, 0))
        report = evaluate_realization(config, ChannelRealization(h=np.zeros_like(chan.h), g=chan.g))
        assert report.mi_exact == 0.0
        assert report.outage_exact and report.outage_bound and report.outage_separate
