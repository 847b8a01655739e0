"""Configuration validation and Rayleigh draw statistics."""

import numpy as np
import pytest

from relaylab.channel import (
    SystemConfig,
    config_at_snr,
    sample_realization,
    sample_realization_batch,
)
from relaylab.numerics import ContractViolation, SeedSpec


class TestPowerCoupling:
    @pytest.mark.parametrize("n_s,rho,expected", [(2, 10.0, 20.0), (1, 1.0, 1.0), (4, 100.0, 400.0)])
    def test_values(self, n_s, rho, expected):
        assert SystemConfig(n_s=n_s, n_r=2, n_d=2, rho=rho).p_r == expected

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ContractViolation, match="^rho "):
            SystemConfig(n_s=2, n_r=2, n_d=2, rho=0.0)

    @pytest.mark.parametrize("n_s", [-1, 0, np.nan, 1.5, True])
    def test_rejects_bad_n_s(self, n_s):
        # n_s is checked before the default budget rho * n_s is formed from it
        with pytest.raises(ContractViolation, match="^n_s "):
            SystemConfig(n_s=n_s, n_r=2, n_d=2)

    def test_config_defaults_to_coupling(self):
        config = SystemConfig(n_s=3, n_r=2, n_d=2, rho=5.0)
        assert config.p_r == 15.0

    def test_p_r_override(self):
        config = SystemConfig(n_s=3, n_r=2, n_d=2, rho=5.0, p_r=2.0)
        assert config.p_r == 2.0

    def test_config_at_snr(self):
        base = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
        at_20db = config_at_snr(base, 20.0)
        assert at_20db.rho == pytest.approx(100.0)
        assert at_20db.p_r == pytest.approx(200.0)
        assert at_20db.rate_bpcu == 2.0
        assert config_at_snr(SystemConfig(2, 2, 2, rho=5.0, p_r=10.0, rate_bpcu=2.0), 20.0) == at_20db


class TestConfigValidation:
    def test_antenna_counts(self):
        with pytest.raises(ContractViolation):
            SystemConfig(n_s=0, n_r=1, n_d=1)
        with pytest.raises(ContractViolation):
            SystemConfig(n_s=1, n_r=1, n_d=1, rho=-1.0)
        with pytest.raises(ContractViolation):
            SystemConfig(n_s=1, n_r=1, n_d=1, rate_bpcu=-0.1)

    @pytest.mark.parametrize("value", [True, 2.0, "2", np.bool_(True)])
    @pytest.mark.parametrize("field", ["n_s", "n_r", "n_d"])
    def test_antenna_counts_must_be_integers(self, field, value):
        with pytest.raises(ContractViolation):
            SystemConfig(**{"n_s": 1, "n_r": 1, "n_d": 1, field: value})

    @pytest.mark.parametrize("field", ["rho", "p_r", "rate_bpcu"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        # NaN passes every "< 0" check, so a NaN rate used to give p_out = 0
        with pytest.raises(ContractViolation):
            SystemConfig(n_s=2, n_r=2, n_d=2, **{field: value})

    @pytest.mark.parametrize(
        "field,value",  # None and "1" used to raise TypeError; p_r = None selects the default budget
        [(f, v) for f in ("rho", "p_r", "rate_bpcu") for v in (None, "1", True, 1j) if (f, v) != ("p_r", None)],
    )
    def test_real_fields_must_be_numbers(self, field, value):
        with pytest.raises(ContractViolation, match=field):
            SystemConfig(n_s=2, n_r=2, n_d=2, **{field: value})

    def test_m_dim(self):
        assert SystemConfig(n_s=3, n_r=2, n_d=4).m_dim == 2
        assert SystemConfig(n_s=2, n_r=5, n_d=1).m_dim == 2


class TestSampling:
    def test_shapes(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2)
        chan = sample_realization(config, SeedSpec(0, 0))
        assert chan.h.shape == (2, 2)
        assert chan.g.shape == (2, 2)

    def test_asymmetric_shape(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=1)
        chan = sample_realization(config, SeedSpec(0, 0))
        assert chan.g.shape == (1, 2)

    def test_pure_function(self):
        config = SystemConfig(n_s=3, n_r=2, n_d=4)
        a = sample_realization(config, SeedSpec(5, 17))
        b = sample_realization(config, SeedSpec(5, 17))
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.g, b.g)

    def test_batch_matches_singles(self):
        config = SystemConfig(n_s=2, n_r=3, n_d=2)
        streams = np.array([0, 9, 1000], dtype=np.uint64)
        h, g = sample_realization_batch(config, 77, streams)
        for i, s in enumerate(streams):
            single = sample_realization(config, SeedSpec(77, int(s)))
            assert np.array_equal(h[i], single.h)
            assert np.array_equal(g[i], single.g)

    def test_frobenius_moment(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2)
        h, _ = sample_realization_batch(config, 2025, np.arange(100_000, dtype=np.uint64))
        mean_sq = np.mean(np.sum(np.abs(h) ** 2, axis=(1, 2)))
        assert abs(mean_sq - 4.0) < 0.05

    def test_hops_independent(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2)
        h, g = sample_realization_batch(config, 31, np.arange(25_000, dtype=np.uint64))
        corr = np.mean(h.ravel() * g.ravel().conj())
        assert abs(corr) < 0.01

    def test_realization_shape_validation(self):
        from relaylab.channel import ChannelRealization

        with pytest.raises(ContractViolation):
            ChannelRealization(h=np.zeros((2, 2)), g=np.zeros((2, 3)))

    @pytest.mark.parametrize("hop", ["h", "g"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_realization_rejects_non_finite(self, hop, bad):
        from relaylab.channel import ChannelRealization

        hops = {"h": np.ones((2, 2), dtype=complex), "g": np.ones((2, 2), dtype=complex)}
        hops[hop][1, 0] = bad
        with pytest.raises(ContractViolation, match=f"hop {hop} has NaN or infinite"):
            ChannelRealization(**hops)

    def test_batch_rejects_negative_streams(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2)
        with pytest.raises(ContractViolation, match="stream_indices"):
            sample_realization_batch(config, 0, np.array([0, -1]))
