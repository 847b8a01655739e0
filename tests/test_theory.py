"""Closed-form diversity predictions and their structural identities."""

import numpy as np
import pytest

from relaylab.numerics import ContractViolation
from relaylab.theory import (
    REGIME_FULL_DIVERSITY,
    REGIME_HIGH_RATE,
    REGIME_INTERMEDIATE,
    classify_regime,
    dmt,
    drt,
    m_bar,
    outage_threshold,
    predict,
)


class TestMBar:
    @pytest.mark.parametrize(
        "n_s,m_dim,rate,expected",
        [(2, 2, 0.42, 2), (2, 2, 2.0, 1), (2, 2, 0.0, 2), (1, 1, 5.0, 1), (3, 2, 10.0, 0)],
    )
    def test_values(self, n_s, m_dim, rate, expected):
        assert m_bar(n_s, m_dim, rate) == expected

    def test_integer_boundary_no_bump(self):
        # n_s = 2, R = 1: argument is exactly 1
        assert m_bar(2, 2, 1.0) == 1

    def test_monotone_in_rate(self):
        rates = np.linspace(0.0, 8.0, 200)
        values = [m_bar(3, 3, r) for r in rates]
        assert all(a >= b for a, b in zip(values, values[1:]))


class TestDrt:
    @pytest.mark.parametrize(
        "shape,rate,expected",
        [
            ((2, 2, 2), 0.42, 4),
            ((2, 2, 2), 2.0, 1),
            ((2, 2, 1), 0.42, 2),   # min(2*2, 2*1)
            ((2, 2, 1), 2.0, 0),    # m_bar = 1, second factor (1-2+1)=0
        ],
    )
    def test_values(self, shape, rate, expected):
        assert drt(*shape, rate) == expected

    def test_monotone_in_rate(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n_s, n_r, n_d = rng.integers(1, 6, size=3)
            rates = np.sort(rng.uniform(0, 6, size=8))
            values = [drt(int(n_s), int(n_r), int(n_d), float(r)) for r in rates]
            assert all(a >= b for a, b in zip(values, values[1:]))


class TestDmt:
    @pytest.mark.parametrize(
        "shape,r,expected",
        [((2, 2, 2), 0.0, 1.0), ((2, 2, 1), 0.7, 0.0), ((2, 4, 4), 0.5, 1.5)],
    )
    def test_values(self, shape, r, expected):
        assert dmt(*shape, r) == pytest.approx(expected)

    def test_zero_beyond_max_mux(self):
        assert dmt(2, 4, 4, 1.0) == 0.0


class TestRegimes:
    @pytest.mark.parametrize(
        "n_s,rate,expected",
        [
            (2, 2.0, REGIME_HIGH_RATE),
            (2, 0.42, REGIME_FULL_DIVERSITY),
            (1, 99.0, REGIME_FULL_DIVERSITY),
            (4, 1.0, REGIME_INTERMEDIATE),
        ],
    )
    def test_examples(self, n_s, rate, expected):
        assert classify_regime(n_s, rate) == expected

    def test_regime_matches_m_bar_grid(self):
        # The high-rate threshold coincides with m_bar == 1 exactly when
        # the relay does not bottleneck the source (m_dim == n_s); the
        # full-diversity threshold matches m_bar == M for every geometry.
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            n_s = int(rng.integers(2, 7))
            n_r = int(rng.integers(1, 7))
            rate = float(rng.uniform(0.0, 8.0))
            m_dim = min(n_s, n_r)
            mb = m_bar(n_s, m_dim, rate)
            regime = classify_regime(n_s, rate)
            if m_dim == n_s:
                assert (regime == REGIME_HIGH_RATE) == (mb == 1) or m_dim == 1
            assert (regime == REGIME_FULL_DIVERSITY) == (mb == m_dim)

    def test_full_diversity_identity(self):
        # m_bar = M makes the fixed-rate diversity equal n_r * min(n_s, n_d)
        rng = np.random.default_rng(4)
        for _ in range(2000):
            n_s, n_r, n_d = (int(x) for x in rng.integers(1, 7, size=3))
            pred = predict(n_s, n_r, n_d, rate_bpcu=0.0)
            assert pred.m_bar == min(n_s, n_r)
            assert pred.d_drt == n_r * min(n_s, n_d)
            assert pred.full_diversity

    def test_high_rate_matches_dmt_at_zero_mux(self):
        rng = np.random.default_rng(5)
        count = 0
        for _ in range(2000):
            n_s = int(rng.integers(2, 6))
            n_r = int(rng.integers(n_s, 7))
            n_d = int(rng.integers(n_s, 7))
            rate = float(rng.uniform(0.5 * n_s * np.log2(n_s), 8.0))
            if m_bar(n_s, min(n_s, n_r), rate) != 1:
                continue
            count += 1
            assert drt(n_s, n_r, n_d, rate) == n_r - n_s + 1 == dmt(n_s, n_r, n_d, 0.0)
        assert count > 100


class TestPredict:
    def test_bundle(self):
        pred = predict(2, 2, 2, rate_bpcu=0.42)
        assert (pred.m_bar, pred.d_drt) == (2, 4)
        assert pred.full_diversity
        assert pred.regime_note == REGIME_FULL_DIVERSITY
        assert pred.d_dmt == 1.0


class TestRejectsBadInput:
    @pytest.mark.parametrize(
        "fn,args",
        [
            (drt, (0, 2, 2, 1.0)),
            (drt, (2, 2, -3, 1.0)),
            (drt, (2, 2, 2, float("nan"))),
            (drt, (2, 2, 2, float("inf"))),
            (dmt, (0, 2, 2, 0.5)),
            (dmt, (2, 0, 2, 0.5)),
            (dmt, (2, 2, 2, float("nan"))),
            (dmt, (2, 2, 2, float("inf"))),
            (dmt, (2, 2, 2, -0.5)),
            (m_bar, (0, 1, 1.0)),
            (m_bar, (2, 0, 1.0)),
            (m_bar, (2, 2, float("nan"))),
            (m_bar, (2, 2, -1.0)),
            (predict, (2, 2, 0, 1.0)),
            (predict, (-1, 2, 2, 1.0)),
            (predict, (2, 2, 2, float("inf"))),
            (classify_regime, (2, float("nan"))),
            (classify_regime, (2, -1.0)),
            (outage_threshold, (0, 1, 1.0)),
            (outage_threshold, (2, 2, float("nan"))),
            # 2.5 and True as antenna counts, True as a rate: each used to return a diversity order
            (drt, (2.5, 2, 2, 1.0)),
            (drt, (2, 2.5, 2, 1.0)),
            (drt, (2, 2, True, 1.0)),
            (drt, (2, 2, 2, True)),
            (dmt, (True, 2, 2, 0.1)),
            (dmt, (2, 2, 2.5, 0.1)),
            (dmt, (2, 2, 2, True)),
            (m_bar, (2.5, 2, 1.0)),
            (m_bar, (2, True, 1.0)),
            (m_bar, (2, 2, True)),
            (classify_regime, (2.5, 1.0)),
            (classify_regime, (2, True)),
            (predict, (2.5, 2, 2, 1.0)),
            (predict, (2, True, 2, 1.0)),
            (predict, (2, 2, 2, True)),
            (outage_threshold, (2, 2.5, 1.0)),
            (outage_threshold, (2, 2, "1")),
        ],
        ids=lambda v: getattr(v, "__name__", None) or "-".join(map(str, v)),
    )
    def test_contract_violation(self, fn, args):
        with pytest.raises(ContractViolation):
            fn(*args)
