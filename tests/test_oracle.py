"""The ``bound`` outage count against a deterministic oracle for vector hops.

``oracle.vector_hop_outage`` integrates p_out from the Gamma laws of the
two hop gains, so a fixed-seed run of the simulator (Philox, Box-Muller,
the trace screen and the statistic, end to end) can be z-tested against
it, and the closed-form d(R) and DMT checked at SNRs no Monte Carlo run
reaches.
"""

import math

import numpy as np
import pytest
from oracle import gamma_cdf, vector_hop_outage

from relaylab.channel import SystemConfig
from relaylab.simulator import run_point
from relaylab.theory import dmt, drt

TRIALS = 2**20


class TestGammaCdf:
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_finite_sum(self, k):
        x = np.array([0.01, 0.5, k - 1e-9, k, k + 0.5, 12.0, 60.0])
        want = 1.0 - np.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
        assert np.allclose(gamma_cdf(k, x), want, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_relative_precision_at_small_x(self, k):
        # P(k, x) = x^k/k! (1 - k x/(k+1) + O(x^2)); the finite sum cancels to 0 here
        x = 1e-9
        assert gamma_cdf(k, x) == pytest.approx(x**k / math.factorial(k) * (1 - k * x / (k + 1)), rel=1e-14)


def test_rejects_matrix_hops():
    with pytest.raises(ValueError, match="vectors"):
        vector_hop_outage(2, 2, 1, 1.0, 10.0)


@pytest.mark.parametrize(
    "shape,rate,snr_db,point_index",
    [
        ((1, 2, 1), 1.0, 7.5, 0),
        ((1, 2, 1), 1.0, 10.0, 1),
        ((1, 2, 1), 1.0, 15.0, 2),
        ((2, 1, 2), 0.5, 5.0, 0),
        ((2, 1, 2), 0.5, 10.0, 1),
        ((2, 1, 2), 0.5, 15.0, 2),
    ],
)
def test_simulator_matches_oracle(shape, rate, snr_db, point_index):
    p = vector_hop_outage(*shape, rate, snr_db)
    assert 1e-3 < p < 0.5
    sigma = math.sqrt(p * (1.0 - p) / TRIALS)
    # the quadrature is converged far below the Monte Carlo error
    assert abs(vector_hop_outage(*shape, rate, snr_db, panels=800) - p) < 1e-6 * sigma
    outages, trials = run_point(SystemConfig(*shape, rate_bpcu=rate), snr_db, TRIALS, "bound", 20261019,
                                point_index=point_index)
    assert trials == TRIALS
    assert abs(outages / trials - p) <= 4.0 * sigma


@pytest.mark.parametrize(
    "shape,rate",
    # d = 1, 2, 3 at n_s = 1; 2x1x2 on both sides of its one regime boundary,
    # R = 1: m_bar = 1 below it (d = 2), m_bar = 0 above it (d = 0)
    [((1, 1, 1), 1.0), ((1, 2, 1), 1.0), ((1, 3, 1), 1.0), ((2, 1, 2), 0.5), ((2, 1, 2), 1.5)],
)
def test_local_slope_matches_drt(shape, rate):
    # one decade of rho from 50 to 60 dB
    slope = math.log10(vector_hop_outage(*shape, rate, 50.0) / vector_hop_outage(*shape, rate, 60.0))
    assert abs(slope - drt(*shape, rate)) <= 0.05


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 2, 1), (1, 3, 1)])
@pytest.mark.parametrize("r_mult", [0.1, 0.25, 0.4])
def test_local_slope_matches_dmt(shape, r_mult):
    # R = r log2 rho, one decade of rho from 120 to 130 dB. The worst gap to
    # dmt is 2.3e-3 here; at 80-90 dB it is 1.2e-2, where the slope has not settled.
    p_low, p_high = (vector_hop_outage(*shape, r_mult * math.log2(10.0 ** (snr_db / 10.0)), snr_db)
                     for snr_db in (120.0, 130.0))
    assert abs(math.log10(p_low / p_high) - dmt(*shape, r_mult)) <= 0.005
