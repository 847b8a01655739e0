"""Closed-form diversity predictions used as reference lines for simulation.

Two regimes are covered: diversity as a function of multiplexing gain
(rate growing with SNR), and diversity as a function of a fixed rate.
The fixed-rate result is governed by the integer threshold parameter
``m_bar``, which counts how many eigenmode failures an outage requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import _check_scalar

__all__ = [
    "DiversityPrediction",
    "m_bar",
    "outage_threshold",
    "drt",
    "dmt",
    "classify_regime",
    "predict",
    "REGIME_HIGH_RATE",
    "REGIME_INTERMEDIATE",
    "REGIME_FULL_DIVERSITY",
]

REGIME_HIGH_RATE = "high-rate"
REGIME_INTERMEDIATE = "intermediate"
REGIME_FULL_DIVERSITY = "full-diversity"

_INT_SNAP = 1e-12


@dataclass(frozen=True)
class DiversityPrediction:
    m_bar: int
    d_drt: int          # fixed-rate diversity order
    d_dmt: float        # diversity at multiplexing gain 0
    full_diversity: bool
    regime_note: str


def _ceil_snapped(x: float) -> int:
    # Absorb float round-off before the ceiling; exact integers stay put.
    nearest = round(x)
    if abs(x - nearest) <= _INT_SNAP * max(1.0, abs(x)):
        return int(nearest)
    return int(math.ceil(x))


def outage_threshold(n_s: int, m_dim: int, rate_bpcu: float) -> float:
    """Threshold ``m = n_s 2^(-2R/n_s) - (n_s - M)`` the bound statistic is
    compared against; ``m_bar`` is its snapped ceiling."""
    _check_scalar("n_s", n_s, integer=True, low=1)
    _check_scalar("m_dim", m_dim, integer=True, low=1)
    _check_scalar("rate_bpcu", rate_bpcu, low=0)
    return n_s * 2.0 ** (-2.0 * rate_bpcu / n_s) - (n_s - m_dim)


def m_bar(n_s: int, m_dim: int, rate_bpcu: float) -> int:
    """ceil( m^+ ) of :func:`outage_threshold`; equals M at zero rate."""
    return _ceil_snapped(max(outage_threshold(n_s, m_dim, rate_bpcu), 0.0))


def drt(n_s: int, n_r: int, n_d: int, rate_bpcu: float) -> int:
    """Fixed-rate diversity order.

    min( mbar*(n_r + n_s - 2M + mbar), (n_r - M + mbar)*(n_d - M + mbar)^+ )
    with M = min(n_s, n_r). This is the ``bound`` statistic's diversity:
    zero once ``m_bar`` vanishes, and at m = 0 the bound's p_out is 1. As
    ``m_bar`` = ceil(m^+), at an integer m it takes the value of the rates
    just above; the ``exact`` outage may still decay there (4x2x3 at R = 2:
    m = 0, p_out 2.7e-2 / 1.05e-3 / 2.3e-5 at 20 / 30 / 40 dB).
    """
    for name, count in (("n_s", n_s), ("n_r", n_r), ("n_d", n_d)):
        _check_scalar(name, count, integer=True, low=1)
    m = min(n_s, n_r)
    mb = m_bar(n_s, m, rate_bpcu)
    first = mb * (n_r + n_s - 2 * m + mb)
    second = (n_r - m + mb) * max(n_d - m + mb, 0)
    return min(first, second)


def dmt(n_s: int, n_r: int, n_d: int, r_mult: float) -> float:
    """Diversity at multiplexing gain ``r_mult``.

    (n_r - n_s + 1)(1 - 2r/n_s)^+ when n_s <= min(n_r, n_d), else 0.
    """
    for name, count in (("n_s", n_s), ("n_r", n_r), ("n_d", n_d)):
        _check_scalar(name, count, integer=True, low=1)
    _check_scalar("r_mult", r_mult, low=0)
    if n_s > min(n_r, n_d):
        return 0.0
    return (n_r - n_s + 1) * max(1.0 - 2.0 * r_mult / n_s, 0.0)


def classify_regime(n_s: int, rate_bpcu: float) -> str:
    """Rate regime: full-diversity, intermediate, or high-rate.

    Full diversity below (n_s/2) log2(n_s/(n_s-1)), high rate from
    (n_s/2) log2(n_s) upward; a single source antenna is always in the
    full-diversity regime.
    """
    _check_scalar("n_s", n_s, integer=True, low=1)
    _check_scalar("rate_bpcu", rate_bpcu, low=0)
    if n_s == 1:
        return REGIME_FULL_DIVERSITY
    if rate_bpcu < 0.5 * n_s * math.log2(n_s / (n_s - 1)):
        return REGIME_FULL_DIVERSITY
    if rate_bpcu >= 0.5 * n_s * math.log2(n_s):
        return REGIME_HIGH_RATE
    return REGIME_INTERMEDIATE


def predict(n_s: int, n_r: int, n_d: int, rate_bpcu: float) -> DiversityPrediction:
    """Bundle all closed-form predictions for one configuration, the DMT
    at multiplexing gain 0 among them."""
    m = min(n_s, n_r)
    d = drt(n_s, n_r, n_d, rate_bpcu)
    return DiversityPrediction(
        m_bar=m_bar(n_s, m, rate_bpcu),
        d_drt=d,
        d_dmt=dmt(n_s, n_r, n_d, 0.0),
        full_diversity=d == n_r * min(n_s, n_d),
        regime_note=classify_regime(n_s, rate_bpcu),
    )
