"""Deterministic outage probability of the ``bound`` statistic when both hops are vectors.

A hop is a vector when one of its two antenna counts is 1. When both are,
that is (n_s = 1 or n_r = 1) and (n_r = 1 or n_d = 1), M = 1 and each hop
Gram has one eigenvalue with a Gamma law of integer shape, the two
independent: a = lambda_h ~ Gamma(n_s + n_r - 1) and
b = lambda_g ~ Gamma(n_r + n_d - 1). The statistic
S = 1/(1 + rho a) + 1/(rho b + 1 + 1/(rho a)) reaches the threshold
m = ``outage_threshold(n_s, 1, R)`` exactly when either
c(a) = m - 1/(1 + rho a) <= 0, that is a <= a0 = (1/m - 1)/rho, or
b <= t(a) = (1/c - 1 - 1/(rho a))/rho. So

    p_out = F_h(a0) + int_{a0}^inf f_h(a) F_g(t(a)) da,

with the integral taken on log-spaced Gauss-Legendre panels in u = a - a0,
which start at the kink a0. Near a0, t(a) ~ 1/(rho^2 m^2 u), so F_g falls
from 1 on the scale u ~ rho^-2; past a0 it is ~ rho^-k_g. Every term is
positive and formed without cancellation, so the result keeps its relative
precision at any SNR, 1e-18 and below included.

Also here: ``mi_from_mse_trace``, the rate's Jensen bound from the total
MSE, which the rate sandwich tests put between the exact rate and the
eigenvalue bound; and ``box_muller_exp``, Box-Muller with the angle from
libm (``exp(2j pi t)``), the reference for the sampler's own cos and sin.
"""

from __future__ import annotations

import math

import numpy as np

from relaylab.metrics import outage_threshold


def gamma_cdf(k: int, x: np.ndarray) -> np.ndarray:
    """P(Gamma(k, 1) <= x) for an integer shape k >= 1, to full relative
    precision at small x."""
    x = np.asarray(x, dtype=np.float64)
    low = x < k
    # x < k: e^-x x^k/k! sum_i x^i / ((k+1)...(k+i)), each ratio x/(k+i) below 1
    xs = np.where(low, x, 0.0)
    term, series = np.ones_like(xs), np.ones_like(xs)
    for i in range(1, 1000):
        term = term * xs / (k + i)
        series = series + term
        if np.all(term <= 1e-17 * series):
            break
    p_low = np.exp(-xs) * xs**k / math.factorial(k) * series
    # x >= k: 1 - e^-x sum_{j<k} x^j/j!, where P is above 1/2 (the median is below k)
    xl = np.where(low, float(k), x)
    q = np.exp(-xl) * sum(xl**j / math.factorial(j) for j in range(k))
    return np.where(low, p_low, 1.0 - q)


def vector_hop_outage(
    n_s: int, n_r: int, n_d: int, rate_bpcu: float, snr_db: float, panels: int = 400, nodes: int = 32
) -> float:
    """p_out of the ``bound`` statistic at ``snr_db`` for a shape whose two hops are vectors."""
    if not ((n_s == 1 or n_r == 1) and (n_r == 1 or n_d == 1)):
        raise ValueError(f"both hops must be vectors, got {n_s}x{n_r}x{n_d}")
    k_h, k_g = n_s + n_r - 1, n_r + n_d - 1
    rho = 10.0 ** (snr_db / 10.0)  # as config_at_snr
    m = outage_threshold(n_s, 1, rate_bpcu)
    if m <= 0.0:
        return 1.0  # S > 0 >= m on every draw
    if m >= 1.0:
        return 0.0  # rate 0: S < 1 = m whenever a, b > 0
    a0 = (1.0 / m - 1.0) / rho
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate([[0.0], np.geomspace(1e-6 * min(1.0, rho**-2), 200.0, panels)])
    lo, hi = edges[:-1, None], edges[1:, None]
    u = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    weights = (0.5 * (hi - lo) * w).ravel()
    a = a0 + u
    # c = m rho u / (1 + rho a), so t = (1 + rho a)(a0 + (1 - m) u) / (m rho^2 u a)
    t = (1.0 + rho * a) * (a0 + (1.0 - m) * u) / (m * rho**2 * u * a)
    f_h = a ** (k_h - 1) * np.exp(-a) / math.factorial(k_h - 1)
    return float(gamma_cdf(k_h, a0) + np.sum(weights * f_h * gamma_cdf(k_g, t)))


def mi_from_mse_trace(trace_re: float, rho: float, n_s: int) -> float:
    """Jensen bound on the rate from the total MSE, in bpcu."""
    return -0.5 * n_s * math.log2(trace_re / (rho * n_s))


def box_muller_exp(u: np.ndarray) -> np.ndarray:
    """CN(0,1) entries from uniform pairs (radius word, angle word), the angle through libm's exp."""
    return np.sqrt(-np.log1p(-u[..., 0::2])) * np.exp(2j * np.pi * u[..., 1::2])
