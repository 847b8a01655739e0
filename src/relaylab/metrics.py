"""Mutual information, its eigenvalue lower bound, and outage indicators.

The system rate is ``(1/2) sum_k log2(1 + gamma_k)`` bits per channel use
(the 1/2 pays for the two relaying phases). Jensen's inequality plus the
structure of the optimal precoder bound the rate from below by a function
of the two hops' Gram eigenvalues only, which yields a cheap outage
indicator that upper-bounds the true outage event: whenever the exact
rate is in outage, so is the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, SystemConfig
from .numerics import _check_array, _check_scalar, gram_eigvals_desc
from .theory import outage_threshold
from .transceiver import _check_shapes, build_design, error_cov_direct

__all__ = [
    "MiReport",
    "GAMMA_CLIP",
    "mutual_info_joint",
    "mi_lower_bound",
    "bound_statistic",
    "outage_bound_statistic",
    "outage_threshold",
    "outage_separate",
    "channel_eigenvalues",
    "evaluate_realization",
]

GAMMA_CLIP = 1e-9


@dataclass(frozen=True)
class MiReport:
    """Per-realization rate and outage summary."""

    mi_exact: float        # bpcu, from the designed transceiver
    mi_lower_bound: float  # bpcu, eigenvalue bound clipped at 0
    bound_statistic: float
    m_threshold: float
    outage_exact: bool
    outage_bound: bool
    outage_separate: bool


def _clip_gamma(gamma: np.ndarray) -> np.ndarray:
    return np.maximum(_check_array("gamma", np.asarray(gamma, dtype=np.float64), low=-GAMMA_CLIP), 0.0)


def mutual_info_joint(gamma: np.ndarray) -> float | np.ndarray:
    """Rate of jointly-encoded streams, ``(1/2) sum_k log2(1 + gamma_k)``
    in bits per channel use.

    Tiny negative SINRs from round-off are clipped to zero; a NaN, an
    infinite or a more negative SINR raises ContractViolation naming
    ``gamma`` (a finite draw always gives a finite SINR). A vector gives a
    float; a stack (n, M) gives one rate per row.
    """
    rate = 0.5 * np.sum(np.log1p(_clip_gamma(gamma)), axis=-1) / math.log(2.0)
    return float(rate) if np.ndim(rate) == 0 else rate


def bound_statistic(lambda_h: np.ndarray, lambda_g: np.ndarray, rho: float) -> np.ndarray:
    """Eigenvalue bound statistic over the last axis, one value per row.

    Both inputs hold the top-M Gram eigenvalues of their hop, descending:
    ``sum_k 1/(1 + rho lambda_h_k) + 1/(rho lambda_g_k + rho/lambda_y_k)``
    with the receiver-output eigenvalues entering through the exact
    identity ``rho / lambda_y_k = 1 + 1/(rho lambda_h_k)``. Eigenvalues
    must be finite and non-negative, ``lambda_g`` of ``lambda_h``'s shape,
    and ``rho`` finite and positive, or ContractViolation names the argument.
    """
    lambda_h = _check_array("lambda_h", np.asarray(lambda_h, dtype=np.float64), low=0)  # a dead hop gives zeros
    lambda_g = _check_array("lambda_g", np.asarray(lambda_g, dtype=np.float64), low=0, shape=lambda_h.shape)
    _check_scalar("rho", rho, low=0, open_low=True)
    with np.errstate(divide="ignore"):
        rho_over_lambda_y = 1.0 + 1.0 / (rho * lambda_h)
        return np.sum(1.0 / (1.0 + rho * lambda_h), axis=-1) + np.sum(
            1.0 / (rho * lambda_g + rho_over_lambda_y), axis=-1
        )


def mi_lower_bound(lambda_h: np.ndarray, lambda_g: np.ndarray, rho: float, n_s: int) -> float | np.ndarray:
    """Eigenvalue-only lower bound on the rate, in bpcu.

    ``lambda_h`` holds all ``n_s`` eigenvalues of H^H H (zero-padded
    beyond its rank); ``lambda_g`` the top-M eigenvalues of G^H G. The
    bound is :func:`bound_statistic` on the top M modes plus
    ``1/(1 + rho lambda_h_k)`` for the modes beyond M. May return a
    slightly negative value as the SNR vanishes; reporting layers clip at
    zero. Vectors give a float; stacks give one bound per row.
    """
    _check_scalar("n_s", n_s, integer=True, low=1)
    lambda_h = np.asarray(lambda_h, dtype=np.float64)
    lambda_h = _check_array("lambda_h", lambda_h, low=0, shape=lambda_h.shape[:-1] + (n_s,))
    lambda_g = _check_array("lambda_g", lambda_g, shape=lambda_h.shape[:-1] + (None,))
    m = lambda_g.shape[-1]  # more than n_s fails the shape check in bound_statistic
    total = bound_statistic(lambda_h[..., :m], lambda_g, rho) + np.sum(
        1.0 / (1.0 + rho * lambda_h[..., m:]), axis=-1
    )
    lower = -0.5 * n_s * np.log2(total / n_s)
    return float(lower) if np.ndim(lower) == 0 else lower


def outage_bound_statistic(
    lambda_h: np.ndarray,
    lambda_g: np.ndarray,
    rho: float,
    n_s: int,
    rate_bpcu: float,
) -> tuple[float, float]:
    """Outage-bound statistic of one draw and its threshold ``m``.

    Both inputs are vectors of the top-M Gram eigenvalues of their hop,
    descending. The bound declares outage when ``statistic >= m``; this
    event contains the exact outage event on every realization.
    """
    lambda_h = _check_array("lambda_h", lambda_h, shape=(None,))
    return float(bound_statistic(lambda_h, lambda_g, rho)), outage_threshold(n_s, lambda_h.shape[0], rate_bpcu)


def outage_separate(gamma: np.ndarray, rate_bpcu: float, n_s: int) -> bool | np.ndarray:
    """Outage rule for per-antenna independent codewords at rate R/n_s.

    A stream rate exactly equal to its share counts as delivered. This
    baseline models separately-encoded antennas; its diversity does not
    improve as the rate drops. SINRs are checked as in
    :func:`mutual_info_joint`: NaN and infinite ones raise. A vector gives
    a bool; a stack (n, M) gives one indicator per row.
    """
    _check_scalar("rate_bpcu", rate_bpcu, low=0)
    _check_scalar("n_s", n_s, integer=True, low=1)
    gamma = _clip_gamma(gamma)
    per_stream = 0.5 * np.log2(1.0 + gamma)
    outage = np.min(per_stream, axis=-1) < rate_bpcu / n_s
    return bool(outage) if np.ndim(outage) == 0 else outage


def channel_eigenvalues(config: SystemConfig, chan: ChannelRealization) -> tuple[np.ndarray, np.ndarray]:
    """Gram eigenvalues of both hops with structural zeros pinned.

    Returns ``(lambda_h, lambda_g)``: all ``n_s`` eigenvalues of H^H H
    (exact zeros beyond rank min(n_s, n_r)) and the top-M eigenvalues of
    G^H G (exact zeros beyond rank min(n_r, n_d)). The one-draw view of
    :func:`~relaylab.numerics.gram_eigvals_desc`.
    """
    _check_shapes(config, chan)
    lambda_h = gram_eigvals_desc(chan.h[None], config.n_s)[0]
    lambda_g = gram_eigvals_desc(chan.g[None], config.m_dim)[0]
    return lambda_h, lambda_g


def evaluate_realization(config: SystemConfig, chan: ChannelRealization) -> MiReport:
    """Design the transceiver for one draw and report rate and outage.

    The SINRs come from the direct error covariance, which holds for every
    draw: a dead hop gives ``Q = 0`` and ``gamma = 0``.
    """
    design = build_design(config, chan)
    gamma = error_cov_direct(config, chan, design.q).gamma
    mi = mutual_info_joint(gamma)
    lambda_h, lambda_g = channel_eigenvalues(config, chan)
    lower = mi_lower_bound(lambda_h, lambda_g, config.rho, config.n_s)
    statistic, m = outage_bound_statistic(
        lambda_h[: config.m_dim], lambda_g, config.rho, config.n_s, config.rate_bpcu
    )
    return MiReport(
        mi_exact=mi,
        mi_lower_bound=max(lower, 0.0),
        bound_statistic=statistic,
        m_threshold=m,
        outage_exact=mi <= config.rate_bpcu,
        outage_bound=statistic >= m,
        outage_separate=outage_separate(gamma, config.rate_bpcu, config.n_s),
    )
