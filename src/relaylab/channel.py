"""System configuration and quasi-static Rayleigh channel draws.

The link is a two-hop relay chain: ``n_s`` source antennas into ``n_r``
relay antennas (matrix ``h``), then ``n_r`` into ``n_d`` destination
antennas (matrix ``g``). Entries are i.i.d. CN(0,1) and stay fixed for
one codeword (= one Monte Carlo trial). Noise covariance is pinned to
the identity at both receivers; all closed forms downstream assume it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .numerics import ContractViolation, SeedSpec, _check_array, _check_scalar, sample_complex_gaussian_batch

__all__ = [
    "SystemConfig",
    "ChannelRealization",
    "sample_realization",
    "sample_realization_batch",
    "config_at_snr",
]

# Counter lanes reserved for the two hops of one trial.
_LANE_H = 0
_LANE_G = 1


@dataclass(frozen=True)
class SystemConfig:
    """Static experiment parameters.

    ``rho`` is the per-antenna source SNR on a linear scale; ``p_r`` the
    relay power budget (defaults to ``rho * n_s``, the only budget a sweep
    takes); ``rate_bpcu`` the target rate in bits per channel use.
    """

    n_s: int
    n_r: int
    n_d: int
    rho: float = 1.0
    p_r: float | None = None
    rate_bpcu: float = 0.0

    def __post_init__(self):
        for name in ("n_s", "n_r", "n_d"):
            _check_scalar(name, getattr(self, name), integer=True, low=1)
        _check_scalar("rho", self.rho, low=0, open_low=True)
        if self.p_r is None:
            object.__setattr__(self, "p_r", self.rho * self.n_s)
        _check_scalar("p_r", self.p_r, low=0, open_low=True)
        _check_scalar("rate_bpcu", self.rate_bpcu, low=0)

    @property
    def m_dim(self) -> int:
        """Number of usable relay streams, min(n_s, n_r)."""
        return min(self.n_s, self.n_r)

    @property
    def shape_label(self) -> str:
        return f"{self.n_s}x{self.n_r}x{self.n_d}"


def config_at_snr(config: SystemConfig, snr_db: float) -> SystemConfig:
    """Copy of ``config`` at per-antenna SNR ``snr_db`` (dB), with the default relay budget.

    Raises :class:`ContractViolation` naming ``config.p_r`` unless it is the
    default budget of ``config.rho``, and naming ``snr_db`` unless that is a
    real number that keeps rho and p_r positive and finite.
    """
    try:
        coupled = replace(config, p_r=None).p_r
    except ContractViolation:  # rho * n_s overflows, so no finite p_r is the default budget
        coupled = np.inf
    if config.p_r != coupled:
        raise ContractViolation(f"config.p_r must be rho * n_s = {coupled} in a sweep, got {config.p_r}")
    _check_scalar("snr_db", snr_db)
    try:
        return replace(config, rho=10.0 ** (snr_db / 10.0), p_r=None)
    except (OverflowError, ContractViolation):  # 10**x overflows, underflows to 0, or rho * n_s does
        raise ContractViolation(f"snr_db must keep rho and p_r positive and finite, got {snr_db}") from None


@dataclass(frozen=True)
class ChannelRealization:
    """One joint draw of the two hop matrices."""

    h: np.ndarray  # n_r x n_s, source -> relay
    g: np.ndarray  # n_d x n_r, relay -> destination

    def __post_init__(self):
        _check_array("hop h", self.h, shape=(None, None))
        _check_array("hop g", self.g, shape=(None, self.h.shape[0]))


def sample_realization(config: SystemConfig, seed: SeedSpec) -> ChannelRealization:
    """Draw one quasi-static realization; pure in (config, seed).

    The two hops come from disjoint counter lanes of the same stream, so
    ``h`` and ``g`` are mutually independent. The one-row view of
    :func:`sample_realization_batch`.
    """
    h, g = sample_realization_batch(config, seed.master_seed, np.array([seed.stream_index], dtype=np.uint64))
    return ChannelRealization(h=h[0], g=g[0])


def sample_realization_batch(
    config: SystemConfig, master_seed: int, stream_indices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked draws for many trials at once.

    Returns ``(h, g)`` with shapes (n, n_r, n_s) and (n, n_d, n_r); slice
    ``i`` equals ``sample_realization(config, SeedSpec(master_seed,
    stream_indices[i]))``. Seeds and stream indices are checked as in
    :func:`~relaylab.numerics.sample_complex_gaussian_batch`.
    """
    h = sample_complex_gaussian_batch(config.n_r, config.n_s, master_seed, stream_indices, _LANE_H)
    g = sample_complex_gaussian_batch(config.n_d, config.n_r, master_seed, stream_indices, _LANE_G)
    return h, g
