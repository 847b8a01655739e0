"""Monte Carlo outage estimation and diversity-slope fitting.

Trials are independently keyed: trial ``t`` of grid point ``i`` owns the
random stream ``i * POINT_STRIDE + t``, so outage counts are invariant
under chunking, scheduling, and worker count, and adding grid points
never perturbs existing ones. Every mode is vectorised over a batch of
trials. The ``bound`` mode needs at most the two hop Gram spectra per
trial, which makes 1e7-1e8 trials per point tractable: a Cholesky trace
screen decides most draws exactly, and only the rest reach the spectra
(closed form for order 2). The ``exact`` and ``separate`` modes
take the per-stream SINR of the optimal transceiver from the eigenpairs
of the order-M Gram of ``h`` (``H^H H`` or ``H H^H``; closed form at
M = 2, one stacked ``eigh`` otherwise) and the closed-form water level
(``optimal_gamma_batch``), a few times
slower per trial than ``bound``: ``mse_i = rho + sum_{k<M} |V_ik|^2
(1 / (phi_k^2 lambda_g_k + 1/lambda_y_k) - lambda_y_k)``.

A point is cut into ``_CHUNK``-trial chunks, the granularity of the
adaptive stop, and each chunk into blocks at fixed offsets. A block is
both the unit of work handed to the process pool and the unit of
compute: it is sampled and counted at once, with at most
``_SUB_ENTRIES`` complex entries of the larger hop, so its temporaries
stay cache-sized. Neither cut depends on the worker count.

The first block a process counts sets glibc's mmap and trim thresholds
for the whole process to 32 MiB (where ``mallopt`` exists). A block's
temporaries are 0.1-2 MB each; at glibc's defaults the large ones are
mapped afresh and the heap top is given back to the system after every
block, so each block faults the same pages in again (200-400 minor
faults per 2,048-trial 4x4x4 block). With both thresholds raised, the
freed memory stays in the heap for the next block. Setting only the trim
threshold would pin the mmap threshold at its 128 KiB start value.
"""

from __future__ import annotations

import ctypes
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import theory
from .channel import SystemConfig, config_at_snr, sample_realization_batch
from .metrics import bound_statistic, mutual_info_joint, outage_separate, outage_threshold
from .numerics import ContractViolation, SeedSpec, _check_scalar, _gram_inv_trace, gram_eigvals_desc
from .transceiver import optimal_gamma_batch

__all__ = [
    "FitInfeasibleError",
    "SweepSpec",
    "OutagePoint",
    "OutageCurve",
    "SlopeFit",
    "wilson_interval",
    "run_point",
    "run_sweep",
    "fit_slope",
    "OUTAGE_MODES",
    "POINT_STRIDE",
]

OUTAGE_MODES = ("exact", "bound", "separate")

# Stream index of (point, trial) = point * POINT_STRIDE + trial.
POINT_STRIDE = 2**40

# Trials between adaptive-stop checks. Results are per-trial keyed, so
# this and the block size only affect throughput, never the counts.
_CHUNK = 32768

# Complex entries of the larger hop in one block: 8,192 trials at 2x2x2,
# 2,048 at 4x4x4. Sampling 8,192 trials of 4x4x4 at once makes
# temporaries of 0.5-2 MB each, which spill a 2 MB L2 cache.
_SUB_ENTRIES = 32768

_Z95 = 1.959963984540054

# glibc mallopt parameters, and the ceiling of its dynamic mmap threshold on 64-bit
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_KEEP_BYTES = 32 * 2**20


class FitInfeasibleError(RuntimeError):
    """Too few usable points to fit a diversity slope."""


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one outage-vs-SNR experiment; the grid alone sets rho and p_r."""

    config: SystemConfig          # antennas and rate, kept at rho = 1; p_r must be the default
    snr_grid_db: tuple[float, ...]
    trials_per_point: int
    outage_mode: str = "bound"
    master_seed: int = 0
    adaptive: bool = False        # stop a point early once enough outages
    target_outages: int = 200

    def __post_init__(self):
        grid = tuple(float(_check_scalar("snr_grid_db", x)) for x in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ContractViolation(f"snr_grid_db must be strictly ascending, got {grid}")
        config = replace(self.config, rho=1.0, p_r=None)
        for snr_db in (grid[0], grid[-1]):  # rho and p_r grow with the SNR, so the ends bound them
            try:
                config_at_snr(config, snr_db)
            except ContractViolation as exc:
                raise ContractViolation(f"snr_grid_db: {exc}") from None
        config_at_snr(self.config, grid[0])  # the grid is valid, so this refuses only an uncoupled p_r
        object.__setattr__(self, "config", config)
        SeedSpec(self.master_seed)
        _check_scalar("trials_per_point", self.trials_per_point, integer=True, low=100, high=POINT_STRIDE)
        _check_scalar("target_outages", self.target_outages, integer=True, low=1 if self.adaptive else None)
        if self.outage_mode not in OUTAGE_MODES:
            raise ContractViolation(f"outage_mode must be one of {OUTAGE_MODES}, got {self.outage_mode!r}")


@dataclass(frozen=True)
class OutagePoint:
    snr_db: float
    p_out: float
    trials: int
    outages: int
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class OutageCurve:
    points: tuple[OutagePoint, ...]
    mode: str | None              # None when the curve was read back from CSV
    config: SystemConfig | None   # None when the curve was read without one


@dataclass(frozen=True)
class SlopeFit:
    d_hat: float
    window_snr_db: tuple[float, ...]
    residual: float               # RMS of log10 fit residuals
    d_theory: int | None          # None when the curve carries no config


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at zero counts."""
    _check_scalar("trials", trials, integer=True, low=1)
    _check_scalar("successes", successes, integer=True, low=0, high=trials)
    p_hat = successes / trials
    denom = 1.0 + _Z95**2 / trials
    center = (p_hat + _Z95**2 / (2 * trials)) / denom
    margin = (_Z95 / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + _Z95**2 / (4 * trials**2))
    low = 0.0 if successes == 0 else max(0.0, center - margin)
    high = 1.0 if successes == trials else min(1.0, center + margin)
    return low, high


# ---------------------------------------------------------------------------
# Per-block trial evaluation
# ---------------------------------------------------------------------------


def _count_outages_bound(config: SystemConfig, h: np.ndarray, g: np.ndarray) -> int:
    m_dim, rho = config.m_dim, config.rho
    m = outage_threshold(config.n_s, m_dim, config.rate_bpcu)
    # The trace screen decides most draws, the spectra the rest. With a, b the hop Gram spectra,
    # S = sum 1/(1 + rho a_k) + 1/(rho b_k + 1 + 1/(rho a_k)) lies in [t_h, t_h + t_g + (M - r_g)^+],
    # t = tr((I + rho A)^-1) of the smaller Gram, as a second-hop term is at most 1/(1 + rho b_k),
    # or 1 on padding. A spectrum moves an eigenvalue by ~eps tr A, and S is 2rho-Lipschitz in a_k
    # and rho-Lipschitz in b_k; Cholesky is exact for I + rho A + E, |E| ~ eps (1 + rho tr A), moving
    # t by <= M |E| as I + rho A >= I; the Gram products differ by ~eps tr A. So each route is within
    # c eps M (1 + rho (tr A_h + tr A_g)) of exact for a small c; delta takes c = 1e3.
    (t_h, tr_h), (t_g, tr_g) = _gram_inv_trace(h, rho), _gram_inv_trace(g, rho)
    delta = 1e3 * np.finfo(float).eps * m_dim * (1.0 + rho * (tr_h + tr_g))
    outage = t_h >= m + delta
    undecided = ~(outage | (t_h + t_g + max(m_dim - min(g.shape[1:]), 0) < m - delta))  # NaN: undecided
    h, g = h[undecided], g[undecided]
    statistic = bound_statistic(gram_eigvals_desc(h, m_dim), gram_eigvals_desc(g, m_dim), rho)
    return int(np.count_nonzero(outage)) + int(np.count_nonzero(statistic >= m))


def _count_outages_designed(config: SystemConfig, h: np.ndarray, g: np.ndarray, mode: str) -> int:
    gamma = optimal_gamma_batch(config, h, g)
    if mode == "exact":
        outage = mutual_info_joint(gamma) <= config.rate_bpcu
    else:
        outage = outage_separate(gamma, config.rate_bpcu, config.n_s)
    return int(np.count_nonzero(outage))


@functools.cache
def _keep_heap() -> bool:
    """Keep freed block temporaries in this process's heap; True if glibc took both settings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no C library symbols, or no mallopt in it
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # mmap first: once the trim threshold is set, glibc stops raising the mmap threshold itself
    return all(mallopt(param, _HEAP_KEEP_BYTES) == 1 for param in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD))


def _count_block(config: SystemConfig, mode: str, master_seed: int, point_index: int, start: int, n: int) -> int:
    _keep_heap()
    streams = point_index * POINT_STRIDE + np.arange(start, start + n, dtype=np.uint64)
    h, g = sample_realization_batch(config, master_seed, streams)
    if mode == "bound":
        return _count_outages_bound(config, h, g)
    return _count_outages_designed(config, h, g, mode)


def run_point(
    config: SystemConfig,
    snr_db: float,
    trials: int,
    mode: str,
    master_seed: int,
    point_index: int = 0,
    workers: int = 1,
    adaptive: bool = False,
    target_outages: int = 200,
    _executor: ProcessPoolExecutor | None = None,
) -> tuple[int, int]:
    """Count outages at one SNR point; returns ``(outages, trials_run)``.

    ``snr_db`` sets rho and p_r (:func:`~relaylab.channel.config_at_snr`
    refuses a ``config.p_r`` but the default). Deterministic in (config,
    snr_db, trials, mode, master_seed, point_index) for any worker count.
    A chunk of ``_CHUNK`` trials is the stop unit: with ``adaptive`` the
    point stops at the first chunk boundary where the outage count k
    reaches ``target_outages``, so its estimate k/n is an inverse-binomial
    one, biased upward. A block is the unit of both the pool and the
    compute: the largest power of two of trials with at most
    ``_SUB_ENTRIES`` entries of the larger hop, from each multiple of that
    size, the last one shorter. The plan depends on the shape alone, never
    on the worker count, and a point of a single block runs in the calling
    process. An adaptive point starts a later chunk early only while the
    consumed prefix projects that it will be needed; what is still pending
    at the stop is cancelled.
    """
    if mode not in OUTAGE_MODES:
        raise ContractViolation(f"outage_mode must be one of {OUTAGE_MODES}, got {mode!r}")
    _check_scalar("workers", workers, integer=True, low=1)
    _check_scalar("trials", trials, integer=True, low=1, high=POINT_STRIDE)
    _check_scalar("point_index", point_index, integer=True, low=0)
    SeedSpec(master_seed, point_index * POINT_STRIDE + trials - 1)  # the seed and the last stream index
    _check_scalar("target_outages", target_outages, integer=True, low=1 if adaptive else None)
    at_snr = config_at_snr(config, snr_db)
    # (chunk_start, start, n) of every block, in trial order; a block's
    # trial count is a power of two, so blocks tile every chunk
    size = 1 << (max(1, _SUB_ENTRIES // (config.n_r * max(config.n_s, config.n_d))).bit_length() - 1)
    blocks = [(s - s % _CHUNK, s, min(size, trials - s)) for s in range(0, trials, size)]
    tasks = [(at_snr, mode, master_seed, point_index, start, n) for _, start, n in blocks]

    def consume(executor: ProcessPoolExecutor | None) -> tuple[int, int]:
        # Blocks are counted in trial order; without an executor each is
        # counted here when its turn comes.
        window = 4 * workers
        futures: dict[int, object] = {}
        outages = done = submitted = 0
        try:
            for i, (chunk_start, _, n) in enumerate(blocks):
                while executor is not None and submitted < min(i + window, len(blocks)) and (
                    not adaptive
                    or blocks[submitted][0] == chunk_start
                    # k outages in `done` trials project chunk c (from
                    # trial s_c) to be needed when k * s_c < target * done
                    or outages * blocks[submitted][0] < target_outages * done
                ):
                    futures[submitted] = executor.submit(_count_block, *tasks[submitted])
                    submitted += 1
                outages += futures.pop(i).result() if i in futures else _count_block(*tasks[i])
                done += n
                at_boundary = done == trials or done % _CHUNK == 0
                if adaptive and at_boundary and outages >= target_outages:
                    break
        finally:
            for future in futures.values():
                future.cancel()
        return outages, done

    if workers == 1 or len(blocks) == 1:
        return consume(None)
    if _executor is not None:
        return consume(_executor)
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return consume(executor)


class _SharedPool:
    """The process pool of a sweep, built when the first block is submitted to it."""

    def __init__(self, workers: int):
        self.workers = workers
        self.pool: ProcessPoolExecutor | None = None

    def submit(self, fn, *args):
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        return self.pool.submit(fn, *args)


def run_sweep(spec: SweepSpec, workers: int = 1) -> OutageCurve:
    """Estimate the outage curve across the SNR grid of ``spec``.

    The curve is a pure function of the spec: grid points use disjoint
    stream ranges keyed by their index, so results never depend on
    worker count or on other points. With ``workers`` > 1 the points share
    one process pool, built when the first point of more than one block
    submits to it: a sweep whose points are one block each builds none.
    """
    _check_scalar("workers", workers, integer=True, low=1)
    points = []
    executor = _SharedPool(workers) if workers > 1 else None
    try:
        for index, snr_db in enumerate(spec.snr_grid_db):
            outages, trials = run_point(
                spec.config,
                snr_db,
                spec.trials_per_point,
                spec.outage_mode,
                spec.master_seed,
                point_index=index,
                workers=workers,
                adaptive=spec.adaptive,
                target_outages=spec.target_outages,
                _executor=executor,
            )
            ci_low, ci_high = wilson_interval(outages, trials)
            points.append(
                OutagePoint(
                    snr_db=float(snr_db),
                    p_out=outages / trials,
                    trials=trials,
                    outages=outages,
                    ci_low=ci_low,
                    ci_high=ci_high,
                )
            )
    finally:
        if executor is not None and executor.pool is not None:
            executor.pool.shutdown()
    return OutageCurve(points=tuple(points), mode=spec.outage_mode, config=spec.config)


def fit_slope(curve: OutageCurve, min_count: int = 20) -> SlopeFit:
    """Fit the diversity slope on the highest-SNR usable window.

    Uses the largest suffix of grid points whose outage count is at least
    ``min_count`` (starved points are noise, low-SNR points bias the
    slope); requires three such points. ``d_hat`` is minus the slope of
    log10 p_out against log10 rho. In the window, SNRs must be finite and
    strictly ascending and each p_out in (0, 1], or ContractViolation names it.
    """
    _check_scalar("min_count", min_count, integer=True, low=1)
    points = list(curve.points)
    counts = [p.outages for p in points]
    usable = [i for i, c in enumerate(counts) if c >= min_count]
    if usable:
        # largest contiguous usable run ending at the last usable point
        # (starved points sit at the high-SNR end, low-SNR points below
        # the window bias the slope)
        end = usable[-1]
        start = end
        while start > 0 and counts[start - 1] >= min_count:
            start -= 1
        window = points[start : end + 1]
    else:
        window = []
    if len(window) < 3:
        raise FitInfeasibleError(
            f"need 3 contiguous points with at least {min_count} outages, "
            f"got {len(window)} usable (counts {counts})"
        )
    for prev, p in zip((None, *window), window):  # as read_curve_csv: else a NaN slope or a foreign error
        _check_scalar("snr_db", p.snr_db, low=None if prev is None else prev.snr_db, open_low=True)
        _check_scalar(f"p_out at {p.snr_db} dB", p.p_out, low=0, high=1, open_low=True)
    x = np.array([p.snr_db / 10.0 for p in window])  # log10(rho)
    y = np.log10([p.p_out for p in window])
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    cfg = curve.config
    return SlopeFit(
        d_hat=float(-slope),
        window_snr_db=tuple(p.snr_db for p in window),
        residual=residual,
        d_theory=None if cfg is None else theory.drt(cfg.n_s, cfg.n_r, cfg.n_d, cfg.rate_bpcu),
    )
