"""Monte Carlo engine: determinism, event inclusion, CI and slope fitting."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracle import box_muller_exp

from relaylab import channel, simulator
from relaylab.channel import SystemConfig, config_at_snr, sample_realization, sample_realization_batch
from relaylab.metrics import bound_statistic, evaluate_realization, mutual_info_joint, outage_threshold
from relaylab.numerics import ContractViolation, SeedSpec, _uniform_words, gram_eigvals_desc
from relaylab.simulator import (
    OUTAGE_MODES,
    POINT_STRIDE,
    FitInfeasibleError,
    OutageCurve,
    OutagePoint,
    SweepSpec,
    _count_outages_bound,
    _count_outages_designed,
    fit_slope,
    run_point,
    run_sweep,
    wilson_interval,
)
from relaylab.transceiver import optimal_gamma_batch

CFG_222 = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
CHUNK = 32768  # trials between adaptive-stop checks (simulator._CHUNK)
BLOCK = 8192  # trials in one 2x2x2 block, the pool's and the compute's unit


class _RecordingExecutor(ThreadPoolExecutor):
    """Runs blocks on threads and logs the ``(start, n)`` of each one submitted."""

    def __init__(self, workers: int):
        super().__init__(max_workers=workers)
        self.submitted: list[tuple[int, int]] = []

    def submit(self, fn, *task):
        self.submitted.append(task[-2:])
        return super().submit(fn, *task)


def _synthetic_curve(snr_db, p_values, trials=10**6, config=CFG_222):
    # fixture: p_out carries the exact float so slope checks are sharp;
    # the count only drives the usability rule
    points = []
    for snr, p in zip(snr_db, p_values):
        outages = int(round(p * trials))
        lo, hi = wilson_interval(min(outages, trials), trials)
        points.append(OutagePoint(snr, p, trials, outages, lo, hi))
    return OutageCurve(points=tuple(points), mode="bound", config=config)


class TestWilson:
    def test_bounds_order(self):
        lo, hi = wilson_interval(3, 50)
        assert 0.0 <= lo <= 3 / 50 <= hi <= 1.0

    def test_zero_count_interval(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_validation(self):
        with pytest.raises(ContractViolation):
            wilson_interval(5, 0)
        with pytest.raises(ContractViolation):
            wilson_interval(7, 5)

    def test_coverage_near_nominal(self):
        # 1e4 replications of Binomial(1000, 0.1): 95% CI covers p in 94-96%
        rng = np.random.default_rng(314)
        counts = rng.binomial(1000, 0.1, size=10_000)
        covered = 0
        for c in counts:
            lo, hi = wilson_interval(int(c), 1000)
            covered += lo <= 0.1 <= hi
        assert 0.94 <= covered / 10_000 <= 0.96


class TestSweepSpecValidation:
    def test_grid_must_ascend(self):
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0, 10.0), 1000)

    def test_min_trials(self):
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0,), 99)

    def test_bad_mode(self):
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0,), 1000, outage_mode="oracle")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0,), 1000, master_seed=seed)

    def test_seed_range_ends_accepted(self):
        assert SweepSpec(CFG_222, (10.0,), 1000, master_seed=2**64 - 1).master_seed == 2**64 - 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_grid_must_be_finite(self, value):
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0, value), 1000)

    @pytest.mark.parametrize("seed", [1.5, "5", True, None])
    def test_seed_must_be_an_integer(self, seed):
        # 1.5 used to pass and then fail inside numpy's SeedSequence
        with pytest.raises(ContractViolation):
            SweepSpec(CFG_222, (10.0,), 1000, master_seed=seed)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials_per_point", 1000.5),  # used to fail later, naming stream_index
            ("trials_per_point", 1000.0),
            ("trials_per_point", "1000"),
            ("trials_per_point", True),
            ("trials_per_point", None),
            ("target_outages", 2.5),  # used to be accepted and run
            ("target_outages", True),
            ("target_outages", None),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        kwargs = dict(trials_per_point=1000, adaptive=True) | {field: value}
        with pytest.raises(ContractViolation, match=field):
            SweepSpec(CFG_222, (10.0,), **kwargs)

    @pytest.mark.parametrize("grid", [(10.0, 4000.0), (-4000.0, 10.0), (True, 10.0)])
    def test_grid_must_keep_rho_in_float_range(self, grid):
        with pytest.raises(ContractViolation, match="snr_grid_db"):
            SweepSpec(CFG_222, grid, 1000)

    def test_numpy_integer_counts_accepted(self):
        spec = SweepSpec(CFG_222, (10.0,), np.int64(1000), target_outages=np.int32(5))
        assert (spec.trials_per_point, spec.target_outages) == (1000, 5)


class TestRunPoint:
    def test_zero_rate_never_in_outage(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=0.0)
        outages, trials = run_point(config, 10.0, 10_000, "exact", master_seed=1)
        assert (outages, trials) == (0, 10_000)

    def test_bound_counts_dominate_exact_counts(self):
        # shared seeds: the bound event contains the exact outage event
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
        exact, _ = run_point(config, 8.0, 4000, "exact", master_seed=2)
        bound, _ = run_point(config, 8.0, 4000, "bound", master_seed=2)
        assert 0 < exact <= bound

    def test_high_snr_starves_low_rate_outage(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=0.42)
        outages, _ = run_point(config, 60.0, 100_000, "bound", master_seed=3)
        assert outages == 0

    def test_bound_event_contains_exact_event_draw_by_draw(self):
        # every draw in exact outage is counted by the bound statistic too
        base = SystemConfig(n_s=4, n_r=2, n_d=3, rate_bpcu=2.0)
        config = config_at_snr(base, 10.0)
        h, g = sample_realization_batch(config, 21, np.arange(100_000, dtype=np.uint64))
        exact = mutual_info_joint(optimal_gamma_batch(config, h, g)) <= config.rate_bpcu
        assert 0 < np.count_nonzero(exact) < exact.size
        assert _count_outages_bound(config, h[exact], g[exact]) == np.count_nonzero(exact)
        assert _count_outages_bound(config, h, g) > np.count_nonzero(exact)

    @pytest.mark.parametrize(
        "shape,mode",
        # separate mode is always in outage when n_s > n_r, so it is
        # checked on shapes where its count is informative
        [((4, 2, 3), "exact"), ((3, 2, 4), "exact"), ((2, 2, 2), "separate"), ((2, 3, 2), "separate")],
    )
    def test_designed_counts_match_scalar_route(self, shape, mode):
        # run_point's batched count against evaluate_realization summed per draw
        base = SystemConfig(*shape, rate_bpcu=2.0)
        point_index, seed, trials = 1, 22, 600
        for snr_db in (5.0, 15.0):
            config = config_at_snr(base, snr_db)
            expected = 0
            for t in range(trials):
                chan = sample_realization(config, SeedSpec(seed, point_index * POINT_STRIDE + t))
                report = evaluate_realization(config, chan)
                expected += report.outage_exact if mode == "exact" else report.outage_separate
            got = run_point(base, snr_db, trials, mode, seed, point_index=point_index)
            assert got == (expected, trials)
            assert 0 < expected < trials

    def test_worker_invariance(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
        results = [run_point(config, 12.0, 100_000, "bound", master_seed=4, workers=w) for w in (1, 2, 3)]
        assert results[0] == results[1] == results[2]

    def test_adaptive_is_deterministic_across_workers(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
        kw = dict(adaptive=True, target_outages=50)
        serial, *pooled = [
            run_point(config, 10.0, 500_000, "bound", master_seed=5, workers=w, **kw) for w in (1, 2, 3)
        ]
        assert pooled == [serial, serial]
        assert serial[0] >= 50
        assert serial[1] < 500_000

    @pytest.mark.parametrize(
        "snr_db,trials,mode,adaptive,stops_after",
        # the 4 blocks of a chunk do not split evenly across 3 workers,
        # and the tail of the 10-chunk cap (5,000 trials) is one short block
        [
            (10.0, 10 * CHUNK + 5000, "bound", True, CHUNK),                  # stops at chunk 0
            (30.0, 10 * CHUNK + 5000, "bound", True, 2 * CHUNK),              # stops mid-cap
            (45.0, 10 * CHUNK + 5000, "bound", True, 10 * CHUNK + 5000),      # runs to the cap
            (20.0, 3 * CHUNK + 1696, "bound", False, 3 * CHUNK + 1696),       # several chunks
            (10.0, 20_000, "exact", False, 20_000),                           # one chunk, pooled
        ],
    )
    def test_counts_equal_at_workers_1_2_3(self, snr_db, trials, mode, adaptive, stops_after):
        kw = dict(adaptive=adaptive, target_outages=200, point_index=1)
        serial, *pooled = [
            run_point(CFG_222, snr_db, trials, mode, master_seed=20260808, workers=w, **kw) for w in (1, 2, 3)
        ]
        assert pooled == [serial, serial]
        assert serial[1] == stops_after
        assert 0 < serial[0] < serial[1]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ContractViolation):
            run_point(CFG_222, 10.0, 1000, "bound", master_seed=1, workers=workers)
        with pytest.raises(ContractViolation):
            run_sweep(SweepSpec(CFG_222, (10.0,), 1000), workers=workers)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(trials=0),
            dict(trials=-5),
            dict(master_seed=-1),
            dict(master_seed=2**64),
            dict(point_index=-1),
            dict(point_index=2**24),  # its streams pass 2**64
            dict(adaptive=True, target_outages=0),
            dict(adaptive=True, target_outages=-3),
        ],
    )
    def test_rejects_bad_input(self, kwargs):
        args = dict(trials=1000, master_seed=1, point_index=0) | kwargs
        with pytest.raises(ContractViolation):
            run_point(CFG_222, 10.0, mode="bound", **args)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials", 1000.5),
            ("trials", 1000.0),
            ("trials", True),
            ("target_outages", 2.5),
            ("target_outages", True),
            ("workers", True),  # used to run
            ("workers", 1.5),  # used to run
            ("point_index", True),  # used to run
            ("point_index", 1.5),  # used to fail naming stream_index
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        args = dict(trials=1000, master_seed=1, adaptive=True) | {field: value}
        with pytest.raises(ContractViolation, match=field):
            run_point(CFG_222, 10.0, mode="bound", **args)

    @pytest.mark.parametrize(
        "field,call",
        [
            ("workers", lambda: run_sweep(SweepSpec(CFG_222, (10.0,), 1000), workers=True)),
            ("workers", lambda: run_sweep(SweepSpec(CFG_222, (10.0,), 1000), workers=1.5)),
            ("successes", lambda: wilson_interval(1.5, 10)),
            ("trials", lambda: wilson_interval(5, 10.0)),
            ("min_count", lambda: fit_slope(_synthetic_curve([10.0, 15.0, 20.0], [1e-2, 1e-3, 1e-4]), min_count=2.5)),
        ],
        ids=["run_sweep-workers-True", "run_sweep-workers-1.5", "wilson-successes-1.5", "wilson-trials-10.0",
             "fit_slope-min_count-2.5"],
    )
    def test_other_counts_must_be_integers(self, field, call):
        with pytest.raises(ContractViolation, match=field):
            call()

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0, float("nan"), True])
    def test_snr_must_keep_rho_in_float_range(self, snr_db):
        # 4000 dB used to raise OverflowError; -4000 dB failed naming rho
        with pytest.raises(ContractViolation, match="snr_db"):
            run_point(CFG_222, snr_db, 1000, "bound", master_seed=1)

    def test_separate_mode_runs(self):
        config = SystemConfig(n_s=2, n_r=2, n_d=2, rate_bpcu=2.0)
        outages, trials = run_point(config, 5.0, 500, "separate", master_seed=6)
        assert trials == 500
        assert 0 < outages < 500


def _direct_count(config, h, g):
    # the unscreened route: both Gram spectra, the statistic, the threshold
    m_dim = config.m_dim
    statistic = bound_statistic(gram_eigvals_desc(h, m_dim), gram_eigvals_desc(g, m_dim), config.rho)
    return int(np.count_nonzero(statistic >= outage_threshold(config.n_s, m_dim, config.rate_bpcu)))


class _SpectrumRows:
    """Wraps ``simulator.gram_eigvals_desc`` and counts the rows sent to it."""

    def __init__(self, monkeypatch):
        self.rows = 0
        monkeypatch.setattr(simulator, "gram_eigvals_desc", self)

    def __call__(self, mats, k):
        self.rows += mats.shape[0]
        return gram_eigvals_desc(mats, k)


class TestBoundScreen:
    """``_count_outages_bound`` decides most draws from tr((I + rho A)^-1)
    and must agree with the direct eigenvalue count draw set for draw set."""

    @pytest.mark.parametrize(
        "shape",
        # n_s > n_r; r_g < M (padded second hop); r_g > M (truncated); order 6;
        # then orders 1 (eigvalsh) and 2 (closed form), padded and truncated
        [(3, 3, 3), (4, 4, 4), (5, 3, 3), (4, 4, 2), (3, 4, 5), (6, 6, 6),
         (1, 1, 1), (1, 2, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (4, 2, 3), (2, 3, 1)],
    )
    def test_counts_equal_direct_route(self, shape):
        # 85 (rate, SNR) cases of 2,048 draws on each of 13 shapes: 2.26e6 draws
        h, g = sample_realization_batch(SystemConfig(*shape), 41, np.arange(2048, dtype=np.uint64))
        mismatches = []
        for rate in (0.0, 0.3, 1.0, 4.0, 8.0):
            for snr_db in range(0, 81, 5):
                config = config_at_snr(SystemConfig(*shape, rate_bpcu=rate), snr_db)
                got, want = _count_outages_bound(config, h, g), _direct_count(config, h, g)
                if got != want:
                    mismatches.append((rate, snr_db, got, want))
        assert mismatches == []

    @pytest.mark.parametrize("shape,rate,snr_db", [((4, 4, 4), 4.0, 25.0), ((2, 2, 2), 0.42, 15.0)])
    def test_most_draws_skip_the_spectrum(self, shape, rate, snr_db, monkeypatch):
        config = config_at_snr(SystemConfig(*shape, rate_bpcu=rate), snr_db)
        h, g = sample_realization_batch(config, 42, np.arange(8192, dtype=np.uint64))
        spectrum = _SpectrumRows(monkeypatch)
        _count_outages_bound(config, h, g)
        assert spectrum.rows / 2 < 0.01 * 8192  # one row per hop; under 1% of the draws

    @pytest.mark.parametrize("shape", [(4, 4, 4), (2, 2, 2)])
    def test_dead_first_hop_is_screened_outage(self, shape, monkeypatch):
        # S = M exactly, above m at any positive rate: decided by the trace alone
        config = config_at_snr(SystemConfig(*shape, rate_bpcu=1.0), 20.0)
        _, g = sample_realization_batch(config, 43, np.arange(64, dtype=np.uint64))
        h = np.zeros_like(g)
        spectrum = _SpectrumRows(monkeypatch)
        assert _count_outages_bound(config, h, g) == 64
        assert spectrum.rows == 0

    def test_zero_rate_outages_come_from_the_spectrum(self, monkeypatch):
        # m = M bounds t_h from above, so no draw is screened into outage;
        # the dead-first-hop draws have S = m exactly and are outages
        config = config_at_snr(SystemConfig(4, 4, 4, rate_bpcu=0.0), 0.0)
        h, g = sample_realization_batch(config, 44, np.arange(256, dtype=np.uint64))
        h[::2] = 0.0
        want = _direct_count(config, h, g)
        spectrum = _SpectrumRows(monkeypatch)
        assert _count_outages_bound(config, h, g) == want >= 128
        assert spectrum.rows >= 2 * want

    @pytest.mark.parametrize("shape", [(4, 4, 4), (3, 4, 5)])
    def test_draws_at_the_threshold_fall_through(self, shape, monkeypatch):
        # scale each first hop so that its S lies within 1e-12 of m
        config = config_at_snr(SystemConfig(*shape, rate_bpcu=2.0), 20.0)
        m_dim, rho, n = config.m_dim, config.rho, 128
        m = outage_threshold(config.n_s, m_dim, config.rate_bpcu)
        h, g = sample_realization_batch(config, 45, np.arange(n, dtype=np.uint64))
        lam_h, lam_g = gram_eigvals_desc(h, m_dim), gram_eigvals_desc(g, m_dim)
        lo, hi = np.full(n, 1e-6), np.full(n, 1e6)  # S falls as the scale c grows
        for _ in range(200):
            c = np.sqrt(lo * hi)
            above = bound_statistic(c[:, None] ** 2 * lam_h, lam_g, rho) >= m
            lo, hi = np.where(above, c, lo), np.where(above, hi, c)
        h = h * np.where(np.arange(n) % 2 == 0, lo, hi)[:, None, None]
        statistic = bound_statistic(gram_eigvals_desc(h, m_dim), lam_g, rho)
        assert np.all(np.abs(statistic - m) < 1e-12)
        want = _direct_count(config, h, g)
        spectrum = _SpectrumRows(monkeypatch)
        assert _count_outages_bound(config, h, g) == want
        assert spectrum.rows == 2 * n
        assert 0 < want < n

    @pytest.mark.parametrize(
        "shape,rate,grid,outages",
        [
            ((4, 4, 4), 4.0, (10.0, 15.0, 20.0), (7238, 863, 75)),
            ((3, 4, 5), 1.0, (-2.0, -1.0, 0.0), (3689, 805, 101)),
            ((2, 2, 2), 0.42, (0.0, 2.5, 5.0), (6090, 907, 69)),
        ],
    )
    def test_pinned_counts(self, shape, rate, grid, outages):
        # Counts of the unscreened route (eigvalsh, or the closed form
        # of order 2). A change to LAPACK, the spectrum route, the
        # statistic or the screen that flips one of them flips published
        # curves: it ships as a versioned results change that lists
        # every flipped count, not as an edit here.
        spec = SweepSpec(SystemConfig(*shape, rate_bpcu=rate), grid, 16384, master_seed=20260808)
        assert tuple(p.outages for p in run_sweep(spec).points) == outages


class TestScheduler:
    """Which blocks ``run_point`` hands to its executor; each is logged as ``(start, n)``."""

    def test_adaptive_stop_at_chunk_0_starts_no_later_chunk(self):
        with _RecordingExecutor(2) as executor:
            outages, trials = run_point(CFG_222, 10.0, 3 * CHUNK, "bound", master_seed=5, workers=2,
                                        adaptive=True, target_outages=200, _executor=executor)
        assert outages >= 200 and trials == CHUNK
        assert executor.submitted == [(s, BLOCK) for s in range(0, CHUNK, BLOCK)]

    def test_single_chunk_is_four_blocks(self):
        with _RecordingExecutor(2) as executor:
            got = run_point(CFG_222, 10.0, CHUNK, "bound", master_seed=5, workers=2, _executor=executor)
        assert executor.submitted == [(0, BLOCK), (BLOCK, BLOCK), (2 * BLOCK, BLOCK), (3 * BLOCK, BLOCK)]
        assert got == run_point(CFG_222, 10.0, CHUNK, "bound", master_seed=5, workers=1)

    def test_blocks_independent_of_workers(self):
        trials = 3 * CHUNK + 1696
        plans = []
        for workers in (2, 3):
            with _RecordingExecutor(workers) as executor:
                run_point(CFG_222, 20.0, trials, "bound", master_seed=5, workers=workers, _executor=executor)
            plans.append(executor.submitted)
        assert plans[0] == plans[1] == [(s, min(BLOCK, trials - s)) for s in range(0, trials, BLOCK)]

    def test_pool_built_only_for_a_point_of_several_blocks(self, monkeypatch):
        # A sweep of one-block points builds no pool at any worker count; a
        # sweep with points of several blocks builds one, shared by its points.
        class _NoPool:
            def __init__(self, max_workers):
                raise AssertionError("a sweep of one-block points built a process pool")

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", _NoPool)
        small = SweepSpec(CFG_222, (0.0, 10.0), 2048, outage_mode="exact", master_seed=5)
        assert run_sweep(small, workers=2) == run_sweep(small)

        built = []

        class _CountedPool(_RecordingExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers)
                built.append(self)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", _CountedPool)
        large = SweepSpec(CFG_222, (0.0, 10.0, 20.0), 2 * BLOCK, master_seed=5)
        assert run_sweep(large, workers=2) == run_sweep(large)
        assert len(built) == 1 and len(built[0].submitted) == 6

    def test_small_point_stays_in_process(self):
        with _RecordingExecutor(2) as executor:
            _, trials = run_point(CFG_222, 10.0, 2048, "exact", master_seed=5, workers=2, _executor=executor)
        assert trials == 2048
        assert executor.submitted == []


class TestSamplerCounts:
    """Outage counts from the sampler equal those of libm's Box-Muller (``oracle.box_muller_exp``)
    on the same Philox words: its cos and sin differ from libm's in the last bits only."""

    @pytest.mark.parametrize(
        "mode,shape,rate,snr_db",
        [
            ("bound", (4, 4, 4), 4.0, 20.0),
            ("bound", (2, 2, 2), 0.42, 5.0),
            ("exact", (4, 2, 3), 2.0, 10.0),
            ("separate", (2, 2, 2), 2.0, 10.0),
        ],
        ids=["bound-4x4x4", "bound-2x2x2", "exact-4x2x3", "separate-2x2x2"],
    )
    def test_counts_equal_exp_route(self, mode, shape, rate, snr_db):
        config = config_at_snr(SystemConfig(*shape, rate_bpcu=rate), snr_db)
        seed, n, block = 20261021, 2**18, 8192
        hops = ((channel._LANE_H, config.n_r, config.n_s), (channel._LANE_G, config.n_d, config.n_r))
        counted = reference = 0
        for start in range(0, n, block):
            streams = np.arange(start, start + block, dtype=np.uint64)
            h, g = (
                box_muller_exp(_uniform_words(seed, lane, streams, 2 * rows * cols)).reshape(block, rows, cols)
                for lane, rows, cols in hops
            )
            reference += (
                _count_outages_bound(config, h, g) if mode == "bound" else _count_outages_designed(config, h, g, mode)
            )
            counted += simulator._count_block(config, mode, seed, 0, start, block)
        assert counted == reference
        assert 0 < reference < n


class _SampledRows:
    """Wraps ``simulator.sample_realization_batch`` and logs the size of each batch."""

    def __init__(self, monkeypatch):
        self.sizes: list[int] = []
        monkeypatch.setattr(simulator, "sample_realization_batch", self)

    def __call__(self, config, master_seed, streams):
        self.sizes.append(len(streams))
        return sample_realization_batch(config, master_seed, streams)


class TestSubBatches:
    """A block is one cache-sized batch: the largest power of two of trials
    with at most ``_SUB_ENTRIES`` complex entries of the larger hop, sampled
    and counted at once, and handed to the pool whole."""

    @pytest.mark.parametrize("mode", OUTAGE_MODES)
    @pytest.mark.parametrize("shape,sizes", [((3, 5, 4), [1024] * 4 + [904]), ((4, 4, 4), [2048, 2048, 904])])
    def test_counts_equal_one_shot(self, shape, sizes, mode, monkeypatch):
        args = (SystemConfig(*shape, rate_bpcu=4.0), 10.0, 5000, mode, 20260808)
        sampled = _SampledRows(monkeypatch)
        batched = run_point(*args, point_index=2)  # a later point
        monkeypatch.setattr(simulator, "_SUB_ENTRIES", 2**40)
        assert run_point(*args, point_index=2) == (batched[0], 5000)
        assert sampled.sizes == sizes + [5000]
        assert 0 < batched[0] < 5000

    @pytest.mark.parametrize(
        "shape,n,size",
        [
            ((2, 2, 2), CHUNK, BLOCK),
            ((2, 2, 1), CHUNK, BLOCK),
            ((4, 2, 3), CHUNK, 4096),
            ((4, 4, 4), CHUNK, 2048),
            ((3, 4, 5), CHUNK + 1500, 1024),
            ((1, 1, 1), 2 * CHUNK + 1500, CHUNK),
            ((4, 2, 3), 2048, 4096),  # a point of exact-4x2x3: one block, counted in process
        ],
    )
    def test_blocks_per_chunk(self, shape, n, size):
        with _RecordingExecutor(2) as executor:
            run_point(SystemConfig(*shape, rate_bpcu=2.0), 20.0, n, "bound", master_seed=5, workers=2,
                      _executor=executor)
        plan = [(s, min(size, n - s)) for s in range(0, n, size)]
        assert executor.submitted == (plan if len(plan) > 1 else [])

    def test_block_working_set(self):
        # Traced peak of a 4x4x4 bound block: 10.1 MiB at 8,192 trials,
        # 2.5 MiB at its planned 2,048. A change that regrows it fails here.
        config = config_at_snr(SystemConfig(4, 4, 4, rate_bpcu=4.0), 20.0)
        simulator._count_block(config, "bound", 20260808, 0, 0, 2048)  # lazy imports and caches
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            simulator._count_block(config, "bound", 20260808, 0, 0, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5_000_000


def _has_heap_calls() -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "mallinfo2")


_REPEATED_BLOCKS = """
import ctypes, resource
from relaylab import simulator
from relaylab.channel import SystemConfig, config_at_snr

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2

def system_bytes():
    info = mallinfo2()
    return info.arena + info.hblkhd

block = (config_at_snr(SystemConfig(4, 4, 4, rate_bpcu=4.0), 20.0), "bound", 20260808, 0, 0, 2048)
simulator._count_block(*block)  # warm-up: imports and caches
before, held = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, system_bytes()
for _ in range(10):
    simulator._count_block(*block)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, (system_bytes() - held) // resource.getpagesize())
"""


@pytest.mark.skipif(not _has_heap_calls(), reason="no mallopt or mallinfo2 in this C library")
def test_blocks_reuse_the_heap():
    # At glibc's default thresholds every 2,048-trial 4x4x4 block faults its
    # temporaries in again: ~3,600 minor faults over these 10 blocks, ~1,500
    # with only the trim threshold raised. Keeping the heap leaves ~30. As
    # the heap fragments it can still grow by ~0.5 MB in any one of the first
    # dozen blocks; which one depends on the process's layout (the size of
    # its environment moves it). Those are first touches of new heap pages,
    # so the faults are counted beyond the pages the heap grew by.
    src = Path(simulator.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _REPEATED_BLOCKS], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True)
    faults, grown_pages = map(int, done.stdout.split())
    assert faults - grown_pages < 100, (faults, grown_pages)


class TestRunSweep:
    def test_single_point_matches_run_point(self):
        spec = SweepSpec(CFG_222, (10.0,), 20_000, "bound", master_seed=7)
        curve = run_sweep(spec)
        outages, trials = run_point(CFG_222, 10.0, 20_000, "bound", master_seed=7, point_index=0)
        point = curve.points[0]
        assert (point.outages, point.trials) == (outages, trials)
        assert point.p_out == outages / trials

    def test_deterministic_and_monotone(self):
        spec = SweepSpec(CFG_222, (5.0, 10.0, 15.0, 20.0, 25.0), 100_000, "bound", master_seed=8)
        a = run_sweep(spec, workers=2)
        b = run_sweep(spec, workers=1)
        assert a == b
        p = [pt.p_out for pt in a.points]
        assert all(x > y for x, y in zip(p, p[1:]))

    def test_points_keyed_by_index_not_shared(self):
        # appending a grid point never perturbs earlier points
        short = run_sweep(SweepSpec(CFG_222, (10.0, 15.0), 20_000, "bound", master_seed=9))
        longer = run_sweep(SweepSpec(CFG_222, (10.0, 15.0, 20.0), 20_000, "bound", master_seed=9))
        assert short.points == longer.points[:2]


class TestFitSlope:
    def test_exact_power_law(self):
        snr = [10.0, 15.0, 20.0, 25.0, 30.0]
        rho = [10 ** (s / 10) for s in snr]
        curve = _synthetic_curve(snr, [r**-3 for r in rho], trials=10**12)
        fit = fit_slope(curve, min_count=20)
        assert fit.d_hat == pytest.approx(3.0, abs=1e-9)
        assert fit.residual < 1e-9
        assert fit.d_theory == 1  # 2x2x2 at R=2

    def test_scale_invariance(self):
        snr = [10.0, 15.0, 20.0]
        rho = [10 ** (s / 10) for s in snr]
        curve = _synthetic_curve(snr, [5.0 * r**-1 for r in rho], trials=10**9)
        fit = fit_slope(curve)
        assert fit.d_hat == pytest.approx(1.0, abs=1e-9)

    def test_starved_curve_raises_with_counts(self):
        curve = _synthetic_curve([10.0, 15.0, 20.0], [1e-8, 1e-9, 1e-10], trials=10**6)
        with pytest.raises(FitInfeasibleError) as info:
            fit_slope(curve)
        assert "usable" in str(info.value)

    @pytest.mark.parametrize("min_count", [0, -5])
    def test_min_count_below_one_rejected(self, min_count):
        curve = _synthetic_curve([10.0, 15.0, 20.0], [1e-2, 1e-3, 1e-4])
        with pytest.raises(ContractViolation):
            fit_slope(curve, min_count=min_count)

    @pytest.mark.parametrize("p_out", [float("nan"), 0.0, 1.5])
    def test_rejects_fitted_p_out_outside_unit_interval(self, p_out):
        # NaN used to fit to d_hat = nan; the error names the point's SNR
        curve = _synthetic_curve([10.0, 15.0, 20.0], [1e-2, 1e-3, 1e-4])
        points = list(curve.points)
        points[1] = replace(points[1], p_out=p_out)
        with pytest.raises(ContractViolation, match="^p_out at 15.0 dB "):
            fit_slope(replace(curve, points=tuple(points)))

    @pytest.mark.parametrize("snr_db", [float("nan"), 10.0, 5.0])
    def test_rejects_fitted_snr_not_ascending(self, snr_db):
        # NaN raised LinAlgError from the fit; a repeated or falling SNR was fitted as given
        curve = _synthetic_curve([10.0, 15.0, 20.0], [1e-2, 1e-3, 1e-4])
        points = list(curve.points)
        points[1] = replace(points[1], snr_db=snr_db)
        with pytest.raises(ContractViolation, match="^snr_db "):
            fit_slope(replace(curve, points=tuple(points)))

    def test_window_drops_starved_and_low_snr_points(self):
        snr = [5.0, 10.0, 15.0, 20.0, 25.0]
        rho = [10 ** (s / 10) for s in snr]
        p = [r**-2 for r in rho]
        p[0] = 1e-6  # low-SNR point starved below min_count
        curve = _synthetic_curve(snr, p, trials=10**7)
        fit = fit_slope(curve, min_count=20)
        assert fit.window_snr_db == (10.0, 15.0, 20.0, 25.0)
        assert fit.d_hat == pytest.approx(2.0, abs=1e-9)
