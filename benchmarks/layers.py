"""One round of per-layer timings on a workload's shape and seed.

Every figure comes from timing a public relaylab call made here. A stage
with no public entry is the difference of two timed calls on identical
inputs; those names are listed in ``DERIVED``.

Which end-to-end figure each layer should move, and where:

- numerics Philox / Box-Muller: trials_per_s on bound-2x2x2 most, less
  on bound-4x4x4-adaptive, none on exact-4x2x3. eig / solve: sweep_s on
  exact-4x2x3 only.
- channel sampling: trials_per_s on both bound workloads; peak_rss_mb on
  bound-4x4x4-adaptive.
- simulator statistic: trials_per_s on bound-4x4x4-adaptive (LAPACK) and
  bound-2x2x2 (closed form). Pool efficiency and CPU per counted trial:
  sweep_s on bound-4x4x4-adaptive, where discarded in-flight chunks are
  CPU with no counted trial.
- transceiver and metrics: sweep_s / trials_per_s on exact-4x2x3; none
  on the bound workloads.
- cli overhead: setup_s on every workload.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from pathlib import Path

import numpy as np

from relaylab import (
    ChannelRealization,
    build_design,
    config_at_snr,
    eig_hermitian_desc,
    error_cov_decomposed,
    error_cov_direct,
    evaluate_realization,
    mutual_info_joint,
    relay_receiver,
    run_point,
    run_sweep,
    sample_complex_gaussian_batch,
    sample_realization_batch,
    solve_hermitian_psd,
    waterfill_phi,
)
from relaylab import cli
from relaylab.numerics import philox4x64_block

from tracing import Tracer, timed
from workloads import BOUND_CHUNK, WORKERS, Workload

DERIVED = ("numerics.box_muller_s_per_chunk", "simulator.statistic_s_per_chunk")

LAYER_SNR_DB = 20.0  # mid-grid on every workload

# Single draws timed per call-level figure, and CLI/run_sweep pairs timed
# for the CLI overhead.
CALL_DRAWS = 200
CLI_PAIRS = 5

# One trial's draw reads 4 words per Philox block and 2 uniforms per
# complex entry, on one counter lane per hop.
_WORDS_PER_BLOCK = 4


def _hop_counters(rows: int, cols: int, lane: int, streams: np.ndarray):
    blocks = -(-2 * rows * cols // _WORDS_PER_BLOCK)
    c0 = np.tile(np.arange(blocks, dtype=np.uint64), streams.size)
    c1 = np.full_like(c0, lane)
    c2 = np.repeat(streams, blocks)
    return c0, c1, c2, np.zeros_like(c0)


def _per_call_us(tracer: Tracer, name: str, fn, inputs) -> float:
    seconds = timed(tracer, name, lambda: [fn(*args) for args in inputs])
    return 1e6 * seconds / len(inputs)


def measure_round(w: Workload, seed: int, tracer: Tracer, work_dir: Path) -> dict[str, float]:
    spec = w.spec(seed)
    base = spec.config
    config = config_at_snr(base, LAYER_SNR_DB)
    n_s, n_r, n_d = w.shape
    out: dict[str, float] = {}

    # numerics + channel: one bound-mode chunk of draws, and the Philox work inside it.
    streams = np.arange(BOUND_CHUNK, dtype=np.uint64)
    counters = [_hop_counters(n_r, n_s, 0, streams), _hop_counters(n_d, n_r, 1, streams)]
    t_philox = timed(tracer, "numerics.philox4x64_block",
                     lambda: [philox4x64_block(seed, *c) for c in counters])
    words = _WORDS_PER_BLOCK * sum(c[0].size for c in counters)
    out["numerics.philox4x64_block.mwords_per_s"] = words / t_philox / 1e6
    t_gauss = timed(tracer, "numerics.sample_complex_gaussian_batch",
                    lambda: sample_complex_gaussian_batch(n_r, n_s, seed, streams, 0))
    out["numerics.sample_complex_gaussian_batch.mentries_per_s"] = streams.size * n_r * n_s / t_gauss / 1e6
    t_sample = timed(tracer, "channel.sample_realization_batch",
                     lambda: sample_realization_batch(config, seed, streams))
    out["channel.sample_realization_batch.s_per_chunk"] = t_sample
    out["numerics.box_muller_s_per_chunk"] = t_sample - t_philox

    # simulator: one chunk end to end, then several at workers 1 and 2.
    if w.chunk != BOUND_CHUNK:
        chunk_streams = np.arange(w.chunk, dtype=np.uint64)
        t_sample = timed(tracer, "channel.sample_realization_batch",
                         lambda: sample_realization_batch(config, seed, chunk_streams))
    t_chunk = timed(tracer, "simulator.run_point",
                    lambda: run_point(base, LAYER_SNR_DB, w.chunk, w.mode, seed, workers=1))
    out["simulator.statistic_s_per_chunk"] = t_chunk - t_sample
    trials = w.chunk * w.run_point_chunks
    for workers in (1, WORKERS):
        seconds = timed(tracer, "simulator.run_point",
                        lambda: run_point(base, LAYER_SNR_DB, trials, w.mode, seed, workers=workers))
        out[f"simulator.run_point.w{workers}.trials_per_s"] = trials / seconds
    out["simulator.pool_efficiency"] = out[f"simulator.run_point.w{WORKERS}.trials_per_s"] / (
        WORKERS * out["simulator.run_point.w1.trials_per_s"]
    )

    # numerics, transceiver, metrics: single draws at the layer SNR.
    h, g = sample_realization_batch(config, seed, np.arange(CALL_DRAWS, dtype=np.uint64))
    rho = config.rho
    chans = [ChannelRealization(h=h[i], g=g[i]) for i in range(CALL_DRAWS)]
    out["numerics.eig_hermitian_desc.us_per_call"] = _per_call_us(
        tracer, "numerics.eig_hermitian_desc", eig_hermitian_desc,
        [(c.h.conj().T @ c.h,) for c in chans])
    out["numerics.solve_hermitian_psd.us_per_call"] = _per_call_us(
        tracer, "numerics.solve_hermitian_psd", solve_hermitian_psd,
        [(rho * (c.h @ c.h.conj().T) + np.eye(n_r), c.h) for c in chans])
    out["transceiver.relay_receiver.us_per_call"] = _per_call_us(
        tracer, "transceiver.relay_receiver", relay_receiver, [(c.h, rho) for c in chans])
    designs = []
    out["transceiver.build_design.us_per_call"] = _per_call_us(
        tracer, "transceiver.build_design", lambda c: designs.append(build_design(config, c)),
        [(c,) for c in chans])
    out["transceiver.waterfill_phi.us_per_call"] = _per_call_us(
        tracer, "transceiver.waterfill_phi", waterfill_phi,
        [(d.lambda_y, d.lambda_g, config.p_r) for d in designs])
    covs = []
    out["transceiver.error_cov_decomposed.us_per_call"] = _per_call_us(
        tracer, "transceiver.error_cov_decomposed",
        lambda c, d: covs.append(error_cov_decomposed(config, c, d)), list(zip(chans, designs)))
    out["transceiver.error_cov_direct.us_per_call"] = _per_call_us(
        tracer, "transceiver.error_cov_direct", error_cov_direct,
        [(config, c, d.q) for c, d in zip(chans, designs)])
    out["metrics.evaluate_realization.us_per_call"] = _per_call_us(
        tracer, "metrics.evaluate_realization", evaluate_realization, [(config, c) for c in chans])
    out["metrics.mutual_info_joint.us_per_call"] = _per_call_us(
        tracer, "metrics.mutual_info_joint", mutual_info_joint, [(c.gamma,) for c in covs])

    out["cli.overhead_s"] = _cli_overhead(w, seed, tracer, work_dir)
    return out


def _cli_overhead(w: Workload, seed: int, tracer: Tracer, work_dir: Path) -> float:
    """Median ``relaylab simulate`` wall minus median ``run_sweep`` wall on
    the set-up spec at workers 1: config parse, CSV and manifest writes."""
    spec = w.setup_spec(seed)
    config_path = work_dir / "overhead.ini"
    config_path.write_text(cli.spec_echo_text(spec))
    argv = ["simulate", "--config", str(config_path), "--out-dir", str(work_dir / "overhead"),
            "--workers", "1", "--seed", str(seed)]
    cli_s, sweep_s = [], []
    for _ in range(CLI_PAIRS):
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            with tracer.span("cli.main"):
                code = cli.main(argv)
            cli_s.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"relaylab simulate exited with {code}")
        sweep_s.append(timed(tracer, "simulator.run_sweep", lambda: run_sweep(spec, workers=1)))
    return statistics.median(cli_s) - statistics.median(sweep_s)
