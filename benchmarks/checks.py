"""Output checks applied to every sweep the benchmark runs.

A sweep passes when its curve is consistent with its spec (grid, trial
counts, p_out = outages/trials, Wilson intervals that contain p_out) and
is byte-identical to the first sweep of the run. Once per run, a prefix
of every point is recounted draw by draw through the scalar public
route and must give the same outage count as ``run_point`` on that
prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from relaylab import (
    SeedSpec,
    channel_eigenvalues,
    config_at_snr,
    evaluate_realization,
    outage_bound_statistic,
    run_point,
    sample_realization,
    wilson_interval,
)
from relaylab.cli import parse_sweep_config, read_curve_csv
from relaylab.simulator import POINT_STRIDE

REL_TOL = 1e-9  # curve files carry 10 significant digits


def check_curve(points, spec) -> list[str]:
    """Problems with one written curve; an empty list means it passes."""
    problems = []
    grid = [p.snr_db for p in points]
    if grid != list(spec.snr_grid_db):
        problems.append(f"SNR grid {grid} differs from the spec's {list(spec.snr_grid_db)}")
    for p in points:
        where = f"{p.snr_db:g} dB"
        if spec.adaptive:
            if not 1 <= p.trials <= spec.trials_per_point:
                problems.append(f"{where}: {p.trials} trials outside [1, cap {spec.trials_per_point}]")
            elif p.trials < spec.trials_per_point and p.outages < spec.target_outages:
                problems.append(f"{where}: stopped at {p.trials} trials short of the target")
        elif p.trials != spec.trials_per_point:
            problems.append(f"{where}: {p.trials} trials, spec asks {spec.trials_per_point}")
        if not 0 <= p.outages <= p.trials:
            problems.append(f"{where}: {p.outages} outages out of {p.trials} trials")
            continue
        if not math.isclose(p.p_out, p.outages / p.trials, rel_tol=REL_TOL):
            problems.append(f"{where}: p_out {p.p_out!r} != {p.outages}/{p.trials}")
        low, high = wilson_interval(p.outages, p.trials)
        if not (math.isclose(p.ci_low, low, rel_tol=REL_TOL) and math.isclose(p.ci_high, high, rel_tol=REL_TOL)):
            problems.append(f"{where}: interval [{p.ci_low!r}, {p.ci_high!r}] is not Wilson's [{low!r}, {high!r}]")
        if not p.ci_low <= p.p_out <= p.ci_high:
            problems.append(f"{where}: p_out {p.p_out!r} outside [{p.ci_low!r}, {p.ci_high!r}]")
    return problems


def check_sweep_output(spec, out_dir: Path, reference: str | None) -> tuple[list[str], str]:
    """Check the curve and manifest a sweep wrote; returns (problems, curve text).

    ``reference`` is the curve text of the run's first sweep: the same
    spec and seed must give the same bytes.
    """
    csv_text = (out_dir / "curve.csv").read_text()
    problems = check_curve(read_curve_csv(out_dir / "curve.csv").points, spec)
    if parse_sweep_config(out_dir / "manifest.txt") != spec:
        problems.append("manifest does not reproduce the spec")
    if reference is not None and csv_text != reference:
        problems.append("curve differs from the first sweep of this run")
    return problems, csv_text


@dataclass(frozen=True)
class PrefixCount:
    snr_db: float
    draws: int
    ran: int           # trials run_point reports having run
    scalar: int        # outages counted draw by draw through the scalar route
    batched: int       # outages reported by run_point on the same draws
    min_margin: float  # smallest relative distance of a draw to its threshold


def _scalar_outage(config, mode: str, seed: SeedSpec) -> tuple[bool, float]:
    chan = sample_realization(config, seed)
    if mode == "exact":
        mi = evaluate_realization(config, chan).mi_exact
        return mi <= config.rate_bpcu, abs(mi - config.rate_bpcu) / config.rate_bpcu
    lambda_h, lambda_g = channel_eigenvalues(config, chan)
    statistic, m = outage_bound_statistic(
        lambda_h[: config.m_dim], lambda_g, config.rho, config.n_s, config.rate_bpcu
    )
    return statistic >= m, abs(statistic - m) / abs(m)


def count_prefixes(spec, draws: int) -> list[PrefixCount]:
    """Recount the first ``draws`` trials of every point both ways."""
    counts = []
    n = min(draws, spec.trials_per_point)
    for index, snr_db in enumerate(spec.snr_grid_db):
        config = config_at_snr(spec.config, snr_db)
        scalar = 0
        margin = math.inf
        for t in range(n):
            out, gap = _scalar_outage(config, spec.outage_mode, SeedSpec(spec.master_seed, index * POINT_STRIDE + t))
            scalar += out
            margin = min(margin, gap)
        batched, ran = run_point(
            spec.config, snr_db, n, spec.outage_mode, spec.master_seed, point_index=index
        )
        counts.append(PrefixCount(snr_db, n, ran, scalar, batched, margin))
    return counts


def check_prefixes(counts: list[PrefixCount]) -> list[str]:
    return [
        f"{c.snr_db:g} dB: run_point counts {c.batched} outages in the first {c.draws} draws, "
        f"the scalar route {c.scalar} (run_point ran {c.ran})"
        for c in counts
        if c.scalar != c.batched or c.ran != c.draws
    ]
