"""Run sweeps of one config on request and print the cost of each as one JSON line.

usage: python3 sweep_child.py CONFIG WARMUP_CONFIG WORKERS

First runs the sweep of WARMUP_CONFIG once, untimed and unwritten, so
that first-call costs (lazy imports, LAPACK set-up, the first pool) are
paid before any timed sweep; ``setup_s`` measures them. Then reads one
request per line on stdin, ``OUT_DIR TRACE``, and answers each with one
line on stdout. A sweep follows the path of ``relaylab
simulate``: parse the config, run the sweep, write ``curve.csv`` and
``manifest.txt``. The record holds the wall time from the first call to
the written files, the CPU seconds of this process and its pool workers,
their peak resident memory and, with TRACE=1, the spans around each
call. Exits at the end of stdin.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import srcpath

srcpath.use_checkout_sources()

from relaylab import run_sweep  # noqa: E402
from relaylab.cli import curve_to_csv, manifest_text, parse_sweep_config  # noqa: E402

from tracing import Tracer  # noqa: E402


def _utcnow() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + workers.ru_utime + workers.ru_stime


def sweep(config_path: Path, out_dir: Path, workers: int, trace: bool) -> dict:
    tracer = Tracer(enabled=trace)
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    with tracer.span("bench.sweep"):
        with tracer.span("cli.parse_sweep_config"):
            spec = parse_sweep_config(config_path)
        started = _utcnow()
        with tracer.span("simulator.run_sweep"):
            curve = run_sweep(spec, workers=workers)
        with tracer.span("cli.write_outputs"):
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "curve.csv").write_text(curve_to_csv(curve))
            manifest = manifest_text(spec, started, _utcnow(), workers, {"curve": "curve.csv"})
            (out_dir / "manifest.txt").write_text(manifest)
    sweep_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu_start
    # Pool workers are joined inside run_sweep, so RUSAGE_CHILDREN holds the
    # largest worker's peak so far (0 without a pool). Shared pages count
    # once per process, so this bounds the simultaneous peak from above.
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": (own_kb + workers * worker_kb) / 1024.0,
        "trials": sum(p.trials for p in curve.points),
        "spans": tracer.spans,
    }


def main(argv: list[str]) -> int:
    config_path, warmup_path, workers = Path(argv[0]), Path(argv[1]), int(argv[2])
    run_sweep(parse_sweep_config(warmup_path), workers=workers)
    for line in sys.stdin:
        out_dir, trace = line.split()
        print(json.dumps(sweep(config_path, Path(out_dir), workers, trace == "1")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
