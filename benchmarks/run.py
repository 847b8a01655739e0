"""Benchmark relaylab's outage simulator on one workload.

usage: python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--tiny]

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:
it times ``relaylab simulate`` set-up in fresh interpreters, then starts
one more interpreter that warms up on the set-up spec and runs the
workload's sweep back to back for about ``--seconds``, and reports
medians over those sweeps. With ``--trace 1`` it runs the sweep once
untraced and once traced, then repeats rounds of per-layer timings for
``--seconds`` and reports the per-layer metrics. Every sweep's output
is checked; a sweep that fails a check counts as failed and its timings
are left out.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
environment it was measured in, goes to ``.bench_out/results/``.
Exit codes: 0 all checks passed, 1 a check failed, 2 usage error or no
sources to measure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import srcpath

srcpath.use_checkout_sources()

from relaylab.cli import spec_echo_text  # noqa: E402

import checks  # noqa: E402
import envinfo  # noqa: E402
from layers import DERIVED, measure_round  # noqa: E402
from tracing import Tracer, self_seconds_by_layer  # noqa: E402
from workloads import ACCEPTANCE_SEED, WORKERS, WORKLOADS, Workload  # noqa: E402

ROOT = srcpath.ROOT
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

LAYERS = ("numerics", "channel", "simulator", "transceiver", "metrics", "cli")
SETUP_RUNS = 5      # timed fresh-interpreter set-ups per run, after one untimed
MIN_SWEEPS = 3      # timed sweeps per run, however short --seconds is
CHILD_TIMEOUT_S = 120


class SweepError(RuntimeError):
    pass


@dataclasses.dataclass
class Sweep:
    record: dict | None   # what sweep_child.py printed
    problems: list[str]
    csv_text: str | None
    out_dir: Path


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(srcpath.SRC) + (os.pathsep + path if path else "")}


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    done = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        raise SweepError(f"{' '.join(cmd[1:3])} exited with {done.returncode}: {tail[0]}")
    return done


def setup_seconds(w: Workload, seed: int, work: Path) -> list[float]:
    """Wall seconds of ``python -m relaylab simulate`` on the set-up spec,
    each in a fresh interpreter. The first, untimed run compiles bytecode."""
    config = _write_config(w.setup_spec(seed), work / "setup.ini")
    cmd = [sys.executable, "-m", "relaylab", "simulate", "--config", str(config),
           "--out-dir", str(work / "setup"), "--workers", str(WORKERS), "--seed", str(seed)]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        _run(cmd)
        if i:
            times.append(time.perf_counter() - start)
    return times


class SweepServer:
    """A fresh interpreter (sweep_child.py) that runs the workload's sweep
    on request, so sweeps run back to back and warm, one at a time."""

    def __init__(self, spec, config: Path, warmup_config: Path, work: Path):
        self.spec = spec
        self.work = work
        self.reference: str | None = None  # the first sweep's curve text
        self._count = 0
        self._stderr = open(work / "sweep-child.stderr", "w+")
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "sweep_child.py"), str(config), str(warmup_config),
             str(WORKERS)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, start_new_session=True)

    def sweep(self, trace: bool) -> Sweep:
        """One sweep, then the checks on what it wrote."""
        out_dir = self.work / f"sweep-{self._count}"
        self._count += 1
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self._kill)
        watchdog.start()
        try:
            self._proc.stdin.write(f"{out_dir} {int(trace)}\n")
            self._proc.stdin.flush()
            record = json.loads(self._proc.stdout.readline())
        except (OSError, ValueError) as exc:
            self._stderr.seek(0)
            tail = self._stderr.read().strip().splitlines()[-1:] or [str(exc)]
            return Sweep(None, [f"sweep did not finish: {tail[0]}"], None, out_dir)
        finally:
            watchdog.cancel()
        problems, csv_text = checks.check_sweep_output(self.spec, out_dir, self.reference)
        if self.reference is None:
            self.reference = csv_text
        return Sweep(record, problems, csv_text, out_dir)

    def _kill(self) -> None:
        """Kill the child and its pool workers, which share its session."""
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def close(self) -> None:
        try:
            self._proc.stdin.close()  # the child exits at the end of stdin
        except OSError:
            pass
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        self._kill()  # nothing is left on a clean exit; after a crash, orphaned workers
        self._proc.wait()
        self._proc.stdout.close()
        self._stderr.close()

    def __enter__(self) -> "SweepServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _write_config(spec, path: Path) -> Path:
    path.write_text(spec_echo_text(spec))
    return path


def end_to_end(w: Workload, seed: int, seconds: float, work: Path, detail: dict):
    spec = w.spec(seed)
    config = _write_config(spec, work / "sweep.ini")
    setup = setup_seconds(w, seed, work)
    prefix_problems = _prefix_problems(spec, w, detail)

    sweeps: list[Sweep] = []
    with SweepServer(spec, config, work / "setup.ini", work) as server:
        start = time.perf_counter()
        # Back to back until the next sweep would likely end more than half
        # a sweep past --seconds, so a run measures about --seconds.
        while len(sweeps) < MIN_SWEEPS or time.perf_counter() - start + _median_s(sweeps) / 2 < seconds:
            sweeps.append(server.sweep(False))
            if sweeps[-1].record is None:
                break
    for sweep in sweeps:
        sweep.problems += prefix_problems
    passed = [s.record for s in sweeps if not s.problems]
    counted = passed or [s.record for s in sweeps if s.record]
    detail["setup_s"] = setup
    detail["sweeps"] = [{k: v for k, v in s.record.items() if k != "spans"} if s.record else None
                        for s in sweeps]
    if not counted:
        return None, sweeps
    metrics = {
        "trials_per_s": statistics.median(r["trials"] / r["sweep_s"] for r in counted),
        "sweep_s": statistics.median(r["sweep_s"] for r in counted),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in counted),
    }
    return metrics, sweeps


def _median_s(sweeps: list[Sweep]) -> float:
    return statistics.median(s.record["sweep_s"] for s in sweeps if s.record) if sweeps else 0.0


def per_layer(w: Workload, seed: int, seconds: float, work: Path, detail: dict):
    spec = w.spec(seed)
    config = _write_config(spec, work / "sweep.ini")
    warmup_config = _write_config(w.setup_spec(seed), work / "setup.ini")
    prefix_problems = _prefix_problems(spec, w, detail)

    deadline = time.perf_counter() + seconds
    with SweepServer(spec, config, warmup_config, work) as server:
        sweeps = [server.sweep(False), server.sweep(True)]
    plain, traced = sweeps
    for sweep in sweeps:
        sweep.problems += prefix_problems
    if plain.record is None or traced.record is None:
        return None, sweeps

    tracer = Tracer(enabled=True)
    tracer.adopt(traced.record["spans"], run="sweep")
    rounds = []
    while not rounds or time.perf_counter() < deadline:
        tracer.run = f"round-{len(rounds)}"
        with tracer.span("bench.round"):
            rounds.append(measure_round(w, seed, tracer, work))
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    base = plain.record
    metrics["simulator.trials_run"] = base["trials"]
    metrics["simulator.cpu_us_per_counted_trial"] = 1e6 * base["cpu_s"] / base["trials"]
    metrics["trace.overhead_s"] = traced.record["sweep_s"] - base["sweep_s"]
    self_s = self_seconds_by_layer(tracer.spans, {"sweep", "round-0"})
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    detail["rounds"] = rounds
    detail["self_s_all_layers"] = self_s
    detail["sweeps"] = [{k: v for k, v in s.record.items() if k != "spans"} if s.record else None
                        for s in sweeps]
    detail["spans_file"] = _write_json(OUT / "traces" / f"{_stem(w, seed, 1)}-spans.json", tracer.spans)
    return metrics, sweeps


def _prefix_problems(spec, w: Workload, detail: dict) -> list[str]:
    counts = checks.count_prefixes(spec, w.prefix)
    detail["prefix_recount"] = [dataclasses.asdict(c) for c in counts]
    detail["prefix_smallest_margin"] = min(c.min_margin for c in counts)
    return checks.check_prefixes(counts)


def _stem(w: Workload, seed: int, trace: int) -> str:
    return f"{w.name}-seed{seed}-trace{trace}"


def _write_json(path: Path, payload) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path.relative_to(ROOT))


def _read_benchmark_json() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        sys.exit(2)


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny trial counts, for the self-test")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return args


def main(argv=None) -> int:
    declared = _read_benchmark_json()
    args = parse_args(argv, sorted(WORKLOADS))
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    w = WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    detail: dict = {}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, sweeps = measure(w, args.seed, seconds, work, detail)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(sweeps)
    failed = sum(1 for s in sweeps if s.problems)
    correct = failed == 0 and metrics is not None
    for i, sweep in enumerate(sweeps):
        for problem in sweep.problems:
            print(f"sweep {i} FAILED: {problem}", file=sys.stderr)
    if metrics is None:
        print("error: no sweep finished; nothing to report", file=sys.stderr)
        return 1
    mismatch = {m["name"] for m in wanted} ^ set(metrics)
    if mismatch:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}", file=sys.stderr)
        return 2

    result = {
        "workload": dataclasses.asdict(w),
        "trace": args.trace,
        "seconds": seconds,
        "environment": envinfo.environment(ROOT, WORKERS, args.seed),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "problems": [p for s in sweeps for p in s.problems],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "derived": [name for name in DERIVED if args.trace],
        "detail": detail,
    }
    results_file = _write_json(OUT / "results" / f"{_stem(w, args.seed, args.trace)}.json", result)

    print(f"{w.name}  seed={args.seed}  trace={args.trace}  sweeps={attempted}  -> {results_file}")
    for m in wanted:
        tag = "  (derived)" if m["name"] in result["derived"] else ""
        print(f"  {m['name']:<52} {metrics[m['name']]:>14.6g} {m['unit']}{tag}")
    print(f"  {'failed_fraction':<52} {failed / attempted:>14.6g} ratio")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
