"""Run the benchmark on several seeds per workload and summarise the spread.

usage: python3 benchmarks/repeat.py [--workloads A,B] [--runs 10] [--first-seed N]
                                    [--seconds S] [--trace 0|1] [--out FILE]

Run k of a workload uses seed first-seed + k. For each metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and their
distance as a share of the median, next to the metric's bound in
BENCHMARK.json, plus each workload's failed_fraction. The summary, with
every run's values, is written as JSON (default ``.bench_out/repeat.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import srcpath

srcpath.use_checkout_sources()

import envinfo  # noqa: E402
from workloads import WORKERS  # noqa: E402

ROOT = srcpath.ROOT
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed} printed nothing (exit {done.returncode}): {done.stderr[-500:]}")
    return json.loads(lines[-1]), wall


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"), "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "repeat.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"] + declared["per_layer"]}
    summary = {"runs": args.runs, "first_seed": args.first_seed, "seconds": args.seconds,
               "trace": args.trace, "environment": envinfo.environment(ROOT, WORKERS, args.first_seed),
               "workloads": {}}
    for workload in args.workloads.split(","):
        results, walls = [], []
        for k in range(args.runs):
            result, wall = run_once(workload, args.first_seed + k, args.seconds, args.trace)
            results.append(result)
            walls.append(wall)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        metrics = {}
        units = results[0]["metrics"]
        for name in units:
            metrics[name] = summarise([r["metrics"][name]["value"] for r in results])
            metrics[name]["unit"] = units[name]["unit"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": attempted, "failed": failed, "failed_fraction": failed / attempted,
            "run_wall_s": summarise(walls), "metrics": metrics,
        }
        print(f"{workload}: {args.runs} runs, failed_fraction {failed / attempted:g} ratio, "
              f"wall per run {statistics.median(walls):.1f} s (max {max(walls):.1f})")
        for name, m in metrics.items():
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound:g}{'  SPREAD > BOUND/3' if m['spread'] > bound / 3 else ''}"
            print(f"  {name:<52} {m['median']:>14.6g} {m['unit']:<8} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {m['spread']:.4f}{note}")
        sys.stdout.flush()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
