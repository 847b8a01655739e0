"""Self-test of the benchmark at tiny trial counts.

usage: python3 benchmarks/selftest.py

Shows that every metric of BENCHMARK.json is emitted with its unit on
every workload, traced and untraced, and that the output checks catch an
outage count corrupted by one: in a written curve (the sweep is reported
failed) and in ``run_point``'s count of a recounted prefix. Exits 0 when
all of that holds. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import srcpath

srcpath.use_checkout_sources()

from relaylab.cli import spec_echo_text  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = srcpath.ROOT
SEED = 7


def _emits_every_metric(declared: dict, failures: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
                   "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                failures.append(f"{label}: no JSON result (exit {done.returncode}) {done.stderr[-300:]}")
                continue
            want = {m["name"]: m["unit"] for m in declared[kind]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics/units {sorted(set(got.items()) ^ set(want.items()))}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                failures.append(f"{label}: non-finite values {bad}")
            if done.returncode != 0 or not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: exit {done.returncode}, result {result}")
            print(f"{label}: {len(got)} metrics with units, correct={result['correct']}")


def _corrupted_curve_fails(failures: list[str]) -> None:
    w = WORKLOADS["bound-2x2x2"].tiny()
    spec = w.spec(SEED)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        work = Path(tmp)
        config = work / "sweep.ini"
        config.write_text(spec_echo_text(spec))
        warmup = work / "setup.ini"
        warmup.write_text(spec_echo_text(w.setup_spec(SEED)))
        with run.SweepServer(spec, config, warmup, work) as server:
            sweep = server.sweep(False)
        out = sweep.out_dir
        if sweep.problems:
            failures.append(f"clean tiny sweep flagged: {sweep.problems}")
            return
        header, first, *rest = sweep.csv_text.splitlines()
        fields = first.split(",")
        fields[3] = str(int(fields[3]) + 1)  # snr_db,p_out,trials,outages,...
        (out / "curve.csv").write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        problems, _ = checks.check_sweep_output(spec, out, sweep.csv_text)
    print(f"curve with one outage count +1: {len(problems)} problems, e.g. {problems[:1]}")
    if not problems:
        failures.append("a curve with an outage count corrupted by one passed the checks")


def _corrupted_prefix_fails(failures: list[str]) -> None:
    for name in ("bound-2x2x2", "exact-4x2x3"):
        w = WORKLOADS[name].tiny()
        counts = checks.count_prefixes(w.spec(SEED), w.prefix)
        if checks.check_prefixes(counts):
            failures.append(f"{name}: clean prefix recount flagged: {checks.check_prefixes(counts)}")
        corrupted = [replace(counts[0], batched=counts[0].batched + 1), *counts[1:]]
        problems = checks.check_prefixes(corrupted)
        print(f"{name}: run_point prefix count +1: {problems}")
        if not problems:
            failures.append(f"{name}: a prefix count corrupted by one passed the checks")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = {w["name"] for w in declared["workloads"]} - set(WORKLOADS)
    if unknown:
        print(f"FAIL: BENCHMARK.json lists workloads workloads.py does not define: {sorted(unknown)}")
        return 1
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    failures: list[str] = []
    _emits_every_metric(declared, failures)
    _corrupted_curve_fails(failures)
    _corrupted_prefix_fails(failures)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
