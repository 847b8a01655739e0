"""The environment a result was measured in, stored with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():  # an exported checkout: say so, not a parent repo's sha
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _src_files(root: Path) -> list[Path]:
    return sorted((root / "src").rglob("*.py"))


def _blas() -> tuple[str, int | None]:
    """BLAS vendor from numpy's build record and its live thread count."""
    try:
        vendor = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and "/" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return vendor, int(fn())
    return vendor, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, workers: int, seed: int) -> dict:
    src = _src_files(root)
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    vendor, threads = _blas()
    return {
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cpu_model": _cpu_model(),
        "workers": workers,
        "seed": seed,
    }
