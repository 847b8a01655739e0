"""Make ``import relaylab`` load the checkout's own sources.

The benchmark measures the code in ``src/`` next to this directory and
never an installed copy; without those sources it stops with exit code 2
before measuring anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    package = SRC / "relaylab"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run the benchmark from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import relaylab

    if Path(relaylab.__file__).resolve().parent != package.resolve():
        print(f"error: relaylab imported from {relaylab.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)
