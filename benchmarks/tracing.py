"""In-memory spans recorded around the benchmark's calls into relaylab.

A span is (id, name, start, end, parent, run). The layer of a span is
the first dotted part of its name (``numerics.philox4x64_block`` belongs
to ``numerics``). Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool, run: str = "run"):
        self.enabled = enabled
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def adopt(self, spans: list[dict], run: str) -> None:
        """Append spans recorded by another process under a new run id."""
        offset = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + offset
            self.spans.append({**s, "id": s["id"] + offset, "parent": parent, "run": run})


def timed(tracer: Tracer, name: str, fn) -> float:
    """Wall seconds of ``fn()``, recorded as span ``name`` when tracing."""
    with tracer.span(name):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start


def self_seconds_by_layer(spans: list[dict], runs: set[str]) -> dict[str, float]:
    """Per layer: span durations minus the time their direct children cover.

    Children of one span run one after another, so their durations add.
    """
    chosen = [s for s in spans if s["run"] in runs]
    child_time: dict[int, float] = {}
    for s in chosen:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in chosen:
        layer = s["name"].split(".", 1)[0]
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals
