"""In-memory timing spans recorded around calls into blockenc.

A span has a layer name, the id of the item it belongs to, optionally the
call it times, start and end times from `time.perf_counter`, and the index of
the span that encloses it.
Spans stay in memory until the worker hands them to the parent at the end of
its job.  A disabled tracer records nothing: the untraced runs pay for one
no-op context manager per call.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

_NULL = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, layer: str, item: str, call: str | None = None):
        return self._record(layer, item, call) if self.enabled else _NULL

    @contextmanager
    def _record(self, layer, item, call):
        rec = {"layer": layer, "item": item, "call": call,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def self_times(spans: list[dict], key=lambda s: s["layer"]) -> dict:
    """Self time per key: each span's duration minus what its children cover.

    Children of one span never overlap (one thread), so their durations add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict = defaultdict(float)
    for s, c in zip(spans, covered):
        out[key(s)] += (s["end"] - s["start"]) - c
    return dict(out)


def span_cost_s() -> float:
    """What tracing adds per span: an empty span of an enabled tracer minus
    one of a disabled tracer, the fastest of 7 loops of 20,000 spans."""
    spans = 20000

    def loop(enabled):
        tracer = Tracer(enabled)
        t0 = time.perf_counter()
        for _ in range(spans):
            with tracer.span("layer", "item"):
                pass
        return time.perf_counter() - t0

    return min(loop(True) - loop(False) for _ in range(7)) / spans
