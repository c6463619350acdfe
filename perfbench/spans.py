"""Spans recorded around the benchmark's calls into marginseq.

A span holds a name, its start and end, the span that was open when it began,
the round (request) it belongs to, and counters such as samples drawn.  Spans
stay in memory until the run ends and are written out in one piece.  A
disabled tracer records nothing, so the untraced run does the same calls with
no bookkeeping.
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.request = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counters):
        """Time the body; the yielded dict takes counters known only afterwards."""
        if not self.enabled:
            yield counters
            return
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        record = {"id": sid, "parent": parent, "request": self.request, "name": name}
        self.spans.append(record)
        start = time.perf_counter()
        try:
            yield counters
        finally:
            end = time.perf_counter()
            self._open.pop()
            record.update(start=start, end=end, **counters)

    def record(self, name: str, seconds: float, **counters) -> None:
        """Add a span measured elsewhere, such as inside a child interpreter."""
        if self.enabled:
            self.spans.append({"id": len(self.spans), "parent": None, "request": self.request,
                               "name": name, "start": 0.0, "end": seconds, **counters})

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def span_cost_s(n: int = 2000) -> float:
    """Wall time one enabled span adds around an empty body."""
    tracer = Tracer(True)
    start = time.perf_counter()
    for _ in range(n):
        with tracer.span("calibration"):
            pass
    return (time.perf_counter() - start) / n


def duration(span: dict) -> float:
    return span["end"] - span["start"]
