"""In-memory span recorder for the benchmark.

Spans are recorded by the benchmark's own code around calls into the
package's public functions; the package itself is not instrumented.  A
disabled tracer records nothing, so the untraced run pays one attribute
lookup and one call per span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager timing one call; a no-op when disabled."""
        if not self.enabled:
            return nullcontext()
        return self._record(name)

    @contextmanager
    def _record(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time in seconds, number of spans).
        Self time is a span's duration minus the durations of its children."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, tuple[float, int]] = {}
        for s, inner in zip(self.spans, child_time):
            total, calls = out.get(s.name, (0.0, 0))
            out[s.name] = (total + (s.end - s.start) - inner, calls + 1)
        return out

    def write_jsonl(self, path) -> None:
        """One JSON object per span: name, start, end, parent index."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent}) + "\n")
