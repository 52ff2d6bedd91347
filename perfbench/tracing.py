"""In-memory spans recorded by the benchmark around its calls into toda2.

A span is (name, start, end, parent index, run id).  Spans stay in a list
until the run ends; ``dump`` writes them out.  A layer's self time is its
span duration minus the time covered by its direct children (spans of one
thread nest, so the children never overlap).
"""
from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class Tracer:
    """Records spans when enabled; ``span`` is a shared no-op otherwise."""

    def __init__(self, enabled: bool, run_id: str):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent]
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NO_SPAN

    @contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def mark(self) -> int:
        """Position to pass to ``self_times`` to cover spans opened from now on."""
        return len(self.spans)

    def self_times(self, since: int) -> dict[str, float]:
        """Self time per span name over the spans opened after ``since``."""
        spans = self.spans[since:]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None and parent >= since:
                covered[parent - since] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def dump(self, path) -> None:
        doc = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
