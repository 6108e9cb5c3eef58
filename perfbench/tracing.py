"""Spans and counters recorded around the benchmark's calls into ``hrs``.

A span is (name, start, end, parent, op id). Spans and counters stay in
memory; the caller writes them out once the run is over. With tracing off,
``Tracer.call`` is a plain function call, so the timed run pays one extra
Python frame per public call and nothing else.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._deferred: list = []
        self._last = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id)
            self._last = end - start

    def last_duration(self) -> float:
        """Duration of the span that closed most recently (0 when off)."""
        return self._last

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] += value

    def defer(self, fn) -> None:
        """Queue work (replays, counters) to run after the traced op, so it
        stays out of the traced wall time."""
        if self.enabled:
            self._deferred.append(fn)

    def run_deferred(self) -> None:
        pending, self._deferred = self._deferred, []
        for fn in pending:
            fn()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        of it that its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return totals
