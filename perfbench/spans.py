"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request): wall-clock seconds from
``time.perf_counter``, the index of the enclosing span (or -1) and the request
it belongs to. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Spans:
    """Records named spans for one request at a time."""

    def __init__(self):
        self.records: list[tuple[str, float, float, int, int]] = []
        self.request = -1
        self._stack: list[int] = []

    def begin_request(self, request: int) -> None:
        self.request = request

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.records)
        self.records.append((name, 0.0, 0.0, parent, self.request))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records[index] = (name, start, end, parent, self.request)

    def totals(self, request: int) -> tuple[dict[str, float], dict[str, float]]:
        """Seconds per span name within one request, and seconds of the
        direct children of each span name."""
        by_name: dict[str, float] = defaultdict(float)
        by_parent: dict[str, float] = defaultdict(float)
        for name, start, end, parent, req in self.records:
            if req == request:
                by_name[name] += end - start
                if parent >= 0:
                    by_parent[self.records[parent][0]] += end - start
        return by_name, by_parent

    def write(self, path: Path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p, "request": r}
                for n, s, e, p, r in self.records]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


class NoSpans:
    """Stand-in used with tracing off: every span is a no-op."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null
