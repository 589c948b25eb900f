"""In-memory spans for the traced run.

A span records name, start, end, parent span and workload id, plus any
counters the caller attaches.  Spans stay in memory and are written out
once, as JSON lines, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, workload: str, **counters):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": workload,
            **counters,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @staticmethod
    def duration(record: dict) -> float:
        return record["end"] - record["start"]

    def self_time(self, record: dict) -> float:
        """Duration minus the time covered by direct children."""
        children = [s for s in self.spans if s["parent"] == record["id"]]
        return self.duration(record) - sum(self.duration(c) for c in children)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps({**record, "self_s": self.self_time(record)}) + "\n")
