"""In-memory spans recorded around calls into the program's layers.

Spans are kept in a list while the traced run works and written out as
JSON lines once it ends.  A span's self time is its duration minus the
part of it covered by its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Spans:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out: dict[str, float] = {}
        for span, child_time in zip(self.spans, covered):
            out[span.name] = out.get(span.name, 0.0) + span.duration - child_time
        return out

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )
