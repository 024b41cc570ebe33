"""In-memory span recording for the traced benchmark run.

Spans are opened by the benchmark's own code around each call into a
layer's public functions: nothing inside ``src/`` is instrumented. A
span records its name, start and end (``perf_counter_ns``), the span
that was open when it started, and the op it belongs to. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

from repro.explore import TopKSink


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str | None


class Tracer:
    """Nested spans plus the id of the op currently being replayed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.op)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the part its children cover."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for record in self.spans:
            if record.parent is not None:
                children[record.parent].append((record.start_ns, record.end_ns))
        result = []
        for index, record in enumerate(self.spans):
            covered = 0
            reach = record.start_ns
            for start, end in sorted(children[index]):
                start = max(start, reach)
                end = min(end, record.end_ns)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(record.end_ns - record.start_ns - covered)
        return result

    def totals(self, op_prefix: str = "") -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the
        spans of ops whose id starts with ``op_prefix``."""
        table: dict[str, dict[str, float]] = {}
        for record, own in zip(self.spans, self.self_ns()):
            if not (record.op or "").startswith(op_prefix):
                continue
            entry = table.setdefault(record.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += (record.end_ns - record.start_ns) / 1e9
            entry["self_s"] += own / 1e9
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump([asdict(record) for record in self.spans], handle)


class TracedTopKSink(TopKSink):
    """A top-k sink that records a ``sink.write`` span per write and
    counts the rows its batch writes turn into Python objects."""

    def __init__(self, tracer: Tracer, metric: str, k: int, maximize: bool):
        super().__init__(metric, k, maximize)
        self.tracer = tracer
        self.materialized = 0

    def write_batch(self, batch) -> None:
        before = batch.n_materialized
        with self.tracer.span("sink.write"):
            super().write_batch(batch)
        self.materialized += batch.n_materialized - before

    def write_rows(self, rows) -> None:
        with self.tracer.span("sink.write"):
            super().write_rows(rows)
