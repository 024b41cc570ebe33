"""Test-only sinks and export helpers.

The library ships the sinks a caller outside the tests uses
(``CsvSink``, ``JsonlSink``, ``TopKSink``); any object with a
``write_rows`` method is a sink too. These helpers collect what the
tests compare against.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Sequence

from repro.explore.result import ParetoFrontier
from repro.explore.sink import CsvSink, ResultSink


class MemorySink(ResultSink):
    """Accumulate every streamed row in memory: after the run,
    :attr:`rows` is the full row list in enumeration order (what
    ``ExplorationResult.rows`` would hold) and :attr:`chunks` the number
    of writes."""

    def __init__(self) -> None:
        self.rows: list[dict[str, Any]] = []
        self.chunks = 0

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        self.chunks += 1
        self.rows.extend(rows)


class FrontierSink(ResultSink):
    """Fold the streamed rows into a given :class:`ParetoFrontier`: row
    writes through ``add``, columnar batches through ``add_batch``."""

    def __init__(self, frontier: ParetoFrontier):
        self.frontier = frontier

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        self.frontier.add(rows)

    def write_batch(self, batch: Any) -> None:
        self.frontier.add_batch(batch)

    def pareto(self) -> list[dict[str, Any]]:
        return self.frontier.rows


def csv_text(rows: Iterable[dict[str, Any]]) -> str:
    """Render rows to CSV text through a :class:`CsvSink` (the same
    bytes as streaming them to a file)."""
    buffer = io.StringIO()
    sink = CsvSink(buffer)
    sink.open(None)
    sink.write_rows(list(rows))
    sink.close()
    return buffer.getvalue()
