"""Parameter sweeps: the scaffolding every benchmark reuses.

A sweep runs a callable over the cartesian product of named parameter
lists and records one row per point. Rows are plain dicts so benchmarks
can feed them straight into :class:`repro.core.report.TextTable`.

Evaluation streams through a :class:`repro.explore.SweepExecutor`'s
bounded-window ``imap`` (its one streaming caller; the exploration
engine runs no pool), so any sweep can go thread- or process-parallel
by passing ``executor=``; row order is the grid order regardless of
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.explore.executor import (
    STREAM_CHUNK_SIZE,
    SweepExecutor,
    auto_chunk_size,
    resolve_executor,
)
from repro.explore.result import pareto_filter, require_key
from repro.explore.sink import resolve_sink, sink_stream


@dataclass
class SweepResult:
    """Collected rows of a sweep, with small query helpers."""

    rows: list[dict[str, Any]] = field(default_factory=list)

    def column(self, name: str) -> list[Any]:
        """Extract one column across all rows."""
        require_key(self.rows, name, kind="column")
        return [r[name] for r in self.rows]

    def best(self, metric: str, minimize: bool = True) -> dict[str, Any]:
        """Row optimizing a metric; ties break to the earliest row."""
        if not self.rows:
            raise ConfigurationError("sweep produced no rows")
        require_key(self.rows, metric)
        key = lambda r: r[metric]  # noqa: E731
        # min()/max() return the first optimal element, so ties break to
        # the earliest row.
        return min(self.rows, key=key) if minimize else max(self.rows, key=key)

    def where(self, **conditions: Any) -> "SweepResult":
        """Rows matching all equality conditions."""
        rows = [
            r for r in self.rows if all(r.get(k) == v for k, v in conditions.items())
        ]
        return SweepResult(rows=rows)

    def pareto(
        self, axes: Sequence[str], maximize: bool | Sequence[bool] = True
    ) -> "SweepResult":
        """The non-dominated rows under the given axes (see
        :func:`repro.explore.result.pareto_filter`)."""
        return SweepResult(rows=pareto_filter(self.rows, axes, maximize))


def _measure_point(
    fn: Callable[..., dict[str, Any]], point: dict[str, Any]
) -> dict[str, Any]:
    """Evaluate one grid point into its merged row (module-level for
    picklability). Measured keys win on collision with swept ones."""
    measured = fn(**point)
    if not isinstance(measured, dict):
        raise ConfigurationError("sweep function must return a dict")
    return {**point, **measured}


def parameter_sweep(
    fn: Callable[..., dict[str, Any]],
    *,
    executor: SweepExecutor | None = None,
    sink: Any = None,
    **param_lists: list[Any],
) -> SweepResult:
    """Run ``fn(**point)`` over the grid of ``param_lists``.

    ``fn`` must return a dict of measured values; the swept parameters are
    merged into each row (measured keys win on collision, which lets a
    function refine a requested parameter, e.g. snapping to a legal
    value).

    ``executor`` is reserved (keyword-only) for the evaluation backend
    and cannot be the name of a swept parameter; the default is serial.
    Parallel executors return rows in the same grid order as serial.
    The grid streams lazily through the executor — intermediate memory
    is bounded by the executor's chunk window, not the grid size (the
    collected rows are the output, as always).

    ``sink`` (keyword-only, also reserved) streams rows to a
    :class:`repro.explore.sink.ResultSink` as they are measured, in grid
    order — the same pass-through the exploration engine offers, so a
    long sweep's rows hit disk before the sweep finishes. The sink is
    opened with ``scenario=None`` (sweeps have no scenario) and closed
    on exit, also on error.
    """
    if not param_lists:
        raise ConfigurationError("no parameters to sweep")
    sink = resolve_sink(sink)
    names = sorted(param_lists)
    total = 1
    for name in names:
        if not param_lists[name]:
            raise ConfigurationError(f"parameter {name!r} has no values")
        total *= len(param_lists[name])
    points = (
        dict(zip(names, values))
        for values in product(*(param_lists[name] for name in names))
    )
    executor = resolve_executor(executor)
    chunk_size = executor.chunk_size
    if chunk_size is None and not executor.is_serial:
        chunk_size = auto_chunk_size(total, executor.workers)
    stream = executor.imap(partial(_measure_point, fn), points, chunk_size=chunk_size)
    if sink is None:
        return SweepResult(rows=list(stream))
    # Sink writes happen at chunk granularity, matching the engine's
    # write_rows-per-chunk contract (batching consumers rely on it).
    batch_size = chunk_size if chunk_size is not None else STREAM_CHUNK_SIZE
    rows: list[dict[str, Any]] = []
    with sink_stream(sink, None, "parameter sweep") as write:
        start = 0
        for row in stream:
            rows.append(row)
            if len(rows) - start >= batch_size:
                write(rows[start:])
                start = len(rows)
        if start < len(rows):
            write(rows[start:])
    return SweepResult(rows=rows)
