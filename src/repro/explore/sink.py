"""Streaming result sinks: write exploration rows as batches complete.

:class:`~repro.explore.result.ExplorationResult` already exports lazily,
but the engine used to collect every evaluation before the result
existed — an export-only workload still paid for the full cache. A
:class:`ResultSink` receives report rows *while the engine streams*, so
``explore(..., sink=..., collect=False)`` and export-only campaigns run
in memory bounded by the walk's batch size, never by the design-space
size.

Three sinks ship: the file sinks :class:`CsvSink` and :class:`JsonlSink`
(the only streaming CSV and JSON-Lines exports) and the columnar
:class:`TopKSink`. Any other consumer is an object with a
``write_rows`` method, or a :class:`ResultSink` subclass:
:func:`resolve_sink` accepts duck-typed sinks. An export-only run's
Pareto frontier needs no sink: a ``Campaign.run(collect=False)``
member's :meth:`~repro.explore.campaign.ScenarioRun.pareto` folds the
same :meth:`~repro.explore.result.ParetoFrontier.add_batch` online.

The file sinks reproduce the result-object exports exactly:
:class:`CsvSink` output is byte-identical to
:meth:`ExplorationResult.to_csv`, and every :class:`JsonlSink` line is
the compact serialization of the corresponding row object inside
:meth:`ExplorationResult.to_json` (same key order, same non-finite-float
mapping, so parsing the lines yields exactly that export's ``rows``) —
one row per line instead of one indented document, so a million-row
export can be consumed incrementally by downstream tooling.

Lifecycle: the engine calls :meth:`ResultSink.open` once before the
first batch, :meth:`ResultSink.write_rows` once per emitted batch of
the cohort walk or scalar chunk of ``DEFAULT_CHUNK_SIZE``
configurations (in enumeration order; a columnar sink gets
:meth:`ResultSink.write_batch` instead), and :meth:`ResultSink.close`
exactly once, also on error. Sinks are single-use: one open/close
cycle per exploration.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence, TextIO

from repro.core.report import TextTable
from repro.errors import ConfigurationError, SinkError
from repro.explore.result import TopK, json_safe_value

if TYPE_CHECKING:  # imported lazily to avoid an import cycle
    from repro.explore.scenario import Scenario


class ResultSink:
    """Consumer of streamed exploration rows (subclass or duck-type).

    The default :meth:`open`/:meth:`close` do nothing, so a minimal sink
    only implements :meth:`write_rows`. Exceptions raised by a sink
    method abort the exploration and surface as
    :class:`repro.errors.SinkError` with the scenario named.
    """

    def open(self, scenario: "Scenario | None") -> None:
        """Called once before the first batch. ``scenario`` is None for
        scenario-less streams (e.g. ``parameter_sweep`` pass-through)."""

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        """Called once per emitted batch (or scalar chunk) with its
        report rows, in enumeration order."""
        raise NotImplementedError

    def write_batch(self, batch: Any) -> None:
        """Called instead of :meth:`write_rows` when the engine streams
        columnar :class:`~repro.explore.vectorized.BatchRows` views.

        The default materializes the batch's rows and delegates to
        :meth:`write_rows`, so every sink works on the batch path
        unchanged; sinks that can consume columns directly
        (:class:`TopKSink`) override this to build only the rows they
        are asked for.
        """
        self.write_rows(batch.rows())

    def close(self) -> None:
        """Called exactly once when the stream ends — also on error, so
        file handles are never leaked and partial output is flushed."""


class _FileSink(ResultSink):
    """Shared path-or-handle plumbing for the file-format sinks."""

    def __init__(self, target: str | TextIO):
        self._target = target
        self._handle: TextIO | None = None
        self._owns_handle = False
        self._opened = False

    def open(self, scenario: "Scenario | None") -> None:
        if self._opened:
            raise ConfigurationError(
                f"{type(self).__name__} is single-use; create a new sink "
                "per exploration"
            )
        self._opened = True
        if isinstance(self._target, str):
            self._handle = open(self._target, "w", encoding="utf-8", newline="")
            self._owns_handle = True
        else:
            self._handle = self._target

    def _require_handle(self) -> TextIO:
        if self._handle is None:
            raise ConfigurationError(
                f"{type(self).__name__}.write_rows called before open()"
            )
        return self._handle

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is None:
            return
        if self._owns_handle:
            handle.close()
        else:
            # Caller-owned handles stay open, but the close contract
            # promises partial output is flushed — push buffered rows
            # through so the file is complete the moment we report done.
            flush = getattr(handle, "flush", None)
            if flush is not None:
                flush()


class CsvSink(_FileSink):
    """Stream rows as CSV, byte-identical to
    :meth:`ExplorationResult.to_csv`.

    Columns are locked when the header is written — from ``columns`` if
    given, else from the first row's keys (engine rows are homogeneous
    per domain — exactly what ``ExplorationResult.columns()`` returns) —
    and cells are formatted through :meth:`TextTable._format`, so
    concatenating the streamed output reproduces the eager export byte
    for byte. Rows missing a column render as ``-``, as in
    :meth:`TextTable.add_row`; a row carrying keys *outside* the locked
    columns raises (a streamed header cannot be widened after the fact,
    and silently dropping values would corrupt the export) — pass
    ``columns=`` up front or use :class:`JsonlSink` for heterogeneous
    rows (e.g. a ``parameter_sweep`` whose fn varies its keys).
    """

    def __init__(self, target: str | TextIO, columns: Sequence[str] | None = None):
        super().__init__(target)
        self._columns: list[str] | None = list(columns) if columns else None
        self._colset: frozenset[str] | None = (
            frozenset(self._columns) if self._columns else None
        )
        self._writer: Any = None

    def open(self, scenario: "Scenario | None") -> None:
        super().open(scenario)
        if self._columns is not None:
            # Explicit columns: the header does not depend on any row,
            # so write it up front — an empty stream still produces a
            # valid (header-only) CSV instead of a zero-byte file.
            self._writer = csv.writer(self._require_handle(), lineterminator="\n")
            self._writer.writerow(self._columns)

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        if not rows:
            return
        handle = self._require_handle()
        if self._writer is None:
            self._columns = list(rows[0])
            self._colset = frozenset(self._columns)
            self._writer = csv.writer(handle, lineterminator="\n")
            self._writer.writerow(self._columns)
        colset = self._colset
        for row in rows:
            if not colset.issuperset(row):
                extra = sorted(set(row) - colset)
                raise ConfigurationError(
                    f"row keys {extra} are outside the CSV columns locked "
                    f"at the header ({self._columns}); pass columns= to "
                    "CsvSink or stream heterogeneous rows through JsonlSink"
                )
        fmt = TextTable._format
        self._writer.writerows(
            [fmt(row.get(column, "-")) for column in self._columns] for row in rows
        )


class JsonlSink(_FileSink):
    """Stream rows as JSON Lines (one compact object per line).

    Values pass through the same :func:`json_safe_value` mapping as
    :meth:`ExplorationResult.to_json`, and key order is preserved, so
    parsing the streamed lines yields exactly that export's ``rows``
    array (the serialization itself is compact, not ``indent=2``).
    Strictly valid JSON per line (``allow_nan=False``).
    """

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        if not rows:
            return
        handle = self._require_handle()
        lines = []
        for row in rows:
            safe = {key: json_safe_value(value) for key, value in row.items()}
            lines.append(json.dumps(safe, allow_nan=False))
            lines.append("\n")
        handle.write("".join(lines))


class TopKSink(ResultSink):
    """Maintain a bounded online top-k ranking of the streamed rows.

    Rows fold into one :class:`~repro.explore.result.TopK` batch by
    batch, so an export-only (``collect=False``) run still answers
    ``result.top_k(metric, k, maximize)``: memory is bounded by ``k``,
    never by the design-space size, and the ranking is row-for-row
    identical to the batch :meth:`ExplorationResult.top_k` over the
    same rows (the invariant suite asserts it). The arguments mirror
    ``top_k``'s signature: ``TopKSink("total_fps", k=5)``.
    """

    def __init__(self, metric: str, k: int = 5, maximize: bool = True):
        self._ranking = TopK(metric, k, maximize)

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        self._ranking.add(rows)

    def write_batch(self, batch: Any) -> None:
        """Fold a columnar batch through :meth:`TopK.add_batch`: no row
        is built until :meth:`top_k` reads the ranking."""
        self._ranking.add_batch(batch)

    def top_k(self) -> list[dict[str, Any]]:
        """The current best-``k`` rows, best first: exactly what the
        batch ``top_k`` would return over the streamed rows."""
        return self._ranking.rows


def resolve_sink(sink: Any) -> ResultSink | None:
    """Validate a ``sink=`` argument: None, a ResultSink, or any object
    with a callable ``write_rows`` (duck-typed custom sinks)."""
    if sink is None or isinstance(sink, ResultSink):
        return sink
    if callable(getattr(sink, "write_rows", None)):
        return sink
    raise ConfigurationError(
        "sink must be a ResultSink (or provide write_rows), got "
        f"{type(sink).__name__}"
    )


def open_sink(sink: Any, scenario: "Scenario | None", label: str) -> None:
    """Open a sink (tolerating duck-typed sinks without ``open``);
    failures surface as :class:`SinkError` naming the stream."""
    method = getattr(sink, "open", None)
    if method is None:
        return
    try:
        method(scenario)
    except SinkError:
        raise
    except Exception as exc:
        raise SinkError(f"sink {type(sink).__name__} failed to open for {label}") from exc


def write_sink(sink: Any, rows: Sequence[dict[str, Any]], label: str) -> None:
    """Write one batch's rows; failures surface as :class:`SinkError`."""
    try:
        sink.write_rows(rows)
    except SinkError:
        raise
    except Exception as exc:
        raise SinkError(
            f"sink {type(sink).__name__} failed writing rows for {label}"
        ) from exc


def uses_columnar_writes(sink: Any) -> bool:
    """Whether the sink consumes columnar batches natively — i.e. it
    overrides :meth:`ResultSink.write_batch` rather than inheriting the
    materialize-and-delegate default. A row-only sink gets one
    ``write_rows`` per emitted batch or scalar chunk, its rows built
    from the batch; columnar sinks receive the lazy batch views
    directly. A subclass that overrides
    ``write_rows`` below the class supplying ``write_batch`` (say, a
    ``TopKSink`` that records the rows it is shown) is row-only: the
    inherited batch fold would bypass its override."""
    if "write_batch" in getattr(sink, "__dict__", {}):
        return True
    for cls in type(sink).__mro__:
        if "write_batch" in cls.__dict__:
            return cls is not ResultSink
        if "write_rows" in cls.__dict__:
            return False
    return False


def write_sink_batch(sink: Any, batch: Any, label: str) -> None:
    """Write one columnar batch; sinks without ``write_batch``
    (duck-typed ``write_rows``-only sinks) receive the materialized
    rows. Batches arrive member-tagged — solo explores and campaign
    dedup members alike hand each sink ``BatchRows`` carrying that
    member's own scenario, so materialized rows and metric columns are
    indistinguishable from a solo run's. Failures surface as
    :class:`SinkError`."""
    method = getattr(sink, "write_batch", None)
    if method is None:
        write_sink(sink, batch.rows(), label)
        return
    try:
        method(batch)
    except SinkError:
        raise
    except Exception as exc:
        raise SinkError(
            f"sink {type(sink).__name__} failed writing rows for {label}"
        ) from exc


def close_sink(sink: Any, label: str) -> None:
    """Close a sink (tolerating sinks without ``close``); failures
    surface as :class:`SinkError` naming the stream."""
    method = getattr(sink, "close", None)
    if method is None:
        return
    try:
        method()
    except SinkError:
        raise
    except Exception as exc:
        raise SinkError(f"sink {type(sink).__name__} failed to close for {label}") from exc


@contextmanager
def sink_stream(
    sink: Any, scenario: "Scenario | None", label: str
) -> Iterator[Callable[[Sequence[dict[str, Any]]], None] | None]:
    """One-sink streaming session: open on entry, yield a writer, close
    on exit — with the error-masking rule every consumer needs (a close
    failure surfaces only when no in-flight error is already
    propagating). Yields None when ``sink`` is None so callers can gate
    row construction on the writer without a separate code path.
    """
    if sink is None:
        yield None
        return
    open_sink(sink, scenario, label)
    error: BaseException | None = None
    try:
        yield lambda rows: write_sink(sink, rows, label)
    except BaseException as exc:
        error = exc
        raise
    finally:
        try:
            close_sink(sink, label)
        except Exception:
            if error is None:
                raise
            # The in-flight error is the primary failure; a close error
            # during unwind must not mask it.
