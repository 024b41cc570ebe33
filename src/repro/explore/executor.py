"""Chunked parallel sweep execution with a deterministic serial fallback.

Design-space evaluation is embarrassingly parallel: every configuration
or grid point is costed independently. :class:`SweepExecutor` fans work
out over a thread or process pool in contiguous chunks and reassembles
results in submission order, so a parallel run returns *exactly* the
list a serial run would — same rows, same order — which keeps benchmark
output and regression baselines byte-identical regardless of worker
count.

Two entry points share that contract: :meth:`SweepExecutor.map`
materializes the items and returns a list, while
:meth:`SweepExecutor.imap` consumes an *iterable* lazily and yields
results in item order with bounded memory — at most a fixed window of
chunks is ever in flight, so a design space far larger than RAM can
stream through.

The process backend requires the mapped callable and its items to be
picklable. When they are not (lambdas, closures over live objects), the
executor falls back to the serial path instead of failing, so debugging
with ad-hoc functions always works; picklability is probed once, on the
callable and the first chunk, before the pool starts. Mapped callables
must be pure: the fallback may re-run items that a broken pool already
started.
"""

from __future__ import annotations

import math
import pickle
import warnings
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator, TypeVar

from repro.errors import ConfigurationError

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Items per submitted task when streaming from an iterable of unknown
#: length (``imap`` cannot size chunks from a total count the way
#: ``map`` does).
STREAM_CHUNK_SIZE = 64

#: Cap applied by :func:`auto_chunk_size`: with ``2 * workers`` chunks
#: in flight, this bounds a streaming pipe's intermediate memory even
#: for grids of millions of points.
MAX_AUTO_CHUNK_SIZE = 1024


def auto_chunk_size(total: int, workers: int, cap: int = MAX_AUTO_CHUNK_SIZE) -> int:
    """Default chunk sizing for a known item count: about four chunks
    per worker (balances scheduling overhead against stragglers),
    capped so the bounded in-flight window never scales with the total.
    Shared by ``map``, ``parameter_sweep`` and the exploration engine —
    one formula, no drift."""
    return max(1, min(cap, math.ceil(total / (4 * workers))))

#: Exceptions that mean "the pool could not run this work at all" (as
#: opposed to the work itself raising); these trigger the serial fallback.
#: Unpicklable work is caught earlier, by one ``pickle.dumps`` probe of
#: the callable and the first chunk (:data:`_PICKLE_ERRORS`), so a
#: TypeError or AttributeError from pool plumbing propagates as the bug
#: it is. Exceptions raised *by the mapped callable* never reach this
#: set — :func:`_run_chunk` captures them in a :class:`_ChunkError` so
#: they propagate unchanged instead of being mistaken for pool failures.
_FALLBACK_ERRORS = (
    pickle.PicklingError,
    BrokenExecutor,
    OSError,
)

#: What ``pickle.dumps`` raises for unpicklable work: CPython raises
#: TypeError/AttributeError (not PicklingError) for local functions and
#: objects holding live resources such as locks.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)


class _ChunkError:
    """An exception the mapped callable raised, shipped back intact."""

    def __init__(self, exc: Exception):
        self.exc = exc


def _run_chunk(fn: Callable[[_T], _R], chunk: list[_T]) -> "list[_R] | _ChunkError":
    """Evaluate one contiguous chunk (module-level for picklability)."""
    try:
        return [fn(item) for item in chunk]
    except Exception as exc:
        return _ChunkError(exc)


def resolve_executor(executor: "SweepExecutor | None") -> "SweepExecutor":
    """Default to serial; reject anything that is not a SweepExecutor
    (catches e.g. a swept parameter list landing on the reserved
    ``executor`` keyword)."""
    if executor is None:
        return SweepExecutor()
    if not isinstance(executor, SweepExecutor):
        raise ConfigurationError(
            f"executor must be a SweepExecutor or None, got {type(executor).__name__}"
        )
    return executor


@dataclass(frozen=True)
class SweepExecutor:
    """How to run a sweep: serial, threaded, or multi-process.

    Parameters
    ----------
    workers:
        Worker count. ``None``, 0 or 1 select the serial path (the
        default, and the debugging/picklability fallback).
    backend:
        ``'thread'`` (safe for any callable; helps when evaluation
        releases the GIL or does I/O) or ``'process'`` (true
        parallelism; requires picklable callables and items).
    chunk_size:
        Items per submitted task. Defaults to splitting the work into
        roughly four chunks per worker (``map``) or to
        :data:`STREAM_CHUNK_SIZE` (``imap``, where the total is
        unknown); the default balances scheduling overhead against
        stragglers.
    """

    workers: int | None = None
    backend: str = "thread"
    chunk_size: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in ("thread", "process"):
            raise ConfigurationError(
                f"backend must be 'thread' or 'process', got {self.backend!r}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")

    @property
    def is_serial(self) -> bool:
        return self.workers is None or self.workers <= 1

    def _warn_fallback(self, exc: BaseException) -> None:
        warnings.warn(
            f"{self.backend} pool could not run the sweep ({exc!r}); "
            "falling back to serial execution",
            RuntimeWarning,
            stacklevel=3,
        )

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """``[fn(x) for x in items]``, possibly in parallel.

        Result order always matches item order. Exceptions raised by
        ``fn`` propagate unchanged; pool-infrastructure failures
        (unpicklable work on the process backend, a broken pool) fall
        back to the serial path with a warning.
        """
        items = list(items)
        if self.is_serial or len(items) <= 1:
            return [fn(item) for item in items]
        size = self.chunk_size
        if size is None:
            size = auto_chunk_size(len(items), self.workers)
        return list(self.imap(fn, items, chunk_size=size))

    def imap(
        self,
        fn: Callable[[_T], _R],
        items: Iterable[_T],
        chunk_size: int | None = None,
    ) -> Iterator[_R]:
        """Lazily yield ``fn(x)`` for each item, in item order.

        The streaming counterpart of :meth:`map`: ``items`` may be any
        iterable (including an unbounded generator); it is consumed in
        chunks and at most ``2 * workers`` chunks are in flight at any
        moment, so peak memory is bounded by the chunk window, never by
        the total item count. Result order is item order, identical to
        a serial run. ``fn`` exceptions propagate unchanged (at the
        failing item's position in the output order); pool failures
        degrade the remaining stream to serial evaluation with one
        warning. Abandoning the iterator mid-stream shuts the pool down
        after the in-flight chunks finish.
        """
        if chunk_size is not None and chunk_size < 1:
            # Same rule __post_init__ enforces for the field; islice(0)
            # would otherwise silently end the stream after no items.
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        iterator = iter(items)
        if self.is_serial:
            return (fn(item) for item in iterator)
        size = chunk_size if chunk_size is not None else self.chunk_size
        if size is None:
            size = STREAM_CHUNK_SIZE
        return self._imap_pooled(fn, iterator, size)

    def _imap_pooled(
        self,
        fn: Callable[[_T], _R],
        iterator: Iterator[_T],
        size: int,
    ) -> Iterator[_R]:
        first = list(islice(iterator, size))
        if not first:
            return
        iterator = chain(first, iterator)
        if self.backend == "process":
            try:
                pickle.dumps((fn, first))
            except _PICKLE_ERRORS as exc:
                self._warn_fallback(exc)
                for item in iterator:
                    yield fn(item)
                return
        pool_cls: Any = (
            ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
        )
        try:
            pool = pool_cls(max_workers=self.workers)
        except _FALLBACK_ERRORS as exc:
            self._warn_fallback(exc)
            for item in iterator:
                yield fn(item)
            return
        window = 2 * self.workers
        pending: deque[tuple[list[_T], Any]] = deque()  # (chunk, future|None)
        degraded = False

        def submit_upto_window() -> None:
            nonlocal degraded
            while len(pending) < window:
                chunk = list(islice(iterator, size))
                if not chunk:
                    return
                if degraded:
                    pending.append((chunk, None))
                    continue
                try:
                    pending.append((chunk, pool.submit(_run_chunk, fn, chunk)))
                except _FALLBACK_ERRORS as exc:
                    self._warn_fallback(exc)
                    degraded = True
                    pending.append((chunk, None))

        with pool:
            while True:
                submit_upto_window()
                if not pending:
                    return
                chunk, future = pending.popleft()
                outcome: Any = None
                if future is not None:
                    try:
                        outcome = future.result()
                    except _FALLBACK_ERRORS as exc:
                        if not degraded:
                            self._warn_fallback(exc)
                            degraded = True
                if outcome is None:
                    for item in chunk:  # never submitted / pool died: run here
                        yield fn(item)
                elif isinstance(outcome, _ChunkError):
                    raise outcome.exc
                else:
                    yield from outcome
