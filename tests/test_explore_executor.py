"""Parallel sweep execution: determinism, fallbacks, error paths."""

import json

import pytest

from repro.core.sweep import parameter_sweep
from repro.errors import ConfigurationError
from repro.explore import SweepExecutor


def _square_row(x):
    """Module-level so the process backend can pickle it."""
    return {"x": x, "y": x * x, "parity": "even" if x % 2 == 0 else "odd"}


def _boom(x):
    raise ValueError(f"boom at {x}")


def _measure(a, b):
    return {"product": a * b}


def test_serial_is_default():
    executor = SweepExecutor()
    assert executor.is_serial
    assert executor.map(_square_row, range(5)) == [_square_row(x) for x in range(5)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("chunk_size", [None, 1, 7, 100])
def test_parallel_matches_serial_byte_for_byte(backend, chunk_size):
    """Acceptance: identical row ordering (and content) for any worker
    count, backend, and chunking."""
    items = list(range(50))
    serial = SweepExecutor().map(_square_row, items)
    parallel = SweepExecutor(
        workers=4, backend=backend, chunk_size=chunk_size
    ).map(_square_row, items)
    assert json.dumps(parallel) == json.dumps(serial)


def test_process_backend_falls_back_on_unpicklable_fn():
    executor = SweepExecutor(workers=2, backend="process")
    captured = []
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        result = executor.map(lambda x: captured.append(x) or x + 1, [1, 2, 3])
    assert result == [2, 3, 4]


class _LockHolder:
    """Unpicklable the TypeError way: holds a live resource."""

    def __init__(self):
        import threading

        self.lock = threading.Lock()

    def __call__(self, x):
        with self.lock:
            return {"x": x}


def test_process_backend_falls_back_on_live_resource():
    executor = SweepExecutor(workers=2, backend="process")
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        result = executor.map(_LockHolder(), [1, 2, 3])
    assert result == [{"x": 1}, {"x": 2}, {"x": 3}]


def test_worker_exceptions_propagate():
    with pytest.raises(ValueError, match="boom"):
        SweepExecutor().map(_boom, [1])
    with pytest.raises(ValueError, match="boom"):
        SweepExecutor(workers=2, backend="thread").map(_boom, [1, 2, 3])


CALL_LOG = []


def _log_then_attribute_error(x):
    CALL_LOG.append(x)
    if x == 2:
        raise AttributeError("fn bug, not a pool failure")
    return x


def test_fn_fallback_type_exceptions_are_not_misclassified(recwarn):
    """An fn raising AttributeError/OSError must propagate unchanged —
    no fallback warning, no serial re-execution of the whole sweep."""
    CALL_LOG.clear()
    executor = SweepExecutor(workers=2, backend="thread", chunk_size=1)
    with pytest.raises(AttributeError, match="fn bug"):
        executor.map(_log_then_attribute_error, [1, 2, 3, 4])
    assert not any(w.category is RuntimeWarning for w in recwarn.list)
    # Every item ran at most once (no doubled side effects).
    assert len(CALL_LOG) == len(set(CALL_LOG))
    with pytest.raises(OSError):
        SweepExecutor(workers=2, backend="process").map(_raise_oserror, [1, 2])


def _raise_oserror(x):
    raise OSError(f"fn io failure at {x}")


@pytest.mark.parametrize("error", [TypeError, AttributeError])
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_pool_plumbing_type_errors_propagate(monkeypatch, recwarn, backend, error):
    """Picklability is probed once before the pool starts, so a
    TypeError/AttributeError raised by the pool itself is a bug to
    surface, not a reason to fall back to serial."""
    from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

    pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor

    def broken_submit(self, fn, *args, **kwargs):
        raise error("pool plumbing bug")

    monkeypatch.setattr(pool_cls, "submit", broken_submit)
    executor = SweepExecutor(workers=2, backend=backend, chunk_size=1)
    with pytest.raises(error, match="pool plumbing bug"):
        executor.map(_square_row, [1, 2, 3])
    assert not any(w.category is RuntimeWarning for w in recwarn.list)


def test_executor_validation():
    with pytest.raises(ConfigurationError):
        SweepExecutor(backend="gpu")
    with pytest.raises(ConfigurationError):
        SweepExecutor(workers=-1)
    with pytest.raises(ConfigurationError):
        SweepExecutor(chunk_size=0)


def test_map_empty_and_single_item():
    executor = SweepExecutor(workers=8, backend="thread")
    assert executor.map(_square_row, []) == []
    assert executor.map(_square_row, [3]) == [_square_row(3)]


def test_parameter_sweep_parallel_identical_rows():
    serial = parameter_sweep(_measure, a=[1, 2, 3, 4], b=[10, 20, 30])
    threaded = parameter_sweep(
        _measure,
        executor=SweepExecutor(workers=3, backend="thread", chunk_size=2),
        a=[1, 2, 3, 4],
        b=[10, 20, 30],
    )
    multiproc = parameter_sweep(
        _measure,
        executor=SweepExecutor(workers=2, backend="process"),
        a=[1, 2, 3, 4],
        b=[10, 20, 30],
    )
    assert json.dumps(threaded.rows) == json.dumps(serial.rows)
    assert json.dumps(multiproc.rows) == json.dumps(serial.rows)


def test_parameter_sweep_parallel_validation_still_raises():
    with pytest.raises(ConfigurationError):
        parameter_sweep(
            lambda x: x,  # not a dict
            executor=SweepExecutor(workers=2, backend="thread"),
            x=[1, 2],
        )
