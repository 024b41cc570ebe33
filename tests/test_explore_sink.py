"""Streaming result sinks and export-only (bounded-memory) exploration.

The contracts under test: file sinks reproduce the eager exports byte
for byte, rows stream in enumeration order chunk by chunk, sinks are
closed exactly once (also on error, wrapped in SinkError), and an
export-only run (``collect=False``) never materializes the row cache —
peak live cost objects stay proportional to the chunk size, not the
design-space size.
"""

from __future__ import annotations

import gc
import io
import json

import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import ConfigCost, EnergyCost, ThroughputCostModel
from repro.core.offload import OffloadAnalyzer
from repro.core.pipeline import InCameraPipeline
from repro.core.sweep import parameter_sweep
from repro.errors import ConfigurationError, SinkError
from repro.explore import (
    CallbackSink,
    Campaign,
    CsvSink,
    JsonlSink,
    MemorySink,
    ResultSink,
    Scenario,
    SweepExecutor,
    explore,
)
from repro.explore.engine import DEFAULT_CHUNK_SIZE
from repro.explore.sink import csv_text, resolve_sink
from repro.hw.network import RF_BACKSCATTER, LinkModel


def small_pipeline(n_blocks: int = 3, platforms: tuple[str, ...] = ("asic", "cpu")):
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=float(1000 - 100 * i),
            pass_rate=0.5,
            implementations={
                p: Implementation(
                    p,
                    fps=50.0 - 5 * i + 3 * j,
                    energy_per_frame=1e-6 * (i + j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, p in enumerate(platforms)
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(
        name="sink-test", sensor_bytes=2000.0, blocks=blocks,
        sensor_energy_per_frame=1e-6,
    )


def throughput_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="sink-throughput",
        pipeline=small_pipeline(),
        link=LinkModel(name="l", raw_bps=250_000.0),
        target_fps=20.0,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def energy_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="sink-energy",
        pipeline=small_pipeline(),
        link=RF_BACKSCATTER,
        domain="energy",
        energy_budget_j=1e-4,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- byte-identity with the eager exports --------------------------------


@pytest.mark.parametrize("scenario", [throughput_scenario(), energy_scenario()])
def test_csv_sink_matches_to_csv_byte_for_byte(scenario):
    buffer = io.StringIO()
    result = explore(scenario, sink=CsvSink(buffer))
    assert buffer.getvalue() == result.to_csv()


@pytest.mark.parametrize("scenario", [throughput_scenario(), energy_scenario()])
def test_jsonl_sink_matches_to_json_rows_byte_for_byte(scenario):
    buffer = io.StringIO()
    result = explore(scenario, sink=JsonlSink(buffer))
    lines = buffer.getvalue().splitlines()
    document = json.loads(result.to_json())
    assert [json.loads(line) for line in lines] == document["rows"]
    # Byte-level: each line is exactly the compact dump of the document
    # row (same key order, same non-finite mapping).
    for line, row in zip(lines, document["rows"]):
        assert line == json.dumps(row, allow_nan=False)


def test_jsonl_sink_handles_non_finite_floats():
    # The raw-offload config of an unconstrained throughput scenario has
    # inf compute_fps; every JSONL line must stay strictly valid JSON.
    scenario = throughput_scenario(target_fps=None)
    buffer = io.StringIO()
    explore(scenario, sink=JsonlSink(buffer))
    first = json.loads(buffer.getvalue().splitlines()[0])
    assert first["compute_fps"] == "inf"


def test_memory_sink_collects_all_rows_in_order():
    scenario = throughput_scenario()
    sink = MemorySink()
    result = explore(scenario, sink=sink, chunk_size=3)
    assert sink.rows == result.rows
    assert sink.chunks >= 2  # multiple chunks actually streamed


def test_callback_sink_sees_chunk_batches_in_order():
    scenario = energy_scenario()
    batches: list[list[dict]] = []
    result = explore(
        scenario, sink=CallbackSink(lambda rows: batches.append(list(rows))),
        chunk_size=4,
    )
    flat = [row for batch in batches for row in batch]
    assert flat == result.rows
    assert all(len(batch) <= 4 for batch in batches)


def test_csv_sink_rejects_keys_outside_locked_columns():
    """Streamed CSV cannot widen its header after the fact: a row with
    unseen keys must fail loudly, never silently drop values (the
    parameter_sweep pass-through feeds user fn rows that may vary)."""

    def fn(x):
        row = {"x": x}
        if x > 1:
            row["extra"] = x * 10
        return row

    with pytest.raises(SinkError, match="failed writing rows") as info:
        parameter_sweep(fn, sink=CsvSink(io.StringIO()), x=[1, 2, 3])
    assert "outside the CSV columns" in str(info.value.__cause__)
    assert "extra" in str(info.value.__cause__)
    # Escape hatch 1: declare the union up front (missing keys -> '-').
    buffer = io.StringIO()
    parameter_sweep(fn, sink=CsvSink(buffer, columns=["x", "extra"]), x=[1, 2, 3])
    assert buffer.getvalue().splitlines() == ["x,extra", "1,-", "2,20", "3,30"]
    # Escape hatch 2: JSONL keeps per-row keys.
    buffer = io.StringIO()
    parameter_sweep(fn, sink=JsonlSink(buffer), x=[1, 2])
    assert [json.loads(line) for line in buffer.getvalue().splitlines()] == [
        {"x": 1},
        {"x": 2, "extra": 20},
    ]


def test_csv_sink_with_explicit_columns_writes_header_even_for_empty_stream():
    buffer = io.StringIO()
    sink = CsvSink(buffer, columns=["config", "total_fps"])
    sink.open(None)
    sink.close()
    assert buffer.getvalue() == "config,total_fps\n"


def test_explore_with_sink_keeps_rows_lazy():
    """Collect + sink: sink rows are dropped after each write, never
    cached on the result — a million-config run must not double-hold a
    row list next to its evaluation list (rows re-derive lazily)."""
    scenario = throughput_scenario()
    result = explore(scenario, sink=MemorySink())
    assert result._rows is None
    assert result.rows == explore(scenario).rows


def test_csv_text_helper_round_trip():
    scenario = energy_scenario()
    result = explore(scenario)
    assert csv_text(result.iter_rows()) == result.to_csv()


# -- parallel determinism ------------------------------------------------


def test_sink_rows_identical_under_parallel_executor():
    """A pool in ``Campaign.run``'s executor slot changes no streamed
    row or write: the member folds in process, like solo explore()."""
    scenario = throughput_scenario()
    serial, parallel = MemorySink(), MemorySink()
    explore(scenario, sink=serial, chunk_size=2)
    Campaign([scenario]).run(
        SweepExecutor(workers=4, backend="thread"),
        chunk_size=2,
        sinks={scenario.name: parallel},
    )
    assert json.dumps(serial.rows) == json.dumps(parallel.rows)
    assert serial.chunks == parallel.chunks


@pytest.mark.parametrize("evaluation", ["auto", "scalar"])
def test_invalid_chunk_size_never_opens_the_sink(evaluation):
    """Arguments are validated before the sink opens, on both paths."""
    events: list[str] = []

    class Spy(ResultSink):
        def open(self, scenario):
            events.append("open")

        def write_rows(self, rows):
            events.append("write")

        def close(self):
            events.append("close")

    with pytest.raises(ConfigurationError, match="chunk_size must be >= 1"):
        explore(throughput_scenario(), chunk_size=0, sink=Spy(), evaluation=evaluation)
    assert events == []


# -- export-only runs ----------------------------------------------------


def test_collect_false_requires_sink():
    with pytest.raises(ConfigurationError, match="collect=False"):
        explore(throughput_scenario(), collect=False)


def test_collect_false_returns_none_but_streams_everything():
    scenario = energy_scenario()
    sink = MemorySink()
    outcome = explore(scenario, sink=sink, collect=False)
    assert outcome is None
    assert sink.rows == explore(scenario).rows


def _live_instances(*types) -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, types))


def test_export_only_never_materializes_the_cache():
    """Acceptance: peak intermediate memory is bounded by the chunk
    size — live cost objects observed at every sink write stay a small
    multiple of the chunk size even though the space is much larger."""
    pipeline = small_pipeline(n_blocks=7, platforms=("asic", "cpu", "fpga"))
    scenario = Scenario(
        name="bounded", pipeline=pipeline,
        link=LinkModel(name="l", raw_bps=1e6), target_fps=1.0,
    )
    n_configs = scenario.count_configs()
    chunk = 64
    assert n_configs > 20 * chunk  # the space dwarfs the chunk window
    peaks: list[int] = []

    def observe(rows):
        peaks.append(_live_instances(ConfigCost, EnergyCost))

    outcome = explore(
        scenario, chunk_size=chunk, sink=CallbackSink(observe), collect=False
    )
    assert outcome is None
    assert len(peaks) == -(-n_configs // chunk)  # one write per chunk
    # Live cost objects never exceed a few chunks' worth; a collected
    # run ends holding all n_configs of them once its evaluations are
    # read.
    assert max(peaks) <= 4 * chunk
    collected = explore(scenario, chunk_size=chunk)
    assert len(collected.evaluations) == n_configs
    assert _live_instances(ConfigCost, EnergyCost) >= n_configs


# -- lifecycle and error handling ----------------------------------------


def test_file_sinks_are_single_use():
    buffer = io.StringIO()
    sink = CsvSink(buffer)
    explore(throughput_scenario(), sink=sink)
    with pytest.raises(SinkError, match="failed to open") as info:
        explore(throughput_scenario(), sink=sink)
    assert "single-use" in str(info.value.__cause__)


def test_write_before_open_raises():
    with pytest.raises(ConfigurationError, match="before open"):
        CsvSink(io.StringIO()).write_rows([{"a": 1}])


def test_csv_sink_writes_file_and_closes(tmp_path):
    path = tmp_path / "rows.csv"
    scenario = energy_scenario()
    result = explore(scenario, sink=CsvSink(str(path)))
    assert path.read_text(encoding="utf-8") == result.to_csv()


def test_failing_sink_surfaces_sink_error_with_scenario_name():
    class Boom(ResultSink):
        def write_rows(self, rows):
            raise OSError("disk full")

    with pytest.raises(SinkError, match="sink-throughput") as info:
        explore(throughput_scenario(), sink=Boom())
    assert isinstance(info.value.__cause__, OSError)


def test_sink_closed_even_when_write_fails():
    closed = []

    class Boom(ResultSink):
        def write_rows(self, rows):
            raise ValueError("nope")

        def close(self):
            closed.append(True)

    with pytest.raises(SinkError):
        explore(throughput_scenario(), sink=Boom())
    assert closed == [True]


def test_duck_typed_sink_without_open_close_works():
    class Minimal:
        def __init__(self):
            self.rows = []

        def write_rows(self, rows):
            self.rows.extend(rows)

    sink = Minimal()
    result = explore(throughput_scenario(), sink=sink)
    assert sink.rows == result.rows


def test_caller_owned_handle_is_flushed_on_close(tmp_path):
    path = tmp_path / "owned.csv"
    scenario = energy_scenario()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        result = explore(scenario, sink=CsvSink(handle))
        # The sink reported closed: the file must already be complete,
        # even though the caller still owns the (open) handle.
        assert path.read_text(encoding="utf-8") == result.to_csv()
        assert not handle.closed


def test_sweep_sink_close_error_does_not_mask_fn_error():
    class BadClose(ResultSink):
        def write_rows(self, rows):
            pass

        def close(self):
            raise RuntimeError("flush failed")

    def fn(a):
        if a == 2:
            raise ValueError("the real bug")
        return {"out": a}

    with pytest.raises(ValueError, match="the real bug"):
        parameter_sweep(fn, sink=BadClose(), a=[1, 2, 3])
    # Without an in-flight error the close failure itself surfaces.
    with pytest.raises(SinkError, match="failed to close"):
        parameter_sweep(lambda a: {"out": a}, sink=BadClose(), a=[1])


def test_resolve_sink_rejects_non_sinks():
    with pytest.raises(ConfigurationError, match="write_rows"):
        resolve_sink(object())
    with pytest.raises(ConfigurationError, match="write_rows"):
        explore(throughput_scenario(), sink=42)


# -- facade pass-through -------------------------------------------------


def test_offload_analyzer_sink_pass_through():
    scenario = throughput_scenario()
    analyzer = OffloadAnalyzer(
        ThroughputCostModel(scenario.link), target_fps=scenario.target_fps
    )
    sink = MemorySink()
    report = analyzer.analyze(scenario.pipeline, sink=sink)
    assert [row["config"] for row in sink.rows] == [
        cost.config.label for cost in report.costs
    ]

    # The explicit-config path streams the same rows — one write per
    # DEFAULT_CHUNK_SIZE configurations as evaluation completes, not
    # one post-hoc batch. The space repeats to span several chunks.
    explicit = MemorySink()
    space = list(scenario.iter_configs())
    repeats = DEFAULT_CHUNK_SIZE // len(space) + 1
    analyzer.analyze(scenario.pipeline, configs=space * repeats, sink=explicit)
    assert json.dumps(explicit.rows) == json.dumps(sink.rows * repeats)
    assert explicit.chunks == -(-len(space) * repeats // DEFAULT_CHUNK_SIZE) > 1


def test_parameter_sweep_sink_pass_through():
    sink = MemorySink()
    sweep = parameter_sweep(
        lambda a, b: {"sum": a + b}, sink=sink, a=[1, 2], b=[10, 20]
    )
    assert sink.rows == sweep.rows
    assert len(sink.rows) == 4


def test_parameter_sweep_sink_writes_per_chunk_not_per_row():
    sink = MemorySink()
    sweep = parameter_sweep(
        lambda a: {"out": a},
        executor=SweepExecutor(chunk_size=10),
        sink=sink,
        a=list(range(25)),
    )
    assert sink.rows == sweep.rows
    assert sink.chunks == 3  # 10 + 10 + 5, not 25 single-row writes
