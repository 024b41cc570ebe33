"""Streaming result sinks and export-only (bounded-memory) exploration.

The contracts under test: file sinks reproduce the eager exports byte
for byte, rows stream in enumeration order batch by batch, sinks are
closed exactly once (also on error, wrapped in SinkError), and an
export-only run (``collect=False``) never materializes the row cache —
peak live cost objects stay proportional to the walk's block of rows,
not the design-space size.
"""

from __future__ import annotations

import gc
import io
import json
from types import SimpleNamespace

import pytest
from _sinks import MemorySink, csv_text

from repro.core.block import Block, Implementation
from repro.core.cost import ConfigCost, EnergyCost, ThroughputCostModel
from repro.core.offload import OffloadAnalyzer
from repro.core.pipeline import InCameraPipeline
from repro.core.sweep import parameter_sweep
from repro.errors import ConfigurationError, SinkError
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    CsvSink,
    JsonlSink,
    ResultSink,
    Scenario,
    SweepExecutor,
    engine,
    explore,
    explore_brute_force,
    vectorized,
)
from repro.explore.engine import DEFAULT_CHUNK_SIZE
from repro.explore.sink import resolve_sink
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


def test_memory_sink_collects_all_rows_in_order(monkeypatch):
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)
    scenario = throughput_scenario()
    sink = MemorySink()
    result = explore(scenario, sink=sink)
    assert sink.rows == result.rows
    assert sink.chunks >= 2  # multiple batches actually streamed


def test_callback_sink_sees_chunk_batches_in_order(monkeypatch):
    """A callable is a sink once it sits behind ``write_rows``: any
    object with that method streams like a ``ResultSink``. Such a
    row-only sink gets one write per emitted batch of the walk (solo or
    as a dedup campaign member) and one per ``DEFAULT_CHUNK_SIZE``
    configurations of the scalar fold, and the writes concatenate to
    the oracle's rows. A 4-row block makes the walk emit a batch
    spanning depths 0-1, one of depth 2 and two descended ones of
    depth 3."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 4)
    monkeypatch.setattr(engine, "DEFAULT_CHUNK_SIZE", 4)
    scenario = energy_scenario()
    sibling = energy_scenario(
        name="sink-energy-fast",
        link=LinkModel(name="fast", raw_bps=1e6, tx_energy_per_bit=1e-9),
    )
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    depths = [
        batch.metric_column("n_in_camera").tolist()
        for batch in evaluator.iter_scenario_batches(scenario)
    ]
    assert depths == [[0, 1, 1], [2] * 4, [3] * 4, [3] * 4]
    oracle = json.dumps(explore_brute_force(scenario).rows)
    writes: list[list[dict]] = []
    sink = SimpleNamespace(write_rows=lambda rows: writes.append(list(rows)))

    def member():
        result = Campaign([sibling, scenario]).run(
            sinks={scenario.name: sink}, dedup=True
        )
        assert result[scenario.name].dedup_source == sibling.name

    for run, sizes in (
        (lambda: explore(scenario, sink=sink, collect=False), [3, 4, 4, 4]),
        (member, [3, 4, 4, 4]),
        (
            lambda: explore(scenario, sink=sink, collect=False, evaluation="scalar"),
            [4, 4, 4, 3],
        ),
    ):
        writes.clear()
        run()
        assert [len(rows) for rows in writes] == sizes
        assert json.dumps([row for rows in writes for row in rows]) == oracle


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
    explore(scenario, sink=serial)
    Campaign([scenario]).run(
        SweepExecutor(workers=4, backend="thread"),
        sinks={scenario.name: parallel},
    )
    assert json.dumps(serial.rows) == json.dumps(parallel.rows)
    assert serial.chunks == parallel.chunks


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


def test_export_only_never_materializes_the_cache(monkeypatch):
    """Acceptance: peak intermediate memory is bounded by the walk's
    block — live cost objects observed at every sink write stay a small
    multiple of a (shrunk) block even though the space is much
    larger."""
    pipeline = small_pipeline(n_blocks=7, platforms=("asic", "cpu", "fpga"))
    scenario = Scenario(
        name="bounded", pipeline=pipeline,
        link=LinkModel(name="l", raw_bps=1e6), target_fps=1.0,
    )
    n_configs = scenario.count_configs()
    block = 64
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", block)
    assert n_configs > 20 * block  # the space dwarfs the block
    peaks: list[int] = []

    def observe(rows):
        peaks.append(_live_instances(ConfigCost, EnergyCost))

    outcome = explore(scenario, sink=SimpleNamespace(write_rows=observe), collect=False)
    assert outcome is None
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    # One write per emitted batch.
    assert len(peaks) == sum(1 for _ in evaluator.iter_scenario_batches(scenario))
    # Live cost objects never exceed a few blocks' worth; a collected
    # run ends holding all n_configs of them once its evaluations are
    # read.
    assert max(peaks) <= 4 * block
    collected = explore(scenario)
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
