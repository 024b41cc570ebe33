"""ExplorationResult: Pareto frontiers, ranking, export, adapters."""

import csv
import io
import json

import numpy as np
import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import ThroughputCostModel
from repro.core.offload import OffloadAnalyzer, OffloadReport
from repro.core.pipeline import InCameraPipeline
from repro.core.sweep import SweepResult
from repro.errors import ConfigurationError, PipelineError
from repro.explore import ExplorationResult, Scenario, explore
from repro.explore.result import _PREFILTER_ROWS, pareto_filter
from repro.hw.network import LinkModel


@pytest.fixture()
def pipeline():
    a = Block(
        name="A",
        output_bytes=40.0,
        implementations={
            "asic": Implementation("asic", fps=100.0, energy_per_frame=1e-6)
        },
    )
    b = Block(
        name="B",
        output_bytes=10.0,
        implementations={
            "cpu": Implementation("cpu", fps=1.0, energy_per_frame=5e-6),
            "fpga": Implementation("fpga", fps=40.0, energy_per_frame=2e-6),
        },
    )
    return InCameraPipeline(name="p", sensor_bytes=80.0, blocks=(a, b))


@pytest.fixture()
def link():
    return LinkModel(name="l", raw_bps=8 * 40.0 * 35, tx_energy_per_bit=1e-9)


@pytest.fixture()
def throughput_result(pipeline, link):
    return explore(
        Scenario(name="t", pipeline=pipeline, link=link, target_fps=30.0)
    )


@pytest.fixture()
def energy_result(pipeline, link):
    return explore(
        Scenario(name="e", pipeline=pipeline, link=link, domain="energy")
    )


def brute_force_pareto(rows, axes, flags):
    """Independent O(n^2) dominance check used to validate pareto()."""

    def oriented(row):
        return [row[a] if f else -row[a] for a, f in zip(axes, flags)]

    survivors = []
    for row in rows:
        mine = oriented(row)
        dominated = False
        for other_row in rows:
            if other_row is row:
                continue
            other = oriented(other_row)
            if all(o >= m for o, m in zip(other, mine)) and any(
                o > m for o, m in zip(other, mine)
            ):
                dominated = True
                break
        if not dominated:
            survivors.append(row)
    return survivors


# -- pareto --------------------------------------------------------------


def test_pareto_filter_random_cross_check():
    rng = np.random.default_rng(42)
    rows = [
        {"u": float(u), "v": float(v), "w": float(w)}
        for u, v, w in rng.integers(0, 8, size=(120, 3))
    ]
    for axes, flags in [
        (("u", "v"), (True, True)),
        (("u", "v"), (False, True)),
        (("u", "v", "w"), (True, False, True)),
    ]:
        got = pareto_filter(rows, axes, flags)
        expected = brute_force_pareto(rows, axes, flags)
        assert [id(r) for r in got] == [id(r) for r in expected]
    # Above the skyline's prefilter cut-off, with ties on both axes.
    rows = [
        {"u": float(u), "v": float(v)}
        for u, v in rng.integers(0, 64, size=(_PREFILTER_ROWS + 1000, 2))
    ]
    for flags in [(True, True), (False, True)]:
        got = pareto_filter(rows, ("u", "v"), flags)
        expected = brute_force_pareto(rows, ("u", "v"), flags)
        assert [id(r) for r in got] == [id(r) for r in expected]


def test_pareto_throughput_default_axes(throughput_result):
    """Acceptance: pareto() keeps exactly the configs non-dominated on
    (compute_fps, communication_fps), per a brute-force cross-check."""
    expected = brute_force_pareto(
        throughput_result.rows,
        ("compute_fps", "communication_fps"),
        (True, True),
    )
    assert throughput_result.pareto() == expected
    # Frontier + dominated partition the space.
    assert len(throughput_result.pareto()) + len(
        throughput_result.dominated()
    ) == len(throughput_result.rows)


def test_pareto_energy_default_axes(energy_result):
    expected = brute_force_pareto(
        energy_result.rows,
        ("total_energy_j", "active_seconds"),
        (False, False),
    )
    assert energy_result.pareto() == expected


def test_pareto_explicit_axes_keep_domain_direction(energy_result):
    """Passing the axes explicitly must not flip an energy frontier to
    maximization; maximize=None always means the domain's direction."""
    assert energy_result.pareto(
        axes=("total_energy_j", "active_seconds")
    ) == energy_result.pareto()
    assert energy_result.pareto(axes=("total_energy_j",)) == brute_force_pareto(
        energy_result.rows, ("total_energy_j",), (False,)
    )


def test_pareto_exact_ties_all_survive():
    rows = [{"x": 1.0, "y": 2.0}, {"x": 1.0, "y": 2.0}, {"x": 0.5, "y": 2.0}]
    frontier = pareto_filter(rows, ("x", "y"))
    assert frontier == rows[:2]


def test_pareto_filter_validation():
    with pytest.raises(ConfigurationError):
        pareto_filter([{"x": 1}], ())
    with pytest.raises(ConfigurationError):
        pareto_filter([{"x": 1}], ("x", "y"))
    with pytest.raises(ConfigurationError):
        pareto_filter([{"x": 1}], ("x",), (True, False))
    with pytest.raises(ConfigurationError):
        pareto_filter([{"x": float("nan")}], ("x",))
    # Non-numeric axis values raise like TopK's, on every axis count
    # and in both directions, naming the row.
    for axes in (("x",), ("x", "y"), ("x", "y", "z")):
        rows = [dict.fromkeys(axes, 1.0), {**dict.fromkeys(axes, 2.0), "x": "b"}]
        for maximize in (True, False):
            with pytest.raises(
                ConfigurationError,
                match="axis 'x' must be a number for a Pareto frontier, "
                "got str in row 1",
            ):
                pareto_filter(rows, axes, maximize)


def test_sweep_result_pareto_delegates():
    sweep = SweepResult(
        rows=[{"e": 1.0, "t": 1.0}, {"e": 2.0, "t": 3.0}, {"e": 3.0, "t": 2.0}]
    )
    frontier = sweep.pareto(("e", "t"), maximize=(False, True))
    assert [r["e"] for r in frontier.rows] == [1.0, 2.0]


# -- ranking and feasibility --------------------------------------------


def test_top_k_stable_and_validated(throughput_result):
    top = throughput_result.top_k("total_fps", k=2)
    ordered = sorted(
        throughput_result.rows, key=lambda r: -r["total_fps"]
    )
    assert top == ordered[:2]
    assert throughput_result.top_k("total_fps", k=100) == ordered
    with pytest.raises(ConfigurationError):
        throughput_result.top_k("nope", k=1)
    with pytest.raises(ConfigurationError):
        throughput_result.top_k("total_fps", k=-1)


def test_top_k_ties_keep_enumeration_order(throughput_result):
    result = ExplorationResult(
        throughput_result.scenario,
        rows=[
            {"config": "a", "m": 1.0},
            {"config": "b", "m": 2.0},
            {"config": "c", "m": 2.0},
        ],
    )
    assert [r["config"] for r in result.top_k("m", k=2)] == ["b", "c"]
    assert [r["config"] for r in result.top_k("m", k=2, maximize=False)] == ["a", "b"]


def test_top_k_handles_non_numeric_metrics(throughput_result):
    by_label = throughput_result.top_k("config", k=3)
    assert [r["config"] for r in by_label] == sorted(
        (r["config"] for r in throughput_result.rows), reverse=True
    )[:3]


def test_best_empty_raises(throughput_result):
    result = ExplorationResult(throughput_result.scenario, rows=[])
    with pytest.raises(PipelineError):
        _ = result.best


# -- export --------------------------------------------------------------


def test_to_csv_round_trips_header_and_rows(throughput_result, tmp_path):
    path = tmp_path / "result.csv"
    text = throughput_result.to_csv(str(path))
    assert path.read_text() == text
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == throughput_result.columns()
    assert len(parsed) == len(throughput_result.rows) + 1
    config_col = parsed[0].index("config")
    assert [row[config_col] for row in parsed[1:]] == [
        r["config"] for r in throughput_result.rows
    ]


def test_to_json_full_precision(throughput_result, tmp_path):
    path = tmp_path / "result.json"
    text = throughput_result.to_json(str(path))
    payload = json.loads(path.read_text())
    assert payload["scenario"] == "t"
    assert payload["domain"] == "throughput"
    # json round-trip preserves the exact float values.
    assert payload["rows"][1]["total_fps"] == throughput_result.rows[1]["total_fps"]
    # Strictly valid JSON: the raw-offload config's infinite compute rate
    # exports as the string "inf", never the non-standard Infinity token.
    assert throughput_result.rows[0]["compute_fps"] == float("inf")
    assert payload["rows"][0]["compute_fps"] == "inf"
    assert "Infinity" not in text


def test_to_table_renders_all_rows(throughput_result):
    table = throughput_result.to_table(title="demo")
    assert table.n_rows == len(throughput_result.rows)
    assert "demo" in table.render()


# -- adapter -------------------------------------------------------------


def test_as_offload_report_matches_analyzer(pipeline, link, throughput_result):
    report = throughput_result.as_offload_report()
    assert isinstance(report, OffloadReport)
    legacy = OffloadAnalyzer(
        ThroughputCostModel(link), target_fps=30.0
    ).analyze(pipeline)
    assert [c.config.label for c in report.costs] == [
        c.config.label for c in legacy.costs
    ]
    assert [c.config.label for c in report.feasible] == [
        c.config.label for c in legacy.feasible
    ]
    assert report.best.config.label == legacy.best.config.label


def test_as_offload_report_requires_throughput_target(
    pipeline, link, energy_result
):
    with pytest.raises(PipelineError):
        energy_result.as_offload_report()
    untargeted = explore(Scenario(name="u", pipeline=pipeline, link=link))
    with pytest.raises(PipelineError):
        untargeted.as_offload_report()
