"""Shrinking differential tests for collected-result queries.

A collected cohort-path :class:`ExplorationResult` answers ``best``,
``feasible``, ``len()``, ``pareto()``, ``dominated()`` and ``top_k`` on
its batches' columns and builds row dicts only for the rows it returns.
Hypothesis draws small stock pipelines in both domains — infinite
rates, zero payloads, pass rates 0 and 1, single-block chains, and few
distinct rates so metric ties are common — plus a chunk size that
splits the result into many segments. Every answer must
``json.dumps``-equal the same question asked of
``explore_brute_force`` and of ``evaluation="scalar"``, and a second
asking on the same result (its row cache now built) must agree too.
Counterexamples shrink to a minimal pipeline.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.errors import ConfigurationError
from repro.explore import Scenario, explore, explore_brute_force
from repro.hw.network import LinkModel

INF = float("inf")
PLATFORMS = ("asic", "cpu", "fpga")
#: Few distinct rates so total_fps ties (between configs and against
#: the link rate) are common; inf is a legal implementation rate.
FPS = (2.0, 2.0, 30.0, INF)
BYTES = (0.0, 10.0, 500.0)
PASS_RATES = (0.0, 0.5, 1.0)
ENERGIES = (0.0, 1e-6, 2e-6)


@st.composite
def pipelines(draw):
    blocks = []
    for index in range(draw(st.integers(1, 4))):
        platforms = draw(
            st.lists(st.sampled_from(PLATFORMS), min_size=1, max_size=3, unique=True)
        )
        implementations = {
            platform: Implementation(
                platform,
                fps=draw(st.sampled_from(FPS)),
                energy_per_frame=draw(st.sampled_from(ENERGIES)),
                active_seconds=draw(st.sampled_from((0.0, 1e-4))),
            )
            for platform in platforms
        }
        blocks.append(
            Block(
                name=f"b{index}",
                output_bytes=draw(st.sampled_from(BYTES)),
                pass_rate=draw(st.sampled_from(PASS_RATES)),
                implementations=implementations,
            )
        )
    return InCameraPipeline(
        name="p",
        sensor_bytes=draw(st.sampled_from((0.0, 4000.0))),
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


@st.composite
def scenarios(draw):
    pipeline = draw(pipelines())
    if draw(st.booleans()):
        return Scenario(
            name="s",
            pipeline=pipeline,
            link=LinkModel(name="l", raw_bps=draw(st.sampled_from((8e3, 3.2e5)))),
            target_fps=draw(st.sampled_from((None, 2.0, 25.0))),
        )
    return Scenario(
        name="s",
        pipeline=pipeline,
        link=LinkModel(name="r", raw_bps=1e6, tx_energy_per_bit=1e-9),
        domain="energy",
        energy_budget_j=draw(st.sampled_from((None, 2e-6, 1e-5))),
    )


def answers(result) -> str:
    """Every query's answer as one JSON text; the row-code fallbacks
    (non-columnar ``top_k`` metrics) come last so the columnar answers
    are read before any row cache exists."""
    scenario = result.scenario
    throughput = scenario.domain == "throughput"
    metric = "total_fps" if throughput else "total_energy_j"
    third = "total_fps" if throughput else "transmit_rate"
    text = "bottleneck" if throughput else "config"
    out = {"len": len(result), "best": result.best, "feasible": result.feasible}
    out["pareto"] = result.pareto()
    out["dominated"] = result.dominated()
    out["pareto_int"] = result.pareto(("n_in_camera", metric), maximize=(False, True))
    out["pareto_one"] = result.pareto((metric,))
    out["pareto_three"] = result.pareto(("n_in_camera", metric, third))
    out["dominated_int"] = result.dominated(("n_in_camera", metric))
    for maximize in (True, False):
        for name in (metric, "feasible", "n_in_camera"):
            for k in (0, 1, 5, 1000):
                out[f"top_{name}_{maximize}_{k}"] = result.top_k(name, k, maximize)
    out["csv"] = result.to_csv()
    out["json"] = result.to_json()
    for maximize in (True, False):
        out[f"top_config_{maximize}"] = result.top_k("config", 5, maximize)
        out[f"top_text_{maximize}"] = result.top_k(text, 5, maximize)
    return json.dumps(out)


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.sampled_from((None, 1, 3, 7)))
def test_columnar_answers_equal_brute_force(scenario, chunk_size):
    expected = answers(explore_brute_force(scenario))
    assert answers(explore(scenario, evaluation="scalar")) == expected
    result = explore(scenario, chunk_size=chunk_size)
    assert answers(result) == expected
    # Asked again: the row cache the fallbacks built serves the gathers.
    assert result._rows is not None
    assert answers(result) == expected


@settings(max_examples=20, deadline=None)
@given(scenarios())
def test_missing_metric_raises_on_every_result_kind(scenario):
    for result in (explore(scenario), explore(scenario, evaluation="scalar")):
        with pytest.raises(ConfigurationError, match="missing"):
            result.top_k("no_such_metric")
        with pytest.raises(ConfigurationError, match="missing"):
            result.pareto(("no_such_metric", "n_in_camera"))


# -- fixed cases ---------------------------------------------------------


def _deep_scenario(domain: str) -> Scenario:
    """Six blocks x three platforms (1,093 configurations). Every block's
    fastest platform beats every other block's slower ones, and energy
    and active time grow together past the first block, so the frontier
    is a small share of the space."""
    blocks = tuple(
        Block(
            name=f"b{index}",
            output_bytes=4000.0 * 0.8 ** (index + 1),
            pass_rate=0.9,
            implementations={
                platform: Implementation(
                    platform,
                    fps=(10.0, 20.0, 100.0)[rank] - index,
                    energy_per_frame=1e-6 * (1 + rank),
                    active_seconds=1e-4 * ((3 - rank) if index == 0 else (1 + rank)),
                )
                for rank, platform in enumerate(PLATFORMS)
            },
        )
        for index in range(6)
    )
    pipeline = InCameraPipeline(
        name="deep", sensor_bytes=4000.0, blocks=blocks, sensor_energy_per_frame=1e-6
    )
    if domain == "throughput":
        return Scenario(
            name="deep",
            pipeline=pipeline,
            link=LinkModel(name="l", raw_bps=3.2e5),
            target_fps=12.0,
        )
    return Scenario(
        name="deep",
        pipeline=pipeline,
        link=LinkModel(name="r", raw_bps=1e6, tx_energy_per_bit=1e-9),
        domain="energy",
        energy_budget_j=2e-5,
    )


def _positions(rows, subset):
    index = {json.dumps(row): i for i, row in enumerate(rows)}
    return [index[json.dumps(row)] for row in subset]


@pytest.mark.parametrize("domain", ["throughput", "energy"])
@pytest.mark.parametrize("kind", ["columnar", "scalar", "assigned"])
def test_pareto_and_dominated_partition_rows_in_order(domain, kind):
    scenario = _deep_scenario(domain)
    result = explore(scenario, evaluation="scalar" if kind == "scalar" else "auto")
    if kind == "assigned":
        # Every other row, so the columns no longer describe the rows.
        result.rows = [dict(row) for row in result.rows[::2]]
    frontier, dominated = result.pareto(), result.dominated()
    if kind == "columnar":
        assert result._rows is None  # answered without the row cache
    rows = result.rows
    front, rest = _positions(rows, frontier), _positions(rows, dominated)
    assert front == sorted(front) and rest == sorted(rest)
    assert sorted(front + rest) == list(range(len(rows)))
    assert 0 < len(front) < len(rows)


@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_queries_materialize_only_the_rows_they_return(domain, monkeypatch):
    import repro.explore.result as result_module
    import repro.explore.vectorized as vectorized_module

    built = []
    original_cost_row = result_module.cost_row
    original_report_rows = vectorized_module.BatchRows._report_rows

    def counting_cost_row(scenario, cost):
        built.append(cost)
        return original_cost_row(scenario, cost)

    def counting_report_rows(view, matrix, columns):
        rows = original_report_rows(view, matrix, columns)
        built.extend(rows)
        return rows

    # Rows come from cost objects (cost_row) or straight from batch
    # columns (BatchRows._report_rows); count both.
    monkeypatch.setattr(result_module, "cost_row", counting_cost_row)
    monkeypatch.setattr(
        vectorized_module.BatchRows, "_report_rows", counting_report_rows
    )
    scenario = _deep_scenario(domain)
    metric = "total_fps" if domain == "throughput" else "total_energy_j"
    result = explore(scenario)
    result.best
    frontier = result.pareto()
    result.top_k(metric, 5, maximize=domain == "throughput")
    assert len(result) == scenario.count_configs() > 1000
    assert len(built) <= 1 + len(frontier) + 5
    assert len(frontier) < len(result) // 10
