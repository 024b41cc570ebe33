"""Streaming-equals-batch invariants.

Every streaming/online structure in the engine must be *exactly* its
batch counterpart — not approximately, byte for byte:

* **streamed == collected**: rows delivered through a sink on an
  export-only (``collect=False``) run are the rows a collected run
  holds, for solo ``explore()`` and for campaigns;
* **online frontier == batch frontier**: the frontier an export-only
  campaign member folds online (``ScenarioRun.pareto()``) equals
  ``pareto_filter`` over every row of the brute-force oracle;
* **online top-k == batch top-k**: each metric's ``TopKSink`` equals
  ``ExplorationResult.top_k``, including stable ties in both
  directions, however the walk batches the rows.

The two headline properties are hypothesis properties over the
edge-value chains of ``export_scenarios`` (``inf`` and ``1e-300`` fps,
zero and ``inf`` payloads, pass rates 0 and 1, single-block chains),
with a shrunken ``vectorized._BLOCK_ROWS`` so deep depths descend in
blocks. The seeded cases below them draw from the ``gen`` generators,
which add what that strategy leaves out: targets and budgets (so
``feasible`` varies), truncated chains, pass-rate overrides and mixed
fleets; they stream under a 3-row block (``small_blocks``).
"""

from __future__ import annotations

import json
import math
import random

import pytest
from _sinks import MemorySink
from hypothesis import given, settings
from hypothesis import strategies as st
from test_invariant_topk_export import METRICS, export_scenarios

from repro.datasets.rng import make_rng
from repro.errors import ConfigurationError, SinkError
from repro.explore import (
    Campaign,
    ExplorationResult,
    TopKSink,
    explore,
    explore_brute_force,
    vectorized,
)
from repro.explore.result import DEFAULT_AXES, ParetoFrontier, TopK, pareto_filter


def _export_only_run(scenario, block_rows):
    """One export-only campaign member: its rows go to a sink and its
    frontier is folded online."""
    sink = MemorySink()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
        result = Campaign([scenario]).run(sinks={scenario.name: sink}, collect=False)
    return result[scenario.name], sink


def _export_top_k(scenario, metric, k, maximize, block_rows):
    sink = TopKSink(metric, k, maximize)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
        explore(scenario, sink=sink, collect=False)
    return sink.top_k()


BLOCKS = st.sampled_from((1, 3, 4, 1 << 14))


@pytest.fixture
def small_blocks(monkeypatch):
    """A 3-row walk block: many batches per walk."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)


@settings(max_examples=150, deadline=None)
@given(export_scenarios(), BLOCKS)
def test_export_only_frontier_equals_the_oracle(scenario, block_rows):
    oracle = explore_brute_force(scenario)
    axes, maximize = DEFAULT_AXES[scenario.domain]
    try:
        expected = pareto_filter(oracle.rows, axes, maximize)
    except ConfigurationError as error:
        # A NaN axis value: the online fold must refuse it too.
        assert "NaN" in str(error)
        with pytest.raises(ConfigurationError, match="NaN"):
            _export_only_run(scenario, block_rows)
        return
    run, sink = _export_only_run(scenario, block_rows)
    assert run.result is None
    assert json.dumps(sink.rows) == json.dumps(oracle.rows)
    assert json.dumps(run.pareto()) == json.dumps(expected)
    assert run.pareto_size == len(expected)


@settings(max_examples=150, deadline=None)
@given(
    export_scenarios(),
    st.sampled_from((0, 1, 5, None)),
    st.booleans(),
    BLOCKS,
)
def test_export_top_k_equals_collected_top_k(scenario, k, maximize, block_rows):
    """Each of the domain's metrics, bounded and unbounded, through its
    own single-ranking ``TopKSink``."""
    collected = explore(scenario)
    bound = len(collected) + 3 if k is None else k
    for metric in METRICS[scenario.domain]:
        export = (scenario, metric, bound, maximize, block_rows)
        if any(math.isnan(row[metric]) for row in collected.rows):
            with pytest.raises(SinkError):
                _export_top_k(*export)
            continue
        assert json.dumps(_export_top_k(*export)) == json.dumps(
            collected.top_k(metric, bound, maximize)
        ), metric


# -- seeded cases over the ``gen`` generators -----------------------------

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_streamed_rows_equal_collected_rows_solo(gen, seed, small_blocks):
    scenario = gen.scenario(seed, name=f"solo-{seed}")
    sink = MemorySink()
    assert explore(scenario, sink=sink, collect=False) is None
    collected = explore(scenario)
    assert json.dumps(sink.rows) == json.dumps(collected.rows), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_streamed_campaign_stats_equal_collected(gen, seed, small_blocks):
    fleet = gen.fleet(seed)
    collected = Campaign(fleet).run()
    streamed = Campaign(fleet).run(collect=False)
    for full, lean in zip(collected, streamed):
        assert lean.result is None
        assert lean.n_evaluated == full.n_evaluated
        assert lean.n_feasible == full.n_feasible
        assert lean.best == full.best
        assert lean.pareto_size == full.pareto_size
        assert json.dumps(lean.pareto()) == json.dumps(full.pareto()), (
            seed,
            full.name,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_online_frontier_equals_batch_on_scenarios(gen, seed, small_blocks):
    scenario = gen.scenario(seed, name=f"front-{seed}")
    run = Campaign([scenario]).run(collect=False)[scenario.name]
    axes, maximize = DEFAULT_AXES[scenario.domain]
    expected = pareto_filter(explore_brute_force(scenario).rows, axes, maximize)
    assert json.dumps(run.pareto()) == json.dumps(expected), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_online_topk_equals_batch_on_scenarios(gen, seed, small_blocks):
    """A TopKSink per metric under collect=False reproduces
    ExplorationResult.top_k row for row."""
    rng = make_rng(seed)
    scenario = gen.scenario(rng, name=f"topk-{seed}")
    axes, maximize = DEFAULT_AXES[scenario.domain]
    k = int(rng.integers(0, 8))
    collected = explore(scenario)
    for metric, flag in ((axes[0], maximize), (axes[1], not maximize)):
        sink = TopKSink(metric, k, flag)
        explore(scenario, sink=sink, collect=False)
        assert json.dumps(sink.top_k()) == json.dumps(
            collected.top_k(metric, k=k, maximize=flag)
        ), (seed, metric)


@pytest.mark.parametrize("seed", SEEDS)
def test_online_topk_equals_batch_on_random_rows(seed):
    """TopK vs the batch sort on adversarial row streams: heavy value
    collisions (stable-tie pressure), random chunking, k from 0 to
    beyond the stream length, both directions."""
    rng = random.Random(seed)
    n = rng.randint(0, 80)
    rows = [
        {"config": f"c{i}", "m": float(rng.randint(0, 9))} for i in range(n)
    ]
    for maximize in (True, False):
        k = rng.choice([0, 1, 3, n, n + 5])
        online = TopK("m", k=k, maximize=maximize)
        position = 0
        while position < len(rows):
            step = rng.randint(1, 7)
            online.add(rows[position : position + step])
            position += step
        batch = sorted(rows, key=lambda row: row["m"], reverse=maximize)[:k]
        assert online.rows == batch, (seed, maximize, k)
        assert online.n_seen == len(rows)
        assert len(online) == min(k, len(rows))


@pytest.mark.parametrize("seed", range(6))
def test_online_frontier_equals_batch_on_random_rows(seed):
    rng = random.Random(seed)
    n_axes = rng.choice([1, 2, 3])
    rows = [
        {f"m{a}": float(rng.randint(0, 5)) for a in range(n_axes)}
        for _ in range(rng.randint(0, 60))
    ]
    axes = [f"m{a}" for a in range(n_axes)]
    maximize = rng.choice([True, False])
    frontier = ParetoFrontier(axes, maximize)
    position = 0
    while position < len(rows):
        step = rng.randint(1, 9)
        frontier.add(rows[position : position + step])
        position += step
    assert frontier.rows == pareto_filter(rows, axes, maximize), seed


@pytest.mark.parametrize("seed", range(6))
def test_topk_streamed_result_view_consistency(gen, seed):
    """Cross-check through the result object: seeding a result with the
    streamed rows reproduces the streamed top-k (the two views derive
    from the same rows)."""
    scenario = gen.scenario(seed, name=f"view-{seed}", domain="throughput")
    sink = MemorySink()
    explore(scenario, sink=sink, collect=False)
    rebuilt = ExplorationResult(scenario=scenario, rows=list(sink.rows))
    online = TopK("total_fps", k=4, maximize=True)
    online.add(sink.rows)
    assert online.rows == rebuilt.top_k("total_fps", k=4), seed
