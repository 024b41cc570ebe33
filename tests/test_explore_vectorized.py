"""The columnar batch evaluation core (`repro.explore.vectorized`).

Unit coverage for the pieces the invariant suite exercises end-to-end:
the cost-semantics probes and their subclass-override matrix, the
``evaluation=`` knob and path report, :class:`BatchRows` laziness and
columnar metrics, the columnar sink folds (``add_batch`` ==  scalar
``add``, including NaN positions and ties), and the error surfaces of
every entry point.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError, PipelineError
from repro.explore import (
    BatchPrefixEvaluator,
    CallbackSink,
    MemorySink,
    ParetoSink,
    PrefixEvaluator,
    ResultSink,
    Scenario,
    SweepExecutor,
    TopK,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
    supports_prefix_evaluation,
)
from repro.explore.engine import iter_evaluation_chunks
from repro.explore.incremental import evaluate_chunk, uses_stock_cost_semantics
from repro.explore.result import ParetoFrontier, cost_row
from repro.explore.sink import uses_columnar_writes
from repro.hw.network import LinkModel


def build_pipeline(n_blocks: int = 3) -> InCameraPipeline:
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=900.0 - 200.0 * i,
            pass_rate=0.8,
            implementations={
                platform: Implementation(
                    platform,
                    fps=90.0 - 7 * i + 3 * j,
                    energy_per_frame=1e-6 * (i + j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, platform in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(
        name="vec-unit", sensor_bytes=1200.0, blocks=blocks,
        sensor_energy_per_frame=2e-7,
    )


LINK = LinkModel(name="vec-link", raw_bps=2e6, tx_energy_per_bit=1e-9)


def build_scenario(**overrides) -> Scenario:
    kwargs = {
        "name": "vec-unit",
        "pipeline": build_pipeline(),
        "link": LINK,
        "target_fps": 60.0,
    }
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- the cost-semantics probe ---------------------------------------------


class _ScalarOnlyOverride(ThroughputCostModel):
    """Customizes a scalar step only: the stock batch kernel would
    silently bypass it."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)


class _MatchedOverride(ThroughputCostModel):
    """Customizes a scalar step and its batch twin: not stock, so it
    takes the generic scalar walk through its own scalar step."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)

    def extend_state_batch(self, state, block, impls, choices):
        return super().extend_state_batch(state, block, impls, choices)


class _BatchOnlyOverride(ThroughputCostModel):
    """Customizes only a batch kernel: not stock either, so the kernel
    is never called and the stock scalar steps run."""

    def extend_state_batch(self, state, block, impls, choices):
        return super().extend_state_batch(state, block, impls, choices)


class _CustomEvaluate(ThroughputCostModel):
    def evaluate(self, config):
        return super().evaluate(config)


_STEP_OVERRIDES = (_ScalarOnlyOverride, _MatchedOverride, _BatchOnlyOverride)


def test_probes_on_stock_models():
    for model in (ThroughputCostModel(LINK), EnergyCostModel(LINK)):
        assert supports_prefix_evaluation(model)
        assert uses_stock_cost_semantics(model)


def test_probes_on_override_matrix():
    for cls in _STEP_OVERRIDES:
        assert supports_prefix_evaluation(cls(LINK))
    assert not supports_prefix_evaluation(_CustomEvaluate(LINK))
    # Any override at all leaves the stock cost semantics.
    for cls in (*_STEP_OVERRIDES, _CustomEvaluate):
        assert not uses_stock_cost_semantics(cls(LINK))
    assert not supports_prefix_evaluation(object())
    assert not uses_stock_cost_semantics(object())


def test_batch_prefix_evaluator_dispatch():
    for cls in _STEP_OVERRIDES:
        with pytest.raises(ConfigurationError, match="not batch-capable"):
            BatchPrefixEvaluator(cls(LINK))
    with pytest.raises(ConfigurationError, match="pass_rates only apply"):
        BatchPrefixEvaluator(ThroughputCostModel(LINK), pass_rates={"B0": 0.5})


def test_matched_override_refuses_cohort_enumeration():
    scenario = build_scenario()
    with pytest.raises(ConfigurationError, match="not batch-capable"):
        BatchPrefixEvaluator(_MatchedOverride(LINK))
    # The stock model walks the same scenario's cohorts.
    stock = BatchPrefixEvaluator(ThroughputCostModel(LINK))
    walked = sum(len(batch) for batch in stock.iter_scenario_batches(scenario))
    assert walked == scenario.count_configs()


def test_matched_override_still_folds_chunks_bit_identically():
    scenario = build_scenario()
    configs = list(scenario.iter_configs())
    for cls in (_MatchedOverride, _BatchOnlyOverride):
        model = cls(LINK)
        scalar = PrefixEvaluator(model)
        got = [cost_row(scenario, c) for c in evaluate_chunk(model, None, configs)]
        want = [cost_row(scenario, scalar.evaluate(c)) for c in configs]
        assert json.dumps(got) == json.dumps(want), cls.__name__
        custom = build_scenario(model=model, link=None)
        oracle = explore_brute_force(custom)
        assert json.dumps(explore(custom).rows) == json.dumps(oracle.rows)


# -- the evaluation= knob and path report --------------------------------


def test_evaluation_path_values():
    scenario = build_scenario()
    assert evaluation_path(scenario) == "batch-cohort"
    # Stock runs fold their cohorts in process on every executor: a
    # pool would only ship them out and pickle cost objects back.
    for backend in ("thread", "process"):
        pool = SweepExecutor(workers=2, backend=backend)
        assert evaluation_path(scenario, pool) == "batch-cohort"
    assert evaluation_path(scenario, evaluation="scalar") == "scalar-memoized"
    # Per-config filtering (a custom prune hook) fuses into the cohort
    # walk as an emission-time filter, on any executor.
    filtered = build_scenario(prune=lambda config: False)
    assert evaluation_path(filtered) == "batch-cohort-pruned"
    assert evaluation_path(filtered, SweepExecutor(workers=2)) == "batch-cohort-pruned"
    # Auto-derived prefix pruners carry batch forms: pruned scenarios
    # report the fused cohort path, not a scalar fallback.
    pruned = build_scenario(auto_prune=True, auto_prune_configs=True)
    assert evaluation_path(pruned) == "batch-cohort-pruned"
    assert evaluation_path(pruned, SweepExecutor(workers=2)) == "batch-cohort-pruned"
    # A model overriding any cost step, batch twin included, takes the
    # generic scalar walk, serially and on a pool.
    for cls in (_MatchedOverride, _BatchOnlyOverride):
        custom = build_scenario(model=cls(LINK), link=None)
        assert evaluation_path(custom) == "scalar-memoized"
        assert evaluation_path(custom, SweepExecutor(workers=2)) == "scalar-memoized"


def test_evaluation_mode_validation():
    scenario = build_scenario()
    with pytest.raises(ConfigurationError, match="evaluation must be one of"):
        explore(scenario, evaluation="bogus")
    with pytest.raises(ConfigurationError, match="evaluation must be one of"):
        evaluation_path(scenario, evaluation="bogus")
    with pytest.raises(ConfigurationError, match="batch-capable cost model"):
        iter_evaluation_chunks(
            _ScalarOnlyOverride(LINK), iter(()), evaluation="batch"
        )
    for cls in (_MatchedOverride, _BatchOnlyOverride):
        custom = build_scenario(model=cls(LINK), link=None)
        with pytest.raises(ConfigurationError, match="batch-capable cost model"):
            explore(custom, evaluation="batch")


def test_explore_modes_agree_on_rows():
    scenario = build_scenario()
    auto = explore(scenario)
    forced = explore(scenario, evaluation="batch")
    scalar = explore(scenario, evaluation="scalar")
    assert json.dumps(auto.rows) == json.dumps(scalar.rows)
    assert json.dumps(forced.rows) == json.dumps(scalar.rows)


# -- BatchRows -----------------------------------------------------------


def scenario_batches(scenario, chunk_size=None):
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    return list(evaluator.iter_scenario_batches(scenario, chunk_size=chunk_size))


def test_batch_rows_materialize_lazily():
    scenario = build_scenario()
    batches = scenario_batches(scenario)
    assert sum(len(b) for b in batches) == scenario.count_configs()
    deepest = batches[-1]
    assert deepest.n_materialized == 0
    column = deepest.metric_column("total_fps")
    assert len(column) == len(deepest)
    assert deepest.n_materialized == 0  # columns never materialize
    cost = deepest.cost(0)
    assert deepest.n_materialized == 1
    assert cost.config == deepest.config(0)
    row = deepest.row(1)
    assert deepest.n_materialized == 2
    assert row == cost_row(scenario, deepest.cost(1))


def test_batch_rows_match_scalar_rows_and_columns():
    scenario = build_scenario()
    scalar = explore(scenario, evaluation="scalar")
    rows = [row for batch in scenario_batches(scenario) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(scalar.rows)
    position = 0
    for batch in scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        for metric in ("n_in_camera", "offload_bytes", "compute_fps",
                       "communication_fps", "total_fps", "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)
    with pytest.raises(KeyError):
        scenario_batches(scenario)[0].metric_column("config")


def test_energy_batch_columns_match_scalar_rows():
    scenario = build_scenario(
        domain="energy", target_fps=None, energy_budget_j=2e-5,
        pass_rates={"B0": 0.4},
    )
    scalar = explore(scenario, evaluation="scalar")
    evaluator = BatchPrefixEvaluator(
        scenario.cost_model(), pass_rates=scenario.pass_rates
    )
    position = 0
    for batch in evaluator.iter_scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        assert json.dumps(batch.rows()) == json.dumps(span)
        for metric in ("transmit_rate", "active_seconds", "transmit_energy_j",
                       "sensor_energy_j", "compute_energy_j", "total_energy_j",
                       "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)


def test_batch_rows_slice_is_a_view_of_the_same_rows():
    scenario = build_scenario()
    deepest = scenario_batches(scenario)[-1]
    lo, hi = 3, 11
    window = deepest.slice(lo, hi)
    assert len(window) == hi - lo
    assert json.dumps(window.rows()) == json.dumps(deepest.rows()[lo:hi])


def test_chunked_cohorts_respect_chunk_size():
    scenario = build_scenario()
    batches = scenario_batches(scenario, chunk_size=5)
    assert all(len(batch) <= 5 for batch in batches)
    rows = [row for batch in batches for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore(scenario, evaluation="scalar").rows)


def test_cohorts_honor_depth_pruning_and_include_empty():
    pruned = build_scenario(auto_prune=True)
    rows = [row for batch in scenario_batches(pruned) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore(pruned, evaluation="scalar").rows)
    no_empty = build_scenario(include_empty=False)
    depths = [batch.depth for batch in scenario_batches(no_empty)]
    assert 0 not in depths
    assert sum(len(b) for b in scenario_batches(no_empty)) == no_empty.count_configs()


def test_invalid_trusted_platform_raises_like_the_scalar_walk():
    pipeline = build_pipeline()
    config = PipelineConfig.trusted(pipeline, ("bogus",))
    evaluator = BatchPrefixEvaluator(ThroughputCostModel(LINK))
    with pytest.raises(PipelineError):
        evaluator.evaluate_many([config])


def test_group_batches_equal_each_members_solo_walk():
    """The dedup group walk: one fold of the leader's states closed
    under every member's link equals each member's own cohort walk, and
    members share the slice's choice matrix by reference."""
    for domain, extra in (
        ("throughput", {}),
        ("energy", {"target_fps": None, "pass_rates": {"B0": 0.4}}),
    ):
        pipeline = build_pipeline()
        links = [
            LINK,
            LinkModel(name="vec-fast", raw_bps=9e7, tx_energy_per_bit=3e-10),
        ]
        group = [
            build_scenario(
                name=f"g{index}", pipeline=pipeline, link=link, domain=domain, **extra
            )
            for index, link in enumerate(links)
        ]
        lead = group[0]
        evaluator = BatchPrefixEvaluator(lead.cost_model(), lead.pass_rates)
        slices = list(evaluator.iter_group_batches(group, chunk_size=7))
        assert all(len(views) == len(group) for views in slices)
        for views in slices:
            assert all(view.choices is views[0].choices for view in views)
            assert all(len(view) <= 7 for view in views)
        for slot, member in enumerate(group):
            rows = [row for views in slices for row in views[slot].rows()]
            solo = BatchPrefixEvaluator(member.cost_model(), member.pass_rates)
            expected = [
                row
                for batch in solo.iter_scenario_batches(member, chunk_size=7)
                for row in batch.rows()
            ]
            assert json.dumps(rows) == json.dumps(expected), (domain, slot)


# -- columnar sink folds -------------------------------------------------


class _FakeBatch:
    """The minimal add_batch consumer contract over plain rows."""

    def __init__(self, rows, columnar=("m",)):
        self._rows = rows
        self._columnar = columnar
        self.n_materialized = 0

    def __len__(self):
        return len(self._rows)

    def metric_column(self, name):
        if name not in self._columnar:
            raise KeyError(name)
        return np.array([row[name] for row in self._rows], dtype=float)

    def row(self, i):
        self.n_materialized += 1
        return self._rows[i]

    def rows(self):
        self.n_materialized += len(self._rows)
        return list(self._rows)


def test_topk_add_batch_equals_scalar_add_with_ties():
    rows = [{"config": f"c{i}", "m": float(v)} for i, v in
            enumerate([5, 7, 7, 3, 7, 9, 1, 9, 2, 7])]
    for maximize in (True, False):
        for k in (0, 2, 4, 50):
            online = TopK("m", k=k, maximize=maximize)
            online.add_batch(_FakeBatch(rows[:6]))
            online.add_batch(_FakeBatch(rows[6:]))
            batch = TopK("m", k=k, maximize=maximize)
            batch.add(rows)
            assert online.rows == batch.rows, (maximize, k)
            assert online.n_seen == batch.n_seen == len(rows)


def test_topk_add_batch_materializes_candidates_only():
    rows = [{"m": float(v)} for v in [9, 8, 1, 1, 1, 1, 10, 1]]
    online = TopK("m", k=2, maximize=True)
    fake = _FakeBatch(rows)
    online.add_batch(fake)
    # Heap fill (2) + the single later row beating the batch-start root.
    assert fake.n_materialized == 3
    assert [row["m"] for row in online.rows] == [10.0, 9.0]


def test_topk_add_batch_nan_raises_at_the_exact_position():
    rows = [{"m": 4.0}, {"m": 5.0}, {"m": float("nan")}, {"m": 6.0}]
    online = TopK("m", k=2)
    with pytest.raises(ConfigurationError, match="row 2"):
        online.add_batch(_FakeBatch(rows))


def test_pareto_add_batch_equals_scalar_add():
    rows = [
        {"a": float(i % 5), "b": float((i * 7) % 4)} for i in range(40)
    ]
    online = ParetoFrontier(("a", "b"), maximize=True)
    online.add_batch(_FakeBatch(rows[:25], columnar=("a", "b")))
    online.add_batch(_FakeBatch(rows[25:], columnar=("a", "b")))
    batch = ParetoFrontier(("a", "b"), maximize=True)
    batch.add(rows)
    assert online.rows == batch.rows
    assert online.n_seen == batch.n_seen == len(rows)


def test_pareto_add_batch_nan_raises_at_the_exact_position():
    rows = [{"a": 1.0, "b": 1.0}, {"a": float("nan"), "b": 0.0}]
    online = ParetoFrontier(("a", "b"), maximize=True)
    with pytest.raises(ConfigurationError, match="row 1"):
        online.add_batch(_FakeBatch(rows, columnar=("a", "b")))


def test_add_batch_falls_back_on_non_columnar_metrics():
    rows = [{"m": float(v), "other": v} for v in (3, 1, 2)]
    online = TopK("other", k=2)
    fake = _FakeBatch(rows)  # only "m" is columnar
    online.add_batch(fake)
    assert fake.n_materialized == len(rows)
    batch = TopK("other", k=2)
    batch.add(rows)
    assert online.rows == batch.rows


def test_uses_columnar_writes_probe():
    assert uses_columnar_writes(ParetoSink())
    assert uses_columnar_writes(TopKSink("total_fps", k=3))
    assert not uses_columnar_writes(MemorySink())
    assert not uses_columnar_writes(CallbackSink(lambda rows: None))

    class _Columnar(ResultSink):
        def write_batch(self, batch):
            pass

    assert uses_columnar_writes(_Columnar())

    class _Recording(ParetoSink):
        def write_rows(self, rows):
            super().write_rows(rows)

    # Overriding write_rows below the batch fold makes a sink row-only:
    # the inherited write_batch would bypass the override.
    assert not uses_columnar_writes(_Recording())


def test_columnar_sinks_match_collected_results_end_to_end():
    scenario = build_scenario()
    collected = explore(scenario)
    sink = TopKSink("total_fps", k=4)
    explore(scenario, sink=sink, collect=False)
    assert json.dumps(sink.top_k()) == json.dumps(collected.top_k("total_fps", k=4))
    frontier = ParetoSink()
    explore(scenario, sink=frontier, collect=False)
    assert json.dumps(frontier.pareto()) == json.dumps(collected.pareto())
