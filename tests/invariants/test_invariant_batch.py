"""Batch-equals-scalar invariants over seeded random inputs.

The columnar batch core's contract is *bit identity*: every float a
:class:`~repro.explore.vectorized.BatchPrefixEvaluator` materializes
must equal — byte for byte through JSON — the scalar
:class:`~repro.explore.incremental.PrefixEvaluator` fold over the same
configurations. These properties pin that contract across random
pipelines, links and constraints in both cost domains:

* **batch explore == scalar explore**: ``explore()`` on the auto
  (batch) path equals ``evaluation="scalar"``, with and without
  pruning;
* **batch fold == scalar fold**: the cohort walk's rows equal the
  scalar evaluator's fold of the same configurations fed as a shuffled
  mixed-depth stream, including energy ``pass_rates`` overrides;
* **dedup on == off**: campaign results with cross-scenario dedup
  equal the dedup-free run.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.datasets.rng import make_rng
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    explore,
)
from repro.explore.incremental import PrefixEvaluator
from repro.explore.result import cost_row

SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_explore_equals_scalar_explore(gen, seed):
    scenario = gen.scenario(seed, name=f"batch-{seed}")
    batch = explore(scenario)
    scalar = explore(scenario, evaluation="scalar")
    assert json.dumps(batch.rows) == json.dumps(scalar.rows), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_explore_equals_scalar_with_pruning(gen, seed):
    rng = make_rng(seed)
    scenario = gen.scenario(
        rng, name=f"prune-{seed}", constrained=True, auto_prune=True
    )
    if scenario.domain == "throughput":
        scenario = replace(scenario, auto_prune_configs=bool(rng.random() < 0.5))
    batch = explore(scenario)
    scalar = explore(scenario, evaluation="scalar")
    assert json.dumps(batch.rows) == json.dumps(scalar.rows), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_fold_equals_scalar_fold_on_shuffled_configs(gen, seed):
    """Direct evaluator equivalence: the cohort walk's rows, permuted,
    equal the scalar fold over the same permutation of the
    configurations — a mixed-depth, shuffled stream on which the scalar
    walk's prefix reuse keeps breaking off (contiguous same-prefix runs
    are an optimization, never a requirement)."""
    rng = make_rng(seed)
    scenario = gen.scenario(rng, name=f"fold-{seed}")
    model = scenario.cost_model()
    assert type(model) in (ThroughputCostModel, EnergyCostModel)
    configs = list(scenario.iter_configs())
    order = [int(i) for i in rng.permutation(len(configs))]

    batch = BatchPrefixEvaluator(model, pass_rates=scenario.pass_rates)
    walked = [
        row for rows in batch.iter_scenario_batches(scenario) for row in rows.rows()
    ]
    scalar = PrefixEvaluator(model, pass_rates=scenario.pass_rates)
    got = [walked[i] for i in order]
    want = [
        cost_row(scenario, cost)
        for cost in scalar.evaluate_many([configs[i] for i in order])
    ]
    assert json.dumps(got) == json.dumps(want), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_pass_rate_overrides_survive_batching(gen, seed):
    rng = make_rng(seed)
    pipeline = gen.pipeline(rng)
    overrides = {
        block.name: float(rng.uniform(0.1, 1.0))
        for block in pipeline.blocks
        if rng.random() < 0.5
    }
    scenario = gen.scenario(
        rng,
        name=f"rates-{seed}",
        pipeline=pipeline,
        domain="energy",
        pass_rates=overrides or None,
    )
    batch = explore(scenario)
    scalar = explore(scenario, evaluation="scalar")
    assert json.dumps(batch.rows) == json.dumps(scalar.rows), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_dedup_on_equals_off_under_batching(gen, seed):
    fleet = gen.fleet(seed)
    plain = Campaign(fleet).run(chunk_size=3)
    dedup = Campaign(fleet).run(chunk_size=3, dedup=True)
    for a, b in zip(plain, dedup):
        assert a.name == b.name
        assert json.dumps(a.result.rows) == json.dumps(b.result.rows), (
            seed,
            a.name,
        )
