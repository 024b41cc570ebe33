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
* **batch fold == scalar fold**: the evaluator pair agrees directly on
  shuffled mixed-depth configuration streams, including energy
  ``pass_rates`` overrides;
* **dedup on == off**: campaign results with cross-scenario dedup
  equal the dedup-free run.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.datasets.rng import make_rng
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    explore,
)
from repro.explore.incremental import PrefixEvaluator, uses_stock_cost_semantics
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
    """Direct evaluator equivalence on a mixed-depth, shuffled stream —
    the shape campaign chunks and pruned enumerations feed the batch
    path (contiguous same-depth runs are an optimization, never a
    requirement)."""
    rng = make_rng(seed)
    scenario = gen.scenario(rng, name=f"fold-{seed}")
    model = scenario.cost_model()
    assert uses_stock_cost_semantics(model)
    configs = list(scenario.iter_configs())
    order = rng.permutation(len(configs))
    configs = [configs[int(i)] for i in order]

    batch = BatchPrefixEvaluator(model, pass_rates=scenario.pass_rates)
    scalar = PrefixEvaluator(model, pass_rates=scenario.pass_rates)
    got = [cost_row(scenario, cost) for cost in batch.evaluate_many(configs)]
    want = [cost_row(scenario, scalar.evaluate(config)) for config in configs]
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
