"""Fused vectorized pruning invariants over seeded random pipelines.

The identities the fused columnar pruning path must hold, as
properties:

* **batch-pruned == scalar-pruned**: a pruned scenario explored down
  the ``batch-cohort-pruned`` path produces rows byte-identical to the
  scalar pruned walk (``evaluation="scalar"``), in both domains,
  through the energy pruner's dual bound on adversarial
  late-collapsing payload chains, and with per-config ``prune`` hooks
  riding the cohort walk as emission-time filters;
* **pruning never drops feasible on the batch path**: against the
  unpruned ``explore_brute_force`` oracle, the fused walk's feasible
  set matches exactly — mask compaction removes only provably
  infeasible prefixes;
* **campaign on a pool == serial**: a campaign given a thread or
  process pool matches the solo serial run byte for byte, pruned or
  hooked — its stock members fold in the calling process, exactly as
  solo ``explore()`` on that pool does;
* **pooled campaigns == solo**: a fleet with pruned members, given a
  parallel executor and unequal completion-time weights, matches solo
  runs.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.explore import (
    Campaign,
    SweepExecutor,
    evaluation_path,
    explore,
    explore_brute_force,
    vectorized,
)

SEEDS = range(10)


def _rows_json(result):
    return [json.dumps(row) for row in result.rows]


def _pruned_variants(scenario):
    return [
        replace(scenario, auto_prune_configs=True),
        replace(scenario, auto_prune=True, auto_prune_configs=True),
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_batch_pruned_equals_scalar_pruned(gen, seed, domain):
    scenario = gen.scenario(
        seed, name=f"fused-{domain}-{seed}", domain=domain, constrained=True
    )
    for variant in _pruned_variants(scenario):
        assert evaluation_path(variant) == "batch-cohort-pruned"
        batch = explore(variant)
        scalar = explore(variant, evaluation="scalar")
        assert _rows_json(batch) == _rows_json(scalar), (seed, domain)


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_dual_bound_batch_identity_on_late_collapse(gen, seed):
    """The adversarial shape for per-depth compaction soundness: the
    dual bound is not depth-monotone on late-collapsing chains, so the
    fused walk may only compact rows violated at EVERY remaining
    depth. Byte-identity against the scalar pruned walk AND feasible-
    set equality against the unpruned brute-force oracle."""
    pipeline = gen.pipeline(seed, late_collapse=True)
    scenario = gen.scenario(
        seed,
        name=f"fused-late-{seed}",
        pipeline=pipeline,
        domain="energy",
        constrained=True,
    )
    oracle_feasible = json.dumps(
        [row for row in explore_brute_force(scenario).rows if row["feasible"]]
    )
    for variant in _pruned_variants(scenario):
        batch = explore(variant)
        assert _rows_json(batch) == _rows_json(explore(variant, evaluation="scalar"))
        assert (
            json.dumps([row for row in batch.rows if row["feasible"]])
            == oracle_feasible
        ), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_per_config_hooks_ride_the_batch_path(gen, seed):
    """``scenario.prune`` hooks (arbitrary per-config predicates) run
    as scalar emission-time filters over compacted cohorts — alone and
    composed with an auto-derived prefix pruner."""
    scenario = gen.scenario(seed, name=f"hooked-{seed}", constrained=True)
    hooked = replace(
        scenario, prune=lambda config: len(config.platforms) % 2 == 1
    )
    variants = [hooked, replace(hooked, auto_prune_configs=True)]
    for variant in variants:
        assert evaluation_path(variant) == "batch-cohort-pruned"
        assert _rows_json(explore(variant)) == _rows_json(
            explore(variant, evaluation="scalar")
        ), seed


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("backend", ["thread", "process"])
def test_shard_equals_serial(gen, seed, backend, monkeypatch):
    """A campaign on a thread or process pool reproduces the solo serial
    rows byte for byte — unpruned, prefix-pruned and hooked. Its stock
    members fold in the calling process, so even unpicklable hook
    lambdas run on a process pool's campaign, and the pool changes no
    reported path."""
    executor = SweepExecutor(workers=2, backend=backend)
    scenario = gen.scenario(seed, name=f"shard-{seed}", constrained=True)
    variants = [
        scenario,
        replace(
            scenario,
            name=f"shard-pruned-{seed}",
            auto_prune=True,
            auto_prune_configs=True,
        ),
        replace(
            scenario,
            name=f"shard-hooked-{seed}",
            prune=lambda config: len(config.platforms) % 2 == 0,
        ),
    ]
    serial = {variant.name: _rows_json(explore(variant)) for variant in variants}
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    result = Campaign(variants).run(executor)
    for run in result:
        assert _rows_json(run.result) == serial[run.name], (seed, backend, run.name)
    for variant in variants:
        expected = "batch-cohort" if variant is scenario else "batch-cohort-pruned"
        assert evaluation_path(variant, executor) == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_shard_campaign_equals_solo_under_every_policy(gen, seed, monkeypatch):
    """A fleet with pruned members, a parallel executor in the slot and
    unequal weights: every scenario's rows match its solo explore()."""
    fleet = gen.fleet(seed)
    solo = {scenario.name: _rows_json(explore(scenario)) for scenario in fleet}
    executor = SweepExecutor(workers=2, backend="thread")
    weights = {scenario.name: 1.0 + i % 3 for i, scenario in enumerate(fleet)}
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    result = Campaign(fleet).run(executor, weights=weights)
    for run in result:
        assert _rows_json(run.result) == solo[run.name], (seed, run.name)
