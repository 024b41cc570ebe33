"""Pruning soundness invariants over seeded random pipelines.

Auto-derived pruning must use *bounds, never heuristics*: against the
``explore_brute_force`` oracle of the unpruned scenario,

* the pruned enumeration is a subsequence of the unpruned one,
* every surviving row is byte-identical to its unpruned counterpart,
* **no feasible configuration is ever dropped** — the feasible sets
  match exactly,

in both domains, with depth pruning (``auto_prune``), per-config
prefix pruning (``auto_prune_configs``) and their composition — and
specifically through the energy pruner's *dual bound* (per-depth exact
transmit terms), whose tightening on late-collapsing payload chains is
also asserted directly against the single min-tail bound.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.explore import Scenario, explore, explore_brute_force, vectorized
from repro.explore.enumerate import iter_configs
from repro.explore.prune import energy_prefix_pruner

SEEDS = range(14)


def _pruned_variants(scenario):
    variants = [replace(scenario, auto_prune=True)]
    variants.append(replace(scenario, auto_prune_configs=True))
    variants.append(replace(scenario, auto_prune=True, auto_prune_configs=True))
    return variants


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_pruning_never_drops_feasible(gen, seed, domain):
    scenario = gen.scenario(
        seed, name=f"pruned-{domain}-{seed}", domain=domain, constrained=True
    )
    oracle = explore_brute_force(scenario)
    oracle_rows = oracle.rows
    feasible = json.dumps([row for row in oracle_rows if row["feasible"]])
    for variant in _pruned_variants(scenario):
        result = explore(variant)
        # Survivors are byte-identical rows, in enumeration order.
        gen.subsequence(
            [json.dumps(row) for row in result.rows],
            [json.dumps(row) for row in oracle_rows],
            f"seed {seed} {domain}",
        )
        # The feasible set is untouched: pruning loses only provably
        # infeasible configurations.
        assert (
            json.dumps([row for row in result.rows if row["feasible"]]) == feasible
        ), (seed, domain, variant.auto_prune, variant.auto_prune_configs)


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_dual_bound_sound_on_late_collapsing_chains(gen, seed):
    """The adversarial shape for the dual bound: payloads stay huge
    until the last block collapses them. Soundness first (feasible set
    vs brute force), then dominance: the depth-aware dual bound never
    enumerates more than the single min-tail bound."""
    pipeline = gen.pipeline(seed, late_collapse=True)
    scenario = gen.scenario(
        seed,
        name=f"late-{seed}",
        pipeline=pipeline,
        domain="energy",
        constrained=True,
    )
    oracle = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune_configs=True))
    assert json.dumps([row for row in pruned.rows if row["feasible"]]) == json.dumps(
        [row for row in oracle.rows if row["feasible"]]
    ), seed

    dual = energy_prefix_pruner(replace(scenario, auto_prune_configs=True))
    single = replace(dual, for_depth=None)  # min-tail only

    def count(pruner):
        return sum(1 for _ in iter_configs(pipeline, prune_prefix=pruner))

    n_dual, n_single = count(dual), count(single)
    assert n_dual <= n_single, seed
    # Survivors remain a superset of the feasible configurations that a
    # prefix bound could ever touch (depth >= 1; the raw-offload config
    # has no platform choices and always survives).
    deep_feasible = sum(
        1 for row in oracle.rows if row["feasible"] and row["n_in_camera"] > 0
    )
    assert n_dual >= deep_feasible, seed


def test_dual_bound_strictly_tightens_a_crafted_late_collapse(gen):
    """A deterministic chain where the single bound provably cannot cut
    but the dual bound prunes whole shallow depths: payload collapses
    only at the last block, the uplink is expensive per bit, and the
    budget admits only deep completions."""
    from repro.core.block import Block, Implementation
    from repro.core.pipeline import InCameraPipeline
    from repro.hw.network import LinkModel

    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=1000.0 if i < 3 else 1.0,
            pass_rate=1.0,
            implementations={
                "asic": Implementation("asic", fps=30.0, energy_per_frame=1e-7),
                "cpu": Implementation("cpu", fps=60.0, energy_per_frame=2e-7),
            },
        )
        for i in range(4)
    )
    pipeline = InCameraPipeline(name="late", sensor_bytes=1000.0, blocks=blocks)
    link = LinkModel(name="pricey", raw_bps=1e6, tx_energy_per_bit=1e-8)
    # Transmit at any fat cut: 1000 B * 8 * 1e-8 = 8e-5 J — over budget.
    # The full chain: 4 blocks (<= 8e-7 J) + 1 B transmit (8e-8 J): fine.
    scenario = Scenario(
        name="late",
        pipeline=pipeline,
        link=link,
        domain="energy",
        energy_budget_j=2e-6,
    )
    oracle = explore_brute_force(scenario)
    feasible = [row for row in oracle.rows if row["feasible"]]
    assert feasible  # the deep completions ARE feasible
    dual = energy_prefix_pruner(scenario)
    single = replace(dual, for_depth=None)
    n_dual = sum(1 for _ in iter_configs(pipeline, prune_prefix=dual))
    n_single = sum(1 for _ in iter_configs(pipeline, prune_prefix=single))
    # The min-tail sees the cheap deep completion everywhere and cannot
    # cut the fat shallow depths; the dual bound removes them entirely.
    assert n_single == len(oracle.rows)
    assert n_dual < n_single
    # Only the raw-offload config and the fat depths go; depth 4 stays.
    assert n_dual == 1 + 2**4  # S~ (never prefix-pruned) + full-depth configs
    pruned = explore(replace(scenario, auto_prune_configs=True))
    assert json.dumps([row for row in pruned.rows if row["feasible"]]) == json.dumps(
        feasible
    )


@pytest.mark.parametrize("seed", range(8))
def test_depth_and_prefix_pruning_compose_with_campaigns(gen, seed, monkeypatch):
    """Pruned scenarios riding a campaign (they are dedup-ineligible)
    still match their solo pruned runs byte for byte."""
    from repro.explore import Campaign

    scenario = gen.scenario(
        seed, name=f"camp-{seed}", domain="throughput", constrained=True
    )
    pruned = replace(scenario, auto_prune=True, auto_prune_configs=True)
    plain = replace(scenario, name=f"plain-{seed}")
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    result = Campaign([pruned, plain]).run(dedup=True)
    assert json.dumps(result[pruned.name].result.rows) == json.dumps(
        explore(pruned).rows
    ), seed
    assert json.dumps(result[plain.name].result.rows) == json.dumps(
        explore(plain).rows
    ), seed
