"""The bounded cohort walk's deep-depth descent, forced on small spaces.

The cohort walk folds whole depth cohorts only while they fit
``vectorized._BLOCK_ROWS`` and emits every deeper depth by a
depth-first descent over blocks of rows. The suite's random spaces are
far smaller than the default block, so they never reach the descent;
here the ``block`` fixture shrinks the constant to a few rows and the
cohort invariants are re-checked under it, byte for byte against the
``explore_brute_force`` oracle or the scalar path:

* unpruned spaces, and the batches' row bound;
* prefix-pruned spaces in both domains, including the energy pruner's
  ``emit_mask`` on late-collapsing chains;
* per-config ``prune`` hooks, depth pruning (``auto_prune``) and
  ``include_empty=False``;
* row-only sink writes: one per emitted batch, and one per scalar
  chunk with ``engine.DEFAULT_CHUNK_SIZE`` shrunk too;
* the campaign dedup group walk, which shares the generator.
"""

from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.datasets.rng import make_rng
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    engine,
    evaluation_path,
    explore,
    explore_brute_force,
    vectorized,
)

SEEDS = range(8)

#: Deep enough that every depth past the second or third descends.
MAX_BLOCKS = 6


@pytest.fixture(params=[1, 4, 16])
def block(request, monkeypatch):
    """Shrink the walk's block to a few rows (1 is below the option
    count, so every descent step takes a single parent row)."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", request.param)
    return request.param


def _deep_scenario(gen, seed, **kwargs):
    rng = make_rng(seed)
    late_collapse = kwargs.pop("late_collapse", False)
    pipeline = gen.pipeline(rng, max_blocks=MAX_BLOCKS, late_collapse=late_collapse)
    return gen.scenario(rng, name=f"walk-{seed}", pipeline=pipeline, **kwargs)


def _rows(result):
    return json.dumps(result.rows)


def _batches(scenario):
    evaluator = BatchPrefixEvaluator(
        scenario.cost_model(), pass_rates=scenario.pass_rates
    )
    return list(evaluator.iter_scenario_batches(scenario))


@pytest.mark.parametrize("seed", SEEDS)
def test_unpruned_walk_equals_brute_force(gen, block, seed):
    scenario = _deep_scenario(gen, seed)
    assert evaluation_path(scenario) == "batch-cohort"
    assert _rows(explore(scenario)) == _rows(explore_brute_force(scenario)), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_batches_stay_within_one_block(gen, block, seed):
    """No emitted batch exceeds one block (or one parent's options,
    when a block is narrower than a level), and depths come out in
    enumeration order."""
    scenario = _deep_scenario(gen, seed)
    widest = max((len(b.implementations) for b in scenario.pipeline.blocks), default=1)
    batches = _batches(scenario)
    assert all(len(batch) <= max(block, widest) for batch in batches)
    # A batch may span several depths; each row carries its own.
    depths = [
        d for batch in batches for d in batch.metric_column("n_in_camera").tolist()
    ]
    assert depths == sorted(depths)
    assert sum(len(batch) for batch in batches) == scenario.count_configs()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_prefix_pruned_walk_equals_scalar(gen, block, seed, domain):
    scenario = _deep_scenario(gen, seed, domain=domain, constrained=True)
    for variant in (
        replace(scenario, auto_prune_configs=True),
        replace(scenario, auto_prune=True, auto_prune_configs=True),
    ):
        assert evaluation_path(variant) == "batch-cohort-pruned"
        assert _rows(explore(variant)) == _rows(
            explore(variant, evaluation="scalar")
        ), (seed, domain)


@pytest.mark.parametrize("seed", SEEDS)
def test_energy_emit_mask_under_descent(gen, block, seed):
    """Late-collapsing payloads make the energy bound non-monotone in
    depth, so descended rows must keep prefixes that only ``emit_mask``
    drops; the feasible set still equals the unpruned oracle's."""
    scenario = _deep_scenario(
        gen, seed, late_collapse=True, domain="energy", constrained=True
    )
    oracle = json.dumps(
        [row for row in explore_brute_force(scenario).rows if row["feasible"]]
    )
    variant = replace(scenario, auto_prune_configs=True)
    batch = explore(variant)
    assert _rows(batch) == _rows(explore(variant, evaluation="scalar")), seed
    assert json.dumps([row for row in batch.rows if row["feasible"]]) == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_hooks_depth_pruning_and_include_empty(gen, block, seed):
    scenario = _deep_scenario(gen, seed, domain="throughput", constrained=True)
    variants = (
        replace(scenario, prune=lambda config: len(config.platforms) % 2 == 1),
        replace(scenario, prune=lambda config: config.platforms[-1:] == ("cpu",)),
        replace(scenario, auto_prune=True),
        replace(scenario, include_empty=False),
    )
    for variant in variants:
        assert _rows(explore(variant)) == _rows(
            explore(variant, evaluation="scalar")
        ), seed
    assert _rows(explore(variants[-1])) == _rows(explore_brute_force(variants[-1]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("chunk_size", [1, 3, 10])
def test_chunk_size_slicing_under_descent(gen, block, seed, chunk_size, monkeypatch):
    """A row-only sink gets one write per emitted batch of the walk and
    one per ``DEFAULT_CHUNK_SIZE`` configurations of the scalar fold
    (shrunk here to ``chunk_size``); both streams equal the oracle."""
    monkeypatch.setattr(engine, "DEFAULT_CHUNK_SIZE", chunk_size)
    scenario = _deep_scenario(gen, seed)
    oracle = _rows(explore_brute_force(scenario))
    full, rest = divmod(scenario.count_configs(), chunk_size)
    chunks = [chunk_size] * full + ([rest] if rest else [])
    for evaluation, sizes in (
        ("auto", [len(batch) for batch in _batches(scenario)]),
        ("scalar", chunks),
    ):
        writes: list[list[dict]] = []
        sink = SimpleNamespace(write_rows=lambda rows: writes.append(list(rows)))
        explore(scenario, sink=sink, collect=False, evaluation=evaluation)
        assert [len(rows) for rows in writes] == sizes, (seed, evaluation)
        assert json.dumps([row for rows in writes for row in rows]) == oracle


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_group_walk_equals_brute_force(gen, block, seed):
    """One pipeline at three links: a dedup group sharing one walk."""
    rng = make_rng(seed)
    pipeline = gen.pipeline(rng, max_blocks=MAX_BLOCKS)
    leader = gen.scenario(rng, name="m0", pipeline=pipeline, constrained=False)
    fleet = [leader] + [
        replace(leader, name=f"m{i}", link=gen.link(rng)) for i in (1, 2)
    ]
    result = Campaign(fleet).run(dedup=True)
    assert result.cache_stats["evaluations_skipped"] > 0
    for run, scenario in zip(result, fleet):
        expected = _rows(explore_brute_force(scenario))
        assert _rows(run.result) == expected, (seed, run.name)
