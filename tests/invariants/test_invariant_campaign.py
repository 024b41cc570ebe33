"""Campaign invariants over seeded random fleets.

The load-bearing identities of the campaign driver, as properties:

* **campaign == solo**: every scenario of a fleet run through one
  shared executor produces rows byte-identical to a solo ``explore()``
  of that scenario, under EVERY builtin scheduling policy;
* **dedup on == dedup off**: enabling cross-scenario evaluation dedup
  changes which code computes each cost, never the bytes of any row;
* the acceptance pairing: weighted ``weighted_completion`` *and*
  ``dedup=True`` together, on a parallel executor, still match solo
  byte for byte;
* **the path reported is the path taken**: every member runs exactly
  the path :func:`~repro.explore.evaluation_path` reports for it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.explore import (
    SCHEDULING_POLICIES,
    BatchPrefixEvaluator,
    Campaign,
    SweepExecutor,
    WeightedCompletionTime,
    evaluation_path,
    explore,
    scenario_compute_key,
)
from repro.explore import campaign as campaign_module

SEEDS = range(10)


def _solo_rows(fleet):
    return {scenario.name: explore(scenario).rows for scenario in fleet}


@pytest.mark.parametrize("seed", SEEDS)
def test_campaign_equals_solo_under_every_policy(gen, seed):
    fleet = gen.fleet(seed)
    solo = _solo_rows(fleet)
    for policy in sorted(SCHEDULING_POLICIES):
        result = Campaign(fleet).run(chunk_size=3, policy=policy)
        assert result.policy == policy
        for run in result:
            assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
                seed,
                policy,
                run.name,
            )


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_on_equals_dedup_off_byte_identical(gen, seed):
    """Rows, summary statistics and frontiers are unchanged by dedup;
    the accounting proves work was actually shared whenever the fleet
    contains a shareable group."""
    fleet = gen.fleet(seed)
    with_dedup = Campaign(fleet).run(chunk_size=4, dedup=True)
    without = Campaign(fleet).run(chunk_size=4, dedup=False)
    for lean, full in zip(with_dedup, without):
        assert json.dumps(lean.result.rows) == json.dumps(full.result.rows), (
            seed,
            lean.name,
        )
        assert lean.n_feasible == full.n_feasible
        assert lean.best == full.best
        assert lean.pareto_size == full.pareto_size
    keys = [scenario_compute_key(scenario) for scenario in fleet]
    shareable = sum(
        1
        for index, key in enumerate(keys)
        if key is not None and key in keys[:index]
    )
    assert with_dedup.cache_stats["scenarios_shared"] == shareable, seed
    expected_skipped = sum(
        run.n_evaluated
        for run, key, position in zip(
            without.runs, keys, range(len(keys))
        )
        if key is not None and key in keys[:position]
    )
    assert with_dedup.cache_stats["evaluations_skipped"] == expected_skipped, seed


@pytest.mark.parametrize("seed", SEEDS)
def test_weighted_completion_with_dedup_on_parallel_executor(gen, seed):
    """The acceptance pairing: unequally weighted run-to-completion
    scheduling and the evaluation cache enabled together, on a shared
    thread pool."""
    fleet = gen.fleet(seed)
    solo = _solo_rows(fleet)
    weights = {scenario.name: 1.0 + i % 3 for i, scenario in enumerate(fleet)}
    result = Campaign(fleet).run(
        SweepExecutor(workers=3, backend="thread"),
        chunk_size=2,
        policy=WeightedCompletionTime(weights),
        dedup=True,
    )
    assert result.policy == "weighted_completion"
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
            seed,
            run.name,
        )


@pytest.mark.parametrize("seed", SEEDS)
def test_iter_runs_streamed_equals_drained_run(gen, seed):
    """Streaming consumption hands out exactly the runs a drained
    ``run()`` reassembles, byte for byte."""
    fleet = gen.fleet(seed)
    streamed = {
        run.name: run for run in Campaign(fleet).iter_runs(chunk_size=3, dedup=True)
    }
    drained = Campaign(fleet).run(chunk_size=3, dedup=True)
    assert set(streamed) == {run.name for run in drained}
    for run in drained:
        other = streamed[run.name]
        assert json.dumps(other.result.rows) == json.dumps(run.result.rows), (
            seed,
            run.name,
        )
        assert other.n_feasible == run.n_feasible
        assert other.pareto_size == run.pareto_size
        assert other.dedup_source == run.dedup_source


class _ThroughputOverride(ThroughputCostModel):
    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)


class _EnergyEvaluateOverride(EnergyCostModel):
    def evaluate(self, config, pass_rates=None):
        return super().evaluate(config, pass_rates)


def _with_scalar_member(fleet):
    """The fleet plus one member whose model overrides a cost step (the
    generated fleets are all stock), so the scalar lane is covered."""
    base = fleet[0]
    model_cls = (
        _ThroughputOverride if base.domain == "throughput" else _EnergyEvaluateOverride
    )
    return [
        *fleet,
        replace(
            base,
            name="scalar-member",
            model=model_cls(base.link),
            auto_prune=False,
            auto_prune_configs=False,
        ),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_members_take_the_reported_evaluation_path(gen, seed, monkeypatch):
    """Spy on the cohort walk, the dedup group walk and the scalar
    lane: each member enters exactly one of them, and it is the one
    ``evaluation_path(member, executor, dedup=...)`` reports."""
    fleet = _with_scalar_member(gen.fleet(seed))
    taken: dict[str, list[str]] = {}
    real_cohort = BatchPrefixEvaluator.iter_scenario_batches
    real_group = BatchPrefixEvaluator.iter_group_batches
    real_lane = campaign_module._interleave_chunks

    def cohort_walk(self, scenario, chunk_size=None):
        taken.setdefault(scenario.name, []).append("cohort")
        return real_cohort(self, scenario, chunk_size)

    def group_walk(self, scenarios, chunk_size=None):
        for scenario in scenarios:
            taken.setdefault(scenario.name, []).append("group")
        return real_group(self, scenarios, chunk_size)

    def scalar_lane(scenarios, models, sizes, policy, progress, indices):
        for index in indices:
            taken.setdefault(scenarios[index].name, []).append("scalar")
        return real_lane(scenarios, models, sizes, policy, progress, indices)

    monkeypatch.setattr(BatchPrefixEvaluator, "iter_scenario_batches", cohort_walk)
    monkeypatch.setattr(BatchPrefixEvaluator, "iter_group_batches", group_walk)
    monkeypatch.setattr(campaign_module, "_interleave_chunks", scalar_lane)
    expected_lane = {
        "batch-cohort": "cohort",
        "batch-cohort-pruned": "cohort",
        "batch-dedup": "group",
        "scalar-memoized": "scalar",
        "scalar-scratch": "scalar",
    }
    for executor in (SweepExecutor(), SweepExecutor(workers=2, backend="thread")):
        for dedup in (False, True, "materialize"):
            taken.clear()
            Campaign(fleet).run(executor, chunk_size=4, dedup=dedup)
            for member in fleet:
                reported = evaluation_path(member, executor, dedup=dedup)
                assert taken[member.name] == [expected_lane[reported]], (
                    seed,
                    dedup,
                    member.name,
                    reported,
                )
