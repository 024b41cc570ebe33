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
  the path :func:`~repro.explore.evaluation_path` reports for it;
* **campaign == solo, shrinking**: hypothesis fleets of 1-4 members
  drawn from the compact-rows chain strategy — plain, hooked and
  same-pipeline link pairs mixed — match solo ``explore()`` under every
  builtin policy and both ``dedup`` values, and a counterexample
  shrinks to a minimal fleet.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_invariant_compact_rows import scenarios

from repro.explore import (
    SCHEDULING_POLICIES,
    BatchPrefixEvaluator,
    Campaign,
    SweepExecutor,
    WeightedCompletionTime,
    evaluation_path,
    explore,
)
from repro.explore.campaign import _dedup_groups, scenario_compute_key
from repro.explore import engine as engine_module
from repro.hw.network import LinkModel

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


@pytest.mark.parametrize("seed", SEEDS)
def test_members_take_the_reported_evaluation_path(gen, seed, monkeypatch):
    """Spy on the one cohort walk, recording each call's member tuple,
    and on the scalar pipe: each member enters exactly one stream, and
    it is the one ``evaluation_path(member, executor, dedup=...)``
    reports — a ``batch-dedup`` member walks with exactly its dedup
    group, a ``batch-cohort``/``batch-cohort-pruned`` member walks
    alone, and no member enters ``iter_evaluation_chunks``."""
    fleet = gen.fleet(seed)
    taken: dict[str, list[tuple]] = {}
    real_walk = BatchPrefixEvaluator.iter_group_batches
    real_pipe = engine_module.iter_evaluation_chunks

    def group_walk(self, scenarios, chunk_size=None):
        members = tuple(scenario.name for scenario in scenarios)
        for name in members:
            taken.setdefault(name, []).append(("walk", members))
        return real_walk(self, scenarios, chunk_size)

    def scalar_pipe(model, configs, *args, **kwargs):
        # A campaign has no scalar member: a call shows up under a name
        # no member has.
        taken.setdefault("the scalar pipe", []).append(("scalar",))
        return real_pipe(model, configs, *args, **kwargs)

    monkeypatch.setattr(BatchPrefixEvaluator, "iter_group_batches", group_walk)
    monkeypatch.setattr(engine_module, "iter_evaluation_chunks", scalar_pipe)
    for executor in (SweepExecutor(), SweepExecutor(workers=2, backend="thread")):
        for dedup in (False, True):
            taken.clear()
            Campaign(fleet).run(executor, chunk_size=4, dedup=dedup)
            assert set(taken) == {member.name for member in fleet}, (seed, dedup)
            paths = [evaluation_path(m, executor, dedup=dedup) for m in fleet]
            groups = _dedup_groups(
                fleet, [i for i, path in enumerate(paths) if path == "batch-dedup"]
            )
            group_of = {
                index: tuple(fleet[member].name for member in indices)
                for indices in groups.values()
                for index in indices
            }
            for index, (member, reported) in enumerate(zip(fleet, paths)):
                if reported == "batch-dedup":
                    expected = ("walk", group_of[index])
                else:
                    assert reported in ("batch-cohort", "batch-cohort-pruned")
                    expected = ("walk", (member.name,))
                assert taken[member.name] == [expected], (
                    seed,
                    dedup,
                    member.name,
                    reported,
                )


#: Second links for same-pipeline pairs (dedup groups when unpruned).
PAIR_LINKS = (
    LinkModel(name="pair-slow", raw_bps=2e4, tx_energy_per_bit=1e-9),
    LinkModel(name="pair-fast", raw_bps=5e6, tx_energy_per_bit=0.0),
)


def _drop_first_on_cpu(config) -> bool:
    """Per-config prune hook: drop configurations whose first block runs
    on the cpu."""
    return config.platforms[:1] == ("cpu",)


@st.composite
def fleets(draw):
    """1-4 members: plain chains, chains under a per-config prune hook,
    and chains paired with a second link on the same pipeline."""
    size = draw(st.integers(1, 4))
    fleet = []
    while len(fleet) < size:
        member = replace(draw(scenarios()), name=f"m{len(fleet)}")
        kind = draw(st.sampled_from(("plain", "hooked", "pair")))
        if kind == "hooked":
            member = replace(member, prune=_drop_first_on_cpu)
        fleet.append(member)
        if kind == "pair" and len(fleet) < size:
            link = draw(st.sampled_from(PAIR_LINKS))
            fleet.append(replace(member, name=f"m{len(fleet)}", link=link))
    return fleet


@settings(max_examples=100, deadline=None)
@given(fleets(), st.sampled_from((None, 7)))
def test_fleet_members_equal_solo_shrinking(fleet, chunk_size):
    solo = {member.name: json.dumps(explore(member).rows) for member in fleet}
    for policy in sorted(SCHEDULING_POLICIES):
        for dedup in (False, True):
            result = Campaign(fleet).run(
                chunk_size=chunk_size, policy=policy, dedup=dedup
            )
            for run in result:
                assert json.dumps(run.result.rows) == solo[run.name], (
                    policy,
                    dedup,
                    run.name,
                )
