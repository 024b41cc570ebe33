"""The traced replay: every op as an explicit chain of layer calls.

Each replay first asks the op's question through the same public calls
as the timed run, split into one span per layer call (the ``op`` span
and its children), and returns that answer so the caller can check it
against the reference digest. It then replays parts of the op a second
way, outside the ``op`` span, to split the work between layers
(``replay`` span): the fold drained without rows, the rows materialized
batch by batch, the campaign without its online frontier, the op on a
serial executor, the joint search over collected rows.

Counts that are not times go into a ``defaultdict(float)`` keyed by
metric name.
"""

from __future__ import annotations

from typing import Any

from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    SweepExecutor,
    explore,
    explore_joint,
    joint_candidates,
    search_joint_assignment,
)

from spans import TracedTopKSink, Tracer
from workloads import (
    TOP_K,
    Op,
    campaign_answer,
    fresh_executor,
    joint_answer,
    joint_result_answer,
    op_paths,
    ranking,
    run_campaign,
    run_joint,
    top_k_spec,
)


def _count_paths(op: Op, counters: dict[str, float]) -> None:
    for path in op_paths(op):
        counters["engine.path." + path] += 1


def _traced_sinks(tracer: Tracer, members) -> dict[str, TracedTopKSink]:
    return {member.name: TracedTopKSink(tracer, *top_k_spec(member)) for member in members}


def replay_query(op: Op, tracer: Tracer, counters: dict[str, float]) -> list[dict[str, Any]]:
    scenario = op.scenario
    _count_paths(op, counters)
    metric, maximize = ranking(scenario.domain)
    with tracer.span("op"):
        with tracer.span("engine.explore"):
            result = explore(scenario)
        with tracer.span("result.rows"):
            result.rows
        with tracer.span("result.best"):
            best = result.best
        with tracer.span("result.top_k"):
            top = result.top_k(metric, TOP_K, maximize)
        with tracer.span("result.pareto"):
            frontier = result.pareto()
    counters["result.pareto_size"] += len(frontier)
    del result
    with tracer.span("replay"):
        evaluator = BatchPrefixEvaluator(scenario.cost_model(), scenario.pass_rates)
        with tracer.span("vectorized.fold"):
            for _batch in evaluator.iter_scenario_batches(scenario):
                pass
        for batch in evaluator.iter_scenario_batches(scenario):
            with tracer.span("vectorized.materialize"):
                batch.costs()
            counters["vectorized.rows_materialized"] += batch.n_materialized
    return [{"best": best, "pareto": frontier, "top_k": top}]


def replay_export(op: Op, tracer: Tracer, counters: dict[str, float]) -> list[dict[str, Any]]:
    scenario = op.scenario
    pruned = scenario.auto_prune_configs
    _count_paths(op, counters)
    sink = TracedTopKSink(tracer, *top_k_spec(scenario))
    with tracer.span("op"):
        with tracer.span("engine.explore"):
            explore(scenario, sink=sink, collect=False)
        top = sink.top_k()
    counters["sink.rows_materialized"] += sink.materialized
    with tracer.span("replay"):
        evaluator = BatchPrefixEvaluator(scenario.cost_model(), scenario.pass_rates)
        emitted = 0
        with tracer.span("prune.fold" if pruned else "vectorized.fold"):
            for batch in evaluator.iter_scenario_batches(scenario):
                emitted += len(batch)
    if pruned:
        counters["prune.rows_emitted"] += emitted
        counters["prune.full_space"] += op.full_configs
    return [{"top_k": top}]


def replay_campaign(op: Op, tracer: Tracer, counters: dict[str, float]) -> list[dict[str, Any]]:
    _count_paths(op, counters)
    executor = fresh_executor()
    sinks = _traced_sinks(tracer, op.fleet)
    with tracer.span("op"):
        with tracer.span("campaign.run"):
            result = Campaign(op.fleet, name=op.label).run(
                executor, dedup=True, collect=False, sinks=sinks
            )
        answer = campaign_answer(result, sinks)
    counters["sink.rows_materialized"] += sum(sink.materialized for sink in sinks.values())
    stats = result.cache_stats
    counters["campaign.evaluations_skipped"] += stats["evaluations_skipped"]
    counters["campaign.evaluations_total"] += (
        stats["evaluations_skipped"] + stats["evaluations_computed"]
    )
    for group in stats["dedup_groups"].values():
        counters["campaign.rows_materialized"] += group["rows_materialized"]
        counters["campaign.member_rows_closed"] += group["member_rows_closed"]
    counters["scheduling.completion_s"] += sum(run.wall_seconds for run in result.runs)
    counters["scheduling.runs"] += len(result.runs)
    with tracer.span("replay"):
        # Same sinks class (spans into a throwaway tracer) so the two
        # campaign runs differ only in the online frontier.
        with tracer.span("campaign.run_nofrontier"):
            Campaign(op.fleet, name=op.label).run(
                fresh_executor(),
                dedup=True,
                collect=False,
                sinks=_traced_sinks(Tracer(), op.fleet),
                frontier=False,
            )
        with tracer.span("executor.serial_op"):
            serial = run_campaign(op, SweepExecutor())
        with tracer.span("executor.pool_start"):
            fresh_executor().map(abs, [0, 1])
    return [answer, serial]


def replay_joint(op: Op, tracer: Tracer, counters: dict[str, float]) -> list[dict[str, Any]]:
    fleet = op.joint
    _count_paths(op, counters)
    executor = fresh_executor()
    with tracer.span("op"):
        with tracer.span("joint.explore"):
            result = explore_joint(fleet, executor, collect=False)
        answer = joint_result_answer(result)
    counters["joint.capacity_pruned"] += result.counters["n_capacity_pruned"]
    counters["joint.searched"] += result.counters["n_searched"]
    with tracer.span("replay"):
        with tracer.span("joint.collect"):
            collected = Campaign(list(fleet.members), name=fleet.name).run(
                SweepExecutor(), dedup=True, collect=True
            )
            member_rows = [collected[member.name].result.rows for member in fleet.members]
        with tracer.span("joint.candidates"):
            candidates = [
                joint_candidates(member, rows)
                for member, rows in zip(fleet.members, member_rows)
            ]
        with tracer.span("joint.search"):
            choice, value, demand, _ = search_joint_assignment(
                candidates, fleet.capacity_bps
            )
        chain = joint_answer(choice, value, demand, candidates)
        del collected, member_rows
        with tracer.span("executor.serial_op"):
            serial = run_joint(op, SweepExecutor())
    return [answer, chain, serial]


REPLAYS = {
    "query": replay_query,
    "export": replay_export,
    "campaign": replay_campaign,
    "joint": replay_joint,
}


def replay(op: Op, tracer: Tracer, counters: dict[str, float]) -> list[dict[str, Any]]:
    """Replay one op; returns every answer the replay produced."""
    return REPLAYS[op.kind](op, tracer, counters)
