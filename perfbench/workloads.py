"""Seeded inputs, operations and reference answers for the benchmark.

An *op* is one design question a user asks the exploration engine. Each
workload owns a fixed pool of ops built from ``--seed``; the timed loop
cycles the pool in whole passes, so every run answers the same mix of
questions whatever its length.

Seeds change values, not shapes. Each pool slot has a constant *shape*
(which implementation is faster than which, how steeply payloads
shrink); the seed jitters every value by less than half the gap between
neighbouring values. Tie structure, Pareto-frontier sizes and pruning
survivor counts therefore stay the same across seeds, so the cost of an
op depends on the program, not on the seed, while every digest still
changes with the seed.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import random
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import (
    Campaign,
    ExplorationResult,
    FleetSpec,
    JointCandidate,
    JointFleetResult,
    JointFleetScenario,
    JointFleetSpec,
    Scenario,
    ScenarioCatalog,
    SweepExecutor,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
    explore_joint,
    member_demand_bps,
)
from repro.explore.engine import iter_evaluation_chunks
from repro.explore.result import cost_row
from repro.hw.network import LinkModel

WORKLOADS = ("design_query", "pruned_export", "fleet_uplink")

PLATFORMS = ("asic", "cpu", "fpga")
SENSOR_BYTES = 4000.0
#: Implementation rates span [FPS_LOW, 10 * FPS_LOW] on a geometric grid
#: of one step per implementation; seeded jitter stays within
#: +-FPS_JITTER, below half a grid step even at 13 blocks (10**(1/38) is
#: a 6.2 % step), so the rate order never changes with the seed.
FPS_LOW = 20.0
FPS_JITTER = 0.015
TOP_K = 5
#: Spaces up to this size take their reference rows from
#: ``explore_brute_force``; larger ones from ``evaluation="scalar"``.
BRUTE_FORCE_LIMIT = 10_000
#: Pool workers for the fleet workload: the core count of the
#: reference machine, fixed so results compare across machines.
FLEET_WORKERS = 2


def digest(answer: Any) -> str:
    """SHA-256 of an answer's canonical JSON (floats at full precision)."""
    text = json.dumps(answer, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def ranking(domain: str) -> tuple[str, bool]:
    """The domain's top-k metric and direction."""
    if domain == "throughput":
        return "total_fps", True
    return "total_energy_j", False


def full_space(pipeline: InCameraPipeline) -> int:
    """Configurations of the unpruned space (every depth, every platform)."""
    return sum(len(PLATFORMS) ** depth for depth in range(len(pipeline.blocks) + 1))


def build_pipeline(
    name: str, n_blocks: int, shape: random.Random, rng: random.Random
) -> InCameraPipeline:
    """A synthetic camera chain: ``shape`` fixes the structure, ``rng``
    the seeded jitter on every value."""
    n_impls = n_blocks * len(PLATFORMS)
    ranks = list(range(n_impls))
    shape.shuffle(ranks)
    step = 1.0 / (n_impls - 1)
    blocks = []
    size = SENSOR_BYTES
    for index in range(n_blocks):
        size *= shape.uniform(0.70, 0.92) * rng.uniform(0.99, 1.01)
        implementations = {}
        for rank_index, platform in enumerate(PLATFORMS):
            rank = ranks[index * len(PLATFORMS) + rank_index]
            fps = FPS_LOW * 10 ** (rank * step)
            fps *= rng.uniform(1 - FPS_JITTER, 1 + FPS_JITTER)
            implementations[platform] = Implementation(
                platform,
                fps=fps,
                energy_per_frame=shape.uniform(2e-7, 4e-6) * rng.uniform(0.995, 1.005),
                active_seconds=shape.uniform(2e-5, 8e-4) * rng.uniform(0.995, 1.005),
            )
        blocks.append(
            Block(
                name=f"b{index}",
                output_bytes=size,
                pass_rate=shape.uniform(0.55, 0.95) * rng.uniform(0.995, 1.005),
                implementations=implementations,
            )
        )
    return InCameraPipeline(
        name=name,
        sensor_bytes=SENSOR_BYTES,
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


def grid_target(pipeline: InCameraPipeline, fraction: float, rng: random.Random) -> float:
    """A throughput bar midway (geometrically) between two adjacent rate
    grid points, so the set of implementations clearing it, and with it
    the pruned survivor count, is the same for every seed."""
    n_impls = len(pipeline.blocks) * len(PLATFORMS)
    rank = round(fraction * (n_impls - 2))
    return FPS_LOW * 10 ** ((rank + 0.5) / (n_impls - 1)) * rng.uniform(0.995, 1.005)


def throughput_link(name: str, rng: random.Random, scale: float = 1.0) -> LinkModel:
    """A link offloading the raw sensor frame at about 8 FPS (x scale)."""
    return LinkModel(
        name=name, raw_bps=320_000.0 * scale * rng.uniform(0.95, 1.05), efficiency=0.8
    )


def energy_link(name: str, rng: random.Random) -> LinkModel:
    """A battery radio: about 1 nJ per transmitted bit."""
    return LinkModel(
        name=name,
        raw_bps=1e6,
        efficiency=0.8,
        tx_energy_per_bit=1e-9 * rng.uniform(0.99, 1.01),
    )


def make_scenario(
    name: str,
    domain: str,
    pipeline: InCameraPipeline,
    rng: random.Random,
    *,
    link: LinkModel | None = None,
    bar: float = 0.3,
    prune: bool = False,
) -> Scenario:
    """A constrained scenario; ``bar`` places the throughput target on
    the rate grid or scales the energy budget."""
    if domain == "throughput":
        return Scenario(
            name=name,
            pipeline=pipeline,
            link=link or throughput_link("uplink", rng),
            target_fps=grid_target(pipeline, bar, rng),
            auto_prune_configs=prune,
        )
    return Scenario(
        name=name,
        pipeline=pipeline,
        link=link or energy_link("radio", rng),
        domain="energy",
        energy_budget_j=bar * 4e-5 * rng.uniform(0.995, 1.005),
        auto_prune_configs=prune,
    )


# -- ops -----------------------------------------------------------------


@dataclass
class Op:
    """One design question: what to ask, how big the full space is."""

    label: str
    kind: str  # "query" | "export" | "campaign" | "joint"
    full_configs: int
    scenario: Scenario | None = None
    fleet: list[Scenario] | None = None
    joint: JointFleetScenario | None = None


def fresh_executor() -> SweepExecutor:
    """The fleet workload's executor: a new process pool per op."""
    return SweepExecutor(workers=FLEET_WORKERS, backend="process")


def top_k_spec(scenario: Scenario) -> tuple[str, int, bool]:
    """The ``TopKSink`` arguments (metric, k, maximize) for a scenario."""
    metric, maximize = ranking(scenario.domain)
    return metric, TOP_K, maximize


def export_sink(scenario: Scenario) -> TopKSink:
    return TopKSink(*top_k_spec(scenario))


def query_answer(result: ExplorationResult) -> dict[str, Any]:
    metric, maximize = ranking(result.scenario.domain)
    return {
        "best": result.best,
        "pareto": result.pareto(),
        "top_k": result.top_k(metric, TOP_K, maximize),
    }


def campaign_answer(result: Any, sinks: dict[str, TopKSink]) -> dict[str, Any]:
    return {
        "runs": [
            {
                "name": run.name,
                "best": run.best,
                "pareto_size": run.pareto_size,
                "top_k": sinks[run.name].top_k(),
            }
            for run in result.runs
        ]
    }


def joint_answer(
    choice: tuple[int, ...] | None,
    value: float,
    demand: float,
    candidates: list[list[JointCandidate]],
) -> dict[str, Any]:
    return {
        "choice": None if choice is None else list(choice),
        "fleet_fps": value,
        "demand_bps": demand,
        "rows": (
            None
            if choice is None
            else [member[index].row for member, index in zip(candidates, choice)]
        ),
    }


def joint_result_answer(result: JointFleetResult) -> dict[str, Any]:
    return joint_answer(
        result.best_choice, result.best_fleet_fps, result.best_demand_bps, result.candidates
    )


def run_query(op: Op) -> dict[str, Any]:
    return query_answer(explore(op.scenario))


def run_export(op: Op) -> dict[str, Any]:
    sink = export_sink(op.scenario)
    explore(op.scenario, sink=sink, collect=False)
    return {"top_k": sink.top_k()}


def run_campaign(op: Op, executor: SweepExecutor | None = None) -> dict[str, Any]:
    sinks = {member.name: export_sink(member) for member in op.fleet}
    result = Campaign(op.fleet, name=op.label).run(
        executor or fresh_executor(), dedup=True, collect=False, sinks=sinks
    )
    return campaign_answer(result, sinks)


def run_joint(op: Op, executor: SweepExecutor | None = None) -> dict[str, Any]:
    return joint_result_answer(
        explore_joint(op.joint, executor or fresh_executor(), collect=False)
    )


def op_paths(op: Op) -> list[str]:
    """The evaluation path each scenario of the op takes."""
    if op.scenario is not None:
        return [evaluation_path(op.scenario)]
    members = op.fleet if op.fleet is not None else op.joint.members
    executor = fresh_executor()
    return [evaluation_path(member, executor, dedup=True) for member in members]


def run_op(op: Op) -> dict[str, Any]:
    """Ask the op's question through the public API, as a user would."""
    if op.kind == "query":
        return run_query(op)
    if op.kind == "export":
        return run_export(op)
    if op.kind == "campaign":
        return run_campaign(op)
    return run_joint(op)


# -- reference answers ---------------------------------------------------


def reference_result(scenario: Scenario) -> ExplorationResult:
    """Rows from the brute-force oracle where the space is small enough,
    else from the scalar fold: never from the columnar path under test."""
    if scenario.count_configs() <= BRUTE_FORCE_LIMIT:
        return explore_brute_force(scenario)
    return explore(scenario, evaluation="scalar")


def scalar_costs(scenario: Scenario) -> Iterator[Any]:
    """Stream the (pruned) space's cost objects from the scalar fold,
    without building result rows."""
    for chunk in iter_evaluation_chunks(
        scenario.cost_model(),
        scenario.iter_configs(),
        pass_rates=scenario.pass_rates,
        evaluation="scalar",
    ):
        yield from chunk


def reference_top_k(scenario: Scenario) -> list[dict[str, Any]]:
    """Top-k rows over the scalar cost stream. ``heapq.nlargest`` and
    ``nsmallest`` equal a stable sort's head, so ties keep enumeration
    order exactly as ``top_k`` does; only the winners become rows."""
    if scenario.domain == "throughput":
        winners = heapq.nlargest(TOP_K, scalar_costs(scenario), key=lambda c: c.total_fps)
    else:
        winners = heapq.nsmallest(
            TOP_K, scalar_costs(scenario), key=lambda c: c.total_energy
        )
    return [cost_row(scenario, cost) for cost in winners]


def reference_candidates(member: Scenario) -> list[JointCandidate]:
    """Per-depth joint candidates over the scalar cost stream: the first
    feasible row attaining each depth's highest rate, in depth
    first-appearance order."""
    by_depth: dict[int, Any] = {}
    for cost in scalar_costs(member):
        if not cost.meets(member.target_fps):
            continue
        depth = cost.config.n_in_camera
        held = by_depth.get(depth)
        if held is None or cost.total_fps > held.total_fps:
            by_depth[depth] = cost
    candidates = []
    for depth, cost in by_depth.items():
        row = cost_row(member, cost)
        candidates.append(
            JointCandidate(
                row=row,
                depth=depth,
                fps=row["total_fps"],
                demand_bps=member_demand_bps(member, row),
            )
        )
    return candidates


def reference_assignment(
    candidates: list[list[JointCandidate]], capacity_bps: float
) -> tuple[tuple[int, ...] | None, float, float]:
    """Exhaustive max-min search over the candidate product, first
    optimum in lexicographic (= depth-first) order."""
    best: tuple[int, ...] | None = None
    best_value = float("-inf")
    best_demand = 0.0
    for choice in itertools.product(*(range(len(member)) for member in candidates)):
        demand = 0.0
        value = float("inf")
        for member, index in zip(candidates, choice):
            demand += member[index].demand_bps
            value = min(value, member[index].fps)
        if demand <= capacity_bps and value > best_value:
            best, best_value, best_demand = choice, value, demand
    return best, best_value, best_demand


def reference_answer(op: Op) -> dict[str, Any]:
    """The op's answer computed on the reference paths (untimed)."""
    if op.kind == "query":
        return query_answer(reference_result(op.scenario))
    if op.kind == "export":
        return {"top_k": reference_top_k(op.scenario)}
    if op.kind == "campaign":
        runs = []
        for member in op.fleet:
            result = reference_result(member)
            metric, maximize = ranking(member.domain)
            runs.append(
                {
                    "name": member.name,
                    "best": result.best,
                    "pareto_size": len(result.pareto()),
                    "top_k": result.top_k(metric, TOP_K, maximize),
                }
            )
        return {"runs": runs}
    candidates = [reference_candidates(member) for member in op.joint.members]
    choice, value, demand = reference_assignment(candidates, op.joint.capacity_bps)
    return joint_answer(choice, value, demand, candidates)


# -- pools ---------------------------------------------------------------


def _rngs(
    seed: int, workload: str, slot: int, shape_slot: int | None = None
) -> tuple[random.Random, random.Random]:
    """(shape, jitter) generators of one pool slot: the shape is constant
    per slot (or per ``shape_slot``, for slots sharing one shape), the
    jitter follows the seed."""
    return (
        random.Random(f"shape/{workload}/{slot if shape_slot is None else shape_slot}"),
        random.Random(f"jitter/{seed}/{workload}/{slot}"),
    )


#: design_query: (domain, blocks, shape), alternating domains. Throughput
#: spaces stop at 8 blocks because ``pareto()`` on rows full of rate ties
#: costs rows x frontier; energy spaces stop at 9 blocks so a pass stays
#: near 1.3 s on the reference machine and a 25-second run repeats every
#: op 10-25 times (the metrics take the lower quartile of each op's
#: repetitions).
QUERY_SLOTS = (
    ("energy", 8, 0),
    ("throughput", 7, 3),
    ("energy", 9, 2),
    ("throughput", 8, 5),
    ("throughput", 6, 9),
)

#: pruned_export: (domain, blocks, pruning bar or None). Two of the five
#: ops prune (one per domain), with bars leaving roughly a tenth of the
#: space; the 13-block op is unpruned, so its whole-cohort arrays set
#: the workload's peak memory.
EXPORT_SLOTS = (
    ("energy", 11, None),
    ("throughput", 11, 0.15),
    ("energy", 12, 0.18),
    ("throughput", 12, None),
    ("throughput", 13, None),
)

#: fleet_uplink campaign mix: (entry, domain, blocks), each built at
#: every link tier: 1,093 to 3,280 configurations per member. The
#: campaign's online frontier dominates these ops, so member sizes stay
#: small enough for a run to hold a few dozen ops.
FLEET_ENTRIES = (
    ("cam-a", "throughput", 7),
    ("cam-b", "energy", 7),
    ("cam-c", "throughput", 6),
)
LINK_TIERS = (1.0, 2.0, 4.0, 8.0)
#: Joint fleets: four cameras on one 9-block chain at these sustained
#: rates, sharing an uplink sized at half their solo demand.
JOINT_RATES = (12.0, 15.0, 18.0, 21.0)
JOINT_BLOCKS = 9
JOINT_CAPACITY_FRACTION = 0.5


def _query_pool(seed: int) -> list[Op]:
    ops = []
    for slot, (domain, n_blocks, shape_slot) in enumerate(QUERY_SLOTS):
        shape, rng = _rngs(seed, "design_query", slot, shape_slot)
        pipeline = build_pipeline(f"q{slot}", n_blocks, shape, rng)
        scenario = make_scenario(f"q{slot}-{domain}-{n_blocks}", domain, pipeline, rng)
        ops.append(Op(scenario.name, "query", full_space(pipeline), scenario=scenario))
    return ops


def _export_pool(seed: int) -> list[Op]:
    ops = []
    for slot, (domain, n_blocks, bar) in enumerate(EXPORT_SLOTS):
        shape, rng = _rngs(seed, "pruned_export", slot)
        pipeline = build_pipeline(f"x{slot}", n_blocks, shape, rng)
        tag = "full" if bar is None else "pruned"
        scenario = make_scenario(
            f"x{slot}-{domain}-{n_blocks}-{tag}",
            domain,
            pipeline,
            rng,
            bar=0.3 if bar is None else bar,
            prune=bar is not None,
        )
        ops.append(Op(scenario.name, "export", full_space(pipeline), scenario=scenario))
    return ops


def _campaign_op(seed: int, slot: int) -> Op:
    """A skewed fleet through a private catalog: each entry at every tier.
    Every campaign slot shares the entries' shapes, so campaign ops cost
    the same and differ only in values."""
    catalog = ScenarioCatalog()
    for index, (entry, domain, n_blocks) in enumerate(FLEET_ENTRIES):
        shape, rng = _rngs(seed, "fleet_uplink", 10 * slot + index, shape_slot=index)
        pipeline = build_pipeline(entry, n_blocks, shape, rng)
        catalog.register(entry, domain, f"{n_blocks}-block {domain} camera")(
            _factory(entry, domain, pipeline, rng)
        )
    _, rng = _rngs(seed, "fleet_uplink", 10 * slot + 9)
    links = [
        throughput_link(f"tier{tier}", rng, scale) for tier, scale in enumerate(LINK_TIERS)
    ]
    fleet = catalog.build_fleet(FleetSpec([entry for entry, _, _ in FLEET_ENTRIES], links))
    return Op(
        f"campaign{slot}",
        "campaign",
        sum(full_space(member.pipeline) for member in fleet),
        fleet=fleet,
    )


def _factory(
    entry: str, domain: str, pipeline: InCameraPipeline, rng: random.Random
) -> Callable[..., Scenario]:
    state = rng.getstate()

    def build(link: LinkModel) -> Scenario:
        # Each build replays the same jitter, so every tier's scenario
        # shares one constraint and only the link differs.
        local = random.Random()
        local.setstate(state)
        if domain == "energy":
            # Faster tiers spend less energy per bit.
            link = replace(link, tx_energy_per_bit=1e-9 * 320_000.0 / link.raw_bps)
        return make_scenario(entry, domain, pipeline, local, link=link)

    return build


def _joint_op(seed: int, slot: int) -> Op:
    shape, rng = _rngs(seed, "fleet_uplink", 100 + slot)
    pipeline = build_pipeline(f"j{slot}", JOINT_BLOCKS, shape, rng)
    catalog = ScenarioCatalog()
    entries = []
    for index, rate in enumerate(JOINT_RATES):
        target = rate * rng.uniform(0.98, 1.02)
        name = f"cam{index}"
        catalog.register(name, "throughput", f"camera at {rate:g} FPS")(
            _joint_factory(name, pipeline, target)
        )
        entries.append(name)
    link = LinkModel(name="shared", raw_bps=2.0e6 * rng.uniform(0.95, 1.05), efficiency=0.8)
    (fleet,) = catalog.build_joint_fleets(JointFleetSpec(entries, [link]))
    fleet = replace(
        fleet, capacity_bps=JOINT_CAPACITY_FRACTION * fleet.solo_demand_bps()
    )
    return Op(
        f"joint{slot}",
        "joint",
        sum(full_space(member.pipeline) for member in fleet.members),
        joint=fleet,
    )


def _joint_factory(name: str, pipeline: InCameraPipeline, target: float):
    def build(link: LinkModel) -> Scenario:
        return Scenario(name=name, pipeline=pipeline, link=link, target_fps=target)

    return build


def _fleet_pool(seed: int) -> list[Op]:
    # Three slots, so the median op always falls inside the campaign
    # ops rather than on the boundary between the two kinds.
    return [_campaign_op(seed, 0), _joint_op(seed, 0), _campaign_op(seed, 1)]


POOLS: dict[str, Callable[[int], list[Op]]] = {
    "design_query": _query_pool,
    "pruned_export": _export_pool,
    "fleet_uplink": _fleet_pool,
}


def build_pool(workload: str, seed: int) -> list[Op]:
    """The workload's op pool for ``seed`` (same seed, same ops)."""
    return POOLS[workload](seed)
