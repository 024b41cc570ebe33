"""Joint-fleet shared-uplink benchmark: prefix reuse vs naive re-eval.

Four cameras running the SAME 9-block pipeline at different target
rates share one uplink. The joint optimizer's phase 1 is a campaign
with ``dedup=True``: one columnar fold computes the shared prefix
states and finalizes every member from them. The naive baseline
re-evaluates each member from scratch with ``explore_brute_force`` —
the cost model the joint layer exists to avoid — then feeds the same
candidate compression and capacity-bounded search.

Asserted, not just recorded: the joint path is >= 3x faster end to
end, and both paths pick the byte-identical best assignment at a
contended capacity (about half the fleet's solo demand). The entry
appends to ``BENCH_explore.json`` under the gated ``joint_fleet``
kind with the ``speedup_joint_vs_naive`` metric.

A second case runs the paper's rig size: the same pipeline at sixteen
target rates, plus sixteen members of random untied candidates. Each
search must finish in under a second and return a certified optimum
(the choice fits, every member runs at least the optimum, and the next
distinct rate above it overflows even at every member's cheapest
split); the entry appends under the ``joint_fleet_16cam`` kind with
the absolute search seconds.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import replace

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import (
    JointCandidate,
    JointFleetScenario,
    Scenario,
    explore_brute_force,
    explore_joint,
    joint_candidates,
    search_joint_assignment,
)
from repro.hw.network import LinkModel

N_BLOCKS = 9
PLATFORMS = ("asic", "dsp", "gpu")
#: Per-camera sustained rates, all within what the chain can deliver
#: (block 0 caps compute at 26 fps; full-sensor offload at 50 fps).
TARGET_RATES = (12.0, 15.0, 18.0, 21.0)
#: Sixteen cameras, as on the paper's VR rig, at rates the chain can
#: deliver.
TARGET_RATES_16 = tuple(10.0 + index for index in range(16))
#: Contended shared uplink: about half the fleet's aggregate solo
#: demand, so the capacity binds.
CAPACITY_FRACTION = 0.5


def _bench_pipeline() -> InCameraPipeline:
    """The fleet-columnar benchmark chain: 29 524 configurations per
    member, shared by all four cameras so dedup collapses the fleet's
    compute fold to one evaluation."""
    blocks = []
    for index in range(N_BLOCKS):
        implementations = {
            platform: Implementation(
                platform,
                fps=20.0 + 7.0 * index + 3.0 * rank,
                energy_per_frame=1e-6 * (1.0 + 0.31 * index + 0.17 * rank),
                active_seconds=1e-4 * (1.0 + 0.13 * index + 0.07 * rank),
            )
            for rank, platform in enumerate(PLATFORMS)
        }
        blocks.append(
            Block(
                name=f"b{index}",
                output_bytes=4000.0 * (0.82 ** (index + 1)),
                pass_rate=1.0 - 0.04 * index,
                implementations=implementations,
            )
        )
    return InCameraPipeline(
        name="joint-bench",
        sensor_bytes=4000.0,
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


def _bench_fleet(target_rates=TARGET_RATES) -> JointFleetScenario:
    pipeline = _bench_pipeline()
    link = LinkModel(name="shared-uplink", raw_bps=2.0e6, efficiency=0.8)
    members = tuple(
        Scenario(
            name=f"cam{index}",
            pipeline=pipeline,
            link=link,
            target_fps=target,
        )
        for index, target in enumerate(target_rates)
    )
    fleet = JointFleetScenario(
        name="joint-bench", members=members, capacity_bps=1.0
    )
    return replace(
        fleet, capacity_bps=CAPACITY_FRACTION * fleet.solo_demand_bps()
    )


def _uncontended_optimum(joint) -> float:
    """The fleet optimum with the capacity constraint lifted."""
    _, value, _, _ = search_joint_assignment(
        joint.candidates, joint.fleet.solo_demand_bps()
    )
    return value


def test_joint_fleet_prefix_reuse_vs_naive(append_trajectory, publish):
    from repro.core.report import TextTable

    fleet = _bench_fleet()
    n_configs = fleet.members[0].count_configs()

    begin = time.perf_counter()
    joint = explore_joint(fleet, collect=False)
    joint_seconds = time.perf_counter() - begin

    # Naive baseline: every member re-evaluated from scratch on the
    # pre-streaming oracle path, then the identical candidate build and
    # joint search.
    begin = time.perf_counter()
    naive_candidates = [
        joint_candidates(member, explore_brute_force(member).rows)
        for member in fleet.members
    ]
    naive_choice, naive_value, naive_demand, _ = search_joint_assignment(
        naive_candidates, fleet.capacity_bps
    )
    naive_seconds = time.perf_counter() - begin

    # Same optimum, same assignment, byte-identical rows.
    assert joint.feasible and naive_choice is not None
    assert joint.best_choice == naive_choice
    assert joint.best_fleet_fps == naive_value
    assert joint.best_demand_bps == naive_demand
    assert json.dumps(
        [candidate.row for candidate in joint.best_assignment]
    ) == json.dumps(
        [
            member_candidates[index].row
            for member_candidates, index in zip(naive_candidates, naive_choice)
        ]
    )

    # The fleet shares one pipeline: dedup must have skipped all but
    # one member's evaluations in phase 1.
    skipped = joint.campaign.cache_stats["evaluations_skipped"]
    assert skipped >= (len(fleet.members) - 1) * n_configs, (
        joint.campaign.cache_stats
    )
    # The contended capacity binds: the fleet runs below the optimum
    # it would reach on an uncontended uplink.
    assert joint.best_fleet_fps < _uncontended_optimum(joint), joint.counters
    search_seconds, answer, _ = _certified_search(joint.candidates, fleet.capacity_bps)
    assert answer == _joint_answer(joint)

    speedup = naive_seconds / joint_seconds
    # Acceptance: shared prefix states + columnar fold must beat the
    # per-member from-scratch baseline by >= 3x on this fleet.
    assert speedup >= 3.0, (joint_seconds, naive_seconds)

    table = TextTable(
        ["fleet", "members", "configs", "candidates", "capacity_bps",
         "fleet_fps", "joint_seconds", "naive_seconds", "speedup"],
        title="joint fleet: prefix-reuse vs naive per-member re-eval",
    )
    table.add_row(
        {
            "fleet": fleet.name,
            "members": len(fleet.members),
            "configs": n_configs,
            "candidates": joint.counters["n_candidate_space"],
            "capacity_bps": round(fleet.capacity_bps),
            "fleet_fps": round(joint.best_fleet_fps, 2),
            "joint_seconds": round(joint_seconds, 4),
            "naive_seconds": round(naive_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    publish("joint_fleet", table.render())
    append_trajectory(
        {
            "kind": "joint_fleet",
            "fleet": f"{fleet.name}@{len(fleet.members)}members",
            "members": len(fleet.members),
            "configs_per_member": n_configs,
            "candidate_space": joint.counters["n_candidate_space"],
            "capacity_pruned": joint.counters["n_capacity_pruned"],
            "fleet_fps": joint.best_fleet_fps,
            "seconds_joint": round(joint_seconds, 6),
            "seconds_naive": round(naive_seconds, 6),
            "seconds_search": round(search_seconds, 6),
            "speedup_joint_vs_naive": round(speedup, 2),
        }
    )


def _cheapest_total(candidates, rate: float) -> float:
    """Fleet-order total of every member's cheapest candidate with
    ``fps >= rate`` (infinite when some member has none)."""
    total = 0.0
    for member in candidates:
        total += min((c.demand_bps for c in member if c.fps >= rate), default=math.inf)
    return total


def _certified_search(candidates, capacity_bps):
    """Time one search, then assert its optimality certificate: the
    choice fits, every member runs at least the optimum v*, and at the
    next distinct rate above v* even the cheapest total overflows.
    Returns (seconds, (choice, value, demand), counters)."""
    begin = time.perf_counter()
    choice, value, demand, counters = search_joint_assignment(candidates, capacity_bps)
    seconds = time.perf_counter() - begin
    assert choice is not None
    assignment = [member[index] for member, index in zip(candidates, choice)]
    total = 0.0
    for chosen in assignment:
        total += chosen.demand_bps
    assert total == demand <= capacity_bps
    assert min(chosen.fps for chosen in assignment) == value
    higher = [c.fps for member in candidates for c in member if c.fps > value]
    assert higher, "the contended optimum is the highest rate of all"
    assert _cheapest_total(candidates, min(higher)) > capacity_bps
    return seconds, (choice, value, demand), counters


def _joint_answer(joint):
    return joint.best_choice, joint.best_fleet_fps, joint.best_demand_bps


def _probe_candidates(n_members: int, seed: int = 0):
    """Random per-member candidates, 8 each, where a deeper cut ships
    less payload at a lower rate; capacity half-way between the cheapest
    and the dearest total demand. Few candidates tie, so a search over
    the candidate product has nothing to share between members."""
    rng = random.Random(seed)
    candidates = []
    for _ in range(n_members):
        rates = sorted((rng.uniform(5.0, 60.0) for _ in range(8)), reverse=True)
        demands = sorted((rng.uniform(1e5, 1e6) for _ in range(8)), reverse=True)
        candidates.append(
            [
                JointCandidate(row={}, depth=depth, fps=fps, demand_bps=demand)
                for depth, (fps, demand) in enumerate(zip(rates, demands))
            ]
        )
    low = sum(min(c.demand_bps for c in member) for member in candidates)
    high = sum(max(c.demand_bps for c in member) for member in candidates)
    return candidates, (low + high) / 2.0


def test_joint_fleet_sixteen_cameras_certified_optimum(append_trajectory):
    fleet = _bench_fleet(TARGET_RATES_16)
    begin = time.perf_counter()
    joint = explore_joint(fleet, collect=False)
    joint_seconds = time.perf_counter() - begin
    search_seconds, answer, counters = _certified_search(
        joint.candidates, fleet.capacity_bps
    )
    assert answer == _joint_answer(joint)
    assert joint.best_fleet_fps < _uncontended_optimum(joint)
    # Sixteen members with eight untied candidates each: a search over
    # the candidate product grows exponentially with the member count,
    # the threshold search stays well under a second.
    probe, probe_capacity = _probe_candidates(len(TARGET_RATES_16))
    probe_seconds, _, _ = _certified_search(probe, probe_capacity)
    assert search_seconds < 1.0 and probe_seconds < 1.0

    append_trajectory(
        {
            "kind": "joint_fleet_16cam",
            "fleet": f"{fleet.name}@{len(fleet.members)}members",
            "members": len(fleet.members),
            "configs_per_member": fleet.members[0].count_configs(),
            "candidate_space": counters["n_candidate_space"],
            "thresholds_probed": counters["n_searched"],
            "fleet_fps": joint.best_fleet_fps,
            "seconds_joint": round(joint_seconds, 6),
            "seconds_search": round(search_seconds, 6),
            "seconds_search_probe": round(probe_seconds, 6),
        }
    )
