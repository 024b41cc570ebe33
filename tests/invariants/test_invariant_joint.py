"""Joint-fleet invariants: solo degeneration, search exactness, and
executor/weight independence.

Properties over seeded random shared-uplink fleets:

* **Uncontended == solo, byte-identically.** A fleet whose capacity is
  at least :meth:`JointFleetScenario.solo_demand_bps` admits every
  joint assignment — member rows must reproduce solo ``explore()``
  byte-for-byte, no threshold probe may overflow the capacity, and the
  fleet optimum must equal the weakest member's solo-best feasible rate.
* **The search never drops a feasible assignment.** The threshold
  max-min must agree with a brute-force :func:`itertools.product`
  oracle over the members' *full* feasible row sets, on both the
  feasibility verdict and the max-min optimum; over drawn candidate
  lists (fractional demands, tied rates, capacities at an assignment's
  exact fleet-order sum and one ulp either side) it must return the
  oracle's choice, optimum and demand exactly.
* **Joint results are executor- and weight-independent.** The best
  assignment, optimum and member rows are identical across
  serial/thread/process executors and under unequal fleet weights
  (weights reorder only the members' walks, never their rows).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.rng import make_rng
from repro.explore import (
    JointCandidate,
    JointFleetScenario,
    SweepExecutor,
    explore,
    explore_joint,
    member_demand_bps,
    search_joint_assignment,
    vectorized,
)

SEEDS = range(10)

#: Brute-force oracle ceiling: seeds whose full feasible-row product
#: exceeds this are skipped for the oracle property (the other
#: properties still cover them).
ORACLE_CEILING = 20_000


def random_joint_fleet(gen, rng, max_members: int = 3):
    """A random shared-uplink fleet: constrained throughput members,
    all built at one shared link, with a coin-flip dedup pair (two
    members sharing a pipeline object — the PR-8 group-finalize path).
    """
    rng = make_rng(rng)
    shared_link = gen.link(rng)
    n_members = int(rng.integers(2, max_members + 1))
    members = []
    while len(members) < n_members:
        member = gen.scenario(
            rng,
            name=f"cam{len(members)}",
            domain="throughput",
            constrained=True,
            link=shared_link,
        )
        members.append(member)
        if len(members) < n_members and rng.random() < 0.4:
            members.append(
                replace(
                    member,
                    name=f"cam{len(members)}",
                    target_fps=float(rng.uniform(5.0, 80.0)),
                )
            )
    fleet = JointFleetScenario(
        name=f"joint-{int(rng.integers(1_000_000))}",
        members=tuple(members),
        capacity_bps=1.0,  # placeholder; tests pick their own capacity
    )
    return fleet


def at_capacity(fleet: JointFleetScenario, capacity_bps: float):
    return replace(fleet, capacity_bps=capacity_bps)


@pytest.mark.parametrize("seed", SEEDS)
def test_uncontended_joint_reproduces_solo_byte_identical(gen, seed):
    rng = make_rng(seed)
    base = random_joint_fleet(gen, rng)
    fleet = at_capacity(base, base.solo_demand_bps())
    assert fleet.is_uncontended()
    result = explore_joint(fleet)
    assert result.counters["n_capacity_pruned"] == 0
    solo_best = []
    for member in fleet.members:
        solo = explore(member)
        joint_rows = result.campaign[member.name].result.rows
        assert json.dumps(joint_rows) == json.dumps(solo.rows)
        feasible = [row["total_fps"] for row in solo.rows if row["feasible"]]
        solo_best.append(max(feasible) if feasible else None)
    if any(best is None for best in solo_best):
        # A member with no feasible split makes the fleet infeasible.
        assert not result.feasible
    else:
        assert result.feasible
        assert result.best_fleet_fps == min(solo_best)
        assert result.best_demand_bps <= fleet.capacity_bps


@pytest.mark.parametrize("seed", SEEDS)
def test_capacity_pruner_agrees_with_brute_force_oracle(gen, seed):
    rng = make_rng(seed)
    base = random_joint_fleet(gen, rng)
    scale = float(rng.uniform(0.2, 1.2))
    fleet = at_capacity(base, max(1.0, scale * base.solo_demand_bps()))
    result = explore_joint(fleet)
    feasible_rows = [
        [row for row in result.campaign[member.name].result.rows if row["feasible"]]
        for member in fleet.members
    ]
    space = math.prod(len(rows) for rows in feasible_rows)
    if space > ORACLE_CEILING:
        pytest.skip(f"oracle space {space} over the ceiling")
    oracle_value = float("-inf")
    oracle_feasible = False
    for combo in itertools.product(*feasible_rows):
        demand = sum(
            member_demand_bps(member, row)
            for member, row in zip(fleet.members, combo)
        )
        if demand <= fleet.capacity_bps:
            oracle_feasible = True
            value = min(row["total_fps"] for row in combo)
            if value > oracle_value:
                oracle_value = value
    assert result.feasible == oracle_feasible
    if oracle_feasible:
        # Same floats on both sides (row values compared by max/min),
        # so exact equality is the right assertion.
        assert result.best_fleet_fps == oracle_value
        assert result.best_demand_bps <= fleet.capacity_bps


#: Few distinct rates, so members tie; decimal-fraction demands, whose
#: fleet-order sums round differently from any other association.
RATES = (10.0, 12.5, 20.0, 30.0)
DEMANDS = (0.1, 0.2, 0.3, 0.7, 1.1, 2.5)


def product_oracle(candidates, capacity_bps):
    """The first assignment in product order attaining the max-min
    optimum. An assignment fits when its demands, added left to right
    in fleet order from ``0.0``, total at most the capacity."""
    best, best_value, best_demand = None, float("-inf"), 0.0
    for choice in itertools.product(*(range(len(member)) for member in candidates)):
        demand = 0.0
        for member, index in zip(candidates, choice):
            demand += member[index].demand_bps
        value = min(member[index].fps for member, index in zip(candidates, choice))
        if demand <= capacity_bps and value > best_value:
            best, best_value, best_demand = choice, value, demand
    return best, best_value, best_demand


def joint_candidate(fps: float, demand_bps: float, depth: int) -> JointCandidate:
    return JointCandidate(
        row={"config": f"d{depth}", "total_fps": fps},
        depth=depth,
        fps=fps,
        demand_bps=demand_bps,
    )


@st.composite
def candidate_fleets(draw):
    """(per-member candidate lists, capacity). The capacity is one
    assignment's exact fleet-order demand sum or one ulp either side;
    sometimes a member has no candidate at all."""
    demand = st.one_of(
        st.sampled_from(DEMANDS),
        st.floats(0.01, 10.0, allow_nan=False, allow_infinity=False),
    )
    candidates = [
        [
            joint_candidate(draw(st.sampled_from(RATES)), draw(demand), depth)
            for depth in range(draw(st.integers(1, 4)))
        ]
        for _ in range(draw(st.integers(1, 6)))
    ]
    if draw(st.integers(0, 9)) == 0:
        candidates[draw(st.integers(0, len(candidates) - 1))] = []
        return candidates, draw(st.floats(0.1, 60.0))
    total = 0.0
    for member in candidates:
        total += member[draw(st.integers(0, len(member) - 1))].demand_bps
    step = draw(st.sampled_from((-math.inf, 0.0, math.inf)))
    return candidates, total if step == 0.0 else math.nextafter(total, step)


@settings(max_examples=300, deadline=None)
@given(candidate_fleets())
# Fits exactly: 0.3 + 0.2 + 0.1 == 0.6 in fleet order, while the sum
# reassociated as 0.3 + (0.2 + 0.1) is one ulp above it.
@example(([[joint_candidate(20.0, d, 0)] for d in (0.3, 0.2, 0.1)], 0.6))
def test_search_matches_the_product_oracle(fleet):
    candidates, capacity_bps = fleet
    choice, value, demand, counters = search_joint_assignment(candidates, capacity_bps)
    assert (choice, value, demand) == product_oracle(candidates, capacity_bps)
    assert counters["n_candidate_space"] == math.prod(map(len, candidates))
    assert counters["n_capacity_pruned"] <= counters["n_searched"]


@pytest.mark.parametrize("seed", SEEDS)
def test_joint_identical_across_executors_and_policies(gen, seed, monkeypatch):
    rng = make_rng(seed)
    base = random_joint_fleet(gen, rng)
    fleet = at_capacity(
        base, max(1.0, float(rng.uniform(0.4, 1.1)) * base.solo_demand_bps())
    )
    reference = explore_joint(fleet)
    reference_rows = json.dumps(
        [reference.campaign[m.name].result.rows for m in fleet.members]
    )
    executors = [None, SweepExecutor(workers=3, backend="thread")]
    if seed % 5 == 0:  # process pools are expensive; sample them
        executors.append(SweepExecutor(workers=2, backend="process"))
    weighted = replace(
        fleet, weights=tuple(1.0 + i % 3 for i in range(len(fleet.members)))
    )
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    for executor in executors:
        candidate = explore_joint(weighted, executor)
        assert candidate.best_choice == reference.best_choice, executor
        assert candidate.best_fleet_fps == reference.best_fleet_fps
        assert candidate.best_demand_bps == reference.best_demand_bps
        assert candidate.counters == reference.counters
        rows = json.dumps(
            [candidate.campaign[m.name].result.rows for m in fleet.members]
        )
        assert rows == reference_rows, executor
