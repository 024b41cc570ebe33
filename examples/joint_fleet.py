#!/usr/bin/env python
"""Joint-fleet exploration: N cameras contending for one shared uplink.

The source paper prices each camera's uplink as if the camera owned it.
This example runs the regime the multi-camera follow-ups study: a
catalog-built fleet of throughput workloads shares ONE uplink of fixed
capacity, feasibility couples the members through their aggregate
transmit demand, and :func:`~repro.explore.explore_joint` finds the
max-min-FPS joint assignment — which offload split each camera should
pick so the *slowest* camera is as fast as the shared capacity allows.

Shown here:

* :class:`~repro.explore.JointFleetSpec` expanding catalog entries
  across shared-link tiers into one
  :class:`~repro.explore.JointFleetScenario` per uplink (capacity
  defaulting to the link's goodput);
* the capacity sweep: the same fleet from uncontended (every member at
  its solo optimum, byte-identical rows) down to starved (no joint
  assignment fits), with the search counters showing how many rate
  thresholds the search probed and how many of them overflowed the
  uplink as it tightens;
* the per-member summary table — solo-best vs jointly-assigned rate,
  per-member demand, and each member's share of the capacity;
* the export-only fast path (``collect=False``): candidates stream
  through :class:`~repro.explore.joint.JointCandidateSink` with frontier
  tracking off, byte-identical optimum at a fraction of the cost;
* the weighted completion-time objective over the member campaign: the
  fleet's ``weights=`` order its member walks (weighted shortest
  processing time first) and weigh the reported mean completion time.

Run:
    PYTHONPATH=src python examples/joint_fleet.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.explore import (
    JointFleetSpec,
    explore_joint,
    load_builtin,
)


def main() -> None:
    catalog = load_builtin()
    throughput = catalog.names("throughput")
    print(f"Throughput catalog entries: {', '.join(throughput)}")

    # Two cameras' worth of workloads sharing each candidate uplink
    # (the codec chain and the face-authentication camera — both have
    # feasible splits on a WiFi-class link); capacity defaults to the
    # shared link's goodput.
    entries = ("compression-throughput", "faceauth-throughput")
    spec = JointFleetSpec(entries=entries, shared_links=("wifi", "25g"))
    fleets = catalog.build_joint_fleets(spec)
    for fleet in fleets:
        result = explore_joint(fleet)
        result.to_table().print()
        print()

    # The capacity sweep: one fleet from uncontended to starved. The
    # uncontended point reproduces every member's solo optimum (the
    # invariant suite asserts the rows byte-identically); tightening
    # the uplink first forces cheaper splits (lower fleet FPS), then
    # starves the fleet entirely.
    base = fleets[0]
    solo_demand = base.solo_demand_bps()
    print(
        f"Capacity sweep for {base.name!r} "
        f"(solo demand {solo_demand:.3g} bps):"
    )
    for fraction in (1.0, 0.6, 0.3, 0.15, 0.1, 0.02):
        fleet = replace(base, capacity_bps=max(1.0, fraction * solo_demand))
        result = explore_joint(fleet)
        counters = result.counters
        verdict = (
            f"min {result.best_fleet_fps:.3g} FPS at "
            f"{result.utilization:.0%} utilization"
            if result.feasible
            else "infeasible"
        )
        print(
            f"  {fraction:4.0%} of solo demand: {verdict} "
            f"({counters['n_searched']} thresholds probed, "
            f"{counters['n_capacity_pruned']} over capacity)"
        )

    # The export-only fast path: candidates build while rows stream
    # (one winner row per depth cohort), frontier tracking off —
    # byte-identical optimum, memory bounded by depths x members.
    contended = replace(base, capacity_bps=max(1.0, 0.3 * solo_demand))
    collected = explore_joint(contended)
    streamed = explore_joint(contended, collect=False)
    assert streamed.best_choice == collected.best_choice
    assert streamed.best_fleet_fps == collected.best_fleet_fps
    print(
        f"\ncollect=False reproduces the optimum exactly "
        f"(choice {streamed.best_choice}, "
        f"min {streamed.best_fleet_fps:.3g} FPS) with no collected rows."
    )

    # The weighted-completion-time objective: weight the fleet, and the
    # member campaign runs its walks in WSPT order under those weights;
    # report the weighted mean completion time alongside the joint
    # assignment.
    weighted = replace(
        contended, weights=tuple(range(1, len(contended.members) + 1))
    )
    result = explore_joint(weighted)
    print(
        f"Weighted fleet (weights {weighted.weights}): weighted mean "
        f"completion {result.weighted_completion_seconds():.4f}s over "
        f"the member campaign."
    )


if __name__ == "__main__":
    main()
