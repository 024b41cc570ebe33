"""Energy-domain Pareto study: the face-authentication offload frontier.

The paper's energy evaluation picks one pipeline variant at a time; the
engine's question is sharper: over *every* (cut point, platform)
configuration of the face-authentication chain, which designs are
non-dominated on (expected joules per captured frame, active seconds
per frame)? Energy decides whether a harvested budget sustains the node
at all; active time decides the frame rate the duty cycle can reach —
a battery-free camera has to care about both.

The scenario comes from the shared catalog (``faceauth-energy``), so
the benchmark studies exactly the workload campaigns run. Each run
appends a ``kind: "energy_pareto"`` entry to the ``BENCH_explore.json``
trajectory (frontier size, feasible count, wall time split into the
``.pareto()`` share and the rest, and the machine: cores, Python and
numpy versions), alongside the scaling entries.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np

from repro.core.report import TextTable
from repro.explore import explore, explore_brute_force
from repro.explore.catalog import load_builtin

#: The frontier axes: expected energy and active time, both minimized.
AXES = ("total_energy_j", "active_seconds")


def test_energy_pareto_frontier(benchmark, publish, results_dir, append_trajectory):
    scenario = load_builtin().build("faceauth-energy")
    assert scenario.domain == "energy"

    def run():
        start = time.perf_counter()
        result = explore(scenario)
        result.rows  # derived here, so pareto_seconds times the frontier only
        pareto_start = time.perf_counter()
        frontier = result.pareto()  # domain default: AXES minimized
        end = time.perf_counter()
        return result, frontier, end - start, end - pareto_start

    result, frontier, seconds, pareto_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    table = TextTable(
        ["config", "total_energy_j", "active_seconds", "transmit_rate", "feasible"],
        title=f"Energy-domain Pareto frontier: {len(frontier)} of "
              f"{len(result.rows)} configurations are non-dominated",
    )
    table.add_rows(frontier)
    publish("energy_pareto", table.render())

    # The default energy axes are exactly this study's axes.
    assert frontier == result.pareto(AXES, maximize=(False, False))

    # Structural properties of a real frontier:
    # the global energy optimum and the global active-time optimum are
    # both on it, and every dominated row is beaten on both axes by
    # some frontier row.
    best_energy = min(result.rows, key=lambda r: r["total_energy_j"])
    best_active = min(result.rows, key=lambda r: r["active_seconds"])
    assert best_energy in frontier and best_active in frontier
    for row in result.dominated():
        assert any(
            f["total_energy_j"] <= row["total_energy_j"]
            and f["active_seconds"] <= row["active_seconds"]
            for f in frontier
        )

    # Paper-consistent physics: the progressive-filtering argument means
    # fully in-camera ASIC processing beats transmitting the raw frame
    # on energy, and the frontier is a strict subset of the space.
    by_label = {row["config"]: row for row in result.rows}
    raw = by_label["S~"]
    deep_asic = by_label["S motion(asic) detect(asic) auth~"]
    assert deep_asic["total_energy_j"] < raw["total_energy_j"]
    assert 1 <= len(frontier) < len(result.rows)

    # The streaming engine agrees with the oracle on this frontier.
    brute = explore_brute_force(scenario)
    assert [r["config"] for r in brute.pareto()] == [r["config"] for r in frontier]

    append_trajectory(
        {
            "kind": "energy_pareto",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "scenario": scenario.name,
            "n_configs": len(result.rows),
            "n_feasible": len(result.feasible),
            "pareto_size": len(frontier),
            "pareto_configs": [row["config"] for row in frontier],
            "seconds": round(seconds, 6),
            "pareto_seconds": round(pareto_seconds, 6),
            "machine": {
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
    )
