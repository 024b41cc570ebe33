"""E10 / Figure 10 — the nine pipeline configurations at 25 GbE.

Paper: compute FPS, communication FPS and total FPS for each cut point and
B3/B4 platform; only the full in-camera pipeline with FPGA acceleration
clears the 30 FPS bar on both axes.

Both experiments run through the unified exploration engine
(:mod:`repro.explore`): the scenario comes from the shared catalog
(``vr-fig10``, registered by :mod:`repro.vr.scenarios`) — the same
entry campaigns run — covering the paper's nine configurations and the
full design space.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.report import TextTable
from repro.explore import Scenario, explore
from repro.explore.catalog import load_builtin
from repro.vr.scenarios import paper_configurations

#: The bar values recovered from the paper's figure (see DESIGN.md).
PAPER_TOTALS = {
    "S~": 15.8,
    "S B1~": 5.27,
    "S B1 B2~": 3.95,
    "S B1 B2 B3(cpu)~": 0.09,
    "S B1 B2 B3(gpu)~": 3.95,
    "S B1 B2 B3(fpga)~": 11.2,
    "S B1 B2 B3(cpu) B4(cpu)~": 0.09,
    "S B1 B2 B3(gpu) B4(gpu)~": 3.95,
    "S B1 B2 B3(fpga) B4(fpga)~": 31.6,
}


def fig10_scenario() -> Scenario:
    return load_builtin().build("vr-fig10", name="fig10_pipeline_configs")


def test_fig10_configuration_table(benchmark, publish):
    # Prune the engine's enumeration down to exactly the paper's nine
    # configurations (B4 co-located on B3's platform), so the recorded
    # timing measures the figure's table and nothing more.
    base = fig10_scenario()
    paper_platforms = {
        config.platforms for _, config in paper_configurations(base.pipeline)
    }
    scenario = replace(
        base, prune=lambda config: config.platforms not in paper_platforms
    )

    def run():
        result = explore(scenario)
        assert len(result.rows) == len(PAPER_TOTALS)
        by_label = {row["config"]: row for row in result.rows}
        return [
            {
                "config": label,
                "compute_fps": by_label[label]["compute_fps"],
                "comm_fps": by_label[label]["communication_fps"],
                "total_fps": by_label[label]["total_fps"],
                "paper_fps": PAPER_TOTALS[label],
                "bottleneck": by_label[label]["bottleneck"],
                "meets_30fps": by_label[label]["feasible"],
            }
            for label in PAPER_TOTALS
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = TextTable(
        ["config", "compute_fps", "comm_fps", "total_fps", "paper_fps",
         "bottleneck", "meets_30fps"],
        title="Fig 10: pipeline configurations at 25 GbE (target 30 FPS)",
    )
    table.add_rows(rows)
    publish("fig10_pipeline_configs", table.render())

    # Every configuration lands within 25% of the paper's bar.
    for row in rows:
        assert row["total_fps"] == pytest.approx(row["paper_fps"], rel=0.25), (
            row["config"]
        )
    # Headline: exactly one configuration is real-time feasible.
    feasible = [r["config"] for r in rows if r["meets_30fps"]]
    assert feasible == ["S B1 B2 B3(fpga) B4(fpga)~"]
    # Early cuts are communication-bound; accelerated deep cuts flip to
    # compute-bound on CPU/GPU.
    assert all(
        r["bottleneck"] == "communication"
        for r in rows
        if r["config"] in ("S~", "S B1~", "S B1 B2~")
    )
    assert all(
        r["bottleneck"] == "compute"
        for r in rows
        if "cpu" in r["config"] or "gpu" in r["config"]
    )


def test_fig10_full_enumeration_beyond_paper(benchmark, publish, results_dir):
    """Design-space extension: enumerate *all* platform assignments, not
    just the paper's nine, and list every feasible and every
    Pareto-optimal configuration."""
    scenario = fig10_scenario()
    result = benchmark.pedantic(lambda: explore(scenario), rounds=1, iterations=1)

    table = TextTable(
        ["config", "total_fps", "bottleneck"],
        title="Fig 10 extension: all feasible configurations at 25 GbE",
    )
    feasible = sorted(result.feasible, key=lambda r: -r["total_fps"])
    table.add_rows(feasible)
    publish("fig10_enumeration", table.render())
    (results_dir / "fig10_enumeration.csv").write_text(result.to_csv())

    # Every feasible configuration must put B3 on the FPGA.
    assert feasible
    for row in feasible:
        assert row["platforms"].split("+")[2] == "fpga"

    # The legacy-report adapter agrees with the row-level verdicts, and
    # the frontier contains the paper's winner.
    report = result.as_offload_report()
    assert [c.config.label for c in report.feasible] == [
        r["config"] for r in result.rows if r["feasible"]
    ]
    assert report.best.config.label == result.best["config"]
    frontier = {r["config"] for r in result.pareto()}
    assert "S B1 B2 B3(fpga) B4(fpga)~" in frontier
