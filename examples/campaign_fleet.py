#!/usr/bin/env python
"""A fleet-scale exploration campaign over the built-in scenario catalog.

Loads the whole workload library — the VR rig at two Ethernet tiers, the
face-authentication camera in both cost domains, harvested-budget
variants at two reader distances, the in-camera codec chain over
WiFi-class and battery radios, and the SNNAP accelerator studies (PE
geometry and per-block DVFS assignment) — and runs every design space
as a single campaign: every scenario's walk folds in process and runs
to completion, shortest design space first, per-scenario results
are byte-identical to solo runs, and the summary report answers the
fleet question (which products are feasible, with which design, at what
cost) in one table.

Also demonstrates the streaming consumption path: ``iter_runs()``
(weighted-shortest-processing-time order: shortest scenario first at
equal weights) prints each scenario's verdict *the moment its walk
ends* — a dashboard needs no drained fleet — and the export-only
re-run (CSV sinks, ``collect=False``) streams every row to disk while
the online Pareto frontier keeps ``pareto_size`` exact with no result
caches in memory: the memory profile of a million-config fleet is the
walk's batch size, not the design-space size.

The final section shows campaign dedup on a generator-built fleet: a
:class:`~repro.explore.FleetSpec` (two codec entries x four link tiers
x a pass-rate variant) expands to a dedup-heavy fleet that runs with
``dedup=True`` riding the lazy columnar group finalize: each dedup cell costs one evaluation
pass and one multi-link broadcast close (``cache_stats`` reports the
skipped evaluations and the per-group materialization accounting; rows
stay byte-identical to solo runs either way).

Run:
    PYTHONPATH=src python examples/campaign_fleet.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.core import TextTable
from repro.explore import (
    Campaign,
    CsvSink,
    FleetSpec,
    evaluation_path,
)
from repro.explore.catalog import load_builtin

#: Where the campaign summary is archived: ``campaign_summary.txt`` in
#: ``BENCH_RESULTS_DIR`` when that is set (the bench conftest sets it to
#: a tmp twin, or to ``benchmarks/results`` under ``BENCH_PUBLISH=1``),
#: and nowhere otherwise, so a plain run only prints.
SUMMARY_PATH = (
    Path(os.environ["BENCH_RESULTS_DIR"]) / "campaign_summary.txt"
    if os.environ.get("BENCH_RESULTS_DIR")
    else None
)


def main() -> None:
    catalog = load_builtin()
    library = TextTable(
        ["entry", "domain", "summary"],
        title=f"Scenario catalog: {len(catalog)} registered workloads",
    )
    library.add_rows(
        {"entry": e.name, "domain": e.domain, "summary": e.summary}
        for e in catalog.entries()
    )
    library.print()

    # One campaign for the whole fleet, consumed streamingly: each
    # scenario reports the moment it completes (shortest design spaces
    # first), long before the biggest one drains.
    fleet = catalog.build_all()
    campaign = Campaign(fleet, name="builtin-fleet")
    # Self-describing perf repro: say which evaluation path each
    # scenario rides (batch-cohort, or batch-cohort-pruned once
    # lower-bound pruning fuses in). A campaign member runs its solo
    # path, folded in the calling process: a campaign needs no executor.
    paths = sorted({evaluation_path(s) for s in fleet})
    print(f"\nSolo evaluation path(s) of the fleet: {', '.join(paths)}")
    print("Streaming fleet (shortest scenario first):")
    runs = []
    for run in campaign.iter_runs():
        runs.append(run)
        metric = "total_fps" if run.scenario.domain == "throughput" else "total_energy_j"
        unit = "FPS" if metric == "total_fps" else "J/frame"
        print(
            f"  [{len(runs):2d}/{len(fleet)}] {run.name}: "
            f"{run.n_feasible}/{run.n_evaluated} feasible, "
            f"pareto {run.pareto_size}, best {run.best['config']} "
            f"at {run.best[metric]:.3g} {unit}"
        )

    # The drained fleet summary (run() is exactly a drain of the above).
    result = campaign.run()
    table = result.to_table()
    table.print()
    if SUMMARY_PATH is not None:
        SUMMARY_PATH.parent.mkdir(exist_ok=True)
        SUMMARY_PATH.write_text(table.render() + "\n")
        print(f"\nSummary archived to {SUMMARY_PATH}")

    # Streaming export: the same campaign, rows to disk, no caches —
    # the online frontier keeps pareto sizes exact without them.
    with tempfile.TemporaryDirectory(prefix="campaign_fleet_") as tmp:
        sinks = {
            scenario.name: CsvSink(str(Path(tmp) / f"{scenario.name}.csv"))
            for scenario in fleet
        }
        export = campaign.run(sinks=sinks, collect=False)
        assert all(
            lean.pareto_size == full.pareto_size
            for lean, full in zip(export, result)
        )
        written = sum(
            (Path(tmp) / f"{run.name}.csv").stat().st_size for run in export
        )
        print(
            f"\nExport-only re-run: {sum(r.n_evaluated for r in export)} "
            f"rows -> {len(export)} CSV files ({written} bytes) with no "
            "result caches in memory (collect=False; streamed Pareto "
            "frontiers match the collected run exactly)."
        )

    # Campaign dedup on a generator-built dedup-heavy fleet: a compact
    # FleetSpec (two codec entries x four link tiers x a 0.7 pass-rate
    # variant on the energy entry) expands to twelve campaign-legal
    # scenarios in three dedup cells — each cell shares ONE evaluation
    # pass, closed for all its links by a single multi-link broadcast
    # finalize.
    spec = FleetSpec(
        entries=("compression-throughput", "compression-energy"),
        links=("25g", "400g", "wifi", "low-power"),
        pass_rate_variants=(0.7,),
    )
    sweep = catalog.build_fleet(spec)
    print(f"\nGenerated link-sweep fleet ({len(sweep)} scenarios):")
    for scenario in sweep:
        path = evaluation_path(scenario, dedup=True)
        print(f"  {scenario.name}: {path}")
    result = Campaign(sweep, name="link-sweep").run(dedup=True)
    stats = result.cache_stats
    total = stats["evaluations_computed"] + stats["evaluations_skipped"]
    print(
        f"\nLink sweep with dedup: {len(sweep)} scenarios, "
        f"{total} configs costed with {stats['evaluations_computed']} "
        f"evaluations ({stats['evaluations_skipped']} skipped — "
        f"{total / stats['evaluations_computed']:.1f}x fewer)."
    )
    for leader, group in stats["dedup_groups"].items():
        print(
            f"Dedup group {leader}: {group['states_evaluated']} states "
            f"evaluated once closed {group['member_rows_closed']} member "
            f"rows; {group['rows_materialized']} materialized."
        )
    result.to_table().print()


if __name__ == "__main__":
    main()
