"""End-to-end smoke of the campaign fleet example, under pytest — plus
the dedup-heavy fleet benchmark.

CI used to run ``examples/campaign_fleet.py`` as a bare script step; a
failure there produced an opaque non-zero exit with no test report.
Running it through pytest puts the example in the same reporting
pipeline as every benchmark: assertion context on failure, and the
archived ``campaign_summary.txt`` asserted to actually cover the whole
catalog (streaming iter_runs pass, drained summary, and the export-only
re-run with streamed Pareto frontiers all execute inside ``main()``).

The dedup benchmark runs the design-space-sweep fleet shape — the same
pipeline at four link tiers — with and without the campaign evaluation
cache, asserts the >= 2x evaluation reduction the cache exists for,
and appends a kind-tagged entry to the ``BENCH_explore.json`` trajectory. Every
campaign folds in process, so none is given an executor.
"""

from __future__ import annotations

import importlib.util
import json
import time
from pathlib import Path

EXAMPLE_PATH = (
    Path(__file__).resolve().parent.parent / "examples" / "campaign_fleet.py"
)


def test_campaign_fleet_example_runs_whole_catalog(capsys, results_dir):
    # results_dir (via bench_output) exports BENCH_RESULTS_DIR before the
    # example module resolves SUMMARY_PATH, so the archived summary obeys
    # the BENCH_PUBLISH routing instead of dirtying the tracked tree.
    spec = importlib.util.spec_from_file_location("campaign_fleet", EXAMPLE_PATH)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)

    example.main()

    out = capsys.readouterr().out
    assert "Streaming fleet" in out
    assert "Export-only re-run" in out

    from repro.explore.catalog import load_builtin

    catalog = load_builtin()
    summary = example.SUMMARY_PATH.read_text()
    # Every registered workload appears in the archived fleet summary
    # (scenario names may differ from entry names; count the rows).
    assert summary.count("\n") >= len(catalog) + 2  # rows + header + rule
    for fragment in ("vr-16cam", "faceauth", "snnap", "codec", "harvest"):
        assert fragment in summary, fragment


def test_dedup_heavy_fleet_benchmark(append_trajectory, publish):
    """Same pipeline at four links: the evaluation cache must cut
    cost-model evaluations by >= 2x (here exactly 4x: one compute pass
    serves the whole group) with rows byte-identical to dedup=False."""
    from repro.core.report import TextTable
    from repro.explore import Campaign, load_builtin

    catalog = load_builtin()
    links = ["25g", "400g", "wifi", "low-power"]
    fleet = catalog.build_at_links("compression-throughput", links)

    begin = time.perf_counter()
    baseline = Campaign(fleet, name="dedup-off").run(dedup=False)
    baseline_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    deduped = Campaign(fleet, name="dedup-on").run(dedup=True)
    dedup_seconds = time.perf_counter() - begin

    for lean, full in zip(deduped, baseline):
        assert json.dumps(lean.result.rows) == json.dumps(full.result.rows), lean.name

    stats = deduped.cache_stats
    total = stats["evaluations_computed"] + stats["evaluations_skipped"]
    assert total == sum(run.n_evaluated for run in baseline)
    reduction = total / stats["evaluations_computed"]
    # Acceptance: the dedup-heavy fleet reports >= 2x fewer evaluations.
    assert reduction >= 2.0, stats
    assert stats["evaluations_skipped"] == 3 * fleet[0].count_configs()

    table = TextTable(
        ["fleet", "links", "evals_total", "evals_computed", "evals_skipped",
         "reduction"],
        title="dedup-heavy fleet: one pipeline, four link tiers",
    )
    table.add_row(
        {
            "fleet": "compression-throughput",
            "links": len(links),
            "evals_total": total,
            "evals_computed": stats["evaluations_computed"],
            "evals_skipped": stats["evaluations_skipped"],
            "reduction": reduction,
        }
    )
    publish("campaign_dedup", table.render())
    append_trajectory(
        {
            "kind": "campaign_dedup",
            "fleet": "compression-throughput@4links",
            "scenarios": len(fleet),
            "evaluations_total": total,
            "evaluations_computed": stats["evaluations_computed"],
            "evaluations_skipped": stats["evaluations_skipped"],
            "evaluation_reduction": round(reduction, 3),
            "seconds_dedup_off": round(baseline_seconds, 6),
            "seconds_dedup_on": round(dedup_seconds, 6),
        }
    )
