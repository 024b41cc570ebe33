"""Fleet-scale columnar dedup benchmark: lazy vs materialized rows.

The paper's fleet shape taken to benchmark scale: ONE pipeline evaluated
at eight link tiers, export-only (``collect=False``) with bounded top-k
sinks. Both campaigns run ``dedup=True``, so they share the columnar
compute fold (the dedup group evaluates prefix states once) and each
member's ``finalize_batch`` of every shared batch; the contrast is
purely what the consumers materialize —

* the baseline wraps each ``TopKSink`` in a row-only sink (it overrides
  only ``write_rows``), so the campaign builds every member row as
  Python cost objects and report dicts, O(rows x members) allocations;
* the lazy campaign hands the ``TopKSink``s the lazy batch views, and
  consumers materialize only frontier/heap survivors.

Asserted, not just recorded: >= 5x wall-clock over the materialized
baseline, survivor rows byte-identical to a solo ``explore()`` fold for
every member, and the campaign's own accounting showing
``rows_materialized`` a small fraction of ``member_rows_closed``. The
entry appends to ``BENCH_explore.json`` under the gated
``campaign_fleet_columnar`` kind.
"""

from __future__ import annotations

import json
import time

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import Campaign, FleetSpec, Scenario, ScenarioCatalog
from repro.explore.engine import evaluation_path, explore
from repro.explore.sink import ResultSink, TopKSink
from repro.hw.network import LinkModel

N_BLOCKS = 9
PLATFORMS = ("asic", "dsp", "gpu")
N_LINKS = 8
TOP_K = 5


def _bench_pipeline() -> InCameraPipeline:
    """A deterministic 9-block, 3-platform chain: 29 524 configurations
    ((3^10 - 1) / 2), big enough that per-row Python object costs
    dominate the materialized finalize."""
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
        name="fleet-bench",
        sensor_bytes=4000.0,
        blocks=tuple(blocks),
        sensor_energy_per_frame=1e-6,
    )


def _bench_links() -> list[LinkModel]:
    """Eight deterministic link tiers spanning five decades of raw rate."""
    return [
        LinkModel(
            name=f"tier{index}",
            raw_bps=10.0 ** (5.0 + 0.6 * index),
            efficiency=0.5 + 0.05 * index,
            tx_energy_per_bit=10.0 ** (-8.5 - 0.3 * index),
        )
        for index in range(N_LINKS)
    ]


def _fresh_sinks(fleet) -> dict[str, TopKSink]:
    return {
        scenario.name: TopKSink("total_energy_j", k=TOP_K, maximize=False)
        for scenario in fleet
    }


class _RowOnlySink(ResultSink):
    """A ``TopKSink`` behind a row-only interface: overriding only
    ``write_rows`` makes the campaign build every member row before the
    heap sees it — the materialized baseline."""

    def __init__(self, inner: TopKSink):
        self.inner = inner

    def write_rows(self, rows) -> None:
        self.inner.write_rows(rows)


def test_fleet_columnar_lazy_vs_materialized(append_trajectory, publish):
    from repro.core.report import TextTable

    catalog = ScenarioCatalog()

    @catalog.register(
        "fleet-bench", "energy", "benchmark-grade 9-block energy chain"
    )
    def _factory(link: LinkModel) -> Scenario:
        return Scenario(
            name="fleet-bench",
            pipeline=_bench_pipeline(),
            link=link,
            domain="energy",
            energy_budget_j=2e-4,
        )

    fleet = catalog.build_fleet(
        FleetSpec(entries=("fleet-bench",), links=tuple(_bench_links()))
    )
    assert len(fleet) == N_LINKS
    for scenario in fleet:
        assert evaluation_path(scenario, dedup=True) == "batch-dedup"

    n_configs = fleet[0].count_configs()

    lazy_sinks = _fresh_sinks(fleet)
    begin = time.perf_counter()
    lazy = Campaign(fleet, name="lazy").run(sinks=lazy_sinks, collect=False, dedup=True)
    lazy_seconds = time.perf_counter() - begin

    materialized_sinks = _fresh_sinks(fleet)
    begin = time.perf_counter()
    materialized = Campaign(fleet, name="materialized").run(
        sinks={name: _RowOnlySink(sink) for name, sink in materialized_sinks.items()},
        collect=False,
        dedup=True,
    )
    materialized_seconds = time.perf_counter() - begin

    # Survivors byte-identical: to the materialized campaign AND to a
    # solo explore() fold of the same sink, for every member.
    for scenario in fleet:
        solo_sink = TopKSink("total_energy_j", k=TOP_K, maximize=False)
        explore(scenario, sink=solo_sink, collect=False)
        reference = json.dumps(solo_sink.top_k())
        assert json.dumps(lazy_sinks[scenario.name].top_k()) == reference, (
            scenario.name
        )
        assert (
            json.dumps(materialized_sinks[scenario.name].top_k()) == reference
        ), scenario.name
    for lean, full in zip(lazy, materialized):
        assert lean.best == full.best, lean.name
        assert lean.pareto() == full.pareto(), lean.name

    # The lazy accounting: the group closed rows x members but consumers
    # materialized only a small fraction (survivors + per-batch winners).
    groups = lazy.cache_stats["dedup_groups"]
    assert len(groups) == 1
    (group_stats,) = groups.values()
    assert group_stats["states_evaluated"] == n_configs
    assert group_stats["member_rows_closed"] == n_configs * N_LINKS
    assert group_stats["rows_materialized"] < group_stats["member_rows_closed"] / 10, (
        group_stats
    )

    speedup = materialized_seconds / lazy_seconds
    # Acceptance: lazy views must beat materializing every member row
    # by >= 5x on this fleet.
    assert speedup >= 5.0, (lazy_seconds, materialized_seconds)

    table = TextTable(
        ["fleet", "links", "configs", "rows_closed", "rows_materialized",
         "lazy_seconds", "materialized_seconds", "speedup"],
        title="fleet-scale columnar dedup: lazy vs materialized rows",
    )
    table.add_row(
        {
            "fleet": "fleet-bench",
            "links": N_LINKS,
            "configs": n_configs,
            "rows_closed": group_stats["member_rows_closed"],
            "rows_materialized": group_stats["rows_materialized"],
            "lazy_seconds": round(lazy_seconds, 4),
            "materialized_seconds": round(materialized_seconds, 4),
            "speedup": round(speedup, 2),
        }
    )
    publish("fleet_columnar", table.render())
    append_trajectory(
        {
            "kind": "campaign_fleet_columnar",
            "fleet": f"fleet-bench@{N_LINKS}links",
            "scenarios": N_LINKS,
            "configs_per_member": n_configs,
            "member_rows_closed": group_stats["member_rows_closed"],
            "rows_materialized": group_stats["rows_materialized"],
            "seconds_lazy": round(lazy_seconds, 6),
            "seconds_materialize": round(materialized_seconds, 6),
            "speedup_lazy_vs_materialize": round(speedup, 2),
        }
    )
