"""Columnar dedup invariants over seeded random fleets.

PR 8's load-bearing identity: the *lazy columnar* dedup finalize
(``dedup=True``, each member's ``finalize_batch`` of every shared
slice, members handing consumers lazy ``BatchRows`` views) produces
exactly the bytes of the same views fully *materialized* (row-only
sinks build every member row), of a dedup-off campaign,
and of a solo ``explore()`` — for both domains, with pass-rate
variants, collected and export-only, on serial, thread and process
executors. Each member's finalize is the one its solo walk runs, so
equality is byte equality, never tolerance.

The fleet-generator round trip is also a property: every
:class:`~repro.explore.FleetSpec` cell (entry x pass-rate variant)
expands to scenarios sharing one
:func:`~repro.explore.campaign.scenario_compute_key` across the link grid, and
never across cells.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.explore import (
    Campaign,
    FleetSpec,
    SweepExecutor,
    evaluation_path,
    explore,
)
from repro.explore.campaign import scenario_compute_key
from repro.explore.catalog import load_builtin
from repro.explore.sink import CsvSink, MemorySink, ParetoSink, TopKSink

SEEDS = range(10)

#: Process pools pay a per-campaign fork tax; a subset of seeds keeps
#: the cross-backend property honest without dominating suite time.
PROCESS_SEEDS = range(3)


def _solo_rows(fleet):
    return {scenario.name: explore(scenario).rows for scenario in fleet}


def _grouped(fleet):
    """Scenario names per compute key (dedup-eligible scenarios only)."""
    groups: dict = {}
    for scenario in fleet:
        key = scenario_compute_key(scenario)
        if key is not None:
            groups.setdefault(key, []).append(scenario.name)
    return groups


@pytest.mark.parametrize("seed", SEEDS)
def test_lazy_equals_materialize_equals_off_equals_solo(gen, seed):
    """Collected runs: lazy dedup, dedup with every member row
    materialized (row-only sinks), and dedup off return byte-identical
    rows, stats and frontiers, matching solo explore."""
    fleet = gen.fleet(seed)
    solo = _solo_rows(fleet)
    lazy = Campaign(fleet).run(chunk_size=4, dedup=True)
    row_sinks = {scenario.name: MemorySink() for scenario in fleet}
    materialized = Campaign(fleet).run(chunk_size=4, dedup=True, sinks=row_sinks)
    off = Campaign(fleet).run(chunk_size=4, dedup=False)
    for runs in zip(lazy, materialized, off):
        reference = json.dumps(solo[runs[0].name])
        for run in runs:
            assert json.dumps(run.result.rows) == reference, (seed, run.name)
        assert json.dumps(row_sinks[runs[0].name].rows) == reference
        assert len({run.n_feasible for run in runs}) == 1
        assert len({run.pareto_size for run in runs}) == 1
        assert runs[0].best == runs[1].best == runs[2].best
    # The sinks built every member row; the lazy run only what the
    # result's queries touched.
    for lean, full in zip(lazy, materialized):
        assert full.n_materialized >= full.n_evaluated, (seed, full.name)
        assert lean.n_materialized <= full.n_materialized, (seed, lean.name)
    # Both dedup runs share identical *amounts* of work.
    assert (
        lazy.cache_stats["evaluations_skipped"]
        == materialized.cache_stats["evaluations_skipped"]
    )
    assert lazy.cache_stats["shared_sources"] == materialized.cache_stats[
        "shared_sources"
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_export_only_csv_bytes_match_solo(gen, seed):
    """Export-only lazy dedup streams every member's solo CSV bytes,
    and the streamed stats/frontier match the collected run."""
    fleet = gen.fleet(seed)
    buffers = {scenario.name: io.StringIO() for scenario in fleet}
    lean = Campaign(fleet).run(
        chunk_size=3,
        sinks={name: CsvSink(buffer) for name, buffer in buffers.items()},
        collect=False,
        dedup=True,
    )
    collected = Campaign(fleet).run(chunk_size=3, dedup=False)
    for scenario in fleet:
        solo = explore(scenario)
        expected = solo.to_csv() if solo.rows else ""
        assert buffers[scenario.name].getvalue() == expected, (
            seed,
            scenario.name,
        )
    for lean_run, full_run in zip(lean, collected):
        assert lean_run.n_evaluated == full_run.n_evaluated
        assert lean_run.n_feasible == full_run.n_feasible
        assert lean_run.best == full_run.best, (seed, lean_run.name)
        assert lean_run.pareto() == full_run.pareto(), (seed, lean_run.name)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_sinks_materialize_only_survivors(gen, seed):
    """Lazy dedup under columnar sinks keeps every ranking/frontier
    byte-identical to a solo fold while the accounting shows members
    materialized counts, not full row sets."""
    fleet = gen.fleet(seed)
    sinks = {}
    for scenario in fleet:
        metric = (
            "total_fps" if scenario.domain == "throughput" else "total_energy_j"
        )
        sinks[scenario.name] = TopKSink(
            metric, k=3, maximize=scenario.domain == "throughput"
        )
    result = Campaign(fleet).run(
        chunk_size=4, sinks=sinks, collect=False, dedup=True
    )
    for scenario in fleet:
        metric = (
            "total_fps" if scenario.domain == "throughput" else "total_energy_j"
        )
        solo_sink = TopKSink(metric, k=3, maximize=scenario.domain == "throughput")
        solo_sink.write_rows(explore(scenario).rows)
        assert json.dumps(sinks[scenario.name].top_k()) == json.dumps(
            solo_sink.top_k()
        ), (seed, scenario.name)
    groups = result.cache_stats["dedup_groups"]
    assert set(groups) == {
        result[names[0]].name
        for names in _grouped(fleet).values()
        if len(names) > 1
    }
    for stats in groups.values():
        assert stats["states_evaluated"] > 0 or stats["member_rows_closed"] == 0
        assert stats["member_rows_closed"] >= stats["states_evaluated"]
        assert stats["rows_materialized"] >= 0
    for run in result:
        row = run.summary_row()
        assert row["materialized"] == run.n_materialized


@pytest.mark.parametrize("seed", SEEDS)
def test_thread_executor_matches_solo(gen, seed):
    fleet = gen.fleet(seed)
    solo = _solo_rows(fleet)
    result = Campaign(fleet).run(
        SweepExecutor(workers=3, backend="thread"), chunk_size=2, dedup=True
    )
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
            seed,
            run.name,
        )


@pytest.mark.parametrize("seed", PROCESS_SEEDS)
def test_process_executor_matches_solo(gen, seed):
    """A process pool is given but never started (dedup groups and
    stock members fold in the calling process); the lazy group finalize
    still reproduces solo bytes."""
    fleet = gen.fleet(seed)
    solo = _solo_rows(fleet)
    result = Campaign(fleet).run(
        SweepExecutor(workers=2, backend="process"), chunk_size=4, dedup=True
    )
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
            seed,
            run.name,
        )


@pytest.mark.parametrize("seed", range(4))
def test_generator_fleet_round_trips_compute_key_grouping(gen, seed):
    """Every FleetSpec cell (entry x pass-rate variant) shares one
    compute key across the link grid and none across cells, and a lazy
    dedup campaign over the expansion reproduces solo bytes."""
    rng_links = [gen.link(seed * 101 + index) for index in range(3)]
    catalog = load_builtin()
    spec = FleetSpec(
        entries=("compression-throughput", "compression-energy"),
        links=tuple(rng_links),
        pass_rate_variants=(0.5, {"quantize": 0.9}),
    )
    fleet = catalog.build_fleet(spec)
    names = [scenario.name for scenario in fleet]
    assert len(set(names)) == len(names)
    # throughput entry: 1 cell; energy entry: base + 2 variants = 3 cells.
    groups = _grouped(fleet)
    assert len(groups) == 4
    for key, members in groups.items():
        assert len(members) == len(rng_links), (seed, key, members)
        suffixes = {name.split("@")[-1].split("#")[0] for name in members}
        assert len(suffixes) == len(rng_links)
    solo = _solo_rows(fleet)
    result = Campaign(fleet).run(chunk_size=5, dedup=True)
    assert result.cache_stats["scenarios_shared"] == len(fleet) - len(groups)
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
            seed,
            run.name,
        )


@pytest.mark.parametrize("seed", range(4))
def test_pass_rate_sibling_fleets_group_and_match(gen, seed):
    """Hand-built pass-rate fleets: same pipeline and pass table at
    several links share a group; a different pass table splits it."""
    from dataclasses import replace

    pipeline = gen.pipeline(seed, max_blocks=3)
    if not pipeline.blocks:
        pytest.skip("degenerate pipeline")
    rates = {pipeline.blocks[0].name: 0.4}
    base = gen.scenario(
        seed,
        "p0",
        pipeline=pipeline,
        domain="energy",
        pass_rates=dict(rates),
    )
    fleet = [
        base,
        replace(base, name="p1", link=gen.link(seed + 1)),
        replace(
            base,
            name="q0",
            link=gen.link(seed + 2),
            pass_rates={pipeline.blocks[0].name: 0.9},
        ),
    ]
    groups = _grouped(fleet)
    assert sorted(len(members) for members in groups.values()) == [1, 2]
    solo = _solo_rows(fleet)
    result = Campaign(fleet).run(chunk_size=3, dedup=True)
    assert result.cache_stats["scenarios_shared"] == 1
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name]), (
            seed,
            run.name,
        )


def test_invalid_dedup_mode_raises():
    from repro.errors import ConfigurationError

    fleet = [
        s
        for s in [load_builtin().build("compression-throughput")]
    ]
    # dedup= is a plain bool: the retired "lazy"/"materialize" modes,
    # None and truthy non-bools all raise.
    for bogus in ("eager", "lazy", "materialize", None, 1):
        with pytest.raises(ConfigurationError, match="dedup must be"):
            Campaign(fleet).run(dedup=bogus)
        # evaluation_path validates dedup= the same way.
        with pytest.raises(ConfigurationError, match="dedup must be"):
            evaluation_path(fleet[0], dedup=bogus)
