"""Campaign-level cross-scenario evaluation dedup.

The acceptance gates of the campaign's dedup groups: a fleet running
the same pipeline at several links evaluates its compute-side states
once (cache stats prove the skipped evaluations), every member's rows
stay byte-identical to solo ``explore()`` and to a ``dedup=False`` run,
the cache key separates the pipeline-chain fingerprint from the
platform-axis fingerprint so structurally identical pipelines with
different implementation prices can never poison each other's entries,
and the stress paths hold: zero-config scenarios inside a dedup fleet,
export-only dedup campaigns, and a process-pool executor (the groups
fold in the calling process, so no states cross a process boundary).
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import (
    implementation_fingerprint,
    platform_axis_fingerprint,
)
from repro.core.pipeline import InCameraPipeline
from repro.explore import (
    Campaign,
    CsvSink,
    Scenario,
    SweepExecutor,
    explore,
    vectorized,
)
from repro.explore.campaign import scenario_compute_key
from repro.hw.network import ETHERNET_25G, RF_BACKSCATTER, WIFI_CLASS, LinkModel


def _pipeline(impl_fps: float = 30.0, name: str = "p") -> InCameraPipeline:
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=float(400 - 100 * i),
            pass_rate=0.8,
            implementations={
                "asic": Implementation(
                    "asic", fps=impl_fps + i, energy_per_frame=1e-6, active_seconds=1e-3
                ),
                "cpu": Implementation(
                    "cpu", fps=impl_fps + 2 * i, energy_per_frame=3e-6,
                    active_seconds=2e-3,
                ),
            },
        )
        for i in range(3)
    )
    return InCameraPipeline(
        name=name, sensor_bytes=1000.0, blocks=blocks, sensor_energy_per_frame=1e-6
    )


# -- fingerprints --------------------------------------------------------


def test_pipeline_fingerprint_covers_chain_not_label_or_axis():
    base = _pipeline()
    assert base.fingerprint() == _pipeline().fingerprint()
    # The report label is excluded: identical chains dedup across names.
    assert base.fingerprint() == _pipeline(name="other").fingerprint()
    # The platform axis is excluded (fingerprinted separately).
    assert base.fingerprint() == _pipeline(impl_fps=99.0).fingerprint()
    # Chain structure is covered: payloads, pass rates, sensor terms.
    changed = replace(base, sensor_bytes=999.0)
    assert base.fingerprint() != changed.fingerprint()
    changed = replace(base, sensor_energy_per_frame=2e-6)
    assert base.fingerprint() != changed.fingerprint()
    reblocked = replace(
        base, blocks=(replace(base.blocks[0], pass_rate=0.5),) + base.blocks[1:]
    )
    assert base.fingerprint() != reblocked.fingerprint()


def test_platform_axis_fingerprint_covers_implementation_costs():
    base = _pipeline()
    assert platform_axis_fingerprint(base) == platform_axis_fingerprint(_pipeline())
    # Any cost field of any implementation changes the axis.
    assert platform_axis_fingerprint(base) != platform_axis_fingerprint(
        _pipeline(impl_fps=31.0)
    )
    impl = base.blocks[0].implementations["asic"]
    assert implementation_fingerprint(impl) == (
        "asic", impl.fps, impl.energy_per_frame, impl.active_seconds
    )
    richer = replace(
        base,
        blocks=(
            base.blocks[0].with_implementation(Implementation("fpga", fps=50.0)),
        )
        + base.blocks[1:],
    )
    assert platform_axis_fingerprint(base) != platform_axis_fingerprint(richer)


# -- the compute key -----------------------------------------------------


def test_compute_key_shares_across_links_only():
    pipeline = _pipeline()
    at_25g = Scenario(name="a", pipeline=pipeline, link=ETHERNET_25G, target_fps=30.0)
    at_wifi = Scenario(name="b", pipeline=pipeline, link=WIFI_CLASS, target_fps=30.0)
    assert scenario_compute_key(at_25g) == scenario_compute_key(at_wifi)
    # Different targets share too (feasibility is a row verdict, not a
    # cost): the key is about what gets *evaluated*.
    retargeted = replace(at_25g, target_fps=60.0)
    assert scenario_compute_key(at_25g) == scenario_compute_key(retargeted)
    # Domain, enumeration bounds and pass rates all split the key.
    energy = Scenario(name="c", pipeline=pipeline, link=ETHERNET_25G, domain="energy")
    assert scenario_compute_key(at_25g) != scenario_compute_key(energy)
    assert scenario_compute_key(at_25g) != scenario_compute_key(
        replace(at_25g, max_blocks=1)
    )
    assert scenario_compute_key(at_25g) != scenario_compute_key(
        replace(at_25g, include_empty=False)
    )
    assert scenario_compute_key(energy) != scenario_compute_key(
        replace(energy, pass_rates={"B0": 0.5})
    )


def test_compute_key_ineligible_scenarios():
    pipeline = _pipeline()
    base = Scenario(name="a", pipeline=pipeline, link=ETHERNET_25G, target_fps=30.0)
    assert scenario_compute_key(base) is not None
    # Pruned streams depend on constraint and link: never shared.
    assert scenario_compute_key(replace(base, auto_prune=True)) is None
    assert scenario_compute_key(replace(base, auto_prune_configs=True)) is None
    assert scenario_compute_key(replace(base, prune=lambda c: False)) is None
    assert scenario_compute_key(replace(base, prune_depth=lambda d: False)) is None


def test_cache_poisoning_guard_same_chain_different_axis():
    """Two scenarios whose pipelines share a *chain* fingerprint but
    differ in platform axis must not share cache entries — and their
    campaign results must prove it by matching their own solo runs."""
    cheap = _pipeline(impl_fps=30.0)
    fast = _pipeline(impl_fps=90.0)
    assert cheap.fingerprint() == fast.fingerprint()
    assert platform_axis_fingerprint(cheap) != platform_axis_fingerprint(fast)
    fleet = [
        Scenario(name="cheap", pipeline=cheap, link=ETHERNET_25G, target_fps=30.0),
        Scenario(name="fast", pipeline=fast, link=ETHERNET_25G, target_fps=30.0),
    ]
    assert scenario_compute_key(fleet[0]) != scenario_compute_key(fleet[1])
    result = Campaign(fleet).run(dedup=True)
    assert result.cache_stats["scenarios_shared"] == 0
    assert result.cache_stats["evaluations_skipped"] == 0
    for run in result:
        assert run.dedup_source is None
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_grouping_fingerprints_each_pipeline_once_per_run(monkeypatch):
    """A run hashes each distinct pipeline object once, however many
    members carry it, and keeps no memo past the run: twin pipelines
    that share a group stop sharing once one of them is re-priced."""
    from repro.explore import campaign

    calls = []
    real = campaign.platform_axis_fingerprint
    monkeypatch.setattr(
        campaign,
        "platform_axis_fingerprint",
        lambda pipeline: calls.append(pipeline) or real(pipeline),
    )
    shared, twin = _pipeline(), _pipeline()
    fleet = [
        Scenario(name=f"s{i}", pipeline=pipeline, link=link, target_fps=30.0)
        for i, (pipeline, link) in enumerate(
            [(shared, ETHERNET_25G), (shared, WIFI_CLASS), (twin, ETHERNET_25G),
             (shared, RF_BACKSCATTER), (twin, WIFI_CLASS)]
        )
    ]
    result = Campaign(fleet).run(dedup=True, collect=False)
    assert [id(p) for p in calls] == [id(shared), id(twin)]
    assert result.cache_stats["scenarios_shared"] == 4
    # The platform axis is mutable: a table edited between runs is
    # hashed afresh, so the twin leaves the group.
    key = scenario_compute_key(fleet[2])
    twin.blocks[0].implementations["asic"] = Implementation("asic", fps=77.0)
    assert scenario_compute_key(fleet[2]) != key
    calls.clear()
    result = Campaign(fleet).run(dedup=True)
    assert len(calls) == 2
    assert result.cache_stats["scenarios_shared"] == 3
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


# -- dedup campaigns -----------------------------------------------------


def _link_fleet(domain: str = "throughput") -> list[Scenario]:
    pipeline = _pipeline()
    links = [ETHERNET_25G, WIFI_CLASS, RF_BACKSCATTER, LinkModel("slow", raw_bps=1e5)]
    if domain == "throughput":
        return [
            Scenario(
                name=f"s@{link.name}", pipeline=pipeline, link=link, target_fps=25.0
            )
            for link in links
        ]
    return [
        Scenario(
            name=f"s@{link.name}",
            pipeline=pipeline,
            link=link,
            domain="energy",
            energy_budget_j=1e-3,
            pass_rates={"B1": 0.6},
        )
        for link in links
    ]


@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_dedup_campaign_byte_identical_and_skips_evaluations(domain, monkeypatch):
    """Acceptance: the same pipeline at 4 links evaluates once — 3/4 of
    the cost-model evaluations are skipped — with per-scenario rows
    byte-identical to dedup=False and to solo explore()."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    fleet = _link_fleet(domain)
    with_dedup = Campaign(fleet).run(
        SweepExecutor(workers=3, backend="thread"), dedup=True
    )
    without = Campaign(fleet).run(dedup=False)
    for lean, full in zip(with_dedup, without):
        assert json.dumps(lean.result.rows) == json.dumps(full.result.rows)
        assert json.dumps(lean.result.rows) == json.dumps(
            explore(lean.scenario).rows
        ), lean.name
        assert lean.n_feasible == full.n_feasible
        assert lean.pareto_size == full.pareto_size
    stats = with_dedup.cache_stats
    assert stats["dedup"] is True
    assert stats["scenarios_shared"] == 3
    assert stats["evaluations_computed"] == fleet[0].count_configs()
    assert stats["evaluations_skipped"] == 3 * fleet[0].count_configs()
    assert without.cache_stats["evaluations_skipped"] == 0
    # Provenance: followers name their leader; the leader names no one.
    assert with_dedup.runs[0].dedup_source is None
    for run in with_dedup.runs[1:]:
        assert run.dedup_source == fleet[0].name
    # The summary table surfaces the dedup column.
    rendered = with_dedup.to_table().render()
    assert "dedup" in rendered and fleet[0].name in rendered


def test_dedup_campaign_process_backend_round_trips():
    fleet = _link_fleet("energy")[:2]
    result = Campaign(fleet).run(
        SweepExecutor(workers=2, backend="process"), dedup=True
    )
    assert result.cache_stats["evaluations_skipped"] == fleet[0].count_configs()
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_dedup_campaign_streams_sinks_and_export_only(monkeypatch):
    """Followers' sinks receive exactly the solo CSV bytes, also under
    collect=False (export-only dedup), and the streamed frontier/stats
    match the collected run."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 3)  # many batches a walk
    fleet = _link_fleet("throughput")
    buffers = {scenario.name: io.StringIO() for scenario in fleet}
    lean = Campaign(fleet).run(
        sinks={name: CsvSink(buffer) for name, buffer in buffers.items()},
        collect=False,
        dedup=True,
    )
    collected = Campaign(fleet).run()
    for scenario in fleet:
        assert buffers[scenario.name].getvalue() == explore(scenario).to_csv(), (
            scenario.name
        )
    for thin, full in zip(lean, collected):
        assert thin.result is None
        assert thin.n_evaluated == full.n_evaluated
        assert thin.best == full.best
        assert json.dumps(thin.pareto()) == json.dumps(full.pareto())


def test_dedup_with_iter_runs_streams_followers_with_leader():
    """Followers complete the moment their leader does: iter_runs hands
    out the whole group together, results identical to solo."""
    fleet = _link_fleet("throughput")
    runs = list(Campaign(fleet).iter_runs(dedup=True))
    assert {run.name for run in runs} == {scenario.name for scenario in fleet}
    for run in runs:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_zero_config_scenario_inside_dedup_fleet():
    """A zero-configuration scenario (no empty config, no blocks) rides
    a fleet — dedup on and off — without wedging completion detection."""
    empty_pipeline = InCameraPipeline(name="none", sensor_bytes=1.0, blocks=())
    empty = Scenario(
        name="empty",
        pipeline=empty_pipeline,
        link=ETHERNET_25G,
        include_empty=False,
    )
    fleet = [empty, *_link_fleet("throughput")[:2]]
    for dedup in (False, True):
        result = Campaign(fleet).run(dedup=dedup)
        assert result["empty"].n_evaluated == 0
        assert result["empty"].best is None
        assert result["empty"].pareto_size == 0
        for run in result:
            if run.name != "empty":
                assert json.dumps(run.result.rows) == json.dumps(
                    explore(run.scenario).rows
                )


def test_two_zero_config_scenarios_can_share_a_key():
    """Degenerate dedup group: leader and follower both enumerate zero
    chunks; both complete with empty results."""
    pipeline = InCameraPipeline(name="none", sensor_bytes=1.0, blocks=())
    fleet = [
        Scenario(name="a", pipeline=pipeline, link=ETHERNET_25G, include_empty=False),
        Scenario(name="b", pipeline=pipeline, link=WIFI_CLASS, include_empty=False),
    ]
    assert scenario_compute_key(fleet[0]) == scenario_compute_key(fleet[1])
    result = Campaign(fleet).run(dedup=True)
    assert [run.n_evaluated for run in result] == [0, 0]


def test_dedup_group_with_identical_links_reuses_too():
    """Same pipeline, same link, different names/targets: a legitimate
    group (the degenerate same-link case) — still byte-identical."""
    pipeline = _pipeline()
    fleet = [
        Scenario(name="a", pipeline=pipeline, link=ETHERNET_25G, target_fps=25.0),
        Scenario(name="b", pipeline=pipeline, link=ETHERNET_25G, target_fps=32.0),
    ]
    result = Campaign(fleet).run(dedup=True)
    assert result.cache_stats["evaluations_skipped"] == fleet[0].count_configs()
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)
