"""Unit coverage for the joint-fleet layer (``repro.explore.joint``):
fleet validation, candidate compression, the threshold max-min search,
the catalog spec expansion, and the per-member report."""

from __future__ import annotations

import json

import pytest

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.core.report import JOINT_SUMMARY_COLUMNS, joint_fleet_summary_table
from repro.errors import ConfigurationError, PipelineError
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    JointCandidate,
    JointFleetScenario,
    JointFleetSpec,
    Scenario,
    explore,
    explore_joint,
    joint_candidates,
    load_builtin,
    member_demand_bps,
    search_joint_assignment,
    vectorized,
)
from repro.explore.joint import JointCandidateSink
from repro.explore.result import best_row
from repro.hw.network import LinkModel
from repro.units import bytes_to_bits


def build_pipeline(n_blocks: int = 3, fps_offset: float = 0.0) -> InCameraPipeline:
    blocks = []
    for i in range(n_blocks):
        implementations = {
            platform: Implementation(
                platform,
                fps=50.0 - 4.0 * i + j + fps_offset,
                energy_per_frame=1e-6 * (j + 1),
                active_seconds=1e-3,
            )
            for j, platform in enumerate(("asic", "cpu", "fpga"))
        }
        blocks.append(
            Block(
                name=f"b{i}",
                output_bytes=900.0 - 250.0 * i,
                implementations=implementations,
            )
        )
    return InCameraPipeline(name="jp", sensor_bytes=1200.0, blocks=tuple(blocks))


LINK = LinkModel(name="shared", raw_bps=400_000.0)


def build_member(name: str, target_fps: float = 30.0, **overrides) -> Scenario:
    params = {
        "name": name,
        "pipeline": build_pipeline(),
        "link": LINK,
        "target_fps": target_fps,
    }
    params.update(overrides)
    return Scenario(**params)


def build_fleet(capacity_bps: float, n: int = 2, **fleet_overrides):
    members = tuple(build_member(f"cam{i}") for i in range(n))
    return JointFleetScenario(
        name="fleet", members=members, capacity_bps=capacity_bps, **fleet_overrides
    )


# -- JointFleetScenario validation ----------------------------------------


def test_fleet_requires_members_and_positive_capacity():
    with pytest.raises(ConfigurationError, match="at least one member"):
        JointFleetScenario(name="f", members=(), capacity_bps=1.0)
    with pytest.raises(ConfigurationError, match="capacity_bps"):
        build_fleet(0.0)
    with pytest.raises(ConfigurationError, match="capacity_bps"):
        build_fleet(float("inf"))
    with pytest.raises(ConfigurationError, match="Scenario instances"):
        JointFleetScenario(name="f", members=("nope",), capacity_bps=1.0)


def test_fleet_requires_unique_targeted_throughput_members():
    member = build_member("cam0")
    with pytest.raises(ConfigurationError, match="unique"):
        JointFleetScenario(name="f", members=(member, member), capacity_bps=1.0)
    untargeted = build_member("cam1", target_fps=None)
    with pytest.raises(ConfigurationError, match="target_fps"):
        JointFleetScenario(name="f", members=(untargeted,), capacity_bps=1.0)
    energy = Scenario(
        name="cam2",
        pipeline=build_pipeline(),
        link=LINK,
        domain="energy",
        energy_budget_j=1e-3,
    )
    with pytest.raises(ConfigurationError, match="throughput-domain"):
        JointFleetScenario(name="f", members=(energy,), capacity_bps=1.0)


def test_fleet_weights_validated_and_mapped():
    with pytest.raises(ConfigurationError, match="align with members"):
        build_fleet(1e6, weights=(1.0,))
    with pytest.raises(ConfigurationError, match="positive"):
        build_fleet(1e6, weights=(1.0, 0.0))
    fleet = build_fleet(1e6, weights=(2.0, 3.0))
    assert fleet.weight_map() == {"cam0": 2.0, "cam1": 3.0}
    assert build_fleet(1e6).weight_map() is None


def test_solo_demand_and_uncontended():
    fleet = build_fleet(1.0)
    # Worst case per member is the raw-offload depth: sensor payload at
    # the target rate; two identical members double it.
    per_member = bytes_to_bits(1200.0) * 30.0
    assert fleet.solo_demand_bps() == pytest.approx(2 * per_member)
    assert not fleet.is_uncontended()
    assert build_fleet(2 * per_member).is_uncontended()


# -- candidate compression -------------------------------------------------


def test_joint_candidates_one_per_depth_first_max_tie_rule():
    member = build_member("cam0")
    rows = explore(member).rows
    candidates = joint_candidates(member, rows)
    depths = [candidate.depth for candidate in candidates]
    assert depths == sorted(set(depths))  # depth-major enumeration order
    for candidate in candidates:
        depth_rows = [
            row
            for row in rows
            if row["feasible"] and row["n_in_camera"] == candidate.depth
        ]
        assert candidate.row is best_row(depth_rows, "total_fps")
        assert candidate.fps == candidate.row["total_fps"]
        assert candidate.demand_bps == member_demand_bps(member, candidate.row)


def test_joint_candidates_drop_infeasible_rows():
    member = build_member("cam0", target_fps=1e9)
    rows = explore(member).rows
    assert joint_candidates(member, rows) == []


# -- the joint search ------------------------------------------------------


def candidate(fps: float, demand: float, depth: int = 0) -> JointCandidate:
    return JointCandidate(
        row={"config": f"c{depth}", "total_fps": fps},
        depth=depth,
        fps=fps,
        demand_bps=demand,
    )


def test_search_maximizes_the_minimum_member_fps():
    candidates = [
        [candidate(50.0, 6.0), candidate(40.0, 2.0)],
        [candidate(45.0, 5.0), candidate(30.0, 1.0)],
    ]
    choice, value, demand, counters = search_joint_assignment(candidates, 11.0)
    assert choice == (0, 0)
    assert value == 45.0
    assert demand == 11.0
    # Tighter capacity forces the cheaper splits.
    choice, value, demand, _ = search_joint_assignment(candidates, 7.0)
    assert choice == (1, 0)
    assert (value, demand) == (40.0, 7.0)
    choice, value, demand, _ = search_joint_assignment(candidates, 3.0)
    assert choice == (1, 1)
    assert (value, demand) == (30.0, 3.0)


def test_search_reports_infeasibility_and_counters():
    # Only rates up to the weakest member's best (45.0) are thresholds:
    # one probe, whose cheapest total 6.0 + 5.0 overflows.
    candidates = [[candidate(50.0, 6.0)], [candidate(45.0, 5.0)]]
    choice, value, demand, counters = search_joint_assignment(candidates, 10.0)
    assert choice is None and value == float("-inf") and demand == 0.0
    assert counters == {
        "n_candidate_space": 1,
        "n_searched": 1,
        "n_capacity_pruned": 1,
    }
    # Thresholds 30, 40, 45: the probe at 40 fits (2.0 + 5.0), the
    # probe at 45 overflows (6.0 + 5.0 > 7.0).
    candidates = [
        [candidate(50.0, 6.0), candidate(40.0, 2.0)],
        [candidate(45.0, 5.0), candidate(30.0, 1.0)],
    ]
    _, value, _, counters = search_joint_assignment(candidates, 7.0)
    assert value == 40.0
    assert counters["n_searched"] == 2
    assert counters["n_capacity_pruned"] == 1
    _, _, _, counters = search_joint_assignment(candidates, 11.0)
    assert counters["n_searched"] == 2
    assert counters["n_capacity_pruned"] == 0
    empty_choice, _, _, empty_counters = search_joint_assignment(
        [[candidate(50.0, 6.0)], []], 100.0
    )
    assert empty_choice is None
    assert empty_counters["n_candidate_space"] == 0


def test_search_ties_break_to_the_first_attaining_assignment():
    # Both of member 0's candidates leave the min at member 1's 20.0;
    # the first (product order) must win.
    candidates = [
        [candidate(50.0, 1.0, depth=0), candidate(60.0, 1.0, depth=1)],
        [candidate(20.0, 1.0)],
    ]
    choice, value, _, _ = search_joint_assignment(candidates, 100.0)
    assert choice == (0, 0)
    assert value == 20.0


# -- explore_joint ---------------------------------------------------------


def test_explore_joint_rejects_non_fleets():
    with pytest.raises(ConfigurationError, match="JointFleetScenario"):
        explore_joint(build_member("cam0"))


def test_explore_joint_summary_and_utilization():
    fleet = build_fleet(build_fleet(1.0).solo_demand_bps())
    result = explore_joint(fleet)
    assert result.feasible
    assert 0.0 < result.utilization <= 1.0
    rows = result.summary_rows()
    assert [row["member"] for row in rows] == ["cam0", "cam1"]
    for row in rows:
        assert row["joint_config"] != "-"
        assert row["capacity_share"] == row["demand_bps"] / fleet.capacity_bps
    table = result.to_table()
    assert table.columns == list(JOINT_SUMMARY_COLUMNS)
    assert "joint fleet" in table.title


def test_explore_joint_infeasible_summary_renders_dashes():
    fleet = build_fleet(1.0)
    result = explore_joint(fleet)
    assert not result.feasible
    assert result.best_assignment is None
    assert result.utilization is None
    for row in result.summary_rows():
        assert row["joint_config"] == "-"
    assert "infeasible" in result.to_table().title


def test_explore_joint_dedup_shares_member_evaluations():
    # Members share a pipeline object -> one dedup group under the
    # default dedup=True: the campaign computes one member's states and
    # finalizes the other from them.
    pipeline = build_pipeline()
    members = tuple(
        build_member(f"cam{i}", pipeline=pipeline) for i in range(3)
    )
    fleet = JointFleetScenario(
        name="trio", members=members, capacity_bps=3 * bytes_to_bits(1200.0) * 30.0
    )
    result = explore_joint(fleet)
    stats = result.campaign.cache_stats
    assert stats["evaluations_skipped"] > 0
    assert result.feasible
    solo = explore(members[0])
    assert json.dumps(result.campaign["cam0"].result.rows) == json.dumps(solo.rows)


def test_explore_joint_collect_false_is_byte_identical():
    """The export-only path (streaming JointCandidateSink, frontier
    tracking off) must produce byte-identical candidates, optimum and
    counters — only the collected member results are absent."""
    pipeline = build_pipeline()
    members = tuple(
        build_member(f"cam{i}", pipeline=pipeline, target_fps=20.0 + 5.0 * i)
        for i in range(3)
    )
    base = JointFleetScenario(name="trio", members=members, capacity_bps=1.0)
    from dataclasses import replace

    for scale in (0.4, 0.7, 1.0):
        fleet = replace(
            base, capacity_bps=max(1.0, scale * base.solo_demand_bps())
        )
        collected = explore_joint(fleet)
        streamed = explore_joint(fleet, collect=False)
        assert streamed.best_choice == collected.best_choice
        assert streamed.best_fleet_fps == collected.best_fleet_fps
        assert streamed.best_demand_bps == collected.best_demand_bps
        assert streamed.counters == collected.counters
        assert json.dumps(
            [[c.row for c in member] for member in streamed.candidates]
        ) == json.dumps(
            [[c.row for c in member] for member in collected.candidates]
        )
        assert streamed.campaign[members[0].name].result is None
        assert collected.campaign[members[0].name].result is not None


def test_joint_candidate_sink_matches_batch_compression(monkeypatch):
    """The sink's reduction against an independent reference: per
    depth, ``best_row`` over the feasible rows, depths in
    first-appearance order. Checked over row chunks, over the cohort
    walk's lazy batches, and through ``joint_candidates``."""
    member = build_member("cam0")
    rows = explore(member).rows
    by_depth: dict[int, list] = {}
    for row in rows:
        if row["feasible"]:
            by_depth.setdefault(row["n_in_camera"], []).append(row)
    reference = json.dumps(
        [best_row(depth_rows, "total_fps") for depth_rows in by_depth.values()]
    )
    assert len(by_depth) > 1

    def candidate_rows(sink):
        return json.dumps([candidate.row for candidate in sink.candidates()])

    # Uneven row chunks exercise cross-chunk first-max merging.
    chunked = JointCandidateSink(member)
    for start in range(0, len(rows), 7):
        chunked.write_rows(rows[start : start + 7])
    assert candidate_rows(chunked) == reference
    # Lazy batches of a 5-row block: spanning ones, then several per
    # descended depth.
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 5)
    batched = JointCandidateSink(member)
    evaluator = BatchPrefixEvaluator(member.cost_model())
    for batch in evaluator.iter_scenario_batches(member):
        batched.write_batch(batch)
    assert candidate_rows(batched) == reference
    assert (
        json.dumps([candidate.row for candidate in joint_candidates(member, rows)])
        == reference
    )


def test_campaign_frontier_opt_out_skips_pareto():
    from _sinks import MemorySink

    members = [build_member("cam0"), build_member("cam1")]
    sinks = {m.name: MemorySink() for m in members}
    campaign = Campaign(members).run(
        sinks=sinks, collect=False, frontier=False
    )
    run = campaign["cam0"]
    assert run.n_evaluated == members[0].count_configs()
    assert run.frontier is None
    with pytest.raises(PipelineError, match="frontier tracking disabled"):
        run.pareto()
    with pytest.raises(PipelineError, match="frontier tracking disabled"):
        run.pareto_size
    # The fleet summary still renders, with no frontier size to report.
    assert run.summary_row()["pareto"] == "-"
    assert "cam0" in campaign.to_table().render()
    # Tracked export-only and collected runs still answer.
    tracked = Campaign(members).run(
        sinks={m.name: MemorySink() for m in members}, collect=False
    )
    collected = Campaign(members).run()
    assert tracked["cam0"].pareto_size == collected["cam0"].pareto_size
    assert json.dumps(tracked["cam0"].pareto()) == json.dumps(
        collected["cam0"].pareto()
    )


def test_joint_result_weighted_completion_defaults_to_fleet_weights():
    fleet = build_fleet(1e9, weights=(3.0, 1.0))
    result = explore_joint(fleet)
    assert result.weighted_completion_seconds() == pytest.approx(
        result.campaign.weighted_completion_seconds({"cam0": 3.0, "cam1": 1.0})
    )
    assert result.weighted_completion_seconds({"cam0": 1.0}) >= 0.0


# -- CampaignResult.weighted_completion_seconds ---------------------------


def test_weighted_completion_seconds_validates_and_averages():
    campaign = Campaign([build_member("cam0"), build_member("cam1")]).run()
    uniform = campaign.weighted_completion_seconds()
    by_hand = sum(run.wall_seconds for run in campaign) / len(campaign)
    assert uniform == pytest.approx(by_hand)
    with pytest.raises(ConfigurationError, match="unknown scenarios"):
        campaign.weighted_completion_seconds({"ghost": 1.0})
    with pytest.raises(ConfigurationError, match="positive"):
        campaign.weighted_completion_seconds({"cam0": -1.0})
    weighted = campaign.weighted_completion_seconds({"cam0": 100.0})
    assert weighted >= 0.0


# -- the WSPT walk order ---------------------------------------------------


def _walk_order(monkeypatch) -> list[tuple[str, ...]]:
    """Record the member names of every cohort walk, in start order."""
    order: list[tuple[str, ...]] = []
    real = BatchPrefixEvaluator.iter_group_batches

    def spy(self, scenarios):
        order.append(tuple(scenario.name for scenario in scenarios))
        return real(self, scenarios)

    monkeypatch.setattr(BatchPrefixEvaluator, "iter_group_batches", spy)
    return order


def test_weighted_completion_policy_orders_by_weight_per_config(monkeypatch):
    small = build_member("small", pipeline=build_pipeline(2))
    large = build_member("large", pipeline=build_pipeline(4))
    one = build_member("one", max_blocks=0)  # only the all-offload config
    empty = build_member("empty", max_blocks=0, include_empty=False)
    assert (one.count_configs(), empty.count_configs()) == (1, 0)
    walks = _walk_order(monkeypatch)
    # Equal weights: shortest-first order, the zero-config scenario
    # ahead of the one-config one placed before it in the fleet.
    runs = Campaign([large, small, one, empty]).iter_runs()
    assert [run.name for run in runs] == ["empty", "one", "small", "large"]
    assert walks == [("empty",), ("one",), ("small",), ("large",)]
    # A heavy-enough weight pulls the large scenario ahead.
    walks.clear()
    runs = Campaign([large, small]).iter_runs(weights={"large": 1e6})
    assert [run.name for run in runs] == ["large", "small"]
    assert walks == [("large",), ("small",)]


def _chain(n_blocks: int) -> InCameraPipeline:
    """``n_blocks`` levels of three platforms: ``(3**(n + 1) - 1) / 2``
    configurations."""
    blocks = tuple(
        Block(
            name=f"b{i}",
            output_bytes=1000.0 / (i + 2),
            implementations={
                platform: Implementation(platform, fps=50.0 + j - i)
                for j, platform in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(name=f"chain{n_blocks}", sensor_bytes=1200.0, blocks=blocks)


def test_dedup_group_weighs_its_members_together(monkeypatch):
    """A dedup group's one walk completes all its members, so WSPT
    divides its configurations by the members' summed weight: four
    29,524-config members (7,381 a member) run before one 9,841-config
    solo member at equal weights."""
    group_pipeline = _chain(9)
    links = [LinkModel(name=f"l{i}", raw_bps=1e5 * (i + 1)) for i in range(4)]
    group = [
        build_member(f"g{i}", pipeline=group_pipeline, link=link)
        for i, link in enumerate(links)
    ]
    solo = build_member("solo", pipeline=_chain(8))
    assert [member.count_configs() for member in (group[0], solo)] == [29_524, 9_841]
    walks = _walk_order(monkeypatch)
    runs = Campaign([solo] + group).iter_runs(collect=False, dedup=True)
    assert [run.name for run in runs] == ["g0", "g1", "g2", "g3", "solo"]
    assert walks == [("g0", "g1", "g2", "g3"), ("solo",)]
    # A weight on the solo member above the group's sum puts it first.
    walks.clear()
    runs = Campaign([solo] + group).iter_runs(
        collect=False, dedup=True, weights={"solo": 1.5}
    )
    assert [run.name for run in runs][0] == "solo"


def test_weighted_completion_policy_validates_weights():
    members = [build_member("cam0")]
    with pytest.raises(ConfigurationError, match="positive"):
        Campaign(members).run(weights={"cam0": 0.0})
    with pytest.raises(ConfigurationError, match="positive"):
        Campaign(members).run(weights={"cam0": float("nan")})
    with pytest.raises(ConfigurationError, match="unknown scenarios"):
        Campaign(members).run(weights={"ghost": 2.0})


def test_weighted_completion_policy_runs_a_campaign():
    members = [build_member("cam0"), build_member("cam1")]
    solo = [explore(member) for member in members]
    campaign = Campaign(members).run(weights={"cam1": 4.0})
    for member, result in zip(members, solo):
        assert json.dumps(campaign[member.name].result.rows) == json.dumps(
            result.rows
        )


def test_explore_joint_completes_members_in_fleet_weighted_wspt_order(monkeypatch):
    """The fleet's weights order the member campaign: ascending
    ``count_configs() / weight``, which here is neither fleet order nor
    shortest-first."""
    members = (
        build_member("small", pipeline=build_pipeline(2)),
        build_member("mid", pipeline=build_pipeline(3, fps_offset=1.0)),
        build_member("large", pipeline=build_pipeline(4, fps_offset=2.0)),
    )
    sizes = [member.count_configs() for member in members]
    assert sizes[0] < sizes[1] < sizes[2]
    weights = (1.0, 1e-3, 1e6)
    fleet = JointFleetScenario(
        name="weighted", members=members, capacity_bps=1e12, weights=weights
    )
    walks = _walk_order(monkeypatch)
    result = explore_joint(fleet)
    assert walks == [("large",), ("small",), ("mid",)]
    done = {run.name: run.wall_seconds for run in result.campaign}
    assert done["large"] <= done["small"] <= done["mid"]
    for member in members:
        assert json.dumps(result.campaign[member.name].result.rows) == json.dumps(
            explore(member).rows
        )


# -- catalog JointFleetSpec ------------------------------------------------


def test_build_joint_fleets_expands_per_shared_link():
    catalog = load_builtin()
    entries = tuple(catalog.names("throughput")[:2])
    spec = JointFleetSpec(entries=entries, shared_links=("25g", "wifi"))
    fleets = catalog.build_joint_fleets(spec)
    assert [fleet.name for fleet in fleets] == ["joint@25GbE", "joint@wifi"]
    for fleet, link_key in zip(fleets, ("25g", "wifi")):
        assert len(fleet.members) == len(entries)
        from repro.explore.catalog import LINKS

        link = LINKS[link_key]
        assert fleet.capacity_bps == link.goodput_bps
        for member in fleet.members:
            assert member.link == link
            assert member.name.endswith(f"@{link.name}")


def test_build_joint_fleets_validates_spec():
    catalog = load_builtin()
    throughput = catalog.names("throughput")[0]
    energy = catalog.names("energy")[0]
    with pytest.raises(ConfigurationError, match="at least one entry"):
        catalog.build_joint_fleets(
            JointFleetSpec(entries=(), shared_links=("25g",))
        )
    with pytest.raises(ConfigurationError, match="shared link"):
        catalog.build_joint_fleets(
            JointFleetSpec(entries=(throughput,), shared_links=())
        )
    with pytest.raises(ConfigurationError, match="throughput"):
        catalog.build_joint_fleets(
            JointFleetSpec(entries=(energy,), shared_links=("25g",))
        )


def test_build_joint_fleets_capacity_and_weights_forwarded():
    catalog = load_builtin()
    entry = catalog.names("throughput")[0]
    spec = JointFleetSpec(
        entries=(entry,),
        shared_links=("25g",),
        capacity_bps=123.0,
        weights=(2.0,),
    )
    (fleet,) = catalog.build_joint_fleets(spec)
    assert fleet.capacity_bps == 123.0
    assert fleet.weights == (2.0,)


# -- report ----------------------------------------------------------------


def test_joint_summary_table_appends_extra_columns_in_order():
    rows = [
        {key: 1 for key in JOINT_SUMMARY_COLUMNS} | {"extra": "x"},
        {key: 2 for key in JOINT_SUMMARY_COLUMNS} | {"other": "y"},
    ]
    table = joint_fleet_summary_table(rows)
    assert table.columns == list(JOINT_SUMMARY_COLUMNS) + ["extra", "other"]
    assert table.title == "joint fleet summary"


def test_best_row_first_max_and_empty():
    rows = [{"m": 1.0}, {"m": 3.0}, {"m": 3.0}]
    assert best_row(rows, "m") is rows[1]
    assert best_row(rows, "m", maximize=False) is rows[0]
    with pytest.raises(PipelineError, match="no rows"):
        best_row([], "m")
