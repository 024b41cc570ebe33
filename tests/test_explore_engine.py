"""The exploration engine: scenarios, lazy enumeration, both domains."""

from itertools import islice

import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.offload import OffloadAnalyzer, enumerate_configs
from repro.core.pipeline import InCameraPipeline
from repro.errors import ConfigurationError, PipelineError
from repro.explore import Scenario, explore
from repro.explore.enumerate import count_configs, iter_configs
from repro.hw.network import ETHERNET_25G, LinkModel
from repro.vr.scenarios import build_vr_pipeline


@pytest.fixture()
def pipeline():
    a = Block(
        name="A",
        output_bytes=40.0,
        pass_rate=0.5,
        implementations={
            "asic": Implementation(
                "asic", fps=100.0, energy_per_frame=1e-6, active_seconds=0.01
            )
        },
    )
    b = Block(
        name="B",
        output_bytes=10.0,
        implementations={
            "cpu": Implementation(
                "cpu", fps=1.0, energy_per_frame=5e-6, active_seconds=0.2
            ),
            "fpga": Implementation(
                "fpga", fps=40.0, energy_per_frame=2e-6, active_seconds=0.02
            ),
        },
    )
    return InCameraPipeline(
        name="p", sensor_bytes=80.0, blocks=(a, b), sensor_energy_per_frame=3e-6
    )


@pytest.fixture()
def link():
    return LinkModel(name="l", raw_bps=8 * 40.0 * 35, tx_energy_per_bit=1e-9)


# -- lazy enumeration ----------------------------------------------------


def test_iter_configs_matches_eager_enumeration(pipeline):
    lazy = list(iter_configs(pipeline))
    eager = enumerate_configs(pipeline)
    assert [c.platforms for c in lazy] == [c.platforms for c in eager]


def test_iter_configs_is_lazy():
    # 14 blocks x 2 platforms each = 2^15 - 1 configs; taking three must
    # not materialize the space.
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=1.0,
            implementations={
                "x": Implementation("x"),
                "y": Implementation("y"),
            },
        )
        for i in range(14)
    )
    big = InCameraPipeline(name="big", sensor_bytes=1.0, blocks=blocks)
    first_three = list(islice(iter_configs(big), 3))
    assert [c.platforms for c in first_three] == [(), ("x",), ("y",)]
    assert count_configs(big) == 2**15 - 1


def test_iter_configs_validates_eagerly(pipeline):
    with pytest.raises(PipelineError):
        iter_configs(pipeline, max_blocks=5)  # before any next()


def test_prune_hook_filters_without_reordering(pipeline):
    no_cpu = list(iter_configs(pipeline, prune=lambda c: "cpu" in c.platforms))
    everything = list(iter_configs(pipeline))
    kept = [c.platforms for c in everything if "cpu" not in c.platforms]
    assert [c.platforms for c in no_cpu] == kept


def test_prune_hook_sequence(pipeline):
    hooks = (
        lambda c: "cpu" in c.platforms,
        lambda c: c.n_in_camera == 0,
    )
    configs = list(iter_configs(pipeline, prune=hooks))
    assert [c.platforms for c in configs] == [("asic",), ("asic", "fpga")]


def test_prune_depth_skips_whole_levels(pipeline):
    seen_depths = []

    def depth_hook(depth):
        seen_depths.append(depth)
        return depth == 1

    configs = list(iter_configs(pipeline, prune_depth=depth_hook))
    assert [c.n_in_camera for c in configs] == [0, 2, 2]
    assert seen_depths == [0, 1, 2]


def test_count_configs_caps_and_gaps(pipeline):
    assert count_configs(pipeline) == 4
    assert count_configs(pipeline, max_blocks=1) == 2
    assert count_configs(pipeline, include_empty=False) == len(
        list(iter_configs(pipeline, include_empty=False))
    )
    assert count_configs(pipeline, max_blocks=0, include_empty=False) == 0
    gap = InCameraPipeline(
        name="gap",
        sensor_bytes=1.0,
        blocks=(Block(name="A", output_bytes=1.0),),
    )
    assert count_configs(gap) == 1


# -- scenario validation -------------------------------------------------


def test_scenario_rejects_bad_domain(pipeline, link):
    with pytest.raises(ConfigurationError):
        Scenario(name="s", pipeline=pipeline, link=link, domain="latency")


def test_scenario_rejects_mismatched_constraints(pipeline, link):
    with pytest.raises(ConfigurationError):
        Scenario(name="s", pipeline=pipeline, link=link, target_fps=0.0)
    with pytest.raises(ConfigurationError):
        Scenario(
            name="s", pipeline=pipeline, link=link,
            domain="energy", energy_budget_j=-1.0,
        )
    with pytest.raises(ConfigurationError):
        Scenario(
            name="s", pipeline=pipeline, link=link,
            domain="throughput", energy_budget_j=1.0,
        )
    with pytest.raises(ConfigurationError):
        Scenario(
            name="s", pipeline=pipeline, link=link,
            domain="energy", target_fps=30.0,
        )
    with pytest.raises(ConfigurationError):
        Scenario(
            name="s", pipeline=pipeline, link=link, pass_rates={"A": 0.5},
        )


# -- throughput domain ---------------------------------------------------


def test_explore_throughput_rows_match_cost_model(pipeline, link):
    scenario = Scenario(
        name="s", pipeline=pipeline, link=link, target_fps=30.0
    )
    result = explore(scenario)
    model = ThroughputCostModel(link)
    assert len(result.rows) == 4
    for row, config in zip(result.rows, iter_configs(pipeline)):
        cost = model.evaluate(config)
        assert row["config"] == config.label
        assert row["compute_fps"] == cost.compute_fps
        assert row["communication_fps"] == cost.communication_fps
        assert row["total_fps"] == cost.total_fps
        assert row["bottleneck"] == cost.bottleneck
        assert row["feasible"] == cost.meets(30.0)


def test_explore_without_target_marks_all_feasible(pipeline, link):
    scenario = Scenario(name="s", pipeline=pipeline, link=link)
    result = explore(scenario)
    assert len(result.feasible) == len(result.rows)


def test_scenario_reproduces_seed_fig10_verdicts():
    """Acceptance: one Scenario run yields the same feasible set and the
    same best configuration as evaluating the eager enumeration directly
    (the seed's OffloadAnalyzer semantics)."""
    pipeline = build_vr_pipeline()
    model = ThroughputCostModel(ETHERNET_25G)
    costs = [model.evaluate(c) for c in enumerate_configs(pipeline)]
    seed_feasible = [c.config.label for c in costs if c.meets(30.0)]
    seed_best = max(costs, key=lambda c: c.total_fps).config.label

    scenario = Scenario(
        name="fig10", pipeline=pipeline, link=ETHERNET_25G, target_fps=30.0
    )
    result = explore(scenario)
    assert [r["config"] for r in result.feasible] == seed_feasible
    assert result.best["config"] == seed_best

    # The analyzer facade routes through the same engine and agrees.
    report = OffloadAnalyzer(model, target_fps=30.0).analyze(pipeline)
    assert [c.config.label for c in report.feasible] == seed_feasible
    assert report.best.config.label == seed_best


def test_scenario_prune_reaches_engine(pipeline, link):
    scenario = Scenario(
        name="s", pipeline=pipeline, link=link, target_fps=30.0,
        prune=lambda c: "cpu" in c.platforms,
    )
    result = explore(scenario)
    assert all("cpu" not in r["platforms"] for r in result.rows)
    assert len(result.rows) == 3


# -- energy domain -------------------------------------------------------


def test_explore_energy_rows_match_cost_model(pipeline, link):
    scenario = Scenario(
        name="s", pipeline=pipeline, link=link, domain="energy",
        energy_budget_j=1e-5,
    )
    result = explore(scenario)
    model = EnergyCostModel(link)
    for row, config in zip(result.rows, iter_configs(pipeline)):
        cost = model.evaluate(config)
        assert row["config"] == config.label
        assert row["total_energy_j"] == pytest.approx(cost.total_energy)
        assert row["transmit_energy_j"] == pytest.approx(cost.transmit_energy)
        assert row["transmit_rate"] == pytest.approx(cost.transmit_rate)
        assert row["active_seconds"] == pytest.approx(cost.active_seconds)
        assert row["feasible"] == (cost.total_energy <= 1e-5)
    # Progressive filtering: block A passes half the frames, so deeper
    # cuts transmit less often.
    assert result.rows[1]["transmit_rate"] == pytest.approx(0.5)


def test_explore_energy_pass_rate_override(pipeline, link):
    base = explore(
        Scenario(name="s", pipeline=pipeline, link=link, domain="energy")
    )
    overridden = explore(
        Scenario(
            name="s", pipeline=pipeline, link=link, domain="energy",
            pass_rates={"A": 0.1},
        )
    )
    assert overridden.rows[1]["transmit_rate"] == pytest.approx(0.1)
    assert (
        overridden.rows[1]["transmit_energy_j"]
        < base.rows[1]["transmit_energy_j"]
    )


def test_explore_energy_best_is_min_energy(pipeline, link):
    result = explore(
        Scenario(name="s", pipeline=pipeline, link=link, domain="energy")
    )
    assert result.best["total_energy_j"] == min(
        r["total_energy_j"] for r in result.rows
    )
