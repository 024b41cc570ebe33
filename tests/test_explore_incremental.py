"""Prefix-memoized evaluation, streaming engine, lower-bound pruning.

The correctness gate of the streaming engine: incremental + chunked +
pruned exploration must be *byte-identical* (same rows, same order,
same values) to the brute-force serial engine on the paper's scenarios,
and the prefix walk must agree bit-for-bit with from-scratch cost-model
evaluation on randomized pipelines, orders, and pass-rate overrides.
"""

import gc
import json
import random
from dataclasses import replace
from itertools import islice

import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError, PipelineError
from repro.explore import (
    Campaign,
    Scenario,
    SweepExecutor,
    count_configs,
    explore,
    explore_brute_force,
    iter_configs,
)
from repro.explore.incremental import PrefixEvaluator
from repro.explore.prune import (
    energy_depth_lower_bounds,
    lower_bound_depth_hook,
    throughput_depth_bounds,
)
from repro.hw.network import ETHERNET_25G, RF_BACKSCATTER, LinkModel
from repro.vr.scenarios import build_vr_pipeline


def random_pipeline(rng: random.Random, n_blocks: int | None = None) -> InCameraPipeline:
    """A random pipeline: varying option counts, fps, energies, rates."""
    n_blocks = rng.randint(1, 6) if n_blocks is None else n_blocks
    platforms = ("asic", "cpu", "fpga", "gpu")
    blocks = []
    for i in range(n_blocks):
        impls = {
            p: Implementation(
                p,
                fps=rng.uniform(0.5, 500.0),
                energy_per_frame=rng.uniform(0.0, 1e-3),
                active_seconds=rng.uniform(0.0, 0.5),
            )
            for p in rng.sample(platforms, rng.randint(1, len(platforms)))
        }
        blocks.append(
            Block(
                name=f"B{i}",
                output_bytes=rng.uniform(1.0, 1e6),
                implementations=impls,
                pass_rate=rng.uniform(0.0, 1.0),
            )
        )
    return InCameraPipeline(
        name="rand",
        sensor_bytes=rng.uniform(1.0, 1e6),
        blocks=tuple(blocks),
        sensor_energy_per_frame=rng.uniform(0.0, 1e-3),
    )


def faceauth_scenario(**overrides) -> Scenario:
    """The face-authentication camera as an energy-domain scenario:
    progressive filtering (motion -> detect -> auth) over the
    WISPCam-class backscatter uplink, with trace-derived pass rates."""
    frame = 112.0 * 112.0
    motion = Block(
        name="motion", output_bytes=frame, pass_rate=0.2,
        implementations={
            "asic": Implementation("asic", fps=30.0, energy_per_frame=2.3e-7,
                                   active_seconds=1e-3),
            "mcu": Implementation("mcu", fps=4.0, energy_per_frame=6.1e-5,
                                  active_seconds=0.25),
        },
    )
    detect = Block(
        name="detect", output_bytes=400.0, pass_rate=0.35,
        implementations={
            "asic": Implementation("asic", fps=10.0, energy_per_frame=6.6e-6,
                                   active_seconds=0.1),
            "mcu": Implementation("mcu", fps=0.2, energy_per_frame=9.6e-4,
                                  active_seconds=5.0),
        },
    )
    auth = Block(
        name="auth", output_bytes=4.0, pass_rate=0.5,
        implementations={
            "asic": Implementation("asic", fps=20.0, energy_per_frame=1.8e-6,
                                   active_seconds=0.05),
        },
    )
    pipeline = InCameraPipeline(
        name="faceauth", sensor_bytes=frame, blocks=(motion, detect, auth),
        sensor_energy_per_frame=1.1e-6,
    )
    kwargs = dict(
        name="faceauth", pipeline=pipeline, link=RF_BACKSCATTER,
        domain="energy", energy_budget_j=2e-4,
        pass_rates={"motion": 0.24, "detect": 0.3},
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


def fig10_scenario(**overrides) -> Scenario:
    kwargs = dict(
        name="fig10", pipeline=build_vr_pipeline(), link=ETHERNET_25G,
        target_fps=30.0,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- prefix walk vs from-scratch evaluation (property-style) -------------


@pytest.mark.parametrize("seed", range(8))
def test_prefix_evaluator_matches_from_scratch_throughput(seed):
    rng = random.Random(seed)
    pipeline = random_pipeline(rng)
    model = ThroughputCostModel(LinkModel(name="l", raw_bps=rng.uniform(1e3, 1e9)))
    configs = list(iter_configs(pipeline))
    orders = [configs, list(reversed(configs)), rng.sample(configs, len(configs))]
    for order in orders:
        evaluator = PrefixEvaluator(model)
        for config in order:
            got = evaluator.evaluate(config)
            want = model.evaluate(config)
            # Bit-identical, not approx: the walk replays the same ops.
            assert got.compute_fps == want.compute_fps
            assert got.communication_fps == want.communication_fps
            assert got.slowest_block == want.slowest_block
            assert got.config.platforms == config.platforms


@pytest.mark.parametrize("seed", range(8))
def test_prefix_evaluator_matches_from_scratch_energy(seed):
    rng = random.Random(100 + seed)
    pipeline = random_pipeline(rng)
    model = EnergyCostModel(
        LinkModel(name="l", raw_bps=rng.uniform(1e3, 1e9),
                  tx_energy_per_bit=rng.uniform(0.0, 1e-9))
    )
    overrides_pool = [None]
    names = [b.name for b in pipeline.blocks]
    overrides_pool.append({n: rng.uniform(0.0, 1.0) for n in rng.sample(names, len(names) // 2 + 1)})
    configs = list(iter_configs(pipeline))
    for pass_rates in overrides_pool:
        for order in (configs, rng.sample(configs, len(configs))):
            evaluator = PrefixEvaluator(model, pass_rates)
            for config in order:
                got = evaluator.evaluate(config)
                want = model.evaluate(config, pass_rates)
                assert got.total_energy == want.total_energy
                assert got.block_energies == want.block_energies
                assert got.transmit_energy == want.transmit_energy
                assert got.transmit_rate == want.transmit_rate
                assert got.active_seconds == want.active_seconds
                assert got.sensor_energy == want.sensor_energy


def test_prefix_evaluator_chunking_invariance():
    """Results are independent of how the stream was chunked: a fresh
    evaluator per chunk (memoization never crossing a chunk boundary)
    reproduces one evaluator over the whole stream."""
    rng = random.Random(7)
    pipeline = random_pipeline(rng, n_blocks=5)
    model = ThroughputCostModel(LinkModel(name="l", raw_bps=1e6))
    configs = list(iter_configs(pipeline))
    whole = PrefixEvaluator(model).evaluate_many(configs)
    for size in (1, 3, 7, 1000):
        chunked = []
        for start in range(0, len(configs), size):
            chunk = configs[start : start + size]
            chunked.extend(PrefixEvaluator(model).evaluate_many(chunk))
        assert [(c.compute_fps, c.communication_fps, c.slowest_block) for c in chunked] == [
            (c.compute_fps, c.communication_fps, c.slowest_block) for c in whole
        ]


def test_prefix_evaluator_resets_between_pipelines():
    rng = random.Random(11)
    a, b = random_pipeline(rng, 3), random_pipeline(rng, 4)
    model = EnergyCostModel(LinkModel(name="l", raw_bps=1e6, tx_energy_per_bit=1e-9))
    evaluator = PrefixEvaluator(model)
    interleaved = [c for pair in zip(iter_configs(a), iter_configs(b)) for c in pair]
    for config in interleaved:
        got = evaluator.evaluate(config)
        want = model.evaluate(config)
        assert got.total_energy == want.total_energy
        assert got.active_seconds == want.active_seconds


def test_prefix_evaluator_rejects_pass_rates_for_throughput():
    with pytest.raises(ConfigurationError):
        PrefixEvaluator(ThroughputCostModel(LinkModel(name="l", raw_bps=1.0)), {"A": 0.5})


def test_invalid_trusted_config_raises_pipeline_error():
    pipeline = random_pipeline(random.Random(5), 2)
    config = PipelineConfig.trusted(pipeline, ("no-such-platform",))
    evaluator = PrefixEvaluator(ThroughputCostModel(LinkModel(name="l", raw_bps=1.0)))
    with pytest.raises(PipelineError):
        evaluator.evaluate(config)


@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_evaluator_stays_correct_after_a_failing_config(domain):
    """A mid-walk exception must not leave a stale memoized path behind:
    later evaluations on the same evaluator stay bit-identical."""
    rng = random.Random(17)
    pipeline = random_pipeline(rng, 3)
    link = LinkModel(name="l", raw_bps=1e6, tx_energy_per_bit=1e-9)
    model = (
        ThroughputCostModel(link) if domain == "throughput" else EnergyCostModel(link)
    )
    evaluator = PrefixEvaluator(model)
    configs = list(iter_configs(pipeline, include_empty=False))
    deepest = max(configs, key=lambda c: c.n_in_camera)
    evaluator.evaluate(deepest)  # build a deep memoized path first
    bad = PipelineConfig.trusted(
        pipeline, (deepest.platforms[0], "no-such-platform")
    )
    with pytest.raises(PipelineError):  # fails mid-walk, past the shared prefix
        evaluator.evaluate(bad)
    for config in configs:  # full re-walk, including the old deep path
        got = evaluator.evaluate(config)
        want = model.evaluate(config)
        if domain == "throughput":
            assert (got.compute_fps, got.slowest_block) == (
                want.compute_fps, want.slowest_block
            )
        else:
            assert got.total_energy == want.total_energy
            assert got.block_energies == want.block_energies


def test_evaluator_recovers_from_invalid_pass_rate_mid_walk():
    """The non-KeyError mid-walk failure (a bad pass-rate override)
    must also invalidate the memoized path."""
    rng = random.Random(19)
    pipeline = random_pipeline(rng, 3)
    model = EnergyCostModel(LinkModel(name="l", raw_bps=1e6, tx_energy_per_bit=1e-9))
    evaluator = PrefixEvaluator(model, {pipeline.blocks[2].name: 2.0})
    configs = list(iter_configs(pipeline, include_empty=False))
    deepest = max(configs, key=lambda c: c.n_in_camera)
    with pytest.raises(PipelineError):  # bad override hit at block 2
        evaluator.evaluate(deepest)
    shallow = [c for c in configs if c.n_in_camera <= 2]
    for config in shallow:  # still fine below the faulty block
        got = evaluator.evaluate(config)
        want = model.evaluate(config, evaluator.pass_rates)
        assert got.total_energy == want.total_energy
        assert got.active_seconds == want.active_seconds


def test_label_cache_handles_shared_implementation_objects():
    """One Implementation object registered on two blocks must still
    yield each block's own name in slowest_block (bit-identity)."""
    shared = Implementation("cpu", fps=10.0)
    fast = Implementation("cpu", fps=100.0)
    b1 = Block(name="B1", output_bytes=10.0, implementations={"cpu": shared})
    b2 = Block(name="B2", output_bytes=5.0, implementations={"cpu": shared})
    b0 = Block(name="B0", output_bytes=20.0, implementations={"cpu": fast})
    pipeline = InCameraPipeline(name="shared", sensor_bytes=40.0, blocks=(b0, b1, b2))
    model = ThroughputCostModel(LinkModel(name="l", raw_bps=1e6))
    evaluator = PrefixEvaluator(model)
    for config in iter_configs(pipeline):
        got = evaluator.evaluate(config)
        want = model.evaluate(config)
        assert got.slowest_block == want.slowest_block


# -- byte-identical engine gate (acceptance) ------------------------------


def test_fig10_streaming_byte_identical_to_brute_force():
    scenario = fig10_scenario()
    brute = explore_brute_force(scenario)
    streamed = explore(scenario, chunk_size=4)
    assert json.dumps(streamed.rows) == json.dumps(brute.rows)
    assert streamed.to_json() == brute.to_json()
    assert streamed.to_csv() == brute.to_csv()
    scalar = explore(scenario, chunk_size=4, evaluation="scalar")
    assert json.dumps(scalar.rows) == json.dumps(brute.rows)


def test_faceauth_streaming_byte_identical_to_brute_force():
    scenario = faceauth_scenario()
    brute = explore_brute_force(scenario)
    streamed = explore(scenario, chunk_size=3)
    assert json.dumps(streamed.rows) == json.dumps(brute.rows)
    assert streamed.to_json() == brute.to_json()


# -- lower-bound depth pruning -------------------------------------------


def test_throughput_depth_bounds_exact_and_sound():
    scenario = fig10_scenario()
    pipeline, link = scenario.pipeline, scenario.link
    bounds = throughput_depth_bounds(pipeline, link)
    assert len(bounds) == len(pipeline.blocks) + 1
    brute = explore_brute_force(scenario)
    for row in brute.rows:
        best_compute, comm = bounds[row["n_in_camera"]]
        assert row["compute_fps"] <= best_compute
        assert row["communication_fps"] == comm


def test_energy_depth_lower_bounds_sound():
    scenario = faceauth_scenario()
    lower = energy_depth_lower_bounds(
        scenario.pipeline, scenario.link, scenario.pass_rates
    )
    brute = explore_brute_force(scenario)
    for row in brute.rows:
        assert row["total_energy_j"] >= lower[row["n_in_camera"]] * (1 - 1e-12)


@pytest.mark.parametrize(
    "scenario",
    [
        fig10_scenario(target_fps=16.0),
        fig10_scenario(target_fps=30.0),
        faceauth_scenario(energy_budget_j=6e-5),
        faceauth_scenario(energy_budget_j=2e-4),
    ],
    ids=["fig10-loose", "fig10-paper", "faceauth-tight", "faceauth-loose"],
)
def test_auto_prune_drops_only_provably_infeasible_depths(scenario):
    """Acceptance: pruning is a sound lower bound — the pruned run is
    the brute-force run minus whole infeasible depths, every removed
    row was infeasible, and the feasible set survives untouched."""
    full = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune=True))
    surviving = {row["n_in_camera"] for row in pruned.rows}
    kept = [row for row in full.rows if row["n_in_camera"] in surviving]
    assert json.dumps(pruned.rows) == json.dumps(kept)
    dropped = [row for row in full.rows if row["n_in_camera"] not in surviving]
    assert all(not row["feasible"] for row in dropped)
    assert [r["config"] for r in pruned.feasible] == [
        r["config"] for r in full.feasible
    ]


def test_auto_prune_composes_with_user_depth_hook():
    scenario = fig10_scenario(auto_prune=True, prune_depth=lambda depth: depth == 4)
    rows = explore(scenario).rows
    assert all(row["n_in_camera"] != 4 for row in rows)
    auto_only = explore(fig10_scenario(auto_prune=True)).rows
    expected = [row for row in auto_only if row["n_in_camera"] != 4]
    assert json.dumps(rows) == json.dumps(expected)


def test_auto_prune_bounds_against_the_models_link():
    """The cost model is always built from ``scenario.link``, so the
    bounds and the evaluation read one uplink: on a link that prunes
    every depth and on one that prunes none, the auto-pruned feasible
    set equals the unpruned oracle's."""
    base = fig10_scenario()  # scenario.link = ETHERNET_25G
    for link in (ETHERNET_25G, RF_BACKSCATTER):
        scenario = replace(base, link=link)
        assert scenario.cost_model().link is link
        pruned = explore(replace(scenario, auto_prune=True))
        full = explore_brute_force(scenario)
        assert [r["config"] for r in pruned.feasible] == [
            r["config"] for r in full.feasible
        ]
    assert len(explore_brute_force(base).feasible) > 0


def test_auto_prune_requires_a_constraint():
    with pytest.raises(ConfigurationError):
        fig10_scenario(target_fps=None, auto_prune=True)
    with pytest.raises(ConfigurationError):
        faceauth_scenario(energy_budget_j=None, auto_prune=True)


def test_lower_bound_hook_none_when_unconstrained():
    assert lower_bound_depth_hook(fig10_scenario(target_fps=None)) is None
    assert lower_bound_depth_hook(faceauth_scenario(energy_budget_j=None)) is None


def test_energy_bounds_validate_pass_rate_overrides():
    """An invalid pass-rate override must raise from the pruner exactly
    as it does from evaluation — never silently corrupt the bound (a
    rate > 1 inflates the transmit term and could prune every depth)."""
    scenario = faceauth_scenario(pass_rates={"motion": 5.0})
    with pytest.raises(PipelineError, match="must be in \\[0,1\\]"):
        energy_depth_lower_bounds(scenario.pipeline, scenario.link, scenario.pass_rates)
    with pytest.raises(PipelineError, match="must be in \\[0,1\\]"):
        explore(replace(scenario, auto_prune=True))


# -- per-config prefix pruning within surviving depths --------------------


@pytest.mark.parametrize("target", [10.0, 16.0, 30.0, 100.0])
def test_auto_prune_configs_never_drops_feasible(target):
    """Acceptance: the within-depth pruner is a sound lower bound — the
    pruned run is an exact subsequence of brute force, every dropped
    configuration was compute-infeasible, and the feasible set survives
    byte for byte."""
    scenario = fig10_scenario(target_fps=target)
    full = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune_configs=True))
    surviving = {row["config"] for row in pruned.rows}
    kept = [row for row in full.rows if row["config"] in surviving]
    assert json.dumps(pruned.rows) == json.dumps(kept)
    dropped = [row for row in full.rows if row["config"] not in surviving]
    assert all(row["compute_fps"] < target for row in dropped)
    assert json.dumps(pruned.feasible) == json.dumps(full.feasible)
    # count_configs is now an upper bound, never an undercount.
    assert len(pruned.rows) <= replace(scenario, auto_prune_configs=True).count_configs()


@pytest.mark.parametrize("seed", range(6))
def test_auto_prune_configs_sound_on_random_pipelines(seed):
    rng = random.Random(1000 + seed)
    pipeline = random_pipeline(rng)
    link = LinkModel(name="l", raw_bps=rng.uniform(1e4, 1e8))
    # A target inside the pipeline's rate range, so pruning has work.
    rates = [
        impl.fps for block in pipeline.blocks for impl in block.implementations.values()
    ]
    target = rng.uniform(min(rates), max(rates))
    scenario = Scenario(
        name="rand", pipeline=pipeline, link=link, target_fps=target
    )
    full = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune_configs=True))
    assert json.dumps(pruned.feasible) == json.dumps(full.feasible)
    surviving = {row["config"] for row in pruned.rows}
    assert all(
        row["compute_fps"] < target
        for row in full.rows
        if row["config"] not in surviving
    )


@pytest.mark.parametrize("budget", [5e-5, 2e-4, 1e-3])
def test_energy_prefix_pruning_never_drops_feasible(budget):
    """The energy-domain mirror of the compute-rate pruner: the pruned
    run is an exact subsequence of brute force, every dropped
    configuration was over budget, and the feasible set survives byte
    for byte."""
    scenario = faceauth_scenario(energy_budget_j=budget)
    full = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune_configs=True))
    surviving = {row["config"] for row in pruned.rows}
    kept = [row for row in full.rows if row["config"] in surviving]
    assert json.dumps(pruned.rows) == json.dumps(kept)
    dropped = [row for row in full.rows if row["config"] not in surviving]
    assert all(row["total_energy_j"] > budget for row in dropped)
    assert json.dumps(pruned.feasible) == json.dumps(full.feasible)
    assert len(pruned.rows) <= replace(scenario, auto_prune_configs=True).count_configs()


@pytest.mark.parametrize("seed", range(6))
def test_energy_prefix_pruning_sound_on_random_pipelines(seed):
    rng = random.Random(2000 + seed)
    pipeline = random_pipeline(rng)
    link = LinkModel(
        name="l",
        raw_bps=rng.uniform(1e4, 1e8),
        tx_energy_per_bit=rng.uniform(1e-10, 1e-7),
    )
    # A budget inside the explored cost range, so pruning has work.
    base = Scenario(name="rand", pipeline=pipeline, link=link, domain="energy")
    costs = [row["total_energy_j"] for row in explore_brute_force(base).rows]
    budget = rng.uniform(min(costs), max(costs))
    scenario = replace(base, energy_budget_j=budget)
    full = explore_brute_force(scenario)
    pruned = explore(replace(scenario, auto_prune_configs=True))
    assert json.dumps(pruned.feasible) == json.dumps(full.feasible)
    surviving = {row["config"] for row in pruned.rows}
    assert all(
        row["total_energy_j"] > budget
        for row in full.rows
        if row["config"] not in surviving
    )


def test_energy_prefix_pruning_composes_with_depth_pruner():
    scenario = faceauth_scenario(auto_prune=True, auto_prune_configs=True)
    both = explore(scenario)
    full = explore_brute_force(faceauth_scenario())
    assert json.dumps(both.feasible) == json.dumps(full.feasible)
    assert len(both.rows) < len(full.rows)


def test_energy_prefix_pruner_validates_pass_rate_overrides():
    from repro.explore.prune import energy_prefix_pruner

    scenario = faceauth_scenario(pass_rates={"motion": 1.4})
    with pytest.raises(PipelineError, match="pass rate"):
        energy_prefix_pruner(scenario)


def test_energy_prefix_pruner_none_when_unconstrained():
    from repro.explore.prune import energy_prefix_pruner

    assert energy_prefix_pruner(faceauth_scenario(energy_budget_j=None)) is None
    assert energy_prefix_pruner(fig10_scenario()) is None


def test_auto_prune_configs_composes_with_depth_pruner():
    scenario = fig10_scenario(
        target_fps=30.0, auto_prune=True, auto_prune_configs=True
    )
    both = explore(scenario)
    full = explore_brute_force(fig10_scenario(target_fps=30.0))
    assert json.dumps(both.feasible) == json.dumps(full.feasible)
    # Fig10 at the paper's bar: only the two FPGA-deep configs survive
    # both pruners, and both are feasible.
    assert len(both.rows) == len(both.feasible) == 2


def test_auto_prune_configs_requires_constraint():
    with pytest.raises(ConfigurationError, match="auto_prune_configs"):
        fig10_scenario(target_fps=None, auto_prune_configs=True)
    with pytest.raises(ConfigurationError, match="auto_prune_configs"):
        faceauth_scenario(energy_budget_j=None, auto_prune_configs=True)


def test_auto_pruning_rejects_custom_models():
    """The derived bounds encode the stock models' semantics, and a
    scenario always evaluates under its stock model: a custom model has
    no way into an auto-pruned run. ``Scenario`` takes no ``model=``,
    and the one facade that takes a model object refuses subclasses
    before any bound is derived."""
    from repro.core.offload import OffloadAnalyzer

    class Doubler(ThroughputCostModel):
        def evaluate(self, config):
            cost = super().evaluate(config)
            object.__setattr__(cost, "compute_fps", 2 * cost.compute_fps)
            return cost

    class JustASubclass(ThroughputCostModel):
        pass

    base = fig10_scenario()
    for model in (Doubler(base.link), JustASubclass(base.link)):
        for knob in ({"auto_prune": True}, {"auto_prune_configs": True}):
            with pytest.raises(TypeError, match="model"):
                fig10_scenario(model=model, **knob)
        with pytest.raises(ConfigurationError, match="stock cost models only"):
            OffloadAnalyzer(model)
    pruned = explore(fig10_scenario(auto_prune_configs=True))
    assert json.dumps(pruned.feasible) == json.dumps(
        explore_brute_force(base).feasible
    )


# -- shared depth plan: count_configs with pruning ------------------------


def test_count_configs_matches_pruned_enumeration():
    pipeline = build_vr_pipeline()
    hooks = [
        lambda depth: depth == 0,
        lambda depth: depth % 2 == 1,
        lambda depth: depth >= 3,
    ]
    for hook in hooks:
        assert count_configs(pipeline, prune_depth=hook) == len(
            list(iter_configs(pipeline, prune_depth=hook))
        )
    assert count_configs(pipeline, max_blocks=2, include_empty=False,
                         prune_depth=lambda d: d == 1) == len(
        list(iter_configs(pipeline, max_blocks=2, include_empty=False,
                          prune_depth=lambda d: d == 1))
    )


def test_scenario_count_configs_reports_pruning_savings():
    scenario = fig10_scenario()
    full = scenario.count_configs()
    assert full == count_configs(scenario.pipeline)
    pruned = replace(scenario, auto_prune=True)
    evaluated = len(explore(pruned).rows)
    assert pruned.count_configs() == evaluated < full


# -- streaming / bounded memory ------------------------------------------


def test_explore_streams_chunks_not_the_whole_space(monkeypatch):
    """Acceptance: the engine feeds the fold from the generator —
    the first evaluation happens after at most one chunk of configs has
    been enumerated, never after the whole design space."""
    blocks = tuple(
        Block(
            name=f"B{i}", output_bytes=16.0,
            implementations={
                "x": Implementation("x", fps=10.0),
                "y": Implementation("y", fps=20.0),
            },
        )
        for i in range(11)
    )
    pipeline = InCameraPipeline(name="wide", sensor_bytes=32.0, blocks=blocks)
    total = count_configs(pipeline)
    assert total == 2**12 - 1
    enumerated = 0
    seen_at_first_eval = []

    def counting_hook(config):
        nonlocal enumerated
        enumerated += 1
        return False

    real_finalize = ThroughputCostModel.finalize

    def spy_finalize(self, *args):
        if not seen_at_first_eval:
            seen_at_first_eval.append(enumerated)
        return real_finalize(self, *args)

    monkeypatch.setattr(ThroughputCostModel, "finalize", spy_finalize)
    link = LinkModel(name="l", raw_bps=1e6)
    scenario = Scenario(
        name="wide", pipeline=pipeline, link=link, prune=counting_hook,
    )
    result = explore(scenario, chunk_size=64, evaluation="scalar")
    assert len(result.evaluations) == total
    # Strictly streaming: one chunk (+ the config that closed it) at most.
    assert seen_at_first_eval[0] <= 65


def test_explore_restores_gc_state():
    assert gc.isenabled()
    explore(fig10_scenario())
    assert gc.isenabled()
    gc.disable()
    try:
        explore(fig10_scenario())
        assert not gc.isenabled()
    finally:
        gc.enable()
    # User code in the loop (a per-config prune hook) runs with the GC
    # live, solo on both paths and in a campaign, and the state survives.
    runs = (
        explore,
        lambda scenario: explore(scenario, evaluation="scalar"),
        lambda scenario: Campaign([scenario]).run(),
    )
    for run in runs:
        gc_seen = []
        run(fig10_scenario(prune=lambda config: gc_seen.append(gc.isenabled())))
        assert gc_seen and all(gc_seen)
        assert gc.isenabled()


# -- streaming executor (imap) -------------------------------------------


def _double(x):
    """Module-level for process-pool picklability."""
    return 2 * x


def test_imap_is_lazy_on_unbounded_input():
    executor = SweepExecutor()  # serial
    stream = executor.imap(_double, iter(int, 1))  # infinite zeros... never ends
    assert list(islice(stream, 5)) == [0] * 5


def test_imap_parallel_bounded_window_on_long_input():
    executor = SweepExecutor(workers=2, backend="thread")
    consumed = []

    def items():
        for i in range(100_000):
            consumed.append(i)
            yield i

    stream = executor.imap(_double, items(), chunk_size=10)
    head = list(islice(stream, 30))
    assert head == [2 * i for i in range(30)]
    # Bounded in-flight window: 2*workers chunks of 10, not 100k items.
    assert len(consumed) <= 10 * (2 * 2 + 1) + 30
    stream.close()


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_imap_matches_map_order(backend):
    executor = SweepExecutor(workers=4, backend=backend, chunk_size=5)
    items = list(range(53))
    assert list(executor.imap(_double, items)) == executor.map(_double, items)


def test_imap_propagates_fn_exceptions():
    def boom(x):
        if x == 7:
            raise ValueError("boom at 7")
        return x

    executor = SweepExecutor(workers=2, backend="thread", chunk_size=2)
    out = []
    with pytest.raises(ValueError, match="boom at 7"):
        for value in executor.imap(boom, range(20)):
            out.append(value)
    assert out == list(range(6))  # everything before the failing chunk


def test_imap_degrades_to_serial_on_unpicklable_fn():
    executor = SweepExecutor(workers=2, backend="process", chunk_size=2)
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        assert list(executor.imap(lambda x: x + 1, range(6))) == list(range(1, 7))


def test_imap_empty_input():
    assert list(SweepExecutor(workers=4).imap(_double, [])) == []
    assert list(SweepExecutor().imap(_double, [])) == []


def test_per_call_chunk_size_is_validated():
    """chunk_size=0 must raise, never silently drop the workload."""
    with pytest.raises(ConfigurationError):
        SweepExecutor(workers=2).imap(_double, [1, 2], chunk_size=0)
    for bad in (0, -1):
        with pytest.raises(ConfigurationError):
            explore(fig10_scenario(), chunk_size=bad)


# -- lazy rows on ExplorationResult --------------------------------------


def test_rows_are_lazily_derived_and_cached():
    result = explore(fig10_scenario())
    assert result._rows is None  # nothing built yet
    assert len(result) == len(result.evaluations)
    first = result.rows
    assert result._rows is first  # cached after first access
    assert result.rows is first


def test_exports_stream_without_building_the_row_cache():
    scenario = fig10_scenario()
    result = explore(scenario)
    text_csv = result.to_csv()
    text_json = result.to_json()
    table = result.to_table()
    assert result._rows is None  # exports never forced the cache
    eager = explore_brute_force(scenario)
    assert text_csv == eager.to_csv()
    assert text_json == eager.to_json()
    assert table.n_rows == len(eager.rows)


def test_offload_analyzer_accepts_config_generators():
    """analyze(configs=<generator>) worked pre-streaming (map listed
    items internally) and must keep working."""
    from repro.core.offload import OffloadAnalyzer

    pipeline = build_vr_pipeline()
    analyzer = OffloadAnalyzer(ThroughputCostModel(ETHERNET_25G), target_fps=30.0)
    via_generator = analyzer.analyze(pipeline, configs=iter_configs(pipeline))
    via_default = analyzer.analyze(pipeline)
    assert [c.config.label for c in via_generator.costs] == [
        c.config.label for c in via_default.costs
    ]


def test_rows_setter_still_supported():
    result = explore(fig10_scenario())
    result.rows = [{"config": "a", "feasible": True}]
    assert result.rows == [{"config": "a", "feasible": True}]
    assert len(result) == 1
    assert [r for r in result.iter_rows()] == result.rows
