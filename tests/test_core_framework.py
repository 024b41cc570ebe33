"""The in-camera pipeline framework: blocks, configs, cost models."""

import pytest

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import PipelineError
from repro.hw.network import LinkModel


@pytest.fixture()
def toy_pipeline():
    """Sensor 100 B; A halves data, B doubles it; B has two platforms."""
    block_a = Block(
        name="A",
        output_bytes=50.0,
        implementations={"asic": Implementation("asic", fps=100.0,
                                                energy_per_frame=1e-6)},
        pass_rate=0.5,
    )
    block_b = Block(
        name="B",
        output_bytes=200.0,
        implementations={
            "cpu": Implementation("cpu", fps=2.0, energy_per_frame=10e-6),
            "fpga": Implementation("fpga", fps=50.0, energy_per_frame=2e-6),
        },
    )
    return InCameraPipeline(
        name="toy",
        sensor_bytes=100.0,
        blocks=(block_a, block_b),
        sensor_energy_per_frame=5e-6,
    )


@pytest.fixture()
def link():
    return LinkModel(name="toy-link", raw_bps=8000.0, tx_energy_per_bit=1e-9)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------
def test_implementation_validation():
    with pytest.raises(PipelineError):
        Implementation("cpu", fps=0.0)
    with pytest.raises(PipelineError):
        Implementation("cpu", energy_per_frame=-1.0)


@pytest.mark.parametrize("field", ["fps", "energy_per_frame", "active_seconds"])
def test_implementation_rejects_nan_costs(field):
    with pytest.raises(PipelineError):
        Implementation("cpu", **{field: float("nan")})


def test_block_rejects_nan_output_bytes():
    with pytest.raises(PipelineError):
        Block(name="x", output_bytes=float("nan"))
    with pytest.raises(PipelineError):
        Block(name="x", output_bytes=1.0, pass_rate=float("nan"))


def test_block_validation():
    with pytest.raises(PipelineError):
        Block(name="x", output_bytes=-1.0)
    with pytest.raises(PipelineError):
        Block(name="x", output_bytes=1.0, pass_rate=2.0)
    with pytest.raises(PipelineError):
        Block(
            name="x",
            output_bytes=1.0,
            implementations={"cpu": Implementation("gpu")},
        )


def test_block_implementation_lookup(toy_pipeline):
    block = toy_pipeline.block("B")
    assert block.implementation("fpga").fps == 50.0
    with pytest.raises(PipelineError):
        block.implementation("tpu")


def test_with_implementation_copies(toy_pipeline):
    block = toy_pipeline.block("A")
    extended = block.with_implementation(Implementation("mcu", fps=5.0))
    assert "mcu" in extended.implementations
    assert "mcu" not in block.implementations


# ---------------------------------------------------------------------------
# Pipeline / configs
# ---------------------------------------------------------------------------
def test_pipeline_duplicate_names_rejected():
    b = Block(name="X", output_bytes=1.0)
    with pytest.raises(PipelineError):
        InCameraPipeline(name="p", sensor_bytes=1.0, blocks=(b, b))


def test_output_bytes_after_cut(toy_pipeline):
    assert toy_pipeline.output_bytes_after(0) == 100.0
    assert toy_pipeline.output_bytes_after(1) == 50.0
    assert toy_pipeline.output_bytes_after(2) == 200.0
    with pytest.raises(PipelineError):
        toy_pipeline.output_bytes_after(3)


def test_config_platform_validation(toy_pipeline):
    PipelineConfig(toy_pipeline, ("asic", "fpga"))  # valid
    with pytest.raises(PipelineError):
        PipelineConfig(toy_pipeline, ("asic", "tpu"))
    with pytest.raises(PipelineError):
        PipelineConfig(toy_pipeline, ("asic", "fpga", "cpu"))


def test_config_label(toy_pipeline):
    config = PipelineConfig(toy_pipeline, ("asic", "fpga"))
    # Block A has one implementation (no annotation), B has two.
    assert config.label == "S A B(fpga)~"
    assert PipelineConfig(toy_pipeline, ()).label == "S~"


# ---------------------------------------------------------------------------
# Throughput domain
# ---------------------------------------------------------------------------
def test_throughput_cost_slowest_block_binds(toy_pipeline, link):
    model = ThroughputCostModel(link)
    cost = model.evaluate(PipelineConfig(toy_pipeline, ("asic", "cpu")))
    assert cost.compute_fps == 2.0
    assert cost.slowest_block == "B(cpu)"


def test_throughput_cost_comm_from_cut(toy_pipeline, link):
    model = ThroughputCostModel(link)
    raw = model.evaluate(PipelineConfig(toy_pipeline, ()))
    # 100 B = 800 bits over 8000 bps -> 10 FPS.
    assert raw.communication_fps == pytest.approx(10.0)
    assert raw.compute_fps == float("inf")
    assert raw.total_fps == pytest.approx(10.0)
    assert raw.bottleneck == "communication"


def test_throughput_meets_requires_both_axes(toy_pipeline, link):
    model = ThroughputCostModel(link)
    cost = model.evaluate(PipelineConfig(toy_pipeline, ("asic", "fpga")))
    # comm: 200 B -> 5 FPS; compute: 50 FPS.
    assert cost.meets(4.0)
    assert not cost.meets(10.0)
    assert cost.bottleneck == "communication"


# ---------------------------------------------------------------------------
# Energy domain
# ---------------------------------------------------------------------------
def test_energy_cost_gating(toy_pipeline, link):
    model = EnergyCostModel(link)
    cost = model.evaluate(PipelineConfig(toy_pipeline, ("asic", "fpga")))
    # Block A always runs; block B runs on the 50% that pass A.
    assert cost.block_energies["A"] == pytest.approx(1e-6)
    assert cost.block_energies["B"] == pytest.approx(0.5 * 2e-6)
    # Transmission happens for the 50% surviving (B passes everything).
    expected_tx = 0.5 * 200 * 8 * 1e-9
    assert cost.transmit_energy == pytest.approx(expected_tx)
    assert cost.transmit_rate == pytest.approx(0.5)
    assert cost.total_energy == pytest.approx(
        5e-6 + 1e-6 + 1e-6 + expected_tx
    )


def test_energy_cost_measured_rates_override(toy_pipeline, link):
    model = EnergyCostModel(link)
    config = PipelineConfig(toy_pipeline, ("asic", "fpga"))
    cost = model.evaluate(config, pass_rates={"A": 0.1, "B": 1.0})
    assert cost.block_energies["B"] == pytest.approx(0.1 * 2e-6)
    with pytest.raises(PipelineError):
        model.evaluate(config, pass_rates={"A": 1.5})


def test_energy_average_power(toy_pipeline, link):
    model = EnergyCostModel(link)
    cost = model.evaluate(PipelineConfig(toy_pipeline, ("asic",)))
    assert cost.average_power(2.0) == pytest.approx(cost.total_energy * 2.0)
    with pytest.raises(PipelineError):
        cost.average_power(0.0)


def test_energy_filtering_beats_raw_offload(toy_pipeline):
    """The paper's progressive-filtering claim in miniature: when the
    uplink is expensive (the harvested-node regime), running a cheap
    filter block costs less than transmitting everything."""
    expensive_link = LinkModel(name="rf", raw_bps=8000.0, tx_energy_per_bit=1e-8)
    model = EnergyCostModel(expensive_link)
    raw = model.evaluate(PipelineConfig(toy_pipeline, ()))
    filtered = model.evaluate(PipelineConfig(toy_pipeline, ("asic",)))
    assert filtered.total_energy < raw.total_energy
