"""Differential property: an export-only top-k equals the oracle's.

``explore(s, sink=TopKSink(...), collect=False)`` streams lazy batches
into the sink's ranking, and a full ranking drops a whole batch once
its exact best value cannot enter
(:meth:`~repro.explore.vectorized.BatchRows.metric_best`). Whatever it
drops, the ranking must equal
``explore_brute_force(s).top_k(metric, k, maximize)`` byte for byte
(through JSON), in both cost domains and both directions, for ``k`` of
0, 1, 5 and larger than the space.

Chains stress the cases where a bound could part from the rows: fps
pools with ties, ``1e-300`` and ``inf`` (from the compact-rows
strategy), payloads of zero (an ``inf`` uplink rate) and ``inf`` (a
zero rate, or infinite transmit energy), pass rates 0 and 1, and
single-block chains. A space whose ranked metric has a NaN row must
make the export raise, as the row fold does (a
:class:`SinkError` caused by the ranking's NaN error). Each draw ranks
a bounded metric (``total_fps`` / ``total_energy_j``) and an unbounded
one (``compute_fps`` / ``active_seconds``, which always reads its
column), one sink each.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_invariant_compact_rows import PASS_RATES, implementations

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.errors import ConfigurationError, SinkError
from repro.explore import Scenario, TopKSink, explore, explore_brute_force, vectorized
from repro.hw.network import LinkModel

INF = float("inf")
PAYLOADS = (0.0, 10.0, 100.0, INF)
#: Each domain's bounded metric, then an unbounded one.
METRICS = {
    "throughput": ("total_fps", "compute_fps"),
    "energy": ("total_energy_j", "active_seconds"),
}


@st.composite
def export_scenarios(draw):
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=draw(st.sampled_from(PAYLOADS)),
            pass_rate=draw(st.sampled_from(PASS_RATES)),
            implementations=draw(implementations()),
        )
        for i in range(draw(st.integers(1, 4)))
    )
    pipeline = InCameraPipeline(
        name="export",
        sensor_bytes=draw(st.sampled_from((1000.0, INF))),
        blocks=blocks,
        sensor_energy_per_frame=draw(st.sampled_from((0.0, 1e-6))),
    )
    link = LinkModel(
        name="link",
        raw_bps=draw(st.sampled_from((1e4, 1e6))),
        tx_energy_per_bit=draw(st.sampled_from((0.0, 1e-9))),
    )
    domain = draw(st.sampled_from(("throughput", "energy")))
    return Scenario(name="export", pipeline=pipeline, link=link, domain=domain)


def _single_block(domain: str) -> Scenario:
    block = Block(
        name="B0",
        output_bytes=0.0,
        pass_rate=0.0,
        implementations={
            "asic": Implementation("asic", fps=INF, energy_per_frame=1e-6),
            "cpu": Implementation("cpu", fps=1e-300, energy_per_frame=0.0),
        },
    )
    pipeline = InCameraPipeline(name="single", sensor_bytes=1000.0, blocks=(block,))
    link = LinkModel(name="link", raw_bps=1e4, tx_energy_per_bit=1e-9)
    return Scenario(name="single", pipeline=pipeline, link=link, domain=domain)


def _export(scenario, spec, block_rows):
    sink = TopKSink(*spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
        explore(scenario, sink=sink, collect=False)
    return sink


@settings(max_examples=200, deadline=None)
@given(
    export_scenarios(),
    st.sampled_from((0, 1, 5, None)),
    st.booleans(),
    st.sampled_from((0, 1, 5, None)),
    st.booleans(),
    st.sampled_from((1, 4, 1 << 14)),
)
@example(_single_block("throughput"), 1, True, 5, False, 1)
@example(_single_block("energy"), 1, False, None, True, 4)
def test_export_top_k_equals_the_oracle(
    scenario, k, maximize, k_other, maximize_other, block_rows
):
    n = scenario.count_configs()
    bounded, unbounded = METRICS[scenario.domain]
    specs = (
        (bounded, n + 3 if k is None else k, maximize),
        (unbounded, n + 3 if k_other is None else k_other, maximize_other),
    )
    oracle = explore_brute_force(scenario)
    for spec in specs:
        metric, k_metric, flag = spec
        if any(math.isnan(row[metric]) for row in oracle.rows):
            with pytest.raises(SinkError) as failure:
                _export(scenario, spec, block_rows)
            assert isinstance(failure.value.__cause__, ConfigurationError)
            assert "NaN" in str(failure.value.__cause__)
            continue
        sink = _export(scenario, spec, block_rows)
        assert json.dumps(sink.top_k()) == json.dumps(
            oracle.top_k(metric, k_metric, flag)
        ), spec
