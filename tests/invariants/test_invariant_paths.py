"""Differential property: every evaluation path equals the oracle.

:func:`~repro.explore.evaluation_path` reports one of four paths, and
each must reproduce :func:`~repro.explore.explore_brute_force` byte for
byte (rows through JSON) in both cost domains:

* ``scalar-memoized`` — ``explore(..., evaluation="scalar")``;
* ``batch-cohort`` — ``explore()`` of an unpruned scenario;
* ``batch-cohort-pruned`` — ``explore()`` under a per-config prune hook
  and, when drawn, ``auto_prune_configs``;
* ``batch-dedup`` — each member of a same-pipeline two-link
  ``Campaign.run(dedup=True)``.

Chains come from the compact-rows strategy (1-5 blocks, tied and
extreme fps, pass rates 0 and 1); the explicit examples pin a
single-block chain at pass rates 0 and 1 in both domains.
"""

from __future__ import annotations

import json
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_invariant_compact_rows import scenarios

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import (
    Campaign,
    Scenario,
    evaluation_path,
    explore,
    explore_brute_force,
)
from repro.hw.network import LinkModel

#: The dedup partner's uplink: a slow one and one with free transmit.
PARTNER_LINKS = (
    LinkModel(name="partner-slow", raw_bps=2e4, tx_energy_per_bit=1e-9),
    LinkModel(name="partner-fast", raw_bps=5e6, tx_energy_per_bit=0.0),
)


def _drop_first_on_cpu(config) -> bool:
    """Per-config prune hook: drop configurations whose first block runs
    on the cpu."""
    return config.platforms[:1] == ("cpu",)


def _single_block(domain: str, pass_rate: float) -> Scenario:
    block = Block(
        name="B0",
        output_bytes=100.0,
        pass_rate=pass_rate,
        implementations={
            "asic": Implementation("asic", fps=60.0, energy_per_frame=1e-6),
            "cpu": Implementation("cpu", fps=5.0, energy_per_frame=2e-6),
        },
    )
    pipeline = InCameraPipeline(
        name="single",
        sensor_bytes=1000.0,
        blocks=(block,),
        sensor_energy_per_frame=1e-6,
    )
    link = LinkModel(name="link", raw_bps=1e5, tx_energy_per_bit=1e-9)
    if domain == "throughput":
        return Scenario(name="single", pipeline=pipeline, link=link, target_fps=30.0)
    return Scenario(
        name="single",
        pipeline=pipeline,
        link=link,
        domain="energy",
        energy_budget_j=1e-5,
        pass_rates={"B0": pass_rate},
    )


def _rows(result) -> str:
    return json.dumps(result.rows)


def _oracle(scenario) -> str:
    return _rows(explore_brute_force(scenario))


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.sampled_from(PARTNER_LINKS))
@example(_single_block("throughput", 0.0), PARTNER_LINKS[0])
@example(_single_block("throughput", 1.0), PARTNER_LINKS[1])
@example(_single_block("energy", 0.0), PARTNER_LINKS[0])
@example(_single_block("energy", 1.0), PARTNER_LINKS[1])
def test_every_path_equals_brute_force(scenario, partner_link):
    drawn = scenario
    plain = replace(drawn, auto_prune_configs=False)
    hooked = replace(drawn, prune=_drop_first_on_cpu)
    paths = {
        "scalar-memoized": (drawn, explore(drawn, evaluation="scalar")),
        "batch-cohort": (plain, explore(plain)),
        "batch-cohort-pruned": (hooked, explore(hooked)),
    }
    for path, (member, result) in paths.items():
        evaluation = "scalar" if path == "scalar-memoized" else "auto"
        assert evaluation_path(member, evaluation=evaluation) == path
        assert _rows(result) == _oracle(member), path
    if drawn.auto_prune_configs:
        assert evaluation_path(drawn) == "batch-cohort-pruned"
        assert _rows(explore(drawn)) == _oracle(drawn)
    fleet = [plain, replace(plain, name="partner", link=partner_link)]
    for member in fleet:
        assert evaluation_path(member, dedup=True) == "batch-dedup"
    result = Campaign(fleet).run(chunk_size=3, dedup=True)
    assert result.cache_stats["scenarios_shared"] == 1
    for run in result:
        assert _rows(run.result) == _oracle(run.scenario), run.name
