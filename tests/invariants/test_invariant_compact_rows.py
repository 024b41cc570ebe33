"""Shrinking property tests for the cohort walk's compact rows.

The walk folds per row only what a row's platform choices cannot
recover: the running fps and a slowest-level code (throughput), or the
running compute energy and active seconds (energy). Labels, per-block
energies and full choice rows are decoded only when rows materialize.
Hypothesis draws chains that stress that decoding:

* fps values from a small pool, so ties across platforms and blocks
  are common (the first minimum must name the label), with ``1e-300``
  and ``inf`` among them;
* pass rates of exactly 0 and 1;
* ``auto_prune_configs`` on and off, so prune masks compact levels
  (kept positions) or leave them whole (implicit positions), and
  late-collapsing payloads, so the energy bound's ``emit_mask`` drops
  rows from emitted batches only;
* a shrunken ``vectorized._BLOCK_ROWS``, so deep depths descend in
  blocks and shallow ones share spanning batches.

Unpruned runs must match :func:`explore_brute_force` byte for byte:
rows, ``best``, ``pareto()`` and a streamed ``TopKSink``. Pruned runs
drop only provably infeasible configurations, so they must match the
scalar pruned walk on every answer, and the oracle on the feasible set
and on every answer restricted to it. Counterexamples shrink to a
minimal chain.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline
from repro.explore import (
    Scenario,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
    vectorized,
)
from repro.explore.result import best_row, pareto_filter
from repro.hw.network import LinkModel

INF = float("inf")
PLATFORMS = ("asic", "cpu", "fpga")
#: Few distinct rates, so ties are common; 1e-300 and inf at the ends.
FPS = (1e-300, 5.0, 30.0, 30.0, 60.0, INF)
ENERGY = (0.0, 1e-6, 2e-6, 5e-6)
ACTIVE = (0.0, 1e-3, 2e-3)
PASS_RATES = (0.0, 0.5, 1.0)


@st.composite
def implementations(draw):
    chosen = draw(
        st.lists(st.sampled_from(PLATFORMS), min_size=1, max_size=3, unique=True)
    )
    return {
        platform: Implementation(
            platform,
            fps=draw(st.sampled_from(FPS)),
            energy_per_frame=draw(st.sampled_from(ENERGY)),
            active_seconds=draw(st.sampled_from(ACTIVE)),
        )
        for platform in chosen
    }


def _payload(draw, i: int, n_blocks: int, late_collapse: bool) -> float:
    if late_collapse:
        return 1.0 if i == n_blocks - 1 else 1000.0
    return draw(st.sampled_from((10.0, 100.0, 400.0, 900.0)))


@st.composite
def scenarios(
    draw,
    domains=st.sampled_from(("throughput", "energy")),
    late_collapse=st.booleans(),
    budgets=st.sampled_from((None, 5e-6, 1e-5, 1e-4)),
    prune=st.booleans(),
):
    n_blocks = draw(st.integers(1, 5))
    # Payloads that stay at the sensor's size until the last block make
    # the energy bound non-monotone in depth, so its emit_mask drops
    # rows the running cohort keeps.
    collapse = draw(late_collapse)
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=_payload(draw, i, n_blocks, collapse),
            pass_rate=draw(st.sampled_from(PASS_RATES)),
            implementations=draw(implementations()),
        )
        for i in range(n_blocks)
    )
    pipeline = InCameraPipeline(
        name="compact",
        sensor_bytes=1000.0,
        blocks=blocks,
        sensor_energy_per_frame=draw(st.sampled_from((0.0, 1e-6))),
    )
    link = LinkModel(
        name="link",
        raw_bps=draw(st.sampled_from((1e4, 1e5, 1e6))),
        tx_energy_per_bit=1e-9 if collapse else draw(st.sampled_from((0.0, 1e-9))),
    )
    domain = draw(domains)
    kwargs: dict = {}
    if domain == "throughput":
        kwargs["target_fps"] = draw(st.sampled_from((None, 5.0, 30.0)))
    else:
        kwargs["energy_budget_j"] = draw(budgets)
        if draw(st.booleans()):
            kwargs["pass_rates"] = {"B0": draw(st.sampled_from(PASS_RATES))}
    constrained = kwargs.get("target_fps", kwargs.get("energy_budget_j"))
    kwargs["auto_prune_configs"] = constrained is not None and draw(prune)
    return Scenario(
        name="compact", pipeline=pipeline, link=link, domain=domain, **kwargs
    )


def _ranking(scenario):
    if scenario.domain == "throughput":
        return "total_fps", True
    return "total_energy_j", False


def _streamed_top(scenario, evaluation="auto"):
    metric, maximize = _ranking(scenario)
    sink = TopKSink(metric, k=3, maximize=maximize)
    explore(scenario, sink=sink, collect=False, evaluation=evaluation)
    return sink.top_k()


def _fed_top(scenario, rows):
    metric, maximize = _ranking(scenario)
    sink = TopKSink(metric, k=3, maximize=maximize)
    sink.write_rows(rows)
    return sink.top_k()


def _feasible_answers(scenario, rows):
    """best, frontier and top-k over the feasible rows only."""
    metric, maximize = _ranking(scenario)
    feasible = [row for row in rows if row["feasible"]]
    if not feasible:
        return []
    axes = (
        ("compute_fps", "communication_fps")
        if scenario.domain == "throughput"
        else ("total_energy_j", "active_seconds")
    )
    return [
        feasible,
        best_row(feasible, metric, maximize),
        pareto_filter(feasible, axes, scenario.domain == "throughput"),
        _fed_top(scenario, feasible),
    ]


def _dump(value):
    return json.dumps(value)


def _assert_equals_oracle(scenario, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block)
        batch = explore(scenario)
        top = _streamed_top(scenario)
    pruned = scenario.auto_prune_configs
    assert evaluation_path(scenario) == (
        "batch-cohort-pruned" if pruned else "batch-cohort"
    )
    oracle = explore_brute_force(scenario)
    if pruned:
        reference = explore(scenario, evaluation="scalar")
        expected_top = _streamed_top(scenario, evaluation="scalar")
    else:
        reference = oracle
        expected_top = _fed_top(scenario, oracle.rows)
    assert _dump(batch.rows) == _dump(reference.rows)
    assert _dump(top) == _dump(expected_top)
    if batch.rows:
        assert _dump(batch.best) == _dump(reference.best)
        assert _dump(batch.pareto()) == _dump(reference.pareto())
    assert _dump(_feasible_answers(scenario, batch.rows)) == _dump(
        _feasible_answers(scenario, oracle.rows)
    )


BLOCKS = st.sampled_from((1, 2, 3, 4, 16, 1 << 14))


@settings(max_examples=150, deadline=None)
@given(scenarios(), BLOCKS)
def test_compact_rows_equal_the_oracle(scenario, block):
    _assert_equals_oracle(scenario, block)


@settings(max_examples=100, deadline=None)
@given(
    scenarios(
        domains=st.just("energy"),
        late_collapse=st.just(True),
        budgets=st.sampled_from((5e-6, 1e-5, 2e-5)),
        prune=st.just(True),
    ),
    BLOCKS,
)
def test_emit_mask_views_equal_the_oracle(scenario, block):
    """Energy-pruned late-collapsing chains: emitted batches are
    ``emit_mask`` selections of rows the running cohort keeps."""
    _assert_equals_oracle(scenario, block)
