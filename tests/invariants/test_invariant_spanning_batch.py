"""Differential property: a batch that spans several depths reads like
its depths one by one.

The cohort walk joins consecutive resident depth cohorts into one
:class:`~repro.explore.vectorized.BatchRows` while their rows fit one
block. Such a view holds its rows' depths as
segments, pads the choice matrix past each row's depth and keeps the
per-depth link terms once per segment. Whatever a consumer reads must
equal the concatenated per-depth reference, the scalar fold's:

* ``rows()`` over the stream, and ``costs()`` against the fold's cost
  objects;
* every numeric ``metric_column`` against the reference rows' values;
* ``metric_best`` against the extreme of its column (never None when
  the column is finite);
* a streamed :class:`~repro.explore.joint.JointCandidateSink` against
  :func:`~repro.explore.joint.joint_candidates` over the reference rows;
* a memo-free ``view`` (what the result keeps) and a ``compact`` (what
  the frontier and the top-k keep) of each batch, whose rows keep their
  own depths.

Scenarios come from the export strategy (both domains, ties, ``inf``
and ``1e-300`` rates, zero and ``inf`` payloads, pass rates 0 and 1)
with ``include_empty`` on and off, depth pruning (``auto_prune`` and a
``prune_depth`` hook), per-config hooks, the prefix pruner (whose
energy form supplies ``emit_mask``) and a shrunken block, so batches
join, split and descend.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_invariant_topk_export import export_scenarios

from repro.explore import explore, vectorized
from repro.explore.joint import JointCandidateSink, joint_candidates
from repro.explore.vectorized import BatchPrefixEvaluator

#: Each domain's numeric row metrics (every ``metric_column`` name).
COLUMNS = {
    "throughput": (
        "n_in_camera",
        "offload_bytes",
        "compute_fps",
        "communication_fps",
        "total_fps",
        "feasible",
    ),
    "energy": (
        "n_in_camera",
        "offload_bytes",
        "sensor_energy_j",
        "compute_energy_j",
        "transmit_energy_j",
        "total_energy_j",
        "transmit_rate",
        "active_seconds",
        "feasible",
    ),
}
RANKED = {"throughput": "total_fps", "energy": "total_energy_j"}


def _drop_cpu_at_second_block(config) -> bool:
    """A per-config hook: drop configurations running block 2 on cpu."""
    return len(config.platforms) >= 2 and config.platforms[1] == "cpu"


@st.composite
def spanning_scenarios(draw):
    scenario = draw(export_scenarios())
    changes = {"include_empty": draw(st.booleans())}
    if scenario.domain == "throughput":
        changes["target_fps"] = draw(st.sampled_from((1e-3, 5.0, 30.0)))
    else:
        changes["energy_budget_j"] = draw(st.sampled_from((1e-6, 1e-5, 1.0)))
    changes["auto_prune"] = draw(st.booleans())
    changes["auto_prune_configs"] = draw(st.booleans())
    if draw(st.booleans()):
        skipped = draw(st.integers(0, len(scenario.pipeline.blocks)))
        changes["prune_depth"] = lambda depth: depth == skipped
    if draw(st.booleans()):
        changes["prune"] = _drop_cpu_at_second_block
    return replace(scenario, **changes)


def _same(column, values) -> bool:
    """Equal values, NaN equal to NaN; a bool column equals bools only."""
    expected = np.asarray(values)
    if column.dtype.kind == "b" or expected.dtype.kind == "b":
        return column.dtype.kind == expected.dtype.kind and column.tolist() == values
    return len(column) == len(expected) and bool(
        np.all((column == expected) | (np.isnan(column) & np.isnan(expected)))
    )


@settings(max_examples=200, deadline=None)
@given(
    spanning_scenarios(),
    st.sampled_from((1, 3, 4, 7, 1 << 14)),
    st.data(),
)
def test_spanning_batches_equal_the_per_depth_reference(scenario, block_rows, data):
    reference = explore(scenario, evaluation="scalar")
    ref_rows = reference.rows
    evaluator = BatchPrefixEvaluator(scenario.cost_model(), scenario.pass_rates)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
        batches = list(evaluator.iter_scenario_batches(scenario))
    widest = max(len(b.implementations) for b in scenario.pipeline.blocks)
    assert all(0 < len(batch) <= max(block_rows, widest) for batch in batches)

    rows = [row for batch in batches for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(ref_rows)
    costs = [cost for batch in batches for cost in batch.costs()]
    assert repr(costs) == repr(reference.evaluations)

    metric = RANKED[scenario.domain]
    start = 0
    for batch in batches:
        window = ref_rows[start : start + len(batch)]
        start += len(batch)
        for maximize in (True, False):
            # A fresh view: a memoized column turns the bound off.
            best = batch.view().metric_best(metric, maximize)
            values = [row[metric] for row in window]
            if all(math.isfinite(value) for value in values):
                assert best == (max(values) if maximize else min(values))
            elif best is not None:
                assert not any(math.isnan(value) for value in values)
                assert best == (max(values) if maximize else min(values))
        for name in COLUMNS[scenario.domain]:
            column = np.asarray(batch.metric_column(name))
            assert _same(column, [row[name] for row in window]), name
        view = batch.view()
        assert json.dumps(view.rows()) == json.dumps(window)
        assert _same(
            np.asarray(view.metric_column("n_in_camera")),
            [row["n_in_camera"] for row in window],
        )
        kept = data.draw(
            st.lists(st.integers(0, len(batch) - 1), min_size=1, max_size=6),
            label="kept",
        )
        compact = batch.compact(kept)
        assert json.dumps(compact.rows()) == json.dumps([window[i] for i in kept])
        assert repr(compact.costs()) == repr(
            [reference.evaluations[start - len(batch) + i] for i in kept]
        )

    if scenario.domain == "throughput":
        sink = JointCandidateSink(scenario)
        for batch in batches:
            sink.write_batch(batch)
        assert sink.candidates() == joint_candidates(scenario, ref_rows)
