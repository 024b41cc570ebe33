"""Shrinking property tests for report rows built from batch columns.

:meth:`BatchRows.take`, :meth:`BatchRows.row` and :meth:`BatchRows.rows`
build each report row straight from a view's choice matrix and columns,
with no configuration or cost object. Every row must equal ``cost_row``
over the cost object :func:`vectorized._materialize_costs` builds for
the same row: the same ``json.dumps`` text (key order and number
spelling included) and the same Python type per value.

The scenarios are those of ``test_invariant_compact_rows.py`` (its
``implementations()`` strategy: tie-heavy rate pools with ``1e-300``
and ``inf``, one-implementation blocks, pass rates 0 and 1; pruned and
unpruned; targets and budgets None or set), with the raw-offload row
included or not, and moved onto ties:

* a link whose rate at one cut depth is exactly ``30.0``, a rate in
  the implementation pool, so ``compute_fps == communication_fps``
  rows decide ``bottleneck``'s strict ``<``;
* a target of exactly one depth's ``communication_fps``, so
  ``feasible``'s ``>=`` meets equality;
* an energy budget of exactly one row's ``total_energy_j``, so its
  ``<=`` meets equality.

Views are read as emitted, as compact views (what the online frontier
and top-k keep) and under a shrunken ``vectorized._BLOCK_ROWS``, so
rows resolve through descent frames and prune-compacted levels.
``n_materialized`` must advance by one per row built, as it always has.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import explore_brute_force, vectorized
from repro.explore.result import cost_row
from repro.explore.vectorized import BatchPrefixEvaluator
from test_invariant_compact_rows import scenarios

#: A rate in the implementation pool that a tie link matches exactly.
_TIE_FPS = 30.0


@st.composite
def report_scenarios(draw):
    """A compact-rows scenario with its verdicts moved onto ties."""
    scenario = draw(scenarios())
    pipeline = scenario.pipeline
    depths = st.integers(0, len(pipeline.blocks))
    changes: dict = {"include_empty": draw(st.booleans())}
    link = scenario.link
    if draw(st.booleans()):
        # Every payload is a whole number of bytes, so the cut at the
        # drawn depth runs at exactly _TIE_FPS.
        bits = 8.0 * pipeline.output_bytes_after(draw(depths))
        link = changes["link"] = replace(link, raw_bps=_TIE_FPS * bits)
    if scenario.domain == "throughput" and draw(st.booleans()):
        changes["target_fps"] = link.fps_for_bytes(
            pipeline.output_bytes_after(draw(depths))
        )
    scenario = replace(scenario, **changes)
    if scenario.domain == "energy" and draw(st.booleans()):
        # A budget equal to one row's total energy (a budget must be
        # positive, so zero-energy rows are skipped).
        totals = [
            row["total_energy_j"]
            for row in explore_brute_force(scenario).rows
            if row["total_energy_j"] > 0
        ]
        if totals:
            scenario = replace(scenario, energy_budget_j=draw(st.sampled_from(totals)))
    return scenario


def _text_and_types(rows):
    return json.dumps(rows), [[type(v) for v in row.values()] for row in rows]


def _reference(view):
    """``cost_row`` over the view's materialized cost objects."""
    return [cost_row(view.scenario, cost) for cost in view.costs()]


def _assert_view_rows(view, indices):
    expected = _reference(view)
    before = view.n_materialized
    assert _text_and_types(view.rows()) == _text_and_types(expected)
    assert view.n_materialized == before + len(view)
    taken = view.take(indices)
    assert _text_and_types(taken) == _text_and_types([expected[i] for i in indices])
    assert view.n_materialized == before + len(view) + len(indices)
    for i in indices[:3]:
        assert _text_and_types([view.row(i)]) == _text_and_types([expected[i]])
    assert view.n_materialized == before + len(view) + len(indices) + len(indices[:3])
    return expected


def _indices(draw, n):
    """Unsorted positions of an ``n``-row view, repeats included."""
    if not n:
        return []
    return draw(st.lists(st.integers(0, n - 1), max_size=8))


BLOCKS = st.sampled_from((2, 3, 4, 1 << 14))


@settings(max_examples=200, deadline=None)
@given(report_scenarios(), BLOCKS, st.data())
def test_report_rows_equal_cost_row(scenario, block, data):
    evaluator = BatchPrefixEvaluator(scenario.cost_model(), scenario.pass_rates)
    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", block)
        for view in evaluator.iter_scenario_batches(scenario):
            rows.extend(_assert_view_rows(view, _indices(data.draw, len(view))))
            kept = _indices(data.draw, len(view))
            if kept:
                compact = view.compact(kept)
                _assert_view_rows(compact, _indices(data.draw, len(compact)))
    if not scenario.auto_prune_configs:
        assert json.dumps(rows) == json.dumps(explore_brute_force(scenario).rows)
