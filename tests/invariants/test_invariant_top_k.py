"""Shrinking property: every top-k is a stable sort cut at ``k``.

:func:`repro.explore.result._stable_head` selects the ``k`` smallest
keys with ``np.partition`` and stable-sorts only the keys up to the
k-th;
:meth:`ExplorationResult.top_k` and the export ranking
(:meth:`TopK.add_batch`, through a ``TopKSink``) use it. Each must equal
``sorted(rows, key=metric, reverse=maximize)[:k]``: ties keep
enumeration order, including the tie that straddles the k-th value.
Keys come from a pool heavy with ties, ``-0.0`` / ``0.0`` and ``±inf``;
scenarios come from the export property's strategy, ``k`` is 0, 1, 5,
``n - 1``, ``n`` or ``n + 3``, in both directions.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_invariant_topk_export import METRICS, _export, export_scenarios

from repro.explore import explore, explore_brute_force, result
from repro.explore.result import _stable_head

INF = float("inf")
KEYS = (-INF, -1.0, -0.0, 0.0, 1e-300, 1.0, 2.0, INF)
#: ``k`` as a function of the number of rows ``n``.
K_CHOICES = {
    "0": lambda n: 0,
    "1": lambda n: 1,
    "5": lambda n: 5,
    "n-1": lambda n: max(0, n - 1),
    "n": lambda n: n,
    "n+3": lambda n: n + 3,
}
#: Below ``_SELECT_ROWS`` keys the head is one full sort; 0 selects always.
SELECT_ROWS = (0, result._SELECT_ROWS)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(KEYS), max_size=60),
    st.sampled_from(sorted(K_CHOICES)),
    st.sampled_from(SELECT_ROWS),
)
@example([1.0, 0.0, 1.0, -0.0, 1.0, 0.0], "n-1", 0)
@example([INF, -INF, INF, 2.0, INF, -INF], "1", 0)
def test_stable_head_equals_a_stable_sort(keys, choice, select_rows):
    k = K_CHOICES[choice](len(keys))
    column = np.array(keys, dtype=float)
    positions = range(len(keys))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(result, "_SELECT_ROWS", select_rows)
        ascending = _stable_head(column, k).tolist()
        descending = _stable_head(-column, k).tolist()
    assert ascending == sorted(positions, key=keys.__getitem__)[:k]
    assert descending == sorted(positions, key=keys.__getitem__, reverse=True)[:k]


@settings(max_examples=100, deadline=None)
@given(
    export_scenarios(),
    st.sampled_from(sorted(K_CHOICES)),
    st.booleans(),
    st.sampled_from((1, 4, 1 << 14)),
    st.sampled_from(SELECT_ROWS),
)
def test_top_k_equals_a_stable_sort(
    scenario, choice, maximize, block_rows, select_rows
):
    k = K_CHOICES[choice](scenario.count_configs())
    rows = explore_brute_force(scenario).rows
    collected = explore(scenario)
    for metric in METRICS[scenario.domain]:
        expected = json.dumps(
            sorted(rows, key=lambda row: row[metric], reverse=maximize)[:k]
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(result, "_SELECT_ROWS", select_rows)
            got = json.dumps(collected.top_k(metric, k, maximize))
            if any(math.isnan(row[metric]) for row in rows):
                exported = None  # the export ranking raises on NaN
            else:
                sink = _export(scenario, (metric, k, maximize), block_rows)
                exported = json.dumps(sink.top_k())
        assert got == expected, metric
        assert exported in (None, expected), metric
