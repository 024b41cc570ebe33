"""Shrinking property: the skyline equals an O(n²) dominance oracle.

:func:`repro.explore.result._skyline` prefilters float64 inputs of at
least ``_PREFILTER_ROWS`` points against a staircase of every
``_PREFILTER_STRIDE``-th point, then sweeps the survivors. The property
draws up to about 2,000 points and patches the cut-off and the stride,
so that inputs fall on both sides of the cut-off, in the shapes where a
prefilter could drop a point it must keep: small-integer grids heavy
with ties, anti-correlated staircases on which every point survives,
exact duplicates, and pools of ``±inf``, ``-0.0`` / ``0.0`` and
``1e-300``. The mask must equal the oracle's: a point survives iff no
other point is at least as good on both axes and strictly better on
one. Integers past 2**53 (object key columns, which keep the plain
sweep) go through :func:`pareto_filter` against the row-wise oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.explore import result
from repro.explore.result import _skyline, pareto_filter

INF = float("inf")
SPECIALS = (-INF, -1.0, -0.0, 0.0, 1e-300, -1e-300, 1.0, INF)
SHAPES = ("grid", "staircase", "duplicates", "specials", "uniform")
#: Prefilter cut-offs and strides: every input, mid-size inputs only, and
#: the shipped constants (which the drawn sizes stay below).
CUTOFFS = (1, 256, result._PREFILTER_ROWS)
STRIDES = (1, 5, result._PREFILTER_STRIDE)


def dominance_oracle(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """Survivors by the definition, all pairs compared (both maximized)."""
    n = len(k0)
    keep = np.ones(n, dtype=bool)
    for lo in range(0, n, 256):
        q0, q1 = k0[lo : lo + 256, None], k1[lo : lo + 256, None]
        beaten = (k0 >= q0) & (k1 >= q1) & ((k0 > q0) | (k1 > q1))
        keep[lo : lo + 256] = ~beaten.any(axis=1)
    return keep


def _points(shape: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    if shape == "grid":
        k0, k1 = rng.integers(0, 6, size=(2, n)).astype(float)
    elif shape == "staircase":
        k0 = rng.permutation(n).astype(float)
        k1 = -k0 * rng.choice((1.0, 0.5))
    elif shape == "duplicates":
        base = rng.random((2, max(1, n // 50)))
        k0, k1 = base[:, rng.integers(0, base.shape[1], size=n)]
    elif shape == "specials":
        k0, k1 = rng.choice(SPECIALS, size=(2, n))
    else:
        k0, k1 = rng.random((2, n))
    return np.ascontiguousarray(k0), np.ascontiguousarray(k1)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SHAPES),
    st.integers(0, 2000),
    st.integers(0, 2**32 - 1),
    st.sampled_from(CUTOFFS),
    st.sampled_from(STRIDES),
    st.booleans(),
)
@example("duplicates", 1000, 0, 1, 5, False)
@example("staircase", 2000, 1, 1, result._PREFILTER_STRIDE, False)
@example("specials", 1500, 2, 256, 1, True)
def test_skyline_equals_the_dominance_oracle(
    shape, n, seed, cutoff, stride, one_axis
):
    k0, k1 = _points(shape, n, seed)
    if one_axis:
        k1 = np.zeros(n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(result, "_PREFILTER_ROWS", cutoff)
        patch.setattr(result, "_PREFILTER_STRIDE", stride)
        mask = _skyline(k0, k1)
    assert mask.tolist() == dominance_oracle(k0, k1).tolist()


#: Integers float64 rounds together, plus floats they compare against.
BIG = (2**53, 2**53 + 1, 2**53 + 2, -(2**53) - 1, 0, 0.5, -INF, INF)


def brute_force_pareto(rows, flags):
    def oriented(row):
        return [row[a] if f else -row[a] for a, f in zip("uv", flags)]

    keys = [oriented(row) for row in rows]
    return [
        row
        for row, mine in zip(rows, keys)
        if not any(
            all(o >= m for o, m in zip(other, mine))
            and any(o > m for o, m in zip(other, mine))
            for other in keys
        )
    ]


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.fixed_dictionaries({"u": st.sampled_from(BIG), "v": st.sampled_from(BIG)}),
        max_size=200,
    ),
    st.tuples(st.booleans(), st.booleans()),
    st.sampled_from(CUTOFFS),
)
def test_pareto_filter_keeps_integers_past_float_precision(rows, flags, cutoff):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(result, "_PREFILTER_ROWS", cutoff)
        patch.setattr(result, "_PREFILTER_STRIDE", 3)
        got = pareto_filter(rows, ("u", "v"), flags)
    assert [id(row) for row in got] == [
        id(row) for row in brute_force_pareto(rows, flags)
    ]
