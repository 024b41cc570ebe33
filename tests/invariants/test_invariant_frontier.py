"""Shrinking property tests for the online Pareto frontier.

Hypothesis draws rows whose axis values come from a small pool that
forces ties (including ``1`` vs ``1.0``), ``±0.0``, ``±inf`` and
integers float64 cannot tell apart, one to
three axes with mixed ``maximize`` flags, and random chunk splits. Each
chunk is fed through :meth:`ParetoFrontier.add` or
:meth:`ParetoFrontier.add_batch`; the result must equal an independent
O(n²) dominance check — same rows, same first-seen order — with
``n_seen`` counting every row, and :func:`pareto_filter` must agree.
A defect (NaN, missing or non-numeric value) at stream position ``p``
must raise naming ``p`` and leave exactly the frontier of the rows
before ``p``. Counterexamples shrink to a minimal row list.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.explore import vectorized
from repro.explore.result import ParetoFrontier, TopK, pareto_filter

AXES = ("a", "b", "c")
INF = float("inf")
#: Few distinct values, so ties, sign-of-zero and infinities are common;
#: the integers past 2**53 differ although float64 rounds them together.
VALUES = (0.0, -0.0, 1, 1.0, 2.5, -3.0, INF, -INF, 2**53, 2**53 + 1)

def brute_force_pareto(rows, axes, flags):
    """Rows no other row beats on every axis and strictly on one."""

    def oriented(row):
        return [row[a] if f else -row[a] for a, f in zip(axes, flags)]

    survivors = []
    for row in rows:
        mine = oriented(row)
        if not any(
            all(o >= m for o, m in zip(other, mine))
            and any(o > m for o, m in zip(other, mine))
            for other in (oriented(r) for r in rows if r is not row)
        ):
            survivors.append(row)
    return survivors


class _FakeBatch:
    """The ``add_batch`` consumer contract over plain rows: a column per
    axis (``KeyError`` when a row lacks it) and counted materialization.
    ``floats`` turns False once a column is not float: the frontier
    then folds the materialized rows instead."""

    def __init__(self, rows, owner=None):
        self._rows = rows
        self._owner = self if owner is None else owner
        self.n_materialized = 0
        self.floats = True

    def __len__(self):
        return len(self._rows)

    def metric_column(self, name):
        if any(name not in row for row in self._rows):
            raise KeyError(name)
        values = [row[name] for row in self._rows]
        # Like BatchRows, hold the row values exactly.
        exact = all(float(v) == v for v in values if isinstance(v, int))
        column = np.array(values, dtype=None if exact else object)
        self.floats &= column.dtype.kind in "fb"
        return column

    def row(self, i):
        self.n_materialized += 1
        return self._rows[i]

    def take(self, indices):
        self._owner.n_materialized += len(indices)
        return [self._rows[i] for i in indices]

    def rows(self):
        self.n_materialized += len(self._rows)
        return list(self._rows)

    def compact(self, indices):
        """The rows at ``indices``; what it builds counts against this
        batch."""
        return _FakeBatch([self._rows[i] for i in indices], owner=self._owner)


@st.composite
def streams(draw, max_axes=3, values=VALUES, max_cuts=4):
    """(axes, flags, rows, chunks): chunks are (start, stop, via_batch)."""
    n_axes = draw(st.integers(1, max_axes))
    axes = AXES[:n_axes]
    flags = tuple(draw(st.lists(st.booleans(), min_size=n_axes, max_size=n_axes)))
    row = st.fixed_dictionaries({axis: st.sampled_from(values) for axis in axes})
    rows = draw(st.lists(row, max_size=30))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=max_cuts)))
    bounds = [0, *cuts, len(rows)]
    chunks = [
        (lo, hi, draw(st.booleans())) for lo, hi in zip(bounds, bounds[1:])
    ]
    return axes, flags, rows, chunks


def _feed(frontier, rows, chunks):
    for lo, hi, via_batch in chunks:
        if via_batch:
            batch = _FakeBatch(rows[lo:hi])
            frontier.add_batch(batch)
            yield lo, hi, batch
        else:
            frontier.add(rows[lo:hi])
            yield lo, hi, None


@settings(max_examples=150, deadline=None)
@given(streams())
def test_online_frontier_equals_brute_force(stream):
    axes, flags, rows, chunks = stream
    expected = [id(row) for row in brute_force_pareto(rows, axes, flags)]
    assert [id(row) for row in pareto_filter(rows, axes, flags)] == expected

    frontier = ParetoFrontier(axes, flags)
    for lo, hi, batch in _feed(frontier, rows, chunks):
        if batch is not None and batch.floats and len(axes) <= 2:
            # The fold builds no row; a read builds the chunk's rows on
            # the frontier, and only those.
            assert batch.n_materialized == 0
            chunk = {id(row) for row in rows[lo:hi]}
            joined = sum(id(row) in chunk for row in frontier.rows)
            assert batch.n_materialized == joined
    assert [id(row) for row in frontier.rows] == expected
    assert frontier.n_seen == len(rows)


def _set(value):
    return lambda row, axis: row.__setitem__(axis, value)


#: Defect kind -> (inject into a row, the error it must raise).
DEFECTS = {
    "nan": (_set(float("nan")), "axis {axis!r} is NaN in row {p}"),
    "missing": (lambda row, axis: row.pop(axis), "axis {axis!r} missing in row {p}"),
    "non-numeric": (
        _set("x"),
        "axis {axis!r} must be a number for a Pareto frontier, got str in row {p}",
    ),
}


@settings(max_examples=150, deadline=None)
@given(streams(), st.data())
def test_defect_raises_at_its_position_after_folding_the_rows_before(stream, data):
    axes, flags, rows, chunks = stream
    rows = [dict(row) for row in rows] or [{axis: 0.0 for axis in axes}]
    chunks = chunks if chunks[-1][1] == len(rows) else [(0, len(rows), False)]
    position = data.draw(st.integers(0, len(rows) - 1), label="position")
    axis = data.draw(st.sampled_from(axes), label="axis")
    inject, message = DEFECTS[data.draw(st.sampled_from(sorted(DEFECTS)))]
    inject(rows[position], axis)

    frontier = ParetoFrontier(axes, flags)
    with pytest.raises(ConfigurationError) as error:
        for _ in _feed(frontier, rows, chunks):
            pass
    assert str(error.value) == message.format(axis=axis, p=position)
    expected = brute_force_pareto(rows[:position], axes, flags)
    assert [id(row) for row in frontier.rows] == [id(row) for row in expected]
    assert frontier.n_seen == position


# -- pending blocks and lazy survivors ------------------------------------

READS = ("none", "len", "rows", "n_seen")
FLOAT_VALUES = tuple(v for v in VALUES if abs(v) != 2**53 and v != 2**53 + 1)


@st.composite
def folded_streams(draw):
    """A one- or two-axis stream with a read drawn after every chunk, a
    pending budget of 1-4 rows, and an optional (kind, position)
    defect in the first axis."""
    # Without the integers past 2**53 every batch's columns are float,
    # so batches go through the pending block rather than the row path.
    values = draw(st.sampled_from((VALUES, FLOAT_VALUES)))
    axes, flags, rows, chunks = draw(streams(max_axes=2, values=values, max_cuts=12))
    reads = [draw(st.sampled_from(READS)) for _ in chunks]
    budget = draw(st.integers(1, 4))
    k = draw(st.integers(0, 4))
    defect = None
    if rows and draw(st.booleans()):
        defect = (
            draw(st.sampled_from(sorted(DEFECTS))),
            draw(st.integers(0, len(rows) - 1)),
        )
    return axes, flags, [dict(row) for row in rows], chunks, reads, budget, k, defect


def _fold_and_read(fold, rows, chunks, reads, expect):
    """Feed the chunks through ``add_batch``/``add``, checking each drawn
    read against ``expect(prefix)`` for the rows fed so far."""
    for (lo, hi, via_batch), read in zip(chunks, reads):
        if via_batch:
            fold.add_batch(_FakeBatch(rows[lo:hi]))
        else:
            fold.add(rows[lo:hi])
        if read == "len":
            assert len(fold) == len(expect(rows[:hi]))
        elif read == "rows":
            assert [id(row) for row in fold.rows] == [id(r) for r in expect(rows[:hi])]
        elif read == "n_seen":
            assert fold.n_seen == hi


@settings(max_examples=500, deadline=None)
@given(folded_streams(), st.booleans())
def test_pending_folds_equal_the_row_path(stream, ranking):
    """With a pending budget of 1-4 rows and reads interleaved at every
    chunk boundary, the frontier's rows and positions equal
    :func:`pareto_filter`, :class:`TopK` ranks exactly as a stable sort
    with stream-order ties, and a defect raises at its own position,
    leaving the state the row path leaves."""
    axes, flags, rows, chunks, reads, budget, k, defect = stream
    metric, maximize = axes[0], flags[0]

    def expect(prefix):
        if ranking:
            return sorted(prefix, key=lambda row: row[metric], reverse=maximize)[:k]
        return pareto_filter(prefix, axes, flags)

    def fresh():
        return TopK(metric, k, maximize) if ranking else ParetoFrontier(axes, flags)

    position = None
    if defect is not None:
        kind, position = defect
        DEFECTS[kind][0](rows[position], metric)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_BLOCK_ROWS", budget)
        fold = fresh()
        if position is None:
            _fold_and_read(fold, rows, chunks, reads, expect)
            assert [id(row) for row in fold.rows] == [id(r) for r in expect(rows)]
            assert fold.n_seen == len(rows)
            if not ranking:
                index = {id(row): i for i, row in enumerate(rows)}
                assert fold._positions == [index[id(r)] for r in expect(rows)]
            return
        reference = fresh()
        with pytest.raises(ConfigurationError) as expected_error:
            reference.add(rows)
        with pytest.raises(ConfigurationError) as error:
            _fold_and_read(
                fold, rows, chunks, reads, lambda prefix: expect(prefix[:position])
            )
    assert str(error.value) == str(expected_error.value)
    assert f"row {position}" in str(error.value)
    assert fold.n_seen == reference.n_seen
    assert [id(row) for row in fold.rows] == [id(row) for row in reference.rows]
    assert [id(row) for row in fold.rows] == [id(r) for r in expect(rows[:position])]
