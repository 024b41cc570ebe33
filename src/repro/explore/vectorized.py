"""Columnar batch evaluation: struct-of-arrays prefix states.

The memoized scalar walk (:mod:`repro.explore.incremental`) reduced the
per-configuration work to amortized O(1) block extensions — the ceiling
left is Python object work: one ``PipelineConfig``, one cost object and
one row dict per configuration, regardless of how few survive the
consumer's frontier/top-k/feasibility filters. This module removes that
ceiling for the stock cost models by evaluating whole *cohorts* of
configurations as numpy struct-of-arrays operations:

* A depth-``d`` cohort (every platform assignment with ``d`` in-camera
  blocks, in exact enumeration order) is built by one
  ``extend_state_batch`` call that extends every depth ``d-1`` state
  row by every option of the next block in product order: option
  ``j``'s column of an ``(n, k)`` buffer, raveled, is
  :func:`itertools.product` order, so parent rows are read in place
  and never copied per option. Whole cohorts are built only while
  they fit one fixed-size block of rows (:data:`_BLOCK_ROWS`); deeper
  cohorts are walked depth-first in blocks, so the walk's memory stays
  bounded whatever the design-space size.
* One emitted batch spans consecutive whole cohorts while their rows
  fit one block, so a small design space reaches its consumers as one
  batch and their fixed per-batch work is paid once, not once per
  depth. A batch holds its rows' depths as run-length segments (rows
  come in depth order), a choice matrix padded past each row's depth,
  and the per-depth link terms once per segment.
* A row carries only what its platform choices cannot recover — the
  running fps, or the running compute energy and active seconds. Below
  the resident cohorts, a row's choices are implied by its position in
  the walk (a :class:`_Frame` per level, which stores positions only
  when a prune mask compacted the level). Slowest-block labels,
  per-block energies (per-option tables, one per level) and full choice
  rows are decoded only for rows that materialize.
* Report rows are built lazily, straight from the columns: a
  :class:`BatchRows` view hands consumers numeric columns
  (:meth:`BatchRows.metric_column`) and builds row dicts only for the
  rows a consumer actually touches (:meth:`BatchRows.take`), with no
  configuration or cost object per row; cost objects are built only on
  request (:meth:`BatchRows.costs`). The online folds (the campaign's
  frontier and ``TopKSink``) keep their survivors as compact views
  (:meth:`BatchRows.compact`) and build rows only when they are read;
  a full top-k drops a view whose exact best value
  (:meth:`BatchRows.metric_best`) cannot enter before reading any
  column.

Bit-identity is the correctness contract: the batch kernels perform the
same IEEE-754 float operations in the same order as the scalar fold
(elementwise per row, or once per option where every row of a depth
shares the operands), and report rows replay the scalar ``cost_row``
expressions over those values, so every materialized cost, row and
frontier is byte-identical to the scalar and brute-force paths —
asserted by the invariant suite. That constraint shapes the kernels:
the running-min update is ``np.minimum`` written in place, which
equals the scalar ``<`` branch because no rate is NaN or zero (see
:meth:`~repro.core.cost.ThroughputCostModel.extend_state_batch`), the
slowest block decodes as the first level whose chosen rate equals the
running min (the scalar strict ``<`` keeps the first minimum on ties),
a level's energy table entry is the scalar ``rate * energy_per_frame``,
and the compute-energy column adds the chosen entries left to right
from zero. A report row's ``compute_energy_j`` adds its chosen entries
the same way (``reduce(add, ..., 0)``, as the scalar row and
:attr:`~repro.core.cost.EnergyCost.total_energy` do; ``sum()`` of floats
is compensated from Python 3.12 on and would part from the column).

Pruned runs and campaigns ride the same columnar core:

* Prefix pruners fuse into the cohort walk through their batch forms
  (:attr:`~repro.explore.enumerate.PrefixPruner.extend_batch`) as
  boolean-mask compaction — they extend in the same product order (the
  throughput floor reads the extended cost state's running-min column
  itself), and one fancy-index gather per depth drops pruned
  prefixes before they grow into deeper cohorts, reproducing DFS
  pruning semantics exactly; per-config
  ``scenario.prune`` hooks run as a scalar filter over the already
  compacted (small) cohort.
* There is one walk, :meth:`BatchPrefixEvaluator.iter_group_batches`:
  it folds the compute-side states once and closes each batch under
  every member's link with one ``finalize_batch`` per member. A solo
  run is a group of one; a campaign dedup group shares the fold among
  its members. Nothing columnar is ever shipped to pool workers:
  folding in process measured faster than any pool on every fleet
  tried.

The walk runs the paper's two stock cost models and nothing else
(:func:`~repro.explore.incremental._check_stock_model`): its kernels
assume their state shapes. The scalar
:class:`~repro.explore.incremental.PrefixEvaluator` walk is the
reference fold it is checked against (``evaluation="scalar"``).
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add, getitem
from typing import Any, Generator, Iterator, Sequence

import numpy as np

from repro.core.cost import (
    ConfigCost,
    EnergyCost,
    EnergyCostModel,
    ThroughputCostModel,
    option_energy_columns,
    option_fps_column,
)
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.explore.enumerate import _normalize_hooks, enumeration_plan
from repro.explore.incremental import _check_stock_model, depth_link_cost

#: Row budget of one cohort-walk block. Whole depth cohorts fold only
#: while they fit; deeper depths descend in blocks of at most this many
#: rows per level, so the walk's memory never grows with the design
#: space (see :meth:`BatchPrefixEvaluator._iter_cohort_states`).
_BLOCK_ROWS = 1 << 14

# -- stock state-shape helper -------------------------------------------
# Throughput states are (fps column,), energy states (rate, ((name,
# option table), ...), compute column, active column); prefix-pruner
# batch states alike. Columns are the state's ndarrays; everything else
# is shared by every row of a depth and passes through.


def _take_state(state: tuple, index: Any) -> tuple:
    """State rows selected by a slice or index array (bit-exact)."""
    return tuple(
        part[index] if isinstance(part, np.ndarray) else part for part in state
    )


class _Frame:
    """One level of the cohort walk's choice tree.

    A level's children are laid out ``k`` per parent in product order,
    from parent row ``offset`` on, so child position ``p`` chose option
    ``p % k`` and descends from parent row ``offset + p // k``. Row
    ``i``'s position is ``kept[i]`` when a prune mask compacted the
    level, and ``i`` otherwise. A row's full choice vector is recovered
    by walking up to the nearest frame holding a ``matrix`` of its rows'
    choices: the root and the resident cohorts, which fit one block.
    Descent levels store no choices, so the walk never copies
    ``(n, depth)`` matrices below the resident depth."""

    __slots__ = ("parent", "offset", "k", "kept", "n", "matrix", "__weakref__")

    def __init__(
        self, parent: "_Frame | None", offset: int, k: int, kept: Any, n: int
    ):
        self.parent = parent
        self.offset = offset
        self.k = k
        self.kept = kept
        self.n = n
        self.matrix: Any = None


def _resolve_choices(frame: _Frame, depth: int, dtype: Any, rows: Any) -> Any:
    """The ``(len(rows), depth)`` choice matrix of ``frame``'s rows at
    ``rows`` (a range or index array): one ``divmod`` pass per level up
    to the nearest frame holding a matrix. A frame holding one answers
    a range with a view of it (callers must not write to it)."""
    if frame.matrix is not None:
        if isinstance(rows, range):
            return frame.matrix[rows.start : rows.stop : rows.step]
        return frame.matrix[rows]
    if isinstance(rows, range):
        rows = np.arange(rows.start, rows.stop, rows.step, dtype=np.intp)
    out = np.empty((len(rows), depth), dtype=dtype)
    level = depth
    while frame.matrix is None:
        level -= 1
        if frame.kept is not None:
            rows = frame.kept[rows]
        rows, out[:, level] = np.divmod(rows, frame.k)
        rows += frame.offset
        frame = frame.parent
    out[:, :level] = frame.matrix[rows]
    return out


class _Choices:
    """An emitted batch's ``(n, width)`` choice matrix, resolved from
    the walk's frames only for the rows something reads.

    ``width`` is the deepest row's depth; a shallower row's choices are
    padded past its own depth (see :func:`_joined_choices`). ``rows``
    selects the batch's rows among the frame's: ``range(n)`` while they
    are all of them, an index array after a mask or hook filter. Views
    (emission masks, takes) compose selections without resolving
    anything; the member views of one dedup group batch share one
    selection."""

    __slots__ = ("frame", "width", "rows", "dtype")

    def __init__(self, frame: _Frame, width: int, rows: Any, dtype: Any):
        self.frame = frame
        self.width = width
        self.rows = rows
        self.dtype = dtype

    def __len__(self) -> int:
        return len(self.rows)

    def _positions(self, index: Any) -> Any:
        """Frame rows of this selection's rows at ``index`` (an index
        array; None: every row), as an index array or a range."""
        rows = self.rows
        if index is None:
            return rows
        # ``range(n)`` maps every position to itself.
        return index if isinstance(rows, range) else rows[index]

    def select(self, index: Any) -> "_Choices":
        """The rows at an index array of this selection."""
        return _Choices(self.frame, self.width, self._positions(index), self.dtype)

    def matrix(self, index: Any = None) -> Any:
        """The ``(n, width)`` choice matrix of the rows at ``index``
        (None: every row)."""
        return _resolve_choices(
            self.frame, self.width, self.dtype, self._positions(index)
        )


def _joined_choices(pieces: Sequence[_Choices]) -> _Choices:
    """One selection over the rows of consecutive resident-depth
    pieces, in order: their choice rows resolved into one matrix, zero
    past each row's depth. Resident frames hold their matrices, so this
    copies each piece's rows once, into a matrix no larger than one
    block."""
    dtype = pieces[0].dtype
    width = max(piece.width for piece in pieces)
    n = sum(map(len, pieces))
    frame = _Frame(None, 0, 1, None, n)
    frame.matrix = np.zeros((n, width), dtype=dtype)
    lo = 0
    for piece in pieces:
        hi = lo + len(piece)
        frame.matrix[lo:hi, : piece.width] = piece.matrix()
        lo = hi
    return _Choices(frame, width, range(n), dtype)


def _slowest_levels(plan: "_PipelinePlan", matrix: Any, compute_fps: Any) -> Any:
    """Each row's slowest-block level code (-1: ``"none"``) from its
    choice matrix and folded ``compute_fps``: the scalar fold lowers its
    min only on a strict ``<``, so the level it last recorded is the
    *first* level whose chosen rate equals the final min (none while
    that min is ``inf``). One gather per level, last level first so the
    first match wins."""
    codes = np.full(len(matrix), -1, dtype=np.intp)
    for level in range(matrix.shape[1] - 1, -1, -1):
        codes[plan.levels[level].fps[matrix[:, level]] == compute_fps] = level
    codes[~(compute_fps < float("inf"))] = -1
    return codes


def _materialize_costs(
    plan: "_PipelinePlan",
    matrix: Any,
    columns: dict[str, Any],
    energy: bool,
) -> list[ConfigCost | EnergyCost]:
    """Cost objects for the given choice matrix rows of one depth
    segment (the matrix cut to that depth) and a finalized column
    mapping (:meth:`BatchRows._gather`: per-row columns gathered to
    those rows, the segment's link terms as scalars): what
    :meth:`BatchRows.cost` and :meth:`BatchRows.costs` return.
    Report rows do not go through cost objects
    (:meth:`BatchRows._report_rows`).

    Mirrors the stock ``finalize`` field-for-field, with the same
    ``object.__new__`` construction; array values pass through
    ``tolist()`` so every field is a plain Python float/str,
    indistinguishable from scalar evaluation. The fields the walk does
    not fold per row are decoded here from each row's choices:
    ``slowest_block`` from its level code (:func:`_slowest_levels`;
    ``Block`` keys every implementation by its platform, so
    ``labels[level][choice]`` is the scalar
    ``f"{block.name}({impl.platform})"``) and ``block_energies`` from
    the per-level option tables.
    """
    new = object.__new__
    set_field = object.__setattr__
    config = plan.config
    choice_rows = matrix.tolist()
    out: list[ConfigCost | EnergyCost] = []
    append_out = out.append
    if not energy:
        labels = plan.labels
        compute_fps = columns["compute_fps"]
        compute = compute_fps.tolist()
        codes = _slowest_levels(plan, matrix, compute_fps).tolist()
        communication_fps = columns["communication_fps"]
        for i, row in enumerate(choice_rows):
            code = codes[i]
            cost = new(ConfigCost)
            set_field(cost, "config", config(row))
            set_field(cost, "compute_fps", compute[i])
            set_field(cost, "communication_fps", communication_fps)
            set_field(
                cost, "slowest_block", labels[code][row[code]] if code >= 0 else "none"
            )
            append_out(cost)
        return out
    sensor = plan.pipeline.sensor_energy_per_frame
    rate = columns["transmit_rate"]
    transmit = columns["transmit_energy"]
    active = columns["active_seconds"].tolist()
    tables = [(name, table.tolist()) for name, table in columns["block_energies"]]
    for i, row in enumerate(choice_rows):
        cost = new(EnergyCost)
        set_field(cost, "config", config(row))
        set_field(cost, "sensor_energy", sensor)
        set_field(
            cost,
            "block_energies",
            {name: values[c] for (name, values), c in zip(tables, row)},
        )
        set_field(cost, "transmit_energy", transmit)
        set_field(cost, "transmit_rate", rate)
        set_field(cost, "active_seconds", active[i])
        append_out(cost)
    return out


#: The link terms a view holds once per depth segment: every row of a
#: segment shares its cut depth, hence its payload.
_LINK_TERMS = ("communication_fps", "transmit_rate", "transmit_energy")


def _joined_columns(parts: Sequence[dict[str, Any]]) -> dict[str, Any]:
    """One view's columns from the finalized columns of its depth
    pieces, in stream order, written into the last (deepest) piece's
    mapping, which ``finalize_batch`` built for this view alone: per-row
    arrays concatenated (the piece's own array when there is one), each
    link term a tuple of one value per piece, and the deepest piece's
    option tables (a shallower piece's tables are a prefix of them)."""
    joined = parts[-1]
    if len(parts) > 1:
        for key, value in joined.items():
            if isinstance(value, np.ndarray):
                joined[key] = np.concatenate([part[key] for part in parts])
    for key in _LINK_TERMS:
        if key in joined:
            joined[key] = tuple([part[key] for part in parts])
    return joined


class BatchRows:
    """A columnar view over one evaluated span of configurations.

    The lazy-materialization seam between the batch evaluator and its
    consumers: all rows share one pipeline, their platform choices form
    an ``(n, width)`` integer matrix (resolved from the walk's frames
    only for rows that are read) and their cost fields live in
    struct-of-arrays columns. Rows come in stream order, so their cut
    depths come in runs: a view holds *segments*, each a run of rows
    of one depth, as start offsets plus one depth per segment. A row's
    choices are the first ``depth`` entries of its matrix row (the
    matrix is padded past it), and the per-depth link terms
    (``communication_fps``, ``transmit_rate``, ``transmit_energy``) are
    one value per segment, spread over the rows only when a metric
    column is built. A single-depth batch is the one-segment case.

    Row dicts exist only for rows a consumer materializes —
    frontier/top-k sinks and a collected
    :class:`~repro.explore.result.ExplorationResult` read
    :meth:`metric_column` and materialize only the rows they keep or
    return (:meth:`take`). A report row is built from the choice matrix
    and columns directly, replaying the scalar ``cost_row`` expressions
    (see :meth:`_report_rows`); no :class:`PipelineConfig` or cost
    object is built for it. :meth:`cost` and :meth:`costs` build cost
    objects field for field as the stock ``finalize`` does. Either way
    the result is byte-identical to the scalar path.

    :attr:`n_materialized` counts rows turned into row dicts or cost
    objects (what the benchmark's memory check asserts on).
    """

    __slots__ = (
        "scenario",
        "pipeline",
        "columns",
        "n_materialized",
        "_plan",
        "_choices",
        "_energy",
        "_metrics",
        "_starts",
        "_depths",
        "__weakref__",
    )

    def __init__(
        self,
        scenario: Any,
        plan: "_PipelinePlan",
        starts: tuple[int, ...],
        depths: tuple[int, ...],
        choices: _Choices,
        columns: dict[str, Any],
        energy: bool,
    ):
        self.scenario = scenario
        self.pipeline = plan.pipeline
        self.columns = columns
        self.n_materialized = 0
        self._plan = plan
        self._choices = choices
        self._energy = energy
        self._metrics: dict[str, Any] = {}  # see metric_column
        #: Each segment's first row (ascending from 0) and its depth.
        self._starts = starts
        self._depths = depths

    def __len__(self) -> int:
        return len(self._choices)

    # -- segments ---------------------------------------------------------

    def _counts(self) -> list[int]:
        """Rows per segment."""
        starts = self._starts
        return [hi - lo for lo, hi in zip(starts, starts[1:] + (len(self),))]

    def _expand(self, values: tuple) -> Any:
        """Per-segment values as a per-row operand: the one segment's
        value itself (it broadcasts), else each value repeated over its
        segment's rows."""
        if len(values) == 1:
            return values[0]
        return np.repeat(values, self._counts())

    def _runs(self, index: Any) -> list[tuple[int, int, int]]:
        """The rows at ``index`` (an index array) as runs of rows of one
        segment, in order: ``(lo, hi, segment)``, positions in
        ``index``."""
        if len(self._depths) == 1:
            return [(0, len(index), 0)]
        segments = np.searchsorted(self._starts, index, side="right") - 1
        cuts = (np.flatnonzero(segments[1:] != segments[:-1]) + 1).tolist()
        firsts = [0, *cuts] if len(index) else []
        return list(zip(firsts, [*cuts, len(index)], segments[firsts].tolist()))

    def _select(self, index: Any, choices: _Choices) -> "BatchRows":
        """The rows at ``index`` (an index array) over ``choices`` as a
        new view: per-row columns gathered (bit-exact copies), each row
        kept in its segment, option tables passed through."""
        starts, depths = self._starts, self._depths
        picks = None
        if len(depths) > 1:
            runs = self._runs(index)
            starts = tuple(lo for lo, _, _ in runs)
            picks = [segment for _, _, segment in runs]
            depths = tuple(depths[i] for i in picks)
        columns = {}
        for key, value in self.columns.items():
            if isinstance(value, np.ndarray):
                value = value[index]
            elif picks is not None and key in _LINK_TERMS:
                value = tuple(value[i] for i in picks)
            columns[key] = value
        return BatchRows(
            self.scenario, self._plan, starts, depths, choices, columns, self._energy
        )

    def _matrix(self, index: Any, segment: int) -> Any:
        """The choice matrix of rows at ``index`` of one segment, cut to
        its depth."""
        return self._choices.matrix(index)[:, : self._depths[segment]]

    def _gather(self, index: Any, segment: int) -> dict[str, Any]:
        """The columns of rows at ``index`` (an index array) of one
        segment, as rows and cost objects are built from them: per-row
        columns gathered (bit-exact copies), the segment's link terms as
        scalars, option tables passed through."""
        return {
            key: (
                value[index]
                if isinstance(value, np.ndarray)
                else value[segment] if key in _LINK_TERMS else value
            )
            for key, value in self.columns.items()
        }

    # -- views --------------------------------------------------------------

    def view(self) -> "BatchRows":
        """Every row as a new view sharing this one's choices, segments
        and columns but none of its memoized metric columns: a holder
        that outlives the folds reading this view keeps none of what
        they built."""
        return BatchRows(
            self.scenario,
            self._plan,
            self._starts,
            self._depths,
            self._choices,
            self.columns,
            self._energy,
        )

    def compact(self, indices: Sequence[int]) -> "BatchRows":
        """The rows at ``indices`` as a self-contained view: their choice
        rows resolved into a matrix of its own and their per-row columns
        gathered, each row keeping its segment's depth and link terms,
        so it holds nothing of the walk's frames or of this view's
        columns. The online folds keep their survivors this way and
        build rows only when they are read; nothing materializes
        here."""
        index = np.asarray(indices, dtype=np.intp)
        choices = self._choices
        frame = _Frame(None, 0, 1, None, len(index))
        frame.matrix = choices.matrix(index)
        return self._select(
            index, _Choices(frame, choices.width, range(len(index)), choices.dtype)
        )

    # -- rows and cost objects ----------------------------------------------

    def take(self, indices: Sequence[int]) -> list[dict[str, Any]]:
        """The report rows at ``indices``, in that order (repeats
        allowed), built in one bulk pass per run of one segment from the
        gathered columns (counts one materialization per row)."""
        self.n_materialized += len(indices)
        index = np.asarray(indices, dtype=np.intp)
        rows: list[dict[str, Any]] = []
        for lo, hi, segment in self._runs(index):
            part = index[lo:hi]
            rows += self._report_rows(
                self._matrix(part, segment), self._gather(part, segment)
            )
        return rows

    def _report_rows(
        self, matrix: Any, columns: dict[str, Any]
    ) -> list[dict[str, Any]]:
        """Report rows for the given choice matrix rows of one depth
        segment (the matrix cut to that depth) and a finalized column
        mapping (:meth:`_gather`).

        No configuration or cost object is built: each field replays
        the scalar ``cost_row`` expression over the values the cost
        object would hold (per-row columns through ``tolist()``, so
        every value is a plain Python float, int, bool or str), in
        ``cost_row``'s key order:

        * ``config`` joins the plan's per-level label fragments and
          ``platforms`` its platform names (``"S~"`` and ``"-"`` at
          depth 0); ``offload_bytes`` is ``output_bytes_after(depth)``;
        * ``total_fps`` is ``min``'s branch ``comm if comm < c else c``,
          ``bottleneck`` is ``"compute"`` only on a strict ``c < comm``
          and ``feasible`` is ``c >= t and comm >= t``;
        * ``compute_energy_j`` adds the chosen table entries left to
          right from the int ``0`` (``0`` itself at depth 0), as the
          energy fold's compute column does, and
          ``total_energy_j`` is ``sensor + compute + transmit``;
        * ``slowest_block`` decodes as in :func:`_materialize_costs`.
        """
        plan = self._plan
        depth = matrix.shape[1]
        choice_rows = matrix.tolist()
        if depth:
            fragments, names = plan.fragments, plan.names
            configs = [
                "S " + " ".join(map(getitem, fragments, row)) + "~"
                for row in choice_rows
            ]
            platforms = ["+".join(map(getitem, names, row)) for row in choice_rows]
        else:
            configs = ["S~"] * len(choice_rows)
            platforms = ["-"] * len(choice_rows)
        offload = self.pipeline.output_bytes_after(depth)
        if not self._energy:
            target = self.scenario.target_fps
            labels = plan.labels
            compute_fps = columns["compute_fps"]
            codes = _slowest_levels(plan, matrix, compute_fps).tolist()
            comm = columns["communication_fps"]
            return [
                {
                    "config": config,
                    "n_in_camera": depth,
                    "platforms": platform,
                    "offload_bytes": offload,
                    "compute_fps": c,
                    "communication_fps": comm,
                    "total_fps": comm if comm < c else c,
                    "bottleneck": "compute" if c < comm else "communication",
                    "slowest_block": labels[code][row[code]] if code >= 0 else "none",
                    "feasible": (
                        c >= target and comm >= target if target is not None else True
                    ),
                }
                for config, platform, c, code, row in zip(
                    configs, platforms, compute_fps.tolist(), codes, choice_rows
                )
            ]
        budget = self.scenario.energy_budget_j
        sensor = self.pipeline.sensor_energy_per_frame
        transmit = columns["transmit_energy"]
        rate = columns["transmit_rate"]
        tables = [table.tolist() for _, table in columns["block_energies"]]
        out = []
        append_out = out.append
        for config, platform, row, active in zip(
            configs, platforms, choice_rows, columns["active_seconds"].tolist()
        ):
            compute = reduce(add, map(getitem, tables, row), 0)
            total = sensor + compute + transmit
            append_out(
                {
                    "config": config,
                    "n_in_camera": depth,
                    "platforms": platform,
                    "offload_bytes": offload,
                    "sensor_energy_j": sensor,
                    "compute_energy_j": compute,
                    "transmit_energy_j": transmit,
                    "total_energy_j": total,
                    "transmit_rate": rate,
                    "active_seconds": active,
                    "feasible": total <= budget if budget is not None else True,
                }
            )
        return out

    def config(self, i: int) -> PipelineConfig:
        """Row ``i``'s configuration."""
        index = np.array([i], dtype=np.intp)
        ((_, _, segment),) = self._runs(index)
        return self._plan.config(self._matrix(index, segment)[0].tolist())

    def cost(self, i: int) -> ConfigCost | EnergyCost:
        """Row ``i``'s cost object (counts as one materialization)."""
        return self._costs(np.array([i], dtype=np.intp))[0]

    def costs(self) -> list[ConfigCost | EnergyCost]:
        """Every row's cost object, in row order (bulk materialization)."""
        return self._costs(np.arange(len(self)))

    def _costs(self, index: Any) -> list[ConfigCost | EnergyCost]:
        """The cost objects of the rows at ``index``, in that order, one
        run of one segment at a time."""
        self.n_materialized += len(index)
        costs: list[ConfigCost | EnergyCost] = []
        for lo, hi, segment in self._runs(index):
            part = index[lo:hi]
            costs += _materialize_costs(
                self._plan,
                self._matrix(part, segment),
                self._gather(part, segment),
                self._energy,
            )
        return costs

    def row(self, i: int) -> dict[str, Any]:
        """Row ``i``'s report row: ``take([i])[0]``."""
        return self.take([i])[0]

    def rows(self) -> list[dict[str, Any]]:
        """Every report row, in row order (bulk materialization)."""
        return self.take(np.arange(len(self)))

    # -- columns --------------------------------------------------------------

    def metric_column(self, name: str) -> Any:
        """Per-row values of one numeric report-row metric as an array,
        without materializing anything; raises :class:`KeyError` for
        metrics that are not columnar (``config``, ``bottleneck``,
        ``slowest_block``, ...) so consumers can fall back to
        :meth:`rows`. Derived metrics replay the scalar row expressions
        elementwise (``total_fps`` is the scalar ``min`` branch, not
        ``np.minimum``). Each column is computed once per view: the
        statistics, frontier and top-k folds that read the same metric
        of one batch share it (callers must not write to it)."""
        column = self._metrics.get(name)
        if column is None:
            column = self._metrics[name] = self._metric(name)
        return column

    def metric_best(self, name: str, maximize: bool) -> float | None:
        """The best value of a ranked metric over this view's rows
        (largest when ``maximize``), without building its column; None
        when this view cannot bound ``name`` this way.

        Two metrics have a bound, both the exact value of the best row,
        because within a segment each row's value is a monotone
        function of one per-row column (IEEE addition and the ``min``
        branch never reverse an order) and the segment's link terms:
        throughput ``total_fps`` is the scalar branch ``comm if comm <
        c else c`` at ``c`` the segment's extreme ``compute_fps``, and
        energy ``total_energy_j`` is ``(sensor + compute) + transmit``,
        in :meth:`_metric`'s order, at the segment's extreme
        ``compute_energy``. The per-segment extremes come from one
        ``reduceat``; the view's best is the best segment's value.
        :meth:`~repro.explore.result.TopK.add_batch` drops a batch whose
        best value cannot enter its ranking, so a view is rejected
        before any column is built.

        Returns None for every other metric; when some segment's value
        is not finite, which rules out a NaN row (an infinite operand is
        the only way a row goes NaN while its segment's extreme stays a
        number); and when :meth:`metric_column` has already built the
        column, since the ranking then reads it at no extra cost."""
        if name in self._metrics:
            return None
        columns = self.columns
        extreme = np.maximum.reduceat if maximize else np.minimum.reduceat
        if self._energy:
            if name != "total_energy_j":
                return None
            sensor = self.pipeline.sensor_energy_per_frame
            extremes = extreme(columns["compute_energy"], self._starts).tolist()
            values = [
                (sensor + compute) + transmit
                for compute, transmit in zip(extremes, columns["transmit_energy"])
            ]
        else:
            if name != "total_fps":
                return None
            extremes = extreme(columns["compute_fps"], self._starts).tolist()
            values = [
                comm if comm < compute else compute
                for compute, comm in zip(extremes, columns["communication_fps"])
            ]
        if not all(map(math.isfinite, values)):
            return None
        return max(values) if maximize else min(values)

    def _metric(self, name: str) -> Any:
        """:meth:`metric_column` without the per-view memo."""
        n = len(self)
        columns = self.columns
        scenario = self.scenario
        if name == "n_in_camera":
            return np.repeat(self._depths, self._counts())
        if name == "offload_bytes":
            payload = [self.pipeline.output_bytes_after(d) for d in self._depths]
            return np.repeat(payload, self._counts())
        if self._energy:
            if name == "active_seconds":
                return columns[name]
            if name == "transmit_rate":
                return np.repeat(columns["transmit_rate"], self._counts())
            if name == "transmit_energy_j":
                return np.repeat(columns["transmit_energy"], self._counts())
            if name == "sensor_energy_j":
                return np.full(n, self.pipeline.sensor_energy_per_frame)
            if name in ("compute_energy_j", "total_energy_j", "feasible"):
                compute = columns["compute_energy"]
                if name == "compute_energy_j":
                    return compute
                total = (
                    self.pipeline.sensor_energy_per_frame
                    + compute
                    + self._expand(columns["transmit_energy"])
                )
                if name == "total_energy_j":
                    return total
                budget = scenario.energy_budget_j if scenario is not None else None
                if budget is None:
                    return np.ones(n, dtype=bool)
                return total <= budget
        else:
            if name == "compute_fps":
                return columns["compute_fps"]
            if name == "communication_fps":
                return np.repeat(columns["communication_fps"], self._counts())
            if name == "total_fps":
                compute = columns["compute_fps"]
                communication = self._expand(columns["communication_fps"])
                # min(a, b) returns b only when b < a — np.where keeps
                # that exact branch (NaN included), unlike np.minimum.
                return np.where(communication < compute, communication, compute)
            if name == "feasible":
                target = scenario.target_fps if scenario is not None else None
                if target is None:
                    return np.ones(n, dtype=bool)
                return np.logical_and(
                    columns["compute_fps"] >= target,
                    self._expand(columns["communication_fps"]) >= target,
                )
        raise KeyError(name)


class _Level:
    """One enumerable block's per-platform tables, in enumeration
    (sorted platform name) order: names, the frame-rate column and the
    (energy, active seconds) columns the batch folds extend by."""

    __slots__ = ("block", "names", "fps", "energy")

    def __init__(self, block: Any):
        self.block = block
        self.names = sorted(block.implementations)
        impls = [block.implementations[name] for name in self.names]
        self.fps = option_fps_column(impls)
        self.energy = option_energy_columns(impls)


class _PipelinePlan:
    """Cached per-pipeline evaluation tables (levels truncate at the
    first block with no implementations, like the enumeration plan)."""

    __slots__ = ("pipeline", "levels", "names", "labels", "fragments")

    def __init__(self, pipeline: InCameraPipeline):
        self.pipeline = pipeline
        self.levels: list[_Level] = []
        for block in pipeline.blocks:
            if not block.implementations:
                break
            self.levels.append(_Level(block))
        #: Per-level platform names and ``slowest_block`` labels: what a
        #: BatchRows view decodes its choices and level codes with.
        self.names = tuple(level.names for level in self.levels)
        self.labels = tuple(
            tuple(f"{level.block.name}({name})" for name in level.names)
            for level in self.levels
        )
        #: Per-level ``config`` label fragments, as
        #: :attr:`PipelineConfig.label` writes them: ``B3(fpga)``, or the
        #: bare block name for a block with one implementation.
        self.fragments = tuple(
            labels if len(labels) > 1 else (level.block.name,)
            for level, labels in zip(self.levels, self.labels)
        )

    def config(self, row: Sequence[int]) -> PipelineConfig:
        """The configuration of one choice row (trusted constructor:
        choices index the blocks' own implementation tables)."""
        return PipelineConfig.trusted(
            self.pipeline, tuple(map(getitem, self.names, row))
        )


class BatchPrefixEvaluator:
    """Evaluate configurations of stock-semantics models as columnar
    struct-of-arrays folds — the batch sibling of
    :class:`~repro.explore.incremental.PrefixEvaluator`.

    One cohort walk, :meth:`iter_group_batches`, streams a group of
    scenarios that differ only in their links as lazy
    :class:`BatchRows` views, one per member;
    :meth:`iter_scenario_batches` is its group of one. The walk replays
    the scalar fold's float operations elementwise, so results are
    bit-identical to the scalar evaluator (and to brute force) —
    asserted row-for-row by the invariant suite. Explicit configuration
    lists take the scalar
    :class:`~repro.explore.incremental.PrefixEvaluator`.

    ``model`` must be exactly one of the two stock cost models
    (:func:`~repro.explore.incremental._check_stock_model`): every path
    here assumes their state shapes.
    """

    def __init__(
        self,
        model: ThroughputCostModel | EnergyCostModel,
        pass_rates: dict[str, float] | None = None,
    ):
        _check_stock_model(model)
        if pass_rates is not None and not isinstance(model, EnergyCostModel):
            raise ConfigurationError(
                "pass_rates only apply to EnergyCostModel evaluation"
            )
        self.model = model
        self.pass_rates = pass_rates
        self._energy = isinstance(model, EnergyCostModel)
        self._plans: dict[int, _PipelinePlan] = {}

    def _plan_for(self, pipeline: InCameraPipeline) -> _PipelinePlan:
        plan = self._plans.get(id(pipeline))
        if plan is None or plan.pipeline is not pipeline:
            plan = _PipelinePlan(pipeline)
            self._plans[id(pipeline)] = plan
        return plan

    def _extend(self, state: tuple, level: _Level) -> tuple:
        """Every ``state`` row extended by every option of ``level``, in
        product order."""
        if self._energy:
            return self.model.extend_state_batch(
                state, level.block, level.energy, self.pass_rates
            )
        return self.model.extend_state_batch(state, level.fps)

    # -- whole-space cohort enumeration ----------------------------------

    def iter_scenario_batches(self, scenario: Any) -> Iterator[BatchRows]:
        """Stream a scenario's whole design space as lazy
        :class:`BatchRows` in exact enumeration order: one batch for
        every run of whole depth cohorts that fits one block, then the
        deeper depths block by block. :meth:`iter_group_batches` over a
        group of one."""
        for (batch,) in self.iter_group_batches((scenario,)):
            yield batch

    def iter_group_batches(self, scenarios: Sequence[Any]) -> Iterator[list[BatchRows]]:
        """Stream a walk's members: one cohort walk of the first
        scenario's compute-side states (see :meth:`_iter_cohort_states`
        for the walk, how pruning fuses into it and which depths one
        batch joins), each depth piece closed under every member's own
        link by ``finalize_batch``, then the pieces of a batch joined
        into one view per member.

        A solo run is a group of one. A campaign dedup group's
        ``scenarios`` share one
        :func:`~repro.explore.campaign.scenario_compute_key` (same
        pipeline chain and platform axis, domain, bounds and pass rates,
        no pruning) and differ only in their links. This evaluator runs
        the first one's model: the first member closes under
        ``model.link``, every other member under its own scenario's
        link. Each yielded list holds one lazy :class:`BatchRows` view
        per member, in ``scenarios`` order, all sharing the batch's lazy
        choices and segments by reference, so member rows are
        bit-identical to that member's solo walk.
        """
        model = self.model
        energy = self._energy
        plan = self._plan_for(scenarios[0].pipeline)
        links = [model.link] + [scenario.link for scenario in scenarios[1:]]
        caches: list[dict[int, Any]] = [{} for _ in scenarios]
        for starts, depths, selections, states in self._iter_cohort_states(
            scenarios[0]
        ):
            choices = (
                selections[0] if len(selections) == 1 else _joined_choices(selections)
            )
            views = []
            for scenario, link, cache in zip(scenarios, links, caches):
                parts = []
                for depth, state in zip(depths, states):
                    link_cost = cache.get(depth)
                    if link_cost is None:
                        link_cost = cache[depth] = depth_link_cost(
                            link, energy, plan.pipeline.output_bytes_after(depth)
                        )
                    parts.append(model.finalize_batch(state, link_cost))
                views.append(
                    BatchRows(
                        scenario,
                        plan,
                        starts,
                        depths,
                        choices,
                        _joined_columns(parts),
                        energy,
                    )
                )
            yield views

    def _iter_cohort_states(
        self, scenario: Any
    ) -> Iterator[tuple[tuple, tuple, tuple, tuple]]:
        """The cohort walk: batches of the scenario's pre-finalize
        states in exact enumeration order, at most one block each. A
        batch holds one piece per depth it spans, as ``(starts, depths,
        choices, states)``: each piece's first row in the batch, depth,
        :class:`_Choices` and state.

        Rows grow one pipeline block at a time: one batch call extends
        every parent row by every option of the next block, in
        :func:`itertools.product` order. Full depth cohorts fold this
        way while the next one fits :data:`_BLOCK_ROWS`; these depths
        are *resident*. One batch gathers consecutive resident depths
        while their rows fit the block, so a small walk is one batch.
        Each deeper depth is emitted by a depth-first descent from the
        deepest resident cohort over contiguous row ranges, one piece a
        batch. The target level grows ``_BLOCK_ROWS // k`` parents at a
        time (``k`` options), so an emitted batch holds at most one
        block; an intermediate level grows ``_BLOCK_ROWS // (k *
        k_next)`` parents, so it holds one grow's worth of parents for
        the level below, not a whole block. The walk thus holds one
        block plus about ``_BLOCK_ROWS / k_next`` rows per intermediate
        level, whatever the space size. Depth-``d`` rows come out
        ordered by their resident prefix, then their suffix —
        enumeration order.

        A row carries only what its platform choices cannot recover:
        the model's compact state columns. Its choices follow from its
        position (one :class:`_Frame` per level, holding positions only
        when a prune mask compacted the level, and a choice matrix for
        the resident cohorts, which fit one block); emitted batches
        hold a lazy :class:`_Choices` over the frames and resolve full
        choice rows only for the rows something reads. Pruning fuses into the
        same folds:

        * Depth pruning is honored: a pruned depth is never emitted, but
          still folds as the ancestor of deeper depths.
        * The scenario's prefix pruner (``scenario.prefix_pruner()``,
          whose :attr:`~repro.explore.enumerate.PrefixPruner.
          extend_batch` also reads the extended cost state) runs as
          boolean-mask compaction: its keep mask
          gathers the surviving ``state`` rows (recording their
          positions) after every extend, so a pruned prefix is never
          grown into deeper rows — exactly the scalar DFS's subtree cut;
          once no prefix survives a depth, the walk ends. Bounds that
          are not depth-monotone additionally supply ``emit_mask``,
          applied as an emission-only selection so the running rows keep
          every prefix some deeper depth still needs. Survivor rows are
          byte-identical to the scalar pruned walk.
        * Per-config ``scenario.prune`` hooks run as a scalar filter
          over the already compacted rows at emission time, in
          enumeration order with the scalar path's short-circuit
          semantics (hooks see only rows every other filter kept).

        Resolved choice matrices use the smallest unsigned dtype that
        holds every platform index (``uint8`` below 256 platforms per
        block).
        """
        pruner = scenario.prefix_pruner()
        hooks = _normalize_hooks(scenario.prune)
        pipeline = scenario.pipeline
        plan = self._plan_for(pipeline)
        option_lists = enumeration_plan(pipeline, scenario.max_blocks)
        levels = plan.levels[: len(option_lists)]
        prune_depth = scenario.depth_prune_hook()
        block = _BLOCK_ROWS
        dtype = np.min_scalar_type(
            max((len(level.names) for level in levels), default=1) - 1
        )

        def grow(depth: int, rows: tuple, lo: int, hi: int) -> tuple:
            """The depth-``depth`` children of parent rows ``[lo, hi)``,
            in product order, with pruned prefixes compacted away."""
            frame, state, pstate = rows
            part = slice(lo, hi)
            level = levels[depth - 1]
            k = len(level.names)
            n = (hi - lo) * k
            state = self._extend(_take_state(state, part), level)
            if pruner is None:
                return _Frame(frame, lo, k, None, n), state, None
            pstate, keep = pruner.extend_batch(
                depth - 1, _take_state(pstate, part), state
            )
            if keep.all():
                return _Frame(frame, lo, k, None, n), state, pstate
            idx = np.flatnonzero(keep)
            return (
                _Frame(frame, lo, k, idx, len(idx)),
                _take_state(state, idx),
                _take_state(pstate, idx),
            )

        def hook_filter(choices: _Choices, state: tuple) -> tuple[_Choices, tuple]:
            """Per-config hooks over the compacted rows — the same
            configs, order and any()-short-circuit as the scalar walk's
            keep() filter."""
            kept = [
                i
                for i, row in enumerate(choices.matrix().tolist())
                if not any(hook(plan.config(row)) for hook in hooks)
            ]
            if len(kept) == len(choices):
                return choices, state
            idx = np.array(kept, dtype=np.intp)
            return choices.select(idx), _take_state(state, idx)

        def emit(depth: int, rows: tuple) -> tuple[_Choices, tuple]:
            """The ``(choices, state)`` piece of the depth-``depth`` rows
            that the emission mask and the hooks keep."""
            frame, state, pstate = rows
            choices = _Choices(frame, depth, range(frame.n), dtype)
            if depth and pruner is not None and pruner.emit_mask is not None:
                mask = pruner.emit_mask(depth, pstate)
                if mask is not None and not mask.all():
                    # Emission-only selection: the running rows keep
                    # prefixes other depths still need.
                    idx = np.flatnonzero(mask)
                    choices, state = choices.select(idx), _take_state(state, idx)
            if hooks:
                choices, state = hook_filter(choices, state)
            return choices, state

        def descend(
            depth: int, rows: tuple, target: int
        ) -> Generator[tuple[tuple, tuple, tuple, tuple], None, int]:
            """Emit the depth-``target`` descendants of depth-``depth``
            rows, one contiguous range of parents at a time, one piece a
            batch; returns how many target rows survived the prefix
            bound."""
            n = rows[0].n
            width = len(levels[depth].names)
            if depth + 1 < target:
                width *= len(levels[depth + 1].names)
            step = max(1, block // width)
            survivors = 0
            for lo in range(0, n, step):
                children = grow(depth + 1, rows, lo, min(lo + step, n))
                m = children[0].n
                if depth + 1 == target:
                    survivors += m
                    choices, state = emit(target, children)
                    if len(choices):
                        yield (0,), (target,), (choices,), (state,)
                elif m:
                    survivors += yield from descend(depth + 1, children, target)
            return survivors

        root = _Frame(None, 0, 1, None, 1)
        root.matrix = np.zeros((1, 0), dtype=dtype)
        rows = (
            root,
            self.model.initial_state_batch(1),
            pruner.initial_batch(1) if pruner is not None else None,
        )
        # The next batch: the first row, depth, choices and state of each
        # resident piece gathered so far, and their rows in all.
        batch: tuple[list, list, list, list] = ([], [], [], [])
        gathered = 0
        depth = 0
        while True:
            if (depth or scenario.include_empty) and not (
                prune_depth is not None and prune_depth(depth)
            ):
                # Depth 0 is the raw-offload row: it has no platform
                # choices, so the prefix bound never applies to it; the
                # per-config hooks still do.
                choices, state = emit(depth, rows)
                if len(choices):
                    if gathered and gathered + len(choices) > block:
                        yield tuple(map(tuple, batch))
                        batch, gathered = ([], [], [], []), 0
                    for part, value in zip(batch, (gathered, depth, choices, state)):
                        part.append(value)
                    gathered += len(choices)
            if depth == len(levels) or rows[0].n * len(levels[depth].names) > block:
                break
            depth += 1
            rows = grow(depth, rows, 0, rows[0].n)
            frame = rows[0]
            if not frame.n:
                # Every prefix is provably infeasible at every remaining
                # depth; deeper cohorts are empty too.
                break
            # A resident cohort fits one block: keep its choice matrix,
            # so its rows and every descent below resolve up to here.
            frame.matrix = _resolve_choices(frame, depth, dtype, range(frame.n))
        if gathered:
            yield tuple(map(tuple, batch))
        if depth == len(levels) or not rows[0].n:
            return
        # ``rows`` is the deepest resident cohort; deeper depths descend
        # from it.
        for target in range(depth + 1, len(levels) + 1):
            if prune_depth is not None and prune_depth(target):
                continue
            if not (yield from descend(depth, rows, target)):
                return
