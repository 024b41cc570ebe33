"""Exploration results: feasibility, Pareto frontiers, ranking, export.

An :class:`ExplorationResult` holds every evaluated configuration of
one scenario and answers the questions the paper asks of Figure 10 —
which configurations are feasible, which are optimal, and which are
*dominated* (beaten on every axis by another configuration and
therefore never worth building).

A cohort-path result keeps the columnar batches the walk produced and
answers on their columns, building row dicts only for the rows a query
returns; a scalar-path result keeps one cost object per configuration.
Rows (plain dicts, like :class:`repro.core.sweep.SweepResult` rows) are
a *derived view* either way: they are built lazily on first access to
:attr:`ExplorationResult.rows` and cached, while the export paths
(:meth:`to_csv` / :meth:`to_json` / :meth:`to_table`) stream rows via
:meth:`iter_rows` without forcing the cache — a million-config result
never holds a full row list just to be written to disk.
"""

from __future__ import annotations

import heapq
import json
import math
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.cost import ConfigCost, EnergyCost
from repro.core.report import TextTable
from repro.errors import ConfigurationError, PipelineError

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from repro.core.offload import OffloadReport
    from repro.core.sweep import SweepResult
    from repro.explore.scenario import Scenario

#: Default Pareto axes per domain: (axes, maximize).
DEFAULT_AXES: dict[str, tuple[tuple[str, ...], bool]] = {
    "throughput": (("compute_fps", "communication_fps"), True),
    "energy": (("total_energy_j", "active_seconds"), False),
}


def require_key(rows: Sequence[dict[str, Any]], key: str, kind: str = "metric") -> None:
    """Raise ConfigurationError naming the rows where ``key`` is absent
    (shared by SweepResult and ExplorationResult lookups)."""
    missing = [i for i, row in enumerate(rows) if key not in row]
    if missing:
        raise ConfigurationError(f"{kind} {key!r} missing in rows {missing[:5]}")


def json_safe_value(value: Any) -> Any:
    """Map non-finite floats to the strings ``"inf"``/``"-inf"``/``"nan"``.

    The one JSON-value mapping shared by :meth:`ExplorationResult.to_json`
    and the streaming :class:`repro.explore.sink.JsonlSink`, so a row
    serialized by either path is byte-identical to the other.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def _base_row(config) -> dict[str, Any]:
    return {
        "config": config.label,
        "n_in_camera": config.n_in_camera,
        "platforms": "+".join(config.platforms) if config.platforms else "-",
        "offload_bytes": config.offload_bytes,
    }


def _throughput_row(cost: ConfigCost, target_fps: float | None) -> dict[str, Any]:
    row = _base_row(cost.config)
    row.update(
        compute_fps=cost.compute_fps,
        communication_fps=cost.communication_fps,
        total_fps=cost.total_fps,
        bottleneck=cost.bottleneck,
        slowest_block=cost.slowest_block,
        feasible=cost.meets(target_fps) if target_fps is not None else True,
    )
    return row


def _energy_row(cost: EnergyCost, budget_j: float | None) -> dict[str, Any]:
    row = _base_row(cost.config)
    row.update(
        sensor_energy_j=cost.sensor_energy,
        compute_energy_j=sum(cost.block_energies.values()),
        transmit_energy_j=cost.transmit_energy,
        total_energy_j=cost.total_energy,
        transmit_rate=cost.transmit_rate,
        active_seconds=cost.active_seconds,
        feasible=cost.total_energy <= budget_j if budget_j is not None else True,
    )
    return row


def cost_row(scenario: "Scenario", cost: Any) -> dict[str, Any]:
    """The report row of one cost object under a scenario's verdicts."""
    if scenario.domain == "throughput":
        return _throughput_row(cost, scenario.target_fps)
    return _energy_row(cost, scenario.energy_budget_j)


def best_row(
    rows: Sequence[dict[str, Any]], metric: str, maximize: bool = True
) -> dict[str, Any]:
    """The optimal row by one metric, ties to the earliest row.

    This is *the* tie rule of the whole stack — ``max``/``min`` return
    the first element attaining the optimum, so among equal-metric rows
    the earliest-enumerated configuration wins. Layers that re-rank row
    subsets share this rule with :attr:`ExplorationResult.best`: the
    joint-fleet candidate reduction (:class:`~repro.explore.joint.
    JointCandidateSink`) keeps a depth's row only on a strictly greater
    rate, and its tests check it against this function.
    """
    if not rows:
        raise PipelineError(f"no rows to rank by {metric!r}")
    if maximize:
        return max(rows, key=lambda r: r[metric])
    return min(rows, key=lambda r: r[metric])


class ExplorationResult:
    """Every evaluated configuration of one scenario, with verdicts.

    A result of the columnar cohort walk (``explore()``) owns the walk's
    :class:`~repro.explore.vectorized.BatchRows` segments — choice
    matrices plus finalized cost columns — and answers
    :attr:`best`, :attr:`feasible`, :meth:`pareto`, :meth:`dominated`,
    :meth:`top_k` and ``len()`` on those columns, building row dicts
    only for the rows it returns. Any other result (the scalar fold,
    ``explore_brute_force``) holds one cost object per configuration and
    answers from its rows. Row code also answers whenever the columns
    cannot: a metric that is not columnar (``config``, ``bottleneck``),
    not a number or NaN somewhere, three or more Pareto axes, an empty
    result, or assigned ``rows``. Both ways give the same rows, byte
    for byte.

    ``rows`` and ``evaluations`` are index-aligned compatibility views:
    ``evaluations[i]`` is the :class:`~repro.core.cost.ConfigCost` or
    :class:`~repro.core.cost.EnergyCost` behind ``rows[i]``. Each is
    built on first access and cached (assigning ``rows`` replaces the
    derived view, which keeps ad-hoc post-processing working).
    """

    def __init__(
        self,
        scenario: "Scenario",
        rows: list[dict[str, Any]] | None = None,
        evaluations: list[Any] | None = None,
    ):
        self.scenario = scenario
        self._evaluations: list[Any] | None = [] if evaluations is None else evaluations
        self._rows = rows
        #: The cohort segments, or None for a result built from costs.
        self._batches: list[Any] | None = None
        self._rows_assigned = False
        #: Concatenated metric columns by name (None: not columnar).
        self._column_cache: dict[str, np.ndarray | None] = {}

    @classmethod
    def _from_batches(cls, scenario: "Scenario", batches: list[Any]):
        """A result owning the cohort walk's segments, in walk order."""
        result = cls(scenario)
        result._evaluations = None
        result._batches = batches
        return result

    @property
    def evaluations(self) -> list[Any]:
        """One cost object per configuration (built lazily, then cached)."""
        if self._evaluations is None:
            self._evaluations = [
                cost for batch in self._batches for cost in batch.costs()
            ]
        return self._evaluations

    @property
    def rows(self) -> list[dict[str, Any]]:
        """One report row per configuration (built lazily, then cached)."""
        if self._rows is None:
            self._rows = list(self.iter_rows())
        return self._rows

    @rows.setter
    def rows(self, value: list[dict[str, Any]]) -> None:
        self._rows = value
        self._rows_assigned = True

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Stream rows without materializing the cache (export path):
        the cached/assigned rows when they exist, else one segment (or
        cost object) at a time."""
        if self._rows is not None:
            yield from self._rows
            return
        if self._evaluations is None:
            for batch in self._batches:
                yield from batch.rows()
            return
        scenario = self.scenario
        for cost in self._evaluations:
            yield cost_row(scenario, cost)

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        if self._evaluations is None:
            return sum(len(batch) for batch in self._batches)
        return len(self._evaluations)

    def _column(self, name: str) -> np.ndarray | None:
        """One metric over every segment as an exact float64 column, or
        None when row code must answer: no segments (or assigned rows),
        a metric that is not columnar, not a number, an integer beyond
        float precision, or NaN anywhere."""
        if self._rows_assigned or not self._batches:
            return None
        if name not in self._column_cache:
            column = None
            try:
                # Throwaway views: a kept segment memoizes no column this
                # cache already holds concatenated.
                parts = [
                    np.asarray(b.slice(0, len(b)).metric_column(name))
                    for b in self._batches
                ]
            except KeyError:
                parts = []
            if parts and all(_exact_float(part) for part in parts):
                column = np.concatenate(parts).astype(float, copy=False)
                if np.isnan(column).any():
                    column = None
            self._column_cache[name] = column
        return self._column_cache[name]

    def _take(self, positions: Sequence[int]) -> list[dict[str, Any]]:
        """The rows at ``positions``, in that order: from the row cache
        or the cost objects when they exist, else gathered with one
        :meth:`BatchRows.take` per segment touched."""
        if self._rows is not None:
            rows = self._rows
            return [rows[i] for i in positions]
        if self._evaluations is not None:
            scenario, costs = self.scenario, self._evaluations
            return [cost_row(scenario, costs[i]) for i in positions]
        positions = np.asarray(positions, dtype=np.intp)
        order = np.argsort(positions, kind="stable")
        ordered = positions[order]
        starts = np.cumsum([0] + [len(batch) for batch in self._batches])
        cuts = np.searchsorted(ordered, starts).tolist()
        gathered: list[dict[str, Any]] = []
        for batch, lo, hi, start in zip(self._batches, cuts, cuts[1:], starts):
            if lo < hi:
                gathered.extend(batch.take((ordered[lo:hi] - start).tolist()))
        out: list[Any] = [None] * len(gathered)
        for slot, row in zip(order.tolist(), gathered):
            out[slot] = row
        return out

    @property
    def feasible(self) -> list[dict[str, Any]]:
        """Rows clearing the scenario's target (all rows if untargeted)."""
        column = self._column("feasible")
        if column is None:
            return [row for row in self.rows if row["feasible"]]
        return self._take(np.flatnonzero(column))

    def _count_feasible(self) -> int:
        """``len(self.feasible)``, counted on the column when there is one."""
        column = self._column("feasible")
        if column is None:
            return sum(1 for row in self.rows if row["feasible"])
        return int(np.count_nonzero(column))

    @property
    def best(self) -> dict[str, Any]:
        """The optimal row for the domain: highest total FPS
        (throughput) or lowest expected energy (energy). Ties break to
        the earliest-enumerated configuration."""
        if self.scenario.domain == "throughput":
            metric, maximize = "total_fps", True
        else:
            metric, maximize = "total_energy_j", False
        column = self._column(metric)
        if column is None:
            if not self.rows:
                raise PipelineError("no configurations evaluated")
            return best_row(self.rows, metric, maximize)
        # argmax/argmin return the first optimum: best_row's tie rule.
        position = np.argmax(column) if maximize else np.argmin(column)
        return self._take([int(position)])[0]

    def _frontier_positions(
        self,
        axes: Sequence[str] | None,
        maximize: bool | Sequence[bool] | None,
    ) -> list[int]:
        """Positions of the non-dominated rows, ascending (see
        :meth:`pareto`): one skyline over the segments' axis columns,
        else a :class:`ParetoFrontier` fold over the rows."""
        default_axes, default_flag = DEFAULT_AXES[self.scenario.domain]
        frontier = ParetoFrontier(
            default_axes if axes is None else axes,
            default_flag if maximize is None else maximize,
        )
        if frontier._sweep:
            columns = [self._column(axis) for axis in frontier._axes]
            if all(column is not None for column in columns):
                keys = _stack(
                    [c if flag else -c for c, flag in zip(columns, frontier._flags)]
                )
                return np.flatnonzero(_skyline(keys[0], keys[1])).tolist()
        frontier.add(self.rows)
        return frontier._positions

    def pareto(
        self,
        axes: Sequence[str] | None = None,
        maximize: bool | Sequence[bool] | None = None,
    ) -> list[dict[str, Any]]:
        """Non-dominated rows in enumeration order; defaults to the
        domain's canonical axes ((compute_fps, communication_fps)
        maximized for throughput, (total_energy_j, active_seconds)
        minimized for energy). Same rows as :func:`pareto_filter` over
        :attr:`rows`.

        ``maximize=None`` always means the domain's direction — also for
        explicitly passed ``axes`` — so an energy-domain frontier never
        silently flips to maximization."""
        return self._take(self._frontier_positions(axes, maximize))

    def dominated(
        self,
        axes: Sequence[str] | None = None,
        maximize: bool | Sequence[bool] | None = None,
    ) -> list[dict[str, Any]]:
        """The complement of :meth:`pareto`, by position and in
        enumeration order: configs never worth building."""
        frontier = self._frontier_positions(axes, maximize)
        keep = np.ones(len(self), dtype=bool)
        keep[np.asarray(frontier, dtype=np.intp)] = False
        return self._take(np.flatnonzero(keep))

    def top_k(
        self, metric: str, k: int = 5, maximize: bool = True
    ) -> list[dict[str, Any]]:
        """The best ``k`` rows by one metric (stable: ties keep
        enumeration order)."""
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        column = self._column(metric)
        if column is None:
            require_key(self.rows, metric)
            # Stable also under reverse=True, so ties keep enumeration
            # order in both directions; works for any orderable metric.
            ordered = sorted(self.rows, key=lambda r: r[metric], reverse=maximize)
            return ordered[:k]
        # A stable ascending sort of the negated column is the stable
        # reverse=True sort: equal values keep enumeration order.
        order = np.argsort(-column if maximize else column, kind="stable")
        return self._take(order[:k])

    # -- export ---------------------------------------------------------

    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        rows = self._rows
        if rows is None:
            # Derived rows are homogeneous per domain; one suffices.
            rows = self._take([0] if len(self) else [])
        cols: dict[str, None] = {}
        for row in rows:
            for key in row:
                cols.setdefault(key)
        return list(cols)

    def to_table(self, title: str | None = None) -> TextTable:
        """The result as a :class:`~repro.core.report.TextTable`."""
        table = TextTable(self.columns(), title=title or self.scenario.name)
        table.add_rows(self.iter_rows())
        return table

    def to_csv(self, path: str | None = None) -> str:
        """CSV export (via :meth:`TextTable.to_csv`); optionally written
        to ``path``."""
        text = self.to_table().to_csv()
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def to_json(self, path: str | None = None) -> str:
        """Full-precision JSON export of scenario name, domain and rows.

        Strictly valid JSON: non-finite floats (``inf`` compute rates on
        the raw-offload config, ``nan``) become the strings ``"inf"`` /
        ``"-inf"`` / ``"nan"`` rather than the non-standard ``Infinity``
        tokens ``json.dumps`` would otherwise emit."""
        text = json.dumps(
            {
                "scenario": self.scenario.name,
                "domain": self.scenario.domain,
                "rows": [
                    {key: json_safe_value(val) for key, val in row.items()}
                    for row in self.iter_rows()
                ],
            },
            indent=2,
            allow_nan=False,
        )
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    # -- backward-compatible adapters -----------------------------------

    def as_sweep_result(self) -> "SweepResult":
        """The rows as a legacy :class:`~repro.core.sweep.SweepResult`."""
        from repro.core.sweep import SweepResult

        return SweepResult(rows=list(self.rows))

    def as_offload_report(self) -> "OffloadReport":
        """The evaluations as a legacy
        :class:`~repro.core.offload.OffloadReport` (throughput domain
        only — the report's feasibility semantics are FPS-based)."""
        from repro.core.offload import OffloadReport

        if self.scenario.domain != "throughput":
            raise PipelineError(
                "OffloadReport is throughput-domain only; "
                f"this result is {self.scenario.domain!r}"
            )
        target = self.scenario.target_fps
        if target is None:
            raise PipelineError(
                "scenario has no target_fps; OffloadReport needs one"
            )
        return OffloadReport(costs=list(self.evaluations), target_fps=target)


#: Axis and metric values the online folds accept: real numbers
#: (``bool`` included), as in Python's own comparisons.
_NUMBER = (int, float)

#: Largest integer magnitude a float64 holds exactly; integer keys past
#: it compare as Python objects so float rounding never merges them.
_EXACT_INT = 2**53


def _skyline(k0: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """The non-dominated mask of the points ``(k0[i], k1[i])``, both
    axes maximized (a one-axis frontier passes a zero ``k1``).

    Exact O(n log n) sort and sweep: sort by ``k0`` descending and group
    equal ``k0``. A point survives iff its ``k1`` is its group's maximum
    (no point of equal ``k0`` beats it) and strictly exceeds the running
    maximum ``k1`` of every group with larger ``k0`` (no such point
    matches it); the first group has no such bound. Group maxima come
    from one ``reduceat``, so the order within a group is irrelevant and
    one unstable ``argsort`` of ``k0`` suffices. Exact ties all survive,
    ``-0.0 == 0.0`` and ±inf are ordinary values. Keys must be NaN-free.
    """
    n = len(k0)
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    order = np.argsort(k0)[::-1]
    s0, s1 = k0[order], k1[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    starts[1:] = s0[1:] != s0[:-1]
    heads = np.maximum.reduceat(s1, np.flatnonzero(starts))  # group maxima
    group = np.cumsum(starts) - 1
    survive = s1 == heads[group]
    later = group > 0
    bound = np.maximum.accumulate(heads)  # running maximum through group g
    survive[later] &= s1[later] > bound[group[later] - 1]
    mask[order] = survive
    return mask


def _exact_float(column: np.ndarray) -> bool:
    """Whether a metric column converts to float64 exactly: floats and
    bools, and integers within :data:`_EXACT_INT`."""
    kind = column.dtype.kind
    if kind in "iu":
        return not column.size or int(np.abs(column).max()) <= _EXACT_INT
    return kind in "fb"


def _key_column(values: list[Any], maximize: bool) -> np.ndarray | None:
    """One axis's sign-normalized key column (maximized), or None when
    a value is not a number or is NaN (the caller locates the row)."""
    kinds = set(map(type, values))
    dtype: Any = float
    if not kinds <= {float}:
        if not all(issubclass(kind, _NUMBER) for kind in kinds):
            return None
        if any(isinstance(v, int) and abs(v) > _EXACT_INT for v in values):
            dtype = object
    column = np.array(values, dtype=dtype)
    if dtype is object:
        has_nan = any(v != v for v in values)
    else:
        has_nan = bool(np.isnan(column).any())
    if has_nan:
        return None
    return column if maximize else -column


def _stack(keys: list[np.ndarray]) -> np.ndarray:
    """(2, m) chunk keys from one or two key columns (a one-axis
    frontier's second key is zero)."""
    if len(keys) == 1:
        keys = [keys[0], np.zeros(len(keys[0]))]
    return np.stack(keys)


def _block_rows() -> int:
    """The online frontier's pending budget: the cohort walk's block
    size, :data:`repro.explore.vectorized._BLOCK_ROWS` (read at call
    time; imported lazily, as vectorized imports this module)."""
    from repro.explore import vectorized

    return vectorized._BLOCK_ROWS


def _decode(refs: list[list[Any]]) -> list[dict[str, Any]]:
    """The rows behind survivor references, in order.

    A reference is a two-item list: ``[None, row]`` once built, else
    ``[view, slot]``, slot ``slot`` of a compact
    :meth:`~repro.explore.vectorized.BatchRows.compact` view. Each view
    builds its slots in one :meth:`take`, and every reference is
    rewritten to its row, so a survivor is built once however often it
    is read."""
    views: dict[int, list[list[Any]]] = {}
    for ref in refs:
        if ref[0] is not None:
            views.setdefault(id(ref[0]), []).append(ref)
    for group in views.values():
        view = group[0][0]
        for ref, row in zip(group, view.take([ref[1] for ref in group])):
            ref[0], ref[1] = None, row
    return [ref[1] for ref in refs]


class ParetoFrontier:
    """An online Pareto frontier over streamed rows.

    The batch :func:`pareto_filter` needs every row at once; this class
    maintains the frontier *incrementally* — :meth:`add` and
    :meth:`add_batch` fold chunks of rows into the current
    non-dominated set — so ``pareto`` / ``pareto_size`` stay available
    on export-only (``collect=False``) runs whose rows were never
    retained. The frontier it reports is exactly what
    :func:`pareto_filter` would return over all rows seen so far, in
    the same (first-seen) order: dominance is transitive, so the
    frontier of every row seen is the frontier of (current frontier ∪
    new rows). Tests assert the streamed frontier equals the collected
    one exactly.

    Same semantics as :func:`pareto_filter`: a row survives unless some
    other row beats it on every axis and strictly on at least one (per
    the ``maximize`` flags); exact ties all survive; missing, non-numeric
    or NaN axis values raise :class:`ConfigurationError` naming the
    offending row's stream position, after the rows before it are
    folded.

    One or two axes (both default frontiers) merge with the frontier in
    one O(n log n) skyline sweep over numpy key columns; three or more
    fold row by row against the frontier. :meth:`add_batch` (two axes
    or fewer) only appends a columnar batch's keys to a pending block
    and sweeps once per block of up to
    :data:`repro.explore.vectorized._BLOCK_ROWS` pending rows (a larger
    batch is a block of its own), or on the first read (``len``,
    :attr:`rows`, the next :meth:`add`). Survivors
    are kept as their keys, their stream positions and a compact view
    per batch (:meth:`~repro.explore.vectorized.BatchRows.compact`: the
    survivors' choices and per-row columns, nothing of the walk), so
    the frontier never pins a batch once its block is swept, and a
    survivor becomes a row dict only when :attr:`rows` reads it.
    """

    def __init__(
        self, axes: Sequence[str], maximize: bool | Sequence[bool] = True
    ):
        if not axes:
            raise ConfigurationError("pareto needs at least one axis")
        flags = (
            [maximize] * len(axes) if isinstance(maximize, bool) else list(maximize)
        )
        if len(flags) != len(axes):
            raise ConfigurationError(
                f"got {len(axes)} axes but {len(flags)} maximize flags"
            )
        self._axes = tuple(axes)
        self._flags = tuple(flags)
        self._sweep = len(axes) <= 2
        self.n_seen = 0
        #: Frontier survivors in first-seen order: their references
        #: (see :func:`_decode`), stream positions and sign-normalized
        #: axis keys (all axes maximized): a (2, n_front) array for one
        #: or two axes (a one-axis frontier's second row is zeros), one
        #: key list per row for three or more.
        self._refs: list[list[Any]] = []
        self._positions: list[int] = []
        self._columns = np.empty((2, 0))
        self._keys: list[list[float]] = []
        #: The pending block: the key columns and the batch of each
        #: folded batch not yet swept, and their row count.
        self._pending: list[tuple[list[np.ndarray], Any]] = []
        self._n_pending = 0

    def _key(self, row: dict[str, Any], position: int) -> list[float]:
        key = []
        for axis, flag in zip(self._axes, self._flags):
            if axis not in row:
                raise ConfigurationError(f"axis {axis!r} missing in row {position}")
            value = row[axis]
            if not isinstance(value, _NUMBER):
                raise ConfigurationError(
                    f"axis {axis!r} must be a number for a Pareto frontier, "
                    f"got {type(value).__name__} in row {position}"
                )
            if isinstance(value, float) and math.isnan(value):
                raise ConfigurationError(f"axis {axis!r} is NaN in row {position}")
            key.append(value if flag else -value)
        return key

    def _merge(
        self,
        chunk: np.ndarray,
        refs: Callable[[np.ndarray], list[list[Any]]],
    ) -> None:
        """Merge the (2, m) keys of the ``m`` stream rows after the
        frontier's last sweep into it: one skyline over frontier then
        chunk keys; surviving frontier entries stay in place and the
        references of surviving chunk rows (``refs(indices)``, one call)
        append in index order."""
        n_front = len(self._refs)
        base = self.n_seen - chunk.shape[1]
        keys = np.concatenate((self._columns, chunk), axis=1)
        mask = _skyline(keys[0], keys[1])
        if n_front and not mask[:n_front].all():
            kept = np.flatnonzero(mask[:n_front]).tolist()
            self._refs = [self._refs[i] for i in kept]
            self._positions = [self._positions[i] for i in kept]
        joined = np.flatnonzero(mask[n_front:])
        if len(joined):
            self._refs.extend(refs(joined))
            self._positions.extend((joined + base).tolist())
        self._columns = keys[:, mask]

    def _flush(self) -> None:
        """Sweep the pending block into the frontier: one skyline, then
        one compact view of each batch's joining rows."""
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        chunk = np.zeros((2, self._n_pending))
        self._n_pending = 0
        starts = [0]
        for keys, _ in pending:
            lo, hi = starts[-1], starts[-1] + len(keys[0])
            for row, key in enumerate(keys):
                chunk[row, lo:hi] = key
            starts.append(hi)

        def refs(joined: np.ndarray) -> list[list[Any]]:
            out: list[list[Any]] = []
            cuts = np.searchsorted(joined, starts).tolist()
            for (_, batch), lo, hi, start in zip(pending, cuts, cuts[1:], starts):
                if lo < hi:
                    view = batch.compact(joined[lo:hi] - start)
                    out.extend([view, slot] for slot in range(hi - lo))
            return out

        self._merge(chunk, refs)

    def add(self, rows: Sequence[dict[str, Any]]) -> None:
        """Fold one chunk of rows into the frontier (stream order)."""
        if not self._sweep:
            self._fold(rows)
            return
        rows = rows if isinstance(rows, list) else list(rows)
        if not rows:
            return
        try:
            keys = [
                _key_column(list(map(itemgetter(axis), rows)), flag)
                for axis, flag in zip(self._axes, self._flags)
            ]
        except KeyError:
            keys = [None]
        if any(key is None for key in keys):
            # Locate the first offending row, fold the rows before it,
            # then raise its error (the state a row-by-row fold leaves).
            for position, row in enumerate(rows):
                try:
                    self._key(row, self.n_seen + position)
                except ConfigurationError as error:
                    self.add(rows[:position])
                    raise error
        self._flush()
        self.n_seen += len(rows)
        self._merge(_stack(keys), lambda joined: [[None, rows[i]] for i in joined])

    def _fold(self, rows: Sequence[dict[str, Any]]) -> None:
        """Row-by-row fold (three or more axes)."""
        n_axes = len(self._axes)
        frontier_refs = self._refs
        frontier_positions = self._positions
        frontier_keys = self._keys
        for row in rows:
            position = self.n_seen
            mine = self._key(row, position)
            self.n_seen += 1
            dominated = False
            evicted: list[int] = []
            for index, other in enumerate(frontier_keys):
                if all(other[d] >= mine[d] for d in range(n_axes)) and any(
                    other[d] > mine[d] for d in range(n_axes)
                ):
                    dominated = True
                    break
                if all(mine[d] >= other[d] for d in range(n_axes)) and any(
                    mine[d] > other[d] for d in range(n_axes)
                ):
                    evicted.append(index)
            if dominated:
                continue
            for index in reversed(evicted):
                del frontier_refs[index]
                del frontier_positions[index]
                del frontier_keys[index]
            frontier_refs.append([None, row])
            frontier_positions.append(position)
            frontier_keys.append(mine)

    def add_batch(self, batch: Any) -> None:
        """Fold one columnar :class:`~repro.explore.vectorized.BatchRows`
        view into the frontier without materializing any of its rows.
        Batches are member-tagged (campaign dedup members fold views of
        group-shared states tagged with their own scenario), so
        survivors materialize exactly as the member's solo rows.

        Semantically identical to ``add(batch.rows())`` — same frontier,
        same ``n_seen`` positions in every error message — but only the
        batch's axis columns are read: they join the pending block,
        which one skyline sweeps before a batch would take it past
        :data:`repro.explore.vectorized._BLOCK_ROWS` rows (or on the
        next read), and each swept batch leaves one
        :meth:`~repro.explore.vectorized.BatchRows.compact` view of its
        survivors. Falls back to the row path with three or more axes,
        or when an axis is not a float column
        (:meth:`BatchRows.metric_column` raises ``KeyError`` for
        non-columnar metrics; integer columns compare exactly as rows).
        """
        m = len(batch)
        if m == 0:
            return
        if not self._sweep:
            self.add(batch.rows())
            return
        keys = []
        for axis, flag in zip(self._axes, self._flags):
            try:
                column = np.asarray(batch.metric_column(axis))
            except KeyError:
                column = None
            if column is None or column.dtype.kind not in "fb":
                self.add(batch.rows())
                return
            column = column.astype(float, copy=False)
            keys.append(column if flag else -column)
        nan = np.isnan(keys[0])
        if len(keys) == 2:
            nan |= np.isnan(keys[1])
        limit = int(np.argmax(nan)) if nan.any() else m
        if limit:
            budget = _block_rows()
            if self._n_pending and self._n_pending + limit > budget:
                self._flush()
            self._pending.append(([key[:limit] for key in keys], batch))
            self._n_pending += limit
            self.n_seen += limit
        for i in range(limit, m):
            self.add([batch.row(i)])  # first iteration raises on the NaN

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The current non-dominated rows, in first-seen order (built
        on first read)."""
        self._flush()
        return _decode(self._refs)

    def __len__(self) -> int:
        self._flush()
        return len(self._refs)


class TopK:
    """A bounded online top-k ranking over streamed rows — the ranking
    mirror of :class:`ParetoFrontier`.

    :meth:`ExplorationResult.top_k` sorts the full row list; this class
    maintains only a size-``k`` heap, so the best rows by one metric
    stay available on export-only (``collect=False``) runs whose rows
    were never retained, in memory bounded by ``k``. :attr:`rows` is
    *exactly* ``sorted(all rows seen, key=metric, reverse=maximize)[:k]``
    — including the stable tie rule (ties keep stream order, and at the
    cutoff boundary the earliest-seen rows win the last slots) — so the
    online and batch rankings are interchangeable (asserted row-for-row
    by the invariant suite).

    Metric values must be real numbers (the heap negates values for
    minimization); a missing or NaN metric raises
    :class:`ConfigurationError` naming the offending row's stream
    position — unlike the batch sort, which would silently misorder
    NaN.
    """

    def __init__(self, metric: str, k: int = 5, maximize: bool = True):
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        self.metric = metric
        self.k = k
        self.maximize = maximize
        self.n_seen = 0
        #: Min-heap of ((priority, -position), reference): the worst
        #: surviving row sits at the root. Positions are unique, so heap
        #: keys never tie and references are never compared. A
        #: reference is a row or a slot of a compact view (see
        #: :func:`_decode`).
        self._heap: list[tuple[tuple[Any, int], list[Any]]] = []

    def add(self, rows: Sequence[dict[str, Any]]) -> None:
        """Fold one chunk of rows into the ranking (stream order)."""
        metric, k, maximize = self.metric, self.k, self.maximize
        heap = self._heap
        for row in rows:
            position = self.n_seen
            self.n_seen += 1
            if metric not in row:
                raise ConfigurationError(
                    f"metric {metric!r} missing in row {position}"
                )
            value = row[metric]
            if not isinstance(value, _NUMBER):
                raise ConfigurationError(
                    f"metric {metric!r} must be a number for online top-k, "
                    f"got {type(value).__name__} in row {position}"
                )
            if isinstance(value, float) and math.isnan(value):
                raise ConfigurationError(
                    f"metric {metric!r} is NaN in row {position}"
                )
            if k == 0:
                continue
            # Among equal metric values the earlier row ranks higher, so
            # earlier rows carry the larger tiebreak (-position).
            key = ((value if maximize else -value), -position)
            if len(heap) < k:
                heapq.heappush(heap, (key, [None, row]))
            elif key > heap[0][0]:
                heapq.heapreplace(heap, (key, [None, row]))

    def add_batch(self, batch: Any) -> None:
        """Fold one columnar :class:`~repro.explore.vectorized.BatchRows`
        view into the ranking without materializing any of its rows.

        Semantically identical to ``add(batch.rows())`` — same surviving
        rows, ties and ``n_seen`` positions — but it reads the metric
        column only. While the heap fills every row enters; once it is
        full, rows that cannot displace the batch-start root are
        rejected by one vectorized comparison (sound: the root value
        only grows, and an exact tie with the root never enters because
        later positions carry smaller tiebreaks, so the strict ``>``
        mask — ``>=`` against an integer root float64 rounds — is a
        superset of the rows the scalar fold would admit). Of
        those candidates only the batch's own ``k`` best (by value,
        earliest first) can still reach the top ``k`` — a row with
        ``k`` better rows in the same batch never does — so at most
        ``k`` fold through the heap, in stream order, keyed by their
        column values. The rows the batch leaves in the heap are kept
        as one :meth:`~repro.explore.vectorized.BatchRows.compact` view,
        so the ranking never pins the batch, and they become row dicts
        only when :attr:`rows` reads them. Falls back to the row path
        when the metric is not an exact numeric column.
        """
        m = len(batch)
        if m == 0:
            return
        try:
            column = np.asarray(batch.metric_column(self.metric))
        except KeyError:
            column = None
        if column is None or not _exact_float(column):
            self.add(batch.rows())
            return
        values = column.astype(float, copy=False)
        if not self.maximize:
            values = -values
        bad = np.isnan(values)
        limit = int(np.argmax(bad)) if bad.any() else m
        base = self.n_seen
        k, heap, maximize = self.k, self._heap, self.maximize
        if k > 0 and limit:
            # An entering row's reference names the batch itself until
            # the batch's survivors are compacted below.
            refs: list[list[Any]] = []

            def enter(index: int, value: Any) -> None:
                key = ((value if maximize else -value), -(base + index))
                if len(heap) < k:
                    ref = [batch, index]
                    heapq.heappush(heap, (key, ref))
                elif key > heap[0][0]:
                    ref = [batch, index]
                    heapq.heapreplace(heap, (key, ref))
                else:
                    return
                refs.append(ref)

            # Heap fill: every row enters, no prefilter possible.
            fill = min(k - len(heap), limit)
            for index, value in enumerate(column[:fill].tolist()):
                enter(index, value)
            if fill < limit:
                window = values[fill:limit]
                root = heap[0][0][0]
                if isinstance(root, int) and abs(root) > _EXACT_INT:
                    # float64 rounds this root: a row tying the rounded
                    # value may still beat it exactly.
                    candidates = np.flatnonzero(window >= root)
                else:
                    candidates = np.flatnonzero(window > root)
                if len(candidates) > k:
                    # The window's own k best (stable: ties keep the
                    # earliest), put back in stream order.
                    best = np.argsort(-window[candidates], kind="stable")[:k]
                    candidates = np.sort(candidates[best])
                candidates += fill
                for index, value in zip(
                    candidates.tolist(), column[candidates].tolist()
                ):
                    enter(index, value)
            if refs:
                alive = {id(ref) for _, ref in heap}
                refs = [ref for ref in refs if id(ref) in alive]
                view = batch.compact([ref[1] for ref in refs])
                for slot, ref in enumerate(refs):
                    ref[0], ref[1] = view, slot
        self.n_seen = base + limit
        for i in range(limit, m):
            self.add([batch.row(i)])  # first iteration raises on the NaN

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The current top-``k`` rows, best first (ties in stream order;
        built on first read)."""
        ordered = sorted(self._heap, key=itemgetter(0), reverse=True)
        return _decode([ref for _, ref in ordered])

    def __len__(self) -> int:
        return len(self._heap)


def domain_frontier(domain: str) -> ParetoFrontier:
    """A :class:`ParetoFrontier` on the domain's canonical axes (what
    :meth:`ExplorationResult.pareto` defaults to)."""
    axes, maximize = DEFAULT_AXES[domain]
    return ParetoFrontier(axes, maximize)


def pareto_filter(
    rows: Sequence[dict[str, Any]],
    axes: Sequence[str],
    maximize: bool | Sequence[bool] = True,
) -> list[dict[str, Any]]:
    """The non-dominated subset of ``rows`` under the given axes.

    Row *a* dominates row *b* when *a* is at least as good on every axis
    and strictly better on at least one ('good' per the corresponding
    ``maximize`` flag). Rows with identical axis values do not dominate
    each other, so exact ties all survive; input order is preserved.

    One :meth:`ParetoFrontier.add` over the whole sequence (an
    O(n log n) skyline sweep for one or two axes) — the batch and
    streaming paths share one dominance definition, so they cannot
    drift apart. Missing, non-numeric and NaN axis values raise
    :class:`ConfigurationError` naming the row.
    """
    frontier = ParetoFrontier(axes, maximize)
    frontier.add(rows)
    return frontier.rows
