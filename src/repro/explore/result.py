"""Exploration results: feasibility, Pareto frontiers, ranking, export.

An :class:`ExplorationResult` holds one cost object per evaluated
configuration and answers the questions the paper asks of Figure 10 —
which configurations are feasible, which are optimal, and which are
*dominated* (beaten on every axis by another configuration and
therefore never worth building).

Rows (plain dicts, like :class:`repro.core.sweep.SweepResult` rows) are
a *derived view* over the evaluations: they are built lazily on first
access to :attr:`ExplorationResult.rows` and cached, while the export
paths (:meth:`to_csv` / :meth:`to_json` / :meth:`to_table`) stream rows
via :meth:`iter_rows` without forcing the cache — a million-config
result never double-holds a row list next to its evaluation list just
to be written to disk.
"""

from __future__ import annotations

import heapq
import json
import math
from typing import TYPE_CHECKING, Any, Iterator, Sequence

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
    the earliest-enumerated configuration wins. Exposed as a function so
    layers that re-rank row subsets (the joint-fleet candidate
    reduction in :mod:`repro.explore.joint`) provably share the rule
    with :attr:`ExplorationResult.best` instead of re-encoding it.
    """
    if not rows:
        raise PipelineError(f"no rows to rank by {metric!r}")
    if maximize:
        return max(rows, key=lambda r: r[metric])
    return min(rows, key=lambda r: r[metric])


class ExplorationResult:
    """Every evaluated configuration of one scenario, with verdicts.

    ``rows`` and ``evaluations`` are index-aligned: ``evaluations[i]``
    is the :class:`~repro.core.cost.ConfigCost` or
    :class:`~repro.core.cost.EnergyCost` behind ``rows[i]``. Rows are
    derived from the evaluations on first access (assigning ``rows``
    replaces the derived view, which keeps ad-hoc post-processing
    working).
    """

    def __init__(
        self,
        scenario: "Scenario",
        rows: list[dict[str, Any]] | None = None,
        evaluations: list[Any] | None = None,
    ):
        self.scenario = scenario
        self.evaluations = [] if evaluations is None else evaluations
        self._rows = rows

    @property
    def rows(self) -> list[dict[str, Any]]:
        """One report row per evaluation (derived lazily, then cached)."""
        if self._rows is None:
            scenario = self.scenario
            self._rows = [cost_row(scenario, cost) for cost in self.evaluations]
        return self._rows

    @rows.setter
    def rows(self, value: list[dict[str, Any]]) -> None:
        self._rows = value

    def iter_rows(self) -> Iterator[dict[str, Any]]:
        """Stream rows without materializing the cache (export path);
        serves the cached/assigned rows when they already exist."""
        if self._rows is not None:
            yield from self._rows
            return
        scenario = self.scenario
        for cost in self.evaluations:
            yield cost_row(scenario, cost)

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return len(self.evaluations)

    @property
    def feasible(self) -> list[dict[str, Any]]:
        """Rows clearing the scenario's target (all rows if untargeted)."""
        return [row for row in self.rows if row["feasible"]]

    @property
    def best(self) -> dict[str, Any]:
        """The optimal row for the domain: highest total FPS
        (throughput) or lowest expected energy (energy). Ties break to
        the earliest-enumerated configuration."""
        if not self.rows:
            raise PipelineError("no configurations evaluated")
        if self.scenario.domain == "throughput":
            return best_row(self.rows, "total_fps")
        return best_row(self.rows, "total_energy_j", maximize=False)

    def pareto(
        self,
        axes: Sequence[str] | None = None,
        maximize: bool | Sequence[bool] | None = None,
    ) -> list[dict[str, Any]]:
        """Non-dominated rows; defaults to the domain's canonical axes
        ((compute_fps, communication_fps) maximized for throughput,
        (total_energy_j, active_seconds) minimized for energy).

        ``maximize=None`` always means the domain's direction — also for
        explicitly passed ``axes`` — so an energy-domain frontier never
        silently flips to maximization."""
        default_axes, default_flag = DEFAULT_AXES[self.scenario.domain]
        if axes is None:
            axes = default_axes
        if maximize is None:
            maximize = default_flag
        return pareto_filter(self.rows, axes, maximize)

    def dominated(
        self,
        axes: Sequence[str] | None = None,
        maximize: bool | Sequence[bool] | None = None,
    ) -> list[dict[str, Any]]:
        """The complement of :meth:`pareto`: configs never worth building."""
        frontier = {id(row) for row in self.pareto(axes, maximize)}
        return [row for row in self.rows if id(row) not in frontier]

    def top_k(
        self, metric: str, k: int = 5, maximize: bool = True
    ) -> list[dict[str, Any]]:
        """The best ``k`` rows by one metric (stable: ties keep
        enumeration order)."""
        if k < 0:
            raise ConfigurationError(f"k must be >= 0, got {k}")
        require_key(self.rows, metric)
        # Stable also under reverse=True, so ties keep enumeration order
        # in both directions; works for any orderable metric type.
        ordered = sorted(self.rows, key=lambda r: r[metric], reverse=maximize)
        return ordered[:k]

    # -- export ---------------------------------------------------------

    def columns(self) -> list[str]:
        """Union of row keys, in first-appearance order."""
        cols: dict[str, None] = {}
        for row in self.iter_rows():
            for key in row:
                cols.setdefault(key)
            if self._rows is None:
                # Derived rows are homogeneous per domain; one suffices.
                break
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


class ParetoFrontier:
    """An online dominance-pruned Pareto frontier over streamed rows.

    The batch :func:`pareto_filter` needs every row at once; this class
    maintains the frontier *incrementally* — :meth:`add` folds one chunk
    of rows into the current non-dominated set — so ``pareto`` /
    ``pareto_size`` stay available on export-only (``collect=False``)
    runs whose rows were never retained. The maintained set is exactly
    what :func:`pareto_filter` would return over all rows seen so far,
    in the same (first-seen) order: dominance is transitive, so a row
    dominated by *any* earlier row is dominated by some current frontier
    member, and a row dominated by a *later* row is evicted when that
    row arrives. Tests assert the streamed frontier equals the collected
    one exactly.

    Same semantics as :func:`pareto_filter`: a row survives unless some
    other row beats it on every axis and strictly on at least one (per
    the ``maximize`` flags); exact ties all survive; missing or NaN axis
    values raise :class:`ConfigurationError` naming the offending row's
    stream position.
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
        self.n_seen = 0
        #: Parallel lists: frontier rows in first-seen order and their
        #: sign-normalized axis keys (all axes maximized).
        self._rows: list[dict[str, Any]] = []
        self._keys: list[list[float]] = []

    def _key(self, row: dict[str, Any], position: int) -> list[float]:
        key = []
        for axis, flag in zip(self._axes, self._flags):
            if axis not in row:
                raise ConfigurationError(f"axis {axis!r} missing in row {position}")
            value = row[axis]
            if isinstance(value, float) and math.isnan(value):
                raise ConfigurationError(f"axis {axis!r} is NaN in row {position}")
            key.append(value if flag else -value)
        return key

    def add(self, rows: Sequence[dict[str, Any]]) -> None:
        """Fold one chunk of rows into the frontier (stream order)."""
        n_axes = len(self._axes)
        frontier_rows = self._rows
        frontier_keys = self._keys
        for row in rows:
            mine = self._key(row, self.n_seen)
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
                del frontier_rows[index]
                del frontier_keys[index]
            frontier_rows.append(row)
            frontier_keys.append(mine)

    def add_batch(self, batch: Any) -> None:
        """Fold one columnar :class:`~repro.explore.vectorized.BatchRows`
        view into the frontier, materializing only surviving rows.
        Batches are member-tagged (campaign dedup members fold views of
        group-shared states tagged with their own scenario), so
        survivors materialize exactly as the member's solo rows.

        Semantically identical to ``add(batch.rows())`` — same frontier,
        same ``n_seen`` positions in every error message — but rows
        dominated by the frontier as of the batch start are rejected in
        one vectorized dominance pass without ever becoming dicts
        (sound by transitivity: a frontier member is only ever evicted
        by a row that dominates it, so a candidate dominated at batch
        start stays dominated). Candidates that pass the prefilter fold
        through the scalar :meth:`add`, which re-checks them against the
        *current* frontier, including earlier survivors of this batch.

        Falls back to the row path when an axis is not columnar
        (:meth:`BatchRows.metric_column` raises ``KeyError``).
        """
        m = len(batch)
        if m == 0:
            return
        try:
            columns = [batch.metric_column(axis) for axis in self._axes]
        except KeyError:
            self.add(batch.rows())
            return
        keys = []
        for column, flag in zip(columns, self._flags):
            column = np.asarray(column, dtype=float)
            keys.append(column if flag else -column)
        # NaN axis values raise positionally in the scalar fold; limit
        # the vectorized pass to the rows before the first NaN and let
        # add() produce the exact error for the offender.
        bad = np.zeros(m, dtype=bool)
        for key in keys:
            bad |= np.isnan(key)
        limit = int(np.argmax(bad)) if bad.any() else m
        base = self.n_seen
        survivors = np.ones(limit, dtype=bool)
        if self._keys and limit:
            frontier = np.array(self._keys, dtype=float)  # (n_front, axes)
            candidates = np.stack([key[:limit] for key in keys], axis=1)
            # Chunk the (n_front, block, axes) broadcast to ~4M elements.
            step = max(1, 4_000_000 // (frontier.shape[0] * frontier.shape[1]))
            for lo in range(0, limit, step):
                block = candidates[lo : lo + step]
                geq = frontier[:, None, :] >= block[None, :, :]
                gt = frontier[:, None, :] > block[None, :, :]
                dominated = (geq.all(axis=2) & gt.any(axis=2)).any(axis=0)
                survivors[lo : lo + step] = ~dominated
        for idx in np.nonzero(survivors)[0].tolist():
            self.n_seen = base + idx  # add() restores idx+1 itself
            self.add([batch.row(idx)])
        self.n_seen = base + limit
        for i in range(limit, m):
            self.add([batch.row(i)])  # first iteration raises on the NaN

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The current non-dominated rows, in first-seen order."""
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


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
        #: Min-heap of ((priority, -position), row): the worst surviving
        #: row sits at the root. Positions are unique, so heap keys never
        #: tie and rows are never compared.
        self._heap: list[tuple[tuple[float, int], dict[str, Any]]] = []

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
            if not isinstance(value, (int, float)):
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
                heapq.heappush(heap, (key, row))
            elif key > heap[0][0]:
                heapq.heapreplace(heap, (key, row))

    def add_batch(self, batch: Any) -> None:
        """Fold one columnar :class:`~repro.explore.vectorized.BatchRows`
        view into the ranking, materializing only candidate rows.

        Semantically identical to ``add(batch.rows())`` — same surviving
        rows, ties and ``n_seen`` positions — but once the heap is full,
        rows that cannot displace the batch-start root are rejected by
        one vectorized comparison without ever becoming dicts (sound:
        the root value only grows, and an exact tie with the root never
        enters because later positions carry smaller tiebreaks, so the
        strict ``>`` mask is a superset of the rows the scalar fold
        would admit). Masked-in candidates still fold through the scalar
        :meth:`add` against the current root. Falls back to the row path
        when the metric is not columnar.
        """
        m = len(batch)
        if m == 0:
            return
        try:
            column = batch.metric_column(self.metric)
        except KeyError:
            self.add(batch.rows())
            return
        values = np.asarray(column, dtype=float)
        if not self.maximize:
            values = -values
        bad = np.isnan(values)
        limit = int(np.argmax(bad)) if bad.any() else m
        base = self.n_seen
        k, heap = self.k, self._heap
        start = 0
        if k > 0:
            # Heap-fill phase: every row enters, no prefilter possible.
            while len(heap) < k and start < limit:
                self.n_seen = base + start
                self.add([batch.row(start)])
                start += 1
            if start < limit:
                root_value = heap[0][0][0]
                for off in np.nonzero(values[start:limit] > root_value)[0].tolist():
                    idx = start + off
                    self.n_seen = base + idx
                    self.add([batch.row(idx)])
        self.n_seen = base + limit
        for i in range(limit, m):
            self.add([batch.row(i)])  # first iteration raises on the NaN

    @property
    def rows(self) -> list[dict[str, Any]]:
        """The current top-``k`` rows, best first (ties in stream order)."""
        ordered = sorted(self._heap, key=lambda entry: entry[0], reverse=True)
        return [row for _, row in ordered]

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

    One fold of a :class:`ParetoFrontier` over the whole sequence — the
    batch and streaming paths share one dominance definition, so they
    cannot drift apart.
    """
    frontier = ParetoFrontier(axes, maximize)
    frontier.add(rows)
    return frontier.rows
