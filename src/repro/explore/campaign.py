"""Batch exploration campaigns: many scenarios, one run.

The paper explores one design space at a time; a production exploration
service faces *fleets* of them — every camera product, link tier and
power budget is its own scenario. A :class:`Campaign` runs a whole fleet
as one run, one walk at a time to completion in weighted-shortest-
processing-time (WSPT) order, and every member's sink and summary fill
as its rows land.

One pipeline for solo runs and campaigns: every member runs the path
solo ``explore()`` takes for it (:func:`~repro.explore.engine._plan`
decides it, :func:`~repro.explore.engine.evaluation_path` reports it)
through the same walk (:func:`~repro.explore.engine._drain_walk`)
into the same consumer (:class:`~repro.explore.engine._RunConsumer`).
The campaign drains one walk per unit: a dedup group (below) or any
other member, which walks alone as its solo ``explore()`` does. Every
member folds the columnar cohort walk in the calling process, in the
walk's own batches: shipping that work to a pool measured slower
on every fleet tried (see ARCHITECTURE.md, "Parallelism: the campaign
decision" and "The engine runs no pool"), so a campaign never starts
one.

Order contract: the campaign has one lane, so interleaving walks would
overlap nothing. Each unit's walk runs to completion, units in
ascending ``(leader.count_configs() / summed member weight, leader
index)`` — the WSPT rule, which minimizes the weighted mean completion
time (:meth:`CampaignResult.weighted_completion_seconds`) over
:meth:`Campaign.iter_runs`. A dedup group's one walk completes all its
members, so it weighs their weights together; a solo member weighs its
own. At equal weights (the default) that is fewest configurations per
completed member first, ties in fleet order. See ARCHITECTURE.md, "A
campaign runs each walk to completion".

Dedup contract: with ``dedup=True``, scenarios whose
:func:`scenario_compute_key`s match (the same pipeline and platform
axis at different links — the design-space-sweep fleet shape) form a
group whose stream walks the shared compute-side cohort states once
(:meth:`~repro.explore.vectorized.BatchPrefixEvaluator.
iter_group_batches`, the walk a solo run takes as a group of one):
each batch closes for every member with its own ``finalize_batch``,
and members hand their consumers lazy member-tagged
:class:`~repro.explore.vectorized.BatchRows` views — under
``collect=False`` with columnar sinks a fleet of N links materializes
only frontier/heap survivors, never N x rows Python objects. Because
each member's finalize is the one its solo walk runs, per-scenario
results stay byte-identical to ``dedup=False`` and to solo
``explore()`` — the invariant suite asserts it over seeded random
fleets. :attr:`CampaignResult.cache_stats` reports evaluations skipped.

Correctness contract: each member's stream is produced in its own
enumeration order — cohort batches in walk order, each walk private to
its unit — so every scenario's rows are byte-identical to a solo
``explore()`` of the same scenario, whatever the weights. Weights only
reorder the walks, never the batches within one.

Streaming contract: :meth:`Campaign.iter_runs` yields each
:class:`ScenarioRun` the moment its last rows land — a dashboard
renders the first finished scenario while the rest of the fleet is
still evaluating — and :meth:`Campaign.run` is a drain over it.
Per-scenario :class:`~repro.explore.sink.ResultSink` outputs receive
rows as that scenario's batches complete (and are
closed/flushed the moment their scenario finishes), and
``collect=False`` keeps only running statistics (evaluated count,
feasible count, best row, and an online
:class:`~repro.explore.result.ParetoFrontier`) — an export-only
campaign's peak memory is set by the batch size plus the frontier
and at most one pending block of batches per member, never by the
fleet's combined design-space size. A sink failure
aborts the campaign with a clear :class:`~repro.errors.SinkError`
naming the scenario; every other scenario's sink is still closed
(flushed), so one bad sink never corrupts the rest of the fleet's
outputs. Abandoning ``iter_runs()`` mid-fleet closes every open sink
the same way; no walk is open between two yields.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.cost import platform_axis_fingerprint
from repro.core.report import TextTable, campaign_summary_table
from repro.errors import ConfigurationError, PipelineError
from repro.explore.engine import (
    _check_dedup_mode,
    _dedupable,
    _drain_walk,
    _plan,
    _RunConsumer,
)
from repro.explore.executor import SweepExecutor, resolve_executor
from repro.explore.result import (
    DEFAULT_AXES,
    ExplorationResult,
    ParetoFrontier,
    domain_frontier,
)
from repro.explore.scenario import Scenario
from repro.explore.vectorized import BatchRows
from repro.explore.sink import close_sink, open_sink, resolve_sink


def _check_weights(
    weights: Mapping[str, float] | None, names: Sequence[str]
) -> dict[str, float]:
    """Completion-time weights keyed by scenario name, validated:
    every weight positive, every name one of ``names`` (a weight for an
    unknown scenario would silently never apply). Scenarios without an
    entry weigh 1.0."""
    weights = dict(weights or {})
    for name, weight in weights.items():
        if not weight > 0:
            raise ConfigurationError(
                f"weight for {name!r} must be positive, got {weight}"
            )
    unknown = sorted(set(weights) - set(names))
    if unknown:
        raise ConfigurationError(
            f"completion-time weights for unknown scenarios {unknown}; "
            f"campaign has {sorted(names)}"
        )
    return weights


# -- cross-scenario evaluation dedup ------------------------------------


def scenario_compute_key(scenario: Scenario) -> tuple | None:
    """The scenario's *compute identity* for campaign-level dedup, or
    None when it is ineligible for sharing.

    Two scenarios with equal keys enumerate the same configuration
    stream and fold identical compute-side prefix states — everything
    about their evaluations except the per-depth link terms — so a fleet
    can evaluate the states once and finalize them under each member's
    own uplink. The key is ``(pipeline chain fingerprint, platform-axis
    fingerprint, domain, enumeration bounds, pass-rate overrides)``;
    the link is deliberately absent (sharing across links is the whole
    point) and the two fingerprints are deliberately separate — a pair
    of structurally identical pipelines with different implementation
    prices must never share entries (the cache-poisoning guard tests
    pin this).

    Ineligible (returns None): scenarios with any pruning (``prune`` /
    ``prune_depth`` hooks, ``auto_prune``, ``auto_prune_configs``):
    pruned streams depend on the constraint *and the link*, so two
    members of a would-be group can enumerate different subsequences.
    """
    return _compute_key(scenario, {})


def _compute_key(scenario: Scenario, fingerprints: dict[int, tuple]) -> tuple | None:
    """:func:`scenario_compute_key`, hashing each pipeline once per
    ``fingerprints`` (pipeline id -> (pipeline, chain, platform axis)).
    The memo must not outlive one fleet's grouping: implementation
    tables are mutable."""
    if not _dedupable(scenario):
        return None
    pipeline = scenario.pipeline
    entry = fingerprints.get(id(pipeline))
    if entry is None or entry[0] is not pipeline:
        entry = (pipeline, pipeline.fingerprint(), platform_axis_fingerprint(pipeline))
        fingerprints[id(pipeline)] = entry
    pass_rates = (
        tuple(sorted(scenario.pass_rates.items()))
        if scenario.pass_rates is not None
        else None
    )
    return (
        entry[1],
        entry[2],
        scenario.domain,
        scenario.max_blocks,
        scenario.include_empty,
        pass_rates,
    )


def _dedup_groups(
    scenarios: Sequence[Scenario], indices: Sequence[int]
) -> dict[int, tuple[int, ...]]:
    """The dedup groups among the fleet members ``indices`` (those
    whose plan is ``"batch-dedup"``): leader index -> the group's member
    indices, leader first, in fleet order.

    Fleets routinely carry the same pipeline at several links (the
    design-space sweep shape: one product, every uplink tier); their
    compute-side costs are link-independent, so a group of scenarios
    with equal :func:`scenario_compute_key`s folds its cohort states
    once for all members (one :func:`~repro.explore.engine._drain_walk`
    per group). Every member belongs to
    exactly one group, a member with no sibling to a group of one. Each
    distinct pipeline object is fingerprinted once per call.
    """
    groups: dict[int, tuple[int, ...]] = {}
    leaders: dict[tuple, int] = {}
    fingerprints: dict[int, tuple] = {}
    for index in indices:
        key = _compute_key(scenarios[index], fingerprints)
        leader = leaders.setdefault(key, index)
        groups[leader] = groups.get(leader, ()) + (index,)
    return groups


@dataclass
class ScenarioRun:
    """One scenario's outcome inside a campaign.

    ``result`` is the full :class:`ExplorationResult` when the campaign
    collected (byte-identical to a solo ``explore()``), or None on an
    export-only run — the summary statistics are tracked streamingly
    either way, including the domain-default Pareto frontier:
    ``pareto_size`` and :meth:`pareto` work in both modes (streamed
    through an online :class:`~repro.explore.result.ParetoFrontier`
    under ``collect=False``, identical to the collected frontier, and
    handed out undecoded in :attr:`frontier`: :meth:`pareto` builds
    its rows).
    ``wall_seconds`` is the time from campaign start until this
    scenario's walk ended (a dedup group's members share one walk, so
    they complete together).
    ``dedup_source`` names the scenario whose shared compute-side
    states this run was finalized from (None when it evaluated its own
    configurations — always, unless the campaign ran with
    ``dedup=True`` and the fleet shared a compute key).
    ``n_materialized`` counts the rows the cohort walk's lazy views
    actually turned into Python objects for this scenario by the time
    the run was handed out: the best row and whatever rows a row-only
    sink built. Every member rides the walk, so every run reports it.
    The online folds build none while they fold — the frontier and
    columnar sinks' top-k rows are built when :meth:`pareto` or the
    sink's ``top_k()`` reads them, and a collected result builds any
    other row only when a query returns it.
    """

    scenario: Scenario
    result: ExplorationResult | None
    n_evaluated: int
    n_feasible: int
    best: dict[str, Any] | None
    _pareto_size: int | None
    wall_seconds: float
    frontier: ParetoFrontier | None = field(default=None, repr=False)
    dedup_source: str | None = None
    n_materialized: int = 0

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def pareto_size(self) -> int:
        """Size of the domain-default Pareto frontier.

        Export-only runs know it from the streamed frontier; collected
        runs count the frontier positions on first access, building no
        row, so consumers that never look at the frontier (the
        joint-fleet optimizer's phase-1 campaign) never pay for it per
        member.
        """
        if self._pareto_size is None:
            if self.result is None:
                self._pareto_size = len(self._streamed_frontier())
            elif self.n_evaluated:
                self._pareto_size = len(self.result._frontier_positions(None, None))
            else:
                self._pareto_size = 0
        return self._pareto_size

    def pareto(self) -> list[dict[str, Any]]:
        """The domain-default Pareto frontier rows: from the collected
        result when available, else the streamed frontier. Raises
        :class:`~repro.errors.PipelineError` on an export-only run that
        opted out of frontier tracking (``frontier=False``) — the rows
        are gone and the frontier was never maintained."""
        if self.result is not None:
            return self.result.pareto() if len(self.result) else []
        return self._streamed_frontier().rows

    def _streamed_frontier(self) -> ParetoFrontier:
        """The export-only run's frontier, or the error saying why it
        has none."""
        if self.frontier is None:
            raise PipelineError(
                f"run {self.scenario.name!r} was export-only with "
                "frontier tracking disabled (frontier=False); no Pareto "
                "frontier is available"
            )
        return self.frontier

    def summary_row(self) -> dict[str, Any]:
        """One campaign-report row (see
        :func:`repro.core.report.campaign_summary_table`). The ``pareto``
        column is ``"-"`` on an export-only run that tracked no frontier
        (``frontier=False``)."""
        metric = _best_metric(self.scenario.domain)
        tracked = self.result is not None or self.frontier is not None
        return {
            "scenario": self.scenario.name,
            "domain": self.scenario.domain,
            "configs": self.n_evaluated,
            "feasible": self.n_feasible,
            "best_config": self.best["config"] if self.best else "-",
            "best_metric": self.best[metric] if self.best else "-",
            "pareto": self.pareto_size if tracked else "-",
            "seconds": self.wall_seconds,
            "dedup": self.dedup_source or "-",
            "materialized": self.n_materialized,
        }


class CampaignResult:
    """Per-scenario outcomes of one campaign, plus the fleet summary."""

    def __init__(
        self,
        name: str,
        runs: list[ScenarioRun],
        wall_seconds: float,
        dedup: bool = False,
    ):
        self.name = name
        self.runs = runs
        self.wall_seconds = wall_seconds
        self.dedup = dedup

    @property
    def cache_stats(self) -> dict[str, Any]:
        """The cross-scenario dedup outcome of this campaign.

        ``evaluations_computed`` counts cost-model evaluations actually
        performed; ``evaluations_skipped`` counts configurations whose
        costs were finalized from another scenario's shared compute
        states instead of being re-evaluated (zero unless the campaign
        ran with ``dedup=True`` and the fleet shared a compute key —
        see :func:`scenario_compute_key`).

        ``dedup_groups`` surfaces the lazy finalize accounting per
        dedup group, keyed by leader scenario name:
        ``states_evaluated`` (compute-side states the leader folded
        once for the group), ``member_rows_closed`` (rows finalized
        across all members from those shared states — N links x rows),
        and ``rows_materialized`` (object constructions consumers
        actually performed — repeat touches of one row each count, it
        is a work counter, not a distinct-row count; under
        ``collect=False`` with columnar sinks this is roughly the
        survivors, the lazy win — collected members count the rows
        built before the run was handed out).
        """
        shared = [run for run in self.runs if run.dedup_source is not None]
        by_name = {run.name: run for run in self.runs}
        groups: dict[str, dict[str, int]] = {}
        for leader_name in sorted({run.dedup_source for run in shared}):
            leader = by_name[leader_name]
            members = [leader] + [
                run for run in shared if run.dedup_source == leader_name
            ]
            groups[leader_name] = {
                "states_evaluated": leader.n_evaluated,
                "member_rows_closed": sum(run.n_evaluated for run in members),
                "rows_materialized": sum(run.n_materialized for run in members),
            }
        return {
            "dedup": self.dedup,
            "scenarios_shared": len(shared),
            "shared_sources": sorted({run.dedup_source for run in shared}),
            "evaluations_computed": sum(
                run.n_evaluated for run in self.runs if run.dedup_source is None
            ),
            "evaluations_skipped": sum(run.n_evaluated for run in shared),
            "dedup_groups": groups,
        }

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[ScenarioRun]:
        return iter(self.runs)

    def __getitem__(self, name: str) -> ScenarioRun:
        for run in self.runs:
            if run.name == name:
                return run
        raise KeyError(
            f"no scenario {name!r} in campaign {self.name!r}; "
            f"have {[run.name for run in self.runs]}"
        )

    def weighted_completion_seconds(
        self, weights: Mapping[str, float] | None = None
    ) -> float:
        """Weighted mean completion time of the fleet's scenarios.

        ``sum_i w_i * C_i / sum_i w_i`` where ``C_i`` is scenario *i*'s
        ``wall_seconds`` — the time from campaign start until its walk
        ended, i.e. when it streamed out of :meth:`Campaign.iter_runs`.
        This is the objective the campaign's WSPT order minimizes for
        the weights it ran under; weights key on scenario name,
        scenarios without an entry weigh 1.0, and unknown names are
        rejected (they would silently never apply).
        """
        weights = _check_weights(weights, [run.name for run in self.runs])
        total = sum(weights.get(run.name, 1.0) for run in self.runs)
        if total == 0:
            return 0.0
        return (
            sum(weights.get(run.name, 1.0) * run.wall_seconds for run in self.runs)
            / total
        )

    def summary_rows(self) -> list[dict[str, Any]]:
        return [run.summary_row() for run in self.runs]

    def to_table(self, title: str | None = None) -> TextTable:
        """The fleet summary as a :class:`~repro.core.report.TextTable`."""
        return campaign_summary_table(
            self.summary_rows(),
            title=title or f"campaign {self.name!r} "
            f"({len(self.runs)} scenarios, {self.wall_seconds:.3f}s)",
        )


def _best_metric(domain: str) -> str:
    return "total_fps" if domain == "throughput" else "total_energy_j"


def _first_extreme(values: np.ndarray, maximize: bool) -> int:
    """``np.nanargmax`` (``nanargmin``) of a column holding a non-NaN
    value: plain ``argmax`` unless it stopped at a NaN."""
    index = int(np.argmax(values) if maximize else np.argmin(values))
    if values[index] != values[index]:
        index = int(np.nanargmax(values) if maximize else np.nanargmin(values))
    return index


class _StreamingStats:
    """Running per-scenario statistics for export-only campaigns:
    everything the summary needs that does not require all rows —
    including the domain-default Pareto frontier, maintained online.
    Nothing it keeps pins a batch: the pending best row is a one-row
    :meth:`~repro.explore.vectorized.BatchRows.compact` view, built
    when :attr:`best` is read, and the frontier keeps at most one
    pending block of batches."""

    __slots__ = (
        "n_evaluated",
        "n_feasible",
        "frontier",
        "_best",
        "_best_value",
        "_metric",
        "_maximize",
    )

    def __init__(self, domain: str, track_frontier: bool = True):
        self.n_evaluated = 0
        self.n_feasible = 0
        #: The best row, or the ``(view, 0)`` it will be built from (a
        #: one-row compact view, pinning nothing of its batch): a best
        #: that a later batch displaces is never materialized.
        self._best: Any = None
        self._best_value: Any = None
        #: None when frontier tracking is opted out (``frontier=False``
        #: campaigns): consumers that never ask for the frontier — the
        #: joint-fleet optimizer's candidate-sink phase — skip its merge
        #: and the materialization of every row that joins it.
        self.frontier: ParetoFrontier | None = (
            domain_frontier(domain) if track_frontier else None
        )
        self._metric = _best_metric(domain)
        self._maximize = DEFAULT_AXES[domain][1]

    @property
    def best(self) -> dict[str, Any] | None:
        self.settle()
        return self._best

    def settle(self) -> int:
        """Build the best row if it is still pending; returns the number
        of rows this materialized (0 or 1)."""
        if not isinstance(self._best, tuple):
            return 0
        batch, index = self._best
        self._best = batch.row(index)
        return 1

    def update_batch(self, batch: BatchRows) -> None:
        """Fold one lazy columnar batch, materializing no row: the best
        row is built once it is read, the frontier's rows when the
        frontier is read.

        The best row is the one a sequential strict-comparison scan over
        the rows would keep (ties keep the earliest-enumerated row, as
        :attr:`ExplorationResult.best` does): the first row attaining
        the extreme metric value among strict improvements — precisely
        the first argmax/argmin of the column restricted to rows beating
        the running best — and NaN metric values never improve on a
        non-NaN best (every comparison against NaN is False).
        """
        values = batch.metric_column(self._metric)
        feasible = batch.metric_column("feasible")
        n = len(batch)
        if n == 0:
            return
        maximize = self._maximize
        winner: int | None = None
        if self._best is None:
            first = float(values[0])
            if first != first:
                # A NaN first row becomes best and no comparison against
                # NaN ever replaces it — a sequential scan keeps row 0.
                winner = 0
            else:
                winner = _first_extreme(values, maximize)
        else:
            current = self._best_value
            improved = (values > current) if maximize else (values < current)
            if improved.any():
                winner = _first_extreme(values, maximize)
        if winner is not None:
            self._best = (batch.compact([winner]), 0)
            self._best_value = values[winner]
        self.n_evaluated += n
        self.n_feasible += int(np.count_nonzero(feasible))
        if self.frontier is not None:
            self.frontier.add_batch(batch)


class Campaign:
    """A batch of scenarios explored as one run.

    Parameters
    ----------
    scenarios:
        The fleet; scenario names must be unique (they key sinks and
        result lookup).
    name:
        Campaign label for reports.
    """

    def __init__(self, scenarios: Sequence[Scenario], name: str = "campaign"):
        scenarios = tuple(scenarios)
        if not scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        for scenario in scenarios:
            if not isinstance(scenario, Scenario):
                raise ConfigurationError(
                    f"campaign scenarios must be Scenario instances, got "
                    f"{type(scenario).__name__}"
                )
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"campaign scenario names must be unique; duplicated: {duplicates}"
            )
        self.scenarios = scenarios
        self.name = name

    # -- sink resolution -------------------------------------------------

    def _resolve_sinks(self, sinks: Any) -> list[Any]:
        if sinks is None:
            return [None] * len(self.scenarios)
        if isinstance(sinks, Mapping):
            names = {scenario.name for scenario in self.scenarios}
            unknown = sorted(set(sinks) - names)
            if unknown:
                raise ConfigurationError(
                    f"sinks for unknown scenarios {unknown}; campaign has "
                    f"{sorted(names)}"
                )
            return [
                resolve_sink(sinks.get(scenario.name)) for scenario in self.scenarios
            ]
        if callable(sinks):
            return [resolve_sink(sinks(scenario)) for scenario in self.scenarios]
        raise ConfigurationError(
            "sinks must be a mapping {scenario name: sink}, a factory "
            f"callable, or None, got {type(sinks).__name__}"
        )

    # -- the drivers -----------------------------------------------------

    def iter_runs(
        self,
        *,
        sinks: Any = None,
        collect: bool = True,
        weights: Mapping[str, float] | None = None,
        dedup: bool = False,
        frontier: bool = True,
    ) -> Iterator[ScenarioRun]:
        """Stream the fleet: yield each :class:`ScenarioRun` the moment
        its scenario's walk ends.

        The streaming counterpart of :meth:`run` (which is a drain over
        this iterator): walks run one at a time in WSPT order — the
        unit with the fewest configurations per unit of summed member
        weight first — and each finished member is yielded (its sink
        closed and flushed first) without waiting for the fleet to
        drain. Yield order is completion order, not fleet order.

        Abandoning the iterator mid-fleet is safe: every open sink is
        closed (flushed), exactly as on an error, and no walk is left
        open. Parameters are those of :meth:`run`, which alone keeps an
        ``executor`` slot.
        """
        _check_dedup_mode(dedup)
        scenarios = self.scenarios
        weights = _check_weights(weights, [scenario.name for scenario in scenarios])
        sink_list = self._resolve_sinks(sinks)
        if not collect and sinks is not None:
            # Summary-only campaigns (collect=False, sinks=None) are a
            # deliberate mode; but *partial* sink coverage on an
            # export-only run would silently discard the uncovered
            # scenarios' rows — the mistake explore() fails fast on.
            uncovered = [
                scenario.name
                for scenario, sink in zip(scenarios, sink_list)
                if sink is None
            ]
            if uncovered:
                raise ConfigurationError(
                    "collect=False with sinks discards rows of scenarios "
                    f"without one ({uncovered}); give every scenario a sink "
                    "or drop sinks entirely for a summary-only campaign"
                )
        return self._stream_runs(sink_list, collect, weights, dedup, frontier)

    def _stream_runs(
        self,
        sink_list: list[Any],
        collect: bool,
        weights: Mapping[str, float],
        dedup: bool,
        track_frontier: bool,
    ) -> Iterator[ScenarioRun]:
        """The generator behind :meth:`iter_runs` (argument validation
        stays eager in the caller, before the first ``next()``): each
        unit's walk is drained in WSPT order, and its members are handed
        out when it ends."""
        scenarios = self.scenarios
        plans = [_plan(scenario, dedup=dedup) for scenario in scenarios]
        groups = _dedup_groups(
            scenarios,
            [index for index, plan in enumerate(plans) if plan.path == "batch-dedup"],
        )
        leader_of = {
            member: leader for leader, indices in groups.items() for member in indices
        }
        members = [
            self._member(index, sink, collect, track_frontier)
            for index, sink in enumerate(sink_list)
        ]
        # One walk per unit: a dedup group (keyed by its leader) or one
        # other member, each feeding its members' consumers. A group's
        # walk completes all its members at once, so a unit weighs what
        # its members weigh together.
        units = {i: (i,) for i in range(len(scenarios)) if i not in leader_of}
        units.update(groups)
        order = sorted(
            units,
            key=lambda leader: (
                scenarios[leader].count_configs()
                / sum(weights.get(scenarios[i].name, 1.0) for i in units[leader]),
                leader,
            ),
        )
        start = time.perf_counter()
        opened: list[int] = []
        closed: set[int] = set()
        error: BaseException | None = None
        try:
            # Opening happens inside the try so a sink whose open()
            # fails still gets every *previously opened* sink closed
            # (flushed) on the way out.
            for index, sink in enumerate(sink_list):
                if sink is not None:
                    open_sink(sink, scenarios[index], self._label(index))
                    opened.append(index)
            for leader in order:
                indices = units[leader]
                _drain_walk(
                    tuple(scenarios[index] for index in indices),
                    plans[leader],
                    tuple(members[index].consumer for index in indices),
                )
                now = time.perf_counter() - start
                for index in indices:
                    members[index].completed_at = now
                yield from self._finish(
                    indices, members, sink_list, opened, closed, leader_of
                )
        except BaseException as exc:
            error = exc
            raise
        finally:
            # A walk is closed before its error propagates, so only the
            # sinks not already closed at scenario completion are left
            # to flush.
            close_error: BaseException | None = None
            for index in opened:
                if index in closed:
                    continue
                try:
                    close_sink(sink_list[index], self._label(index))
                except Exception as exc:
                    # Keep closing the rest: one bad sink must not leave
                    # other scenarios' outputs unflushed.
                    if close_error is None:
                        close_error = exc
            if close_error is not None and error is None:
                raise close_error

    def _member(
        self,
        index: int,
        sink: Any,
        collect: bool,
        track_frontier: bool,
    ) -> "_Member":
        """One member's run state: the consumer solo ``explore()`` uses,
        plus running statistics on export-only runs (collected runs
        summarize from the result)."""
        scenario = self.scenarios[index]
        stats = None if collect else _StreamingStats(scenario.domain, track_frontier)
        consumer = _RunConsumer(
            scenario, sink, self._label(index), collect, stats=stats
        )
        return _Member(consumer)

    def _finish(
        self,
        indices: tuple[int, ...],
        members: list["_Member"],
        sink_list: list[Any],
        opened: list[int],
        closed: set[int],
        leader_of: Mapping[int, int],
    ) -> list[ScenarioRun]:
        """Runs for the members of a walk that just ended, in fleet
        order, their sinks closed (flushed) first so a handed-out run's
        exports are complete."""
        runs: list[ScenarioRun] = []
        for index in indices:
            member = members[index]
            if index in opened and index not in closed:
                closed.add(index)
                close_sink(sink_list[index], self._label(index))
            leader = leader_of.get(index, index)
            dedup_source = self.scenarios[leader].name if leader != index else None
            runs.append(self._build_run(index, member, dedup_source))
        return runs

    def run(
        self,
        executor: SweepExecutor | None = None,
        *,
        sinks: Any = None,
        collect: bool = True,
        weights: Mapping[str, float] | None = None,
        dedup: bool = False,
        frontier: bool = True,
    ) -> CampaignResult:
        """Explore every scenario in one campaign run.

        A drain over :meth:`iter_runs` — identical results, with the
        per-scenario runs reassembled into fleet order.

        Parameters
        ----------
        executor:
            A positional slot kept only because perfbench passes one:
            validated (anything but a
            :class:`~repro.explore.executor.SweepExecutor` or None
            raises :class:`~repro.errors.ConfigurationError`) and
            otherwise unused. Every scenario folds in the calling
            process, so a campaign never starts a pool. Removing the
            slot is ROADMAP item 2's follow-up, once a benchmark change
            repoints perfbench.
        sinks:
            Per-scenario streaming outputs: a mapping from scenario
            name to sink (scenarios without an entry get none) or a
            factory ``scenario -> sink | None``. Each sink receives its
            scenario's rows batch by batch, as in :func:`explore`: one
            batch per run of whole depth cohorts that fits one block of
            rows, then one batch per block.
        collect:
            With ``collect=False`` no :class:`ExplorationResult` caches
            are built — each :class:`ScenarioRun` carries streaming
            statistics only (the Pareto frontier maintained online) and
            peak memory is bounded by the batch size plus at most one
            pending frontier block per scenario. Legal with no
            sinks at all (a summary-only campaign) or with a sink for
            *every* scenario (an export-only campaign); partial coverage
            would silently discard rows and is rejected.
        weights:
            Completion-time weights ``{scenario name: weight}`` (each
            positive; scenarios without an entry weigh 1.0, unknown
            names raise :class:`~repro.errors.ConfigurationError`).
            Walks run to completion in ascending ``count_configs() /
            weight`` of each unit, where a unit's configurations are its
            leader's and its weight sums its members' (a dedup group
            completes all its members with one walk), ties in fleet
            order: the WSPT order minimizing
            :meth:`CampaignResult.weighted_completion_seconds`. Weights
            reorder scenario completion, never per-scenario results.
        dedup:
            Share link-independent compute-side prefix states across
            scenarios with equal :func:`scenario_compute_key`s (the
            same pipeline at several links): each group evaluates once
            and every member's costs are finalized under its own link
            terms — per-scenario results stay byte-identical to a
            ``dedup=False`` run (and to solo ``explore()``), asserted
            by the invariant suite. :attr:`CampaignResult.cache_stats`
            reports the evaluations skipped. Each group's columnar
            leader states close under every member's link once per
            batch, and members receive lazy
            :class:`~repro.explore.vectorized.BatchRows` views — under
            ``collect=False`` with columnar sinks only survivors
            materialize. A plain bool; anything else raises
            :class:`~repro.errors.ConfigurationError`.
        frontier:
            ``False`` skips the online Pareto frontier on export-only
            runs. The frontier builds no row while it folds, but it
            still reads each batch's axis columns and sweeps them once
            per pending block; a consumer that never asks Pareto
            questions (the joint-fleet search) saves that. Such runs
            raise from :meth:`ScenarioRun.pareto` / ``pareto_size``
            instead of answering; collected runs are unaffected (their
            frontier derives lazily from the columns).
        """
        resolve_executor(executor)
        start = time.perf_counter()
        runs = list(
            self.iter_runs(
                sinks=sinks,
                collect=collect,
                weights=weights,
                dedup=dedup,
                frontier=frontier,
            )
        )
        wall = time.perf_counter() - start
        order = {scenario.name: i for i, scenario in enumerate(self.scenarios)}
        runs.sort(key=lambda run: order[run.name])
        return CampaignResult(
            name=self.name,
            runs=runs,
            wall_seconds=wall,
            dedup=dedup,
        )

    def _label(self, index: int) -> str:
        return f"scenario {self.scenarios[index].name!r}"

    def _build_run(
        self, index: int, member: "_Member", dedup_source: str | None
    ) -> ScenarioRun:
        scenario = self.scenarios[index]
        consumer = member.consumer
        # What the sink built, counted as the stream went; the result's
        # own views and the pending best row add theirs below.
        n_materialized = consumer.n_materialized
        result = consumer.result()
        if result is not None:
            n_evaluated = len(result)
            n_feasible = result._count_feasible()
            try:
                best = result.best
            except PipelineError:
                best = None
            # The result builds any other row only when a query returns it.
            n_materialized += sum(batch.n_materialized for batch in consumer.batches)
            pareto_size = None  # computed lazily on first access
            frontier = None
        else:
            stats = consumer.stats
            n_materialized += stats.settle()
            n_evaluated = stats.n_evaluated
            n_feasible = stats.n_feasible
            best = stats.best
            # Handed out undecoded, its last pending block swept (len)
            # so the run pins no batch: pareto() builds the rows.
            frontier = stats.frontier
            pareto_size = None if frontier is None else len(frontier)
        return ScenarioRun(
            scenario=scenario,
            result=result,
            n_evaluated=n_evaluated,
            n_feasible=n_feasible,
            best=best,
            _pareto_size=pareto_size,
            wall_seconds=round(member.completed_at, 6),
            frontier=frontier,
            dedup_source=dedup_source,
            n_materialized=n_materialized,
        )


class _Member:
    """One campaign member's run state: the run consumer solo
    ``explore()`` uses and when its last rows landed."""

    __slots__ = ("consumer", "completed_at")

    def __init__(self, consumer: _RunConsumer):
        self.consumer = consumer
        self.completed_at = 0.0
