"""Batch exploration campaigns: many scenarios, one run.

The paper explores one design space at a time; a production exploration
service faces *fleets* of them — every camera product, link tier and
power budget is its own scenario. A :class:`Campaign` runs a whole fleet
as one run: a pluggable
:class:`~repro.explore.scheduling.SchedulingPolicy` (round-robin by
default; policies live in :mod:`repro.explore.scheduling`) interleaves
the members' streams, every member's sink and summary fill as its rows
land, and a campaign of N scenarios costs at most one pool, not N.

One pipeline for solo runs and campaigns: every member runs exactly the
path solo ``explore()`` takes for it (:func:`~repro.explore.engine.
evaluation_path` reports it), and its rows land in the same consumer
(:class:`~repro.explore.engine._RunConsumer`). Two lanes carry them:

* **In process.** A stock member (see
  :func:`~repro.explore.incremental.uses_stock_cost_semantics`) runs the
  columnar cohort walk in the calling process on every executor, its
  cohorts sliced at the campaign's chunk size; the policy interleaves
  these slices. Shipping stock work to a pool measured slower than this
  on every fleet tried — the pool's transport costs more than the fold
  it spreads (see ARCHITECTURE.md, "Parallelism: the campaign
  decision").
* **Pool.** Only members whose model fails that gate send config-list
  chunks through the shared executor's ``imap`` (one tagged chunk per
  policy selection, evaluated by
  :func:`~repro.explore.incremental.evaluate_chunk`). The pool starts
  only if such a member exists. With a mixed fleet the campaign
  alternates between the two lanes; all-stock and all-scalar fleets
  follow the policy order exactly.

Dedup contract: with ``dedup=True``, scenarios whose
:func:`scenario_compute_key`s match (the same pipeline and platform
axis at different links — the design-space-sweep fleet shape) form a
group that walks its shared compute-side cohort states once
(:meth:`~repro.explore.vectorized.BatchPrefixEvaluator.
iter_group_batches`): each slice closes for every member with ONE
``finalize_batch_multi`` broadcast (an ``(n_members, n_rows)`` sweep of
the member link terms), and members hand their consumers lazy
member-tagged :class:`~repro.explore.vectorized.BatchRows` views — under
``collect=False`` with columnar sinks a fleet of N links materializes
only frontier/heap survivors, never N x rows Python objects. Because
the broadcast replays exactly the solo evaluation's float operations,
per-scenario results stay byte-identical to ``dedup=False`` and to solo
``explore()`` — the invariant suite asserts it over seeded random
fleets. ``dedup="materialize"`` materializes the same views in bulk per
member (the lazy path's benchmark baseline).
:attr:`CampaignResult.cache_stats` reports evaluations skipped.

Correctness contract: each member's stream is produced in its own
enumeration order — cohort slices in walk order, pool chunks through
``imap``, which returns results in submission order, each evaluated by
a chunk-local evaluator (memoization never crosses scenarios) — so
every scenario's rows are byte-identical to a solo ``explore()`` of the
same scenario, regardless of executor, worker count or how the fleet
was interleaved. Scheduling policies only reorder *which scenario's*
slice or chunk comes next, never those within one scenario.

Streaming contract: :meth:`Campaign.iter_runs` yields each
:class:`ScenarioRun` the moment its last rows land — a dashboard
renders the first finished scenario while the rest of the fleet is
still evaluating — and :meth:`Campaign.run` is a drain over it.
Per-scenario :class:`~repro.explore.sink.ResultSink` outputs receive
rows as that scenario's slices and chunks complete (and are
closed/flushed the moment their scenario finishes), and
``collect=False`` keeps only running statistics (evaluated count,
feasible count, best row, and an online
:class:`~repro.explore.result.ParetoFrontier`) — an export-only
campaign's peak memory is set by the chunk window plus the frontier
size, never by the fleet's combined design-space size. A sink failure
aborts the campaign with a clear :class:`~repro.errors.SinkError`
naming the scenario; every other scenario's sink is still closed
(flushed), so one bad sink never corrupts the rest of the fleet's
outputs. Abandoning ``iter_runs()`` mid-fleet closes the executor
stream and every open sink the same way.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.core.cost import platform_axis_fingerprint
from repro.core.report import TextTable, campaign_summary_table
from repro.errors import ConfigurationError, PipelineError
from repro.explore.engine import (
    DEFAULT_CHUNK_SIZE,
    _check_dedup_mode,
    _chunked,
    _gc_paused,
    _RunConsumer,
)
from repro.explore.executor import (
    SweepExecutor,
    auto_chunk_size,
    resolve_executor,
)
from repro.explore.incremental import evaluate_chunk, uses_stock_cost_semantics
from repro.explore.result import (
    DEFAULT_AXES,
    ExplorationResult,
    ParetoFrontier,
    domain_frontier,
)
from repro.explore.scenario import Scenario
from repro.explore.vectorized import BatchPrefixEvaluator, BatchRows

# Scheduling policies live in their own module (repro.explore.
# scheduling); the re-export keeps `from repro.explore.campaign import
# SCHEDULING_POLICIES` working.
from repro.explore.scheduling import (
    SCHEDULING_POLICIES,  # noqa: F401  (re-exported API)
    RoundRobin,
    SchedulingPolicy,
    resolve_policy,
)
from repro.explore.sink import close_sink, open_sink, resolve_sink

# -- the two lanes ------------------------------------------------------

#: One in-process step: ``(member index, lazy batch)`` pairs — one pair
#: for a solo member, one per member for a dedup group's slice.
_Step = tuple[tuple[int, BatchRows], ...]


def _evaluate_tagged_chunk(
    tagged: tuple[int, Any, "dict[str, float] | None", list[Any]],
) -> tuple[int, list[Any]]:
    """Evaluate one scalar member's tagged config chunk (module-level
    for process-pool picklability). The item carries *its own*
    scenario's model and pass rates — not the whole fleet's — so a
    process backend serializes one model per task, same as solo
    ``explore()``; the index travels with the costs so the campaign can
    route them back to their scenario."""
    index, model, pass_rates, configs = tagged
    return index, evaluate_chunk(model, pass_rates, configs)


def _select(policy: SchedulingPolicy, live: list[int]) -> int:
    """The policy's pick among ``live``, validated."""
    index = policy.select(tuple(live))
    if index not in live:
        raise ConfigurationError(
            f"scheduling policy {getattr(policy, 'name', policy)!r} "
            f"selected scenario {index}, not in the live set {live}"
        )
    return index


def _solo_walk(
    index: int, scenario: Scenario, model: Any, chunk_size: int
) -> Iterator[_Step]:
    """A stock member's in-process stream: solo ``explore()``'s cohort
    walk, sliced at the campaign's chunk size."""
    evaluator = BatchPrefixEvaluator(model, scenario.pass_rates)
    for batch in evaluator.iter_scenario_batches(scenario, chunk_size):
        yield ((index, batch),)


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

    Ineligible (returns None): scenarios with a pre-built ``model``
    (its cost semantics — and its link — are the subclass's business),
    and scenarios with any pruning (``prune`` / ``prune_depth`` hooks,
    ``auto_prune``, ``auto_prune_configs``): pruned streams depend on
    the constraint *and the link*, so two members of a would-be group
    can enumerate different subsequences.
    """
    if scenario.model is not None:
        return None
    if scenario.prune is not None or scenario.prune_depth is not None:
        return None
    if scenario.auto_prune or scenario.auto_prune_configs:
        return None
    pass_rates = (
        tuple(sorted(scenario.pass_rates.items()))
        if scenario.pass_rates is not None
        else None
    )
    return (
        scenario.pipeline.fingerprint(),
        platform_axis_fingerprint(scenario.pipeline),
        scenario.domain,
        scenario.max_blocks,
        scenario.include_empty,
        pass_rates,
    )


class PipelineCostCache:
    """Campaign-level cross-scenario evaluation dedup: the fleet's dedup
    groups and their shared walk.

    Fleets routinely carry the same pipeline at several links (the
    design-space sweep shape: one product, every uplink tier); their
    compute-side costs are link-independent, so evaluating each scenario
    solo recomputes identical prefix folds once per link. This cache
    groups a fleet's scenarios by :func:`scenario_compute_key` — every
    eligible scenario belongs to exactly one group, a scenario with no
    sibling to a group of one — and :meth:`walk` folds each group's
    cohort states once for all members.

    The dedup outcome is surfaced through
    :attr:`CampaignResult.cache_stats`, derived from each run's
    ``dedup_source`` provenance — one source of truth, no separate
    counters to drift.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        self.scenarios = tuple(scenarios)
        #: Leader index -> the group's member indices, leader first, in
        #: fleet order.
        self.groups: dict[int, tuple[int, ...]] = {}
        #: Member index -> its group's leader (a leader maps to itself).
        self.leader_of: dict[int, int] = {}
        by_key: dict[tuple, int] = {}
        for index, scenario in enumerate(self.scenarios):
            key = scenario_compute_key(scenario)
            if key is None:
                continue
            leader = by_key.setdefault(key, index)
            self.groups[leader] = self.groups.get(leader, ()) + (index,)
            self.leader_of[index] = leader

    def walk(self, leader: int, chunk_size: int) -> Iterator[_Step]:
        """The group's in-process stream: one cohort walk of the
        leader's compute-side states, every slice closed for all members
        at once (:meth:`~repro.explore.vectorized.BatchPrefixEvaluator.
        iter_group_batches`) into ``(member index, lazy view)`` pairs."""
        indices = self.groups[leader]
        group = [self.scenarios[index] for index in indices]
        evaluator = BatchPrefixEvaluator(group[0].cost_model(), group[0].pass_rates)
        for views in evaluator.iter_group_batches(group, chunk_size):
            yield tuple(zip(indices, views))


class _FleetProgress:
    """Chunk bookkeeping behind completion detection: a scenario is
    complete when its stream is known exhausted AND every pool chunk it
    emitted has been collected (in-process steps are collected the
    moment they are taken, so they never count as emitted)."""

    def __init__(self, n: int):
        self.emitted = [0] * n
        self.collected = [0] * n
        self.exhausted = [False] * n
        self._pending = set(range(n))

    def complete(self, index: int) -> bool:
        return self.exhausted[index] and self.collected[index] == self.emitted[index]

    def pop_complete(self) -> list[int]:
        """Scenario indices that completed since the last call, in fleet
        order (each returned exactly once)."""
        done = sorted(index for index in self._pending if self.complete(index))
        self._pending.difference_update(done)
        return done


def _interleave_chunks(
    scenarios: Sequence[Scenario],
    models: Sequence[Any],
    sizes: Sequence[int],
    policy: SchedulingPolicy,
    progress: _FleetProgress,
    indices: Sequence[int],
) -> Iterator[tuple[int, Any, "dict[str, float] | None", list[Any]]]:
    """The pool lane's feed: one config-list chunk per policy selection
    among the scalar members ``indices``, tagged with its scenario,
    model and pass rates; exhausted scenarios leave the live set, and no
    scenario's enumeration is materialized past its next chunk.
    Emission/exhaustion is recorded in ``progress`` so the campaign can
    detect per-scenario completion."""
    streams = {
        index: _chunked(scenarios[index].iter_configs(), sizes[index])
        for index in indices
    }
    live = list(indices)
    try:
        while live:
            index = _select(policy, live)
            chunk = next(streams[index], None)
            if chunk is None:
                live.remove(index)
                progress.exhausted[index] = True
                continue
            progress.emitted[index] += 1
            yield index, models[index], scenarios[index].pass_rates, chunk
    finally:
        # Mark abandoned streams exhausted-at-current-count so late
        # completion scans cannot block, and close their enumerators.
        for index, stream in streams.items():
            progress.exhausted[index] = True
            stream.close()


@dataclass
class ScenarioRun:
    """One scenario's outcome inside a campaign.

    ``result`` is the full :class:`ExplorationResult` when the campaign
    collected (byte-identical to a solo ``explore()``), or None on an
    export-only run — the summary statistics are tracked streamingly
    either way, including the domain-default Pareto frontier:
    ``pareto_size`` and :meth:`pareto` work in both modes (streamed
    through an online :class:`~repro.explore.result.ParetoFrontier`
    under ``collect=False``, identical to the collected frontier).
    ``wall_seconds`` is the time from campaign start until this
    scenario's last chunk was collected (scenarios share the executor,
    so exclusive per-scenario time is not a meaningful quantity).
    ``dedup_source`` names the scenario whose shared compute-side
    states this run was finalized from (None when it evaluated its own
    configurations — always, unless the campaign ran with
    ``dedup=True`` and the fleet shared a compute key).
    ``n_materialized`` counts the rows lazy dedup finalization actually
    turned into Python objects for this scenario (collected runs
    materialize everything; export-only runs only the best row, the
    frontier's survivors and heap candidates) — None when the rows
    never rode the lazy group walk (no dedup, ``dedup="materialize"``,
    or a dedup-ineligible scenario; an eligible scenario without a
    sibling walks as a group of one).
    """

    scenario: Scenario
    result: ExplorationResult | None
    n_evaluated: int
    n_feasible: int
    best: dict[str, Any] | None
    _pareto_size: int | None
    wall_seconds: float
    frontier: list[dict[str, Any]] | None = field(default=None, repr=False)
    dedup_source: str | None = None
    n_materialized: int | None = None

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def pareto_size(self) -> int:
        """Size of the domain-default Pareto frontier.

        Export-only runs know it from the streamed frontier; collected
        runs compute it on first access, so consumers that never look
        at the frontier (the joint-fleet optimizer's phase-1 campaign)
        never pay for it per member.
        """
        if self._pareto_size is None:
            self._pareto_size = len(self.pareto()) if self.n_evaluated else 0
        return self._pareto_size

    def pareto(self) -> list[dict[str, Any]]:
        """The domain-default Pareto frontier rows: from the collected
        result when available, else the streamed frontier. Raises
        :class:`~repro.errors.PipelineError` on an export-only run that
        opted out of frontier tracking (``frontier=False``) — the rows
        are gone and the frontier was never maintained."""
        if self.result is not None:
            return self.result.pareto() if len(self.result) else []
        if self.frontier is None:
            raise PipelineError(
                f"run {self.scenario.name!r} was export-only with "
                "frontier tracking disabled (frontier=False); no Pareto "
                "frontier is available"
            )
        return list(self.frontier)

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
            "materialized": (
                "-" if self.n_materialized is None else self.n_materialized
            ),
        }


class CampaignResult:
    """Per-scenario outcomes of one campaign, plus the fleet summary."""

    def __init__(
        self,
        name: str,
        runs: list[ScenarioRun],
        wall_seconds: float,
        policy: str = RoundRobin.name,
        dedup: bool | str = False,
    ):
        self.name = name
        self.runs = runs
        self.wall_seconds = wall_seconds
        self.policy = policy
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
        survivors, the lazy win — fully-materialized members, e.g.
        under ``dedup="materialize"`` or collected runs, count every
        closed row).
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
                "rows_materialized": sum(
                    run.n_evaluated
                    if run.n_materialized is None
                    else run.n_materialized
                    for run in members
                ),
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
        ``wall_seconds`` — the time from campaign start until its last
        chunk was collected, i.e. when it streamed out of
        :meth:`Campaign.iter_runs`. This is the objective the
        :class:`~repro.explore.scheduling.WeightedCompletionTime`
        policy (WSPT order) minimizes; weights key on scenario name,
        scenarios without an entry weigh 1.0, and unknown names are
        rejected (they would silently never apply).
        """
        weights = dict(weights or {})
        names = {run.name for run in self.runs}
        unknown = sorted(set(weights) - names)
        if unknown:
            raise ConfigurationError(
                f"completion-time weights for unknown scenarios {unknown}; "
                f"campaign has {sorted(names)}"
            )
        for name, weight in weights.items():
            if not weight > 0:
                raise ConfigurationError(
                    f"weight for {name!r} must be positive, got {weight}"
                )
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
            f"({len(self.runs)} scenarios, {self.policy}, "
            f"{self.wall_seconds:.3f}s)",
        )


def _best_metric(domain: str) -> str:
    return "total_fps" if domain == "throughput" else "total_energy_j"


class _StreamingStats:
    """Running per-scenario statistics for export-only campaigns:
    everything the summary needs that does not require all rows —
    including the domain-default Pareto frontier, maintained online."""

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
        #: The best row, or the ``(batch, index)`` it will be built from:
        #: a best that a later batch displaces is never materialized.
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

    def update(self, rows: Sequence[dict[str, Any]]) -> None:
        metric, maximize = self._metric, self._maximize
        best, current = None, self._best_value
        seen = self._best is not None
        feasible = 0
        for row in rows:
            if row["feasible"]:
                feasible += 1
            value = row[metric]
            # Strict comparison: ties keep the earliest-enumerated row,
            # matching ExplorationResult.best.
            if not seen or (value > current if maximize else value < current):
                best, current, seen = row, value, True
        if best is not None:
            self._best, self._best_value = best, current
        self.n_evaluated += len(rows)
        self.n_feasible += feasible
        if self.frontier is not None:
            self.frontier.add(rows)

    def update_batch(self, batch: BatchRows) -> None:
        """:meth:`update` over a lazy columnar batch, materializing only
        the rows the statistics actually keep (the frontier's survivors,
        and the best row once it is read).

        Exactly equivalent to ``update(batch.rows())``: the sequential
        strict-comparison scan keeps the first row attaining the extreme
        metric value among strict improvements — which is precisely the
        first argmax/argmin of the column restricted to rows beating the
        running best — and NaN metric values never improve on a non-NaN
        best (every comparison against NaN is False), matching the
        scalar scan branch for branch. Falls back to the row path when
        the metric is not columnar.
        """
        try:
            values = batch.metric_column(self._metric)
            feasible = batch.metric_column("feasible")
        except KeyError:
            self.update(batch.rows())
            return
        n = len(batch)
        if n == 0:
            return
        maximize = self._maximize
        winner: int | None = None
        if self._best is None:
            first = float(values[0])
            if first != first:
                # A NaN first row becomes best and no comparison against
                # NaN ever replaces it — the scalar scan keeps row 0.
                winner = 0
            else:
                winner = int(
                    np.nanargmax(values) if maximize else np.nanargmin(values)
                )
        else:
            current = self._best_value
            improved = (values > current) if maximize else (values < current)
            if bool(np.any(improved)):
                winner = int(
                    np.nanargmax(values) if maximize else np.nanargmin(values)
                )
        if winner is not None:
            self._best = (batch, winner)
            self._best_value = values[winner]
        self.n_evaluated += n
        self.n_feasible += int(np.count_nonzero(feasible))
        if self.frontier is not None:
            self.frontier.add_batch(batch)


class Campaign:
    """A batch of scenarios explored as one run, sharing at most one pool.

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
        executor: SweepExecutor | None = None,
        chunk_size: int | None = None,
        *,
        sinks: Any = None,
        collect: bool = True,
        policy: Any = None,
        dedup: bool | str = False,
        frontier: bool = True,
    ) -> Iterator[ScenarioRun]:
        """Stream the fleet: yield each :class:`ScenarioRun` the moment
        its scenario's last slice or chunk lands.

        The streaming counterpart of :meth:`run` (which is a drain over
        this iterator): scenarios complete at different times — under
        :class:`~repro.explore.scheduling.WeightedCompletionTime` the
        smallest one finishes while the largest has barely started — and
        each is yielded (its sink
        closed and flushed first) without waiting for the fleet to
        drain. Yield order is completion order, not fleet order.

        Abandoning the iterator mid-fleet is safe: the executor stream
        is closed (the shared pool shuts down after in-flight chunks
        finish) and every open sink is closed (flushed), exactly as on
        an error. A parallel executor keeps at most ``2 * workers``
        scalar members' chunks in flight ahead of the consumer.
        Parameters are those of :meth:`run`.
        """
        executor = resolve_executor(executor)
        _check_dedup_mode(dedup)
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        policy = resolve_policy(policy)
        scenarios = self.scenarios
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
        return self._stream_runs(
            executor, chunk_size, sink_list, collect, policy, dedup, frontier
        )

    def _stream_runs(
        self,
        executor: SweepExecutor,
        chunk_size: int | None,
        sink_list: list[Any],
        collect: bool,
        policy: SchedulingPolicy,
        dedup: bool | str,
        track_frontier: bool,
    ) -> Iterator[ScenarioRun]:
        """The generator behind :meth:`iter_runs` (argument validation
        stays eager in the caller, before the first ``next()``): the
        in-process lane and the pool lane, alternating, with completed
        runs handed out between steps."""
        scenarios = self.scenarios
        models = [scenario.cost_model() for scenario in scenarios]
        stock = [uses_stock_cost_semantics(model) for model in models]
        cache = PipelineCostCache(scenarios) if dedup else None
        sizes = [
            self._chunk_size_for(scenario, executor, chunk_size, pooled=not flag)
            for scenario, flag in zip(scenarios, stock)
        ]
        leader_of = cache.leader_of if cache is not None else {}
        members = [
            self._member(
                index,
                sink,
                collect,
                sizes[index],
                track_frontier,
                dedup if index in leader_of else False,
            )
            for index, sink in enumerate(sink_list)
        ]
        # The in-process lane: one walk per dedup group (keyed by its
        # leader) and one per other stock member, each with the members
        # its steps feed.
        walks: dict[int, Iterator[_Step]] = {}
        units: dict[int, tuple[int, ...]] = {}
        for index, scenario in enumerate(scenarios):
            if index in leader_of:
                if leader_of[index] == index:
                    walks[index] = cache.walk(index, sizes[index])
                    units[index] = cache.groups[index]
            elif stock[index]:
                walks[index] = _solo_walk(index, scenario, models[index], sizes[index])
                units[index] = (index,)
        live = sorted(walks)
        # Same pause rule as solo explore(): engine-only allocations.
        pause = (
            all(stock)
            and all(scenario.prune is None for scenario in scenarios)
            and all(sink is None for sink in sink_list)
        )
        progress = _FleetProgress(len(scenarios))
        start = time.perf_counter()
        opened: list[int] = []
        closed: set[int] = set()
        error: BaseException | None = None
        feed = results = None

        # The GC pause must cover the bulk-accumulation regions but NOT
        # the yields: consumer code between next() calls would otherwise
        # run with cycle collection disabled for the whole fleet.
        # Scenario completions are rare (N per campaign), so leaving and
        # re-entering the paused region around them costs nothing.
        pause_guard: ExitStack | None = None

        def _enter_pause() -> None:
            nonlocal pause_guard
            if pause and pause_guard is None:
                pause_guard = ExitStack()
                pause_guard.enter_context(_gc_paused())

        def _exit_pause() -> None:
            nonlocal pause_guard
            if pause_guard is not None:
                pause_guard.close()
                pause_guard = None

        def _hand_out() -> Iterator[ScenarioRun]:
            done = self._finish_complete(
                progress, members, sink_list, opened, closed, leader_of
            )
            if done:
                _exit_pause()
                yield from done
                _enter_pause()

        try:
            # Opening happens inside the try so a sink whose open()
            # fails still gets every *previously opened* sink closed
            # (flushed) on the way out.
            for index, sink in enumerate(sink_list):
                if sink is not None:
                    open_sink(sink, scenarios[index], self._label(index))
                    opened.append(index)
            policy.start(scenarios)
            scalar = [index for index in range(len(scenarios)) if not stock[index]]
            if scalar:
                # The pool starts (lazily, on the first next()) only for
                # members whose model fails the stock gate.
                feed = _interleave_chunks(
                    scenarios, models, sizes, policy, progress, scalar
                )
                results = executor.imap(_evaluate_tagged_chunk, feed, chunk_size=1)
            _enter_pause()
            while live or results is not None:
                if live:
                    index = _select(policy, live)
                    step = next(walks[index], None)
                    now = time.perf_counter() - start
                    if step is None:
                        live.remove(index)
                        for member in units[index]:
                            progress.exhausted[member] = True
                    else:
                        for member, batch in step:
                            members[member].add_batch(batch, now)
                    yield from _hand_out()
                if results is not None:
                    item = next(results, None)
                    if item is None:
                        results = None
                    else:
                        index, costs = item
                        members[index].add_costs(costs, time.perf_counter() - start)
                        progress.collected[index] += 1
                    yield from _hand_out()
        except BaseException as exc:
            error = exc
            raise
        finally:
            _exit_pause()
            # Stop the executor stream first (the pool shuts down after
            # in-flight chunks finish; a drained stream is already shut),
            # then the enumerators, then flush every sink not already
            # closed at scenario completion.
            if results is not None:
                results.close()
            if feed is not None:
                feed.close()
            for walk in walks.values():
                walk.close()
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
        chunk_size: int,
        track_frontier: bool,
        group_dedup: bool | str,
    ) -> "_Member":
        """One member's run state: the consumer solo ``explore()`` uses,
        plus running statistics on export-only runs (collected runs
        summarize from the result). ``group_dedup`` is the campaign's
        ``dedup`` mode for a dedup group member, else False."""
        scenario = self.scenarios[index]
        stats = None if collect else _StreamingStats(scenario.domain, track_frontier)
        consumer = _RunConsumer(
            scenario,
            sink,
            self._label(index),
            collect,
            chunk_size,
            stats=stats,
            # A ScenarioRun forces every collected result's rows for its
            # summary, so rows built for a sink are kept, not rebuilt.
            keep_rows=True,
        )
        bulk = group_dedup == "materialize"
        return _Member(consumer, bulk, 0 if group_dedup and not bulk else None)

    def _finish_complete(
        self,
        progress: _FleetProgress,
        members: list["_Member"],
        sink_list: list[Any],
        opened: list[int],
        closed: set[int],
        leader_of: Mapping[int, int],
    ) -> list[ScenarioRun]:
        """Runs for scenarios that just completed, their sinks flushed
        and closed first so a handed-out run's exports are complete."""
        runs: list[ScenarioRun] = []
        for index in progress.pop_complete():
            member = members[index]
            if index in opened and index not in closed:
                member.consumer.flush()
                closed.add(index)
                close_sink(sink_list[index], self._label(index))
            leader = leader_of.get(index, index)
            dedup_source = self.scenarios[leader].name if leader != index else None
            runs.append(self._build_run(index, member, dedup_source))
        return runs

    def run(
        self,
        executor: SweepExecutor | None = None,
        chunk_size: int | None = None,
        *,
        sinks: Any = None,
        collect: bool = True,
        policy: Any = None,
        dedup: bool | str = False,
        frontier: bool = True,
    ) -> CampaignResult:
        """Explore every scenario in one campaign run.

        A drain over :meth:`iter_runs` — identical results, with the
        per-scenario runs reassembled into fleet order.

        Parameters
        ----------
        executor:
            The one pool the scalar-model scenarios share; defaults to
            serial. Stock-model scenarios fold in the calling process
            whatever the executor, and a fleet without scalar members
            never starts the pool. Row order per scenario is its
            enumeration order for any worker count.
        chunk_size:
            Rows per cohort slice (stock models) or configurations per
            chunk (scalar models) for every scenario (default: the
            executor's ``chunk_size``, else :data:`~repro.explore.engine.
            DEFAULT_CHUNK_SIZE`, with scalar chunks on a pool sized the
            way solo ``explore()`` sizes them).
        sinks:
            Per-scenario streaming outputs: a mapping from scenario
            name to sink (scenarios without an entry get none) or a
            factory ``scenario -> sink | None``.
        collect:
            With ``collect=False`` no :class:`ExplorationResult` caches
            are built — each :class:`ScenarioRun` carries streaming
            statistics only (the Pareto frontier maintained online) and
            peak memory is bounded by the chunk window. Legal with no
            sinks at all (a summary-only campaign) or with a sink for
            *every* scenario (an export-only campaign); partial coverage
            would silently discard rows and is rejected.
        policy:
            The :class:`SchedulingPolicy` interleaving the fleet's
            chunks — an instance or a builtin name
            (:data:`SCHEDULING_POLICIES`); default round-robin. Policies
            reorder scenario completion, never per-scenario results.
        dedup:
            Share link-independent compute-side prefix states across
            scenarios with equal :func:`scenario_compute_key`s (the
            same pipeline at several links): each group evaluates once
            and every member's costs are finalized under its own link
            terms — per-scenario results stay byte-identical to a
            ``dedup=False`` run (and to solo ``explore()``), asserted
            by the invariant suite. :attr:`CampaignResult.cache_stats`
            reports the evaluations skipped. ``True`` (alias
            ``"lazy"``) closes columnar leader states for the whole
            group in one multi-link broadcast per segment and hands
            members lazy :class:`~repro.explore.vectorized.BatchRows`
            views — under ``collect=False`` only survivors
            materialize; ``"materialize"`` keeps the per-member
            materialized finalize (identical values, O(rows x members)
            Python objects) — the lazy path's benchmark baseline.
        frontier:
            ``False`` skips the online Pareto frontier on export-only
            runs. When the domain axes anti-correlate, as the
            compute/communication tradeoff makes them, most rows join
            the frontier, and merging and materializing them is a
            large share of the campaign. Such runs raise
            from :meth:`ScenarioRun.pareto` / ``pareto_size`` instead
            of answering; collected runs are unaffected (their frontier
            derives lazily from the rows).
        """
        resolved = resolve_policy(policy)
        start = time.perf_counter()
        runs = list(
            self.iter_runs(
                executor,
                chunk_size,
                sinks=sinks,
                collect=collect,
                policy=resolved,
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
            policy=getattr(resolved, "name", type(resolved).__name__),
            dedup=dedup,
        )

    def _label(self, index: int) -> str:
        return f"scenario {self.scenarios[index].name!r}"

    @staticmethod
    def _chunk_size_for(
        scenario: Scenario,
        executor: SweepExecutor,
        chunk_size: int | None,
        pooled: bool,
    ) -> int:
        """Rows per cohort slice (in-process members) or configurations
        per chunk (``pooled`` members, sized for the pool's workers the
        way solo ``explore()`` sizes them)."""
        if chunk_size is not None:
            return chunk_size
        if executor.chunk_size is not None:
            return executor.chunk_size
        if pooled and not executor.is_serial:
            return auto_chunk_size(
                scenario.count_configs(), executor.workers, DEFAULT_CHUNK_SIZE
            )
        return DEFAULT_CHUNK_SIZE

    def _build_run(
        self, index: int, member: "_Member", dedup_source: str | None
    ) -> ScenarioRun:
        scenario = self.scenarios[index]
        result = member.consumer.result()
        if result is not None:
            n_evaluated = len(result)
            n_feasible = len(result.feasible)
            try:
                best = result.best
            except PipelineError:
                best = None
            pareto_size = None  # computed lazily on first access
            frontier = None
        else:
            stats = member.consumer.stats
            if stats.settle() and member.n_materialized is not None:
                member.n_materialized += 1
            n_evaluated = stats.n_evaluated
            n_feasible = stats.n_feasible
            best = stats.best
            if stats.frontier is not None:
                frontier = stats.frontier.rows
                pareto_size = len(frontier)
            else:  # frontier tracking opted out: pareto() raises
                frontier = None
                pareto_size = None
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
            n_materialized=member.n_materialized,
        )


class _Member:
    """One campaign member's run state: the run consumer solo
    ``explore()`` uses, the lazy-materialization count (None off the
    lazy group walk) and when its last rows landed."""

    __slots__ = ("consumer", "bulk", "n_materialized", "completed_at")

    def __init__(
        self, consumer: _RunConsumer, bulk: bool, n_materialized: int | None
    ):
        self.consumer = consumer
        #: ``dedup="materialize"``: the group's views are materialized in
        #: bulk, the lazy path's benchmark baseline.
        self.bulk = bulk
        self.n_materialized = n_materialized
        self.completed_at = 0.0

    def add_batch(self, batch: BatchRows, now: float) -> None:
        if self.bulk:
            self.consumer.add_costs(batch.costs())
        else:
            self.consumer.add_batch(batch)
            if self.n_materialized is not None:
                self.n_materialized += batch.n_materialized
        self.completed_at = now

    def add_costs(self, costs: list[Any], now: float) -> None:
        self.consumer.add_costs(costs)
        self.completed_at = now
