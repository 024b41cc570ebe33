"""Batch exploration campaigns: many scenarios, one shared executor.

The paper explores one design space at a time; a production exploration
service faces *fleets* of them — every camera product, link tier and
power budget is its own scenario. Running N solo ``explore()`` calls
costs N pools and serializes the fleet; a :class:`Campaign` shards all
scenarios across **one** :class:`~repro.explore.executor.SweepExecutor`
by interleaving their configuration chunks through ``imap`` under a
pluggable :class:`~repro.explore.scheduling.SchedulingPolicy`
(round-robin by default; policies live in
:mod:`repro.explore.scheduling`), so every worker stays busy until the
whole fleet is done and a campaign of N scenarios costs one pool, not N.

Dedup contract: with ``dedup=True``, scenarios whose
:func:`scenario_compute_key`s match (the same pipeline and platform
axis at different links — the design-space-sweep fleet shape) share one
evaluation pass: the group's leader evaluates pre-finalize compute
states, and every member's costs are finalized under its own per-depth
link terms by the :class:`PipelineCostCache`. Because the finalize
replays exactly the solo evaluation's float operations, per-scenario
results stay byte-identical to ``dedup=False`` and to solo
``explore()`` — the invariant suite asserts it over seeded random
fleets. :attr:`CampaignResult.cache_stats` reports evaluations skipped.
Dedup groups only form for scenarios without a pre-built ``model``,
whose cost models are always stock, so the leader's states are always
columnar. By default the group finalize is *columnar and lazy* end to
end: each shared :class:`~repro.explore.vectorized.BatchChunkStates`
segment is
closed for all members at once by one ``finalize_batch_multi``
broadcast (an ``(n_members, n_rows)`` sweep of the member link terms)
and members hand their consumers lazy member-tagged
:class:`~repro.explore.vectorized.BatchRows` views — under
``collect=False`` with columnar sinks a fleet of N links materializes
only frontier/heap survivors, never N x rows Python objects
(``dedup="materialize"`` keeps the per-member materialized finalize
for comparison).

Sharding contract: on a parallel executor, scenarios with stock models
(see :func:`~repro.explore.incremental.uses_stock_cost_semantics`)
stream compact :class:`~repro.explore.vectorized.CohortShard`
descriptors through the interleaver instead of materialized config
lists; workers regenerate each chunk's rows locally from the flat
index ranges (O(depth) array rebuilds), so a process pool pickles a
few integers per chunk rather than per-config tuples. Results remain
byte-identical to the materialized stream — the shard decode replays
enumeration order exactly. Campaigns are the only users of this wire
format: solo ``explore()`` folds in process on every executor.

Correctness contract: chunks are tagged with their scenario and each is
evaluated by a chunk-local
:class:`~repro.explore.incremental.PrefixEvaluator` (memoization never
crosses scenarios), and ``imap`` returns results in submission order —
so each scenario's evaluations land in its own enumeration order and
are byte-identical to a solo ``explore()`` of the same scenario,
regardless of worker count or how the fleet was interleaved (tests
compare them byte for byte). Scheduling policies only reorder *which
scenario's* chunk is submitted next, never the chunks within one
scenario, so every builtin policy preserves that identity.

Streaming contract: :meth:`Campaign.iter_runs` yields each
:class:`ScenarioRun` the moment its last chunk lands — a dashboard
renders the first finished scenario while the rest of the fleet is
still evaluating — and :meth:`Campaign.run` is a drain over it.
Per-scenario :class:`~repro.explore.sink.ResultSink` outputs receive
rows as that scenario's chunks complete (and are closed/flushed the
moment their scenario finishes), and ``collect=False`` keeps only
running statistics (evaluated count, feasible count, best row, and an
online :class:`~repro.explore.result.ParetoFrontier`) — an export-only
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
    _evaluate_scratch,
    _gc_paused,
)
from repro.explore.executor import (
    SweepExecutor,
    auto_chunk_size,
    resolve_executor,
)
from repro.explore.incremental import (
    depth_link_cost,
    evaluate_chunk,
    supports_prefix_evaluation,
    uses_stock_cost_semantics,
)
from repro.explore.result import (
    DEFAULT_AXES,
    ExplorationResult,
    ParetoFrontier,
    cost_row,
    domain_frontier,
)
from repro.explore.scenario import Scenario
from repro.explore.vectorized import (
    BatchChunkStates,
    BatchPrefixEvaluator,
    BatchRows,
    CohortShard,
    _materialize_costs,
    iter_scenario_shards,
)

# Scheduling policies live in their own module (repro.explore.
# scheduling); the re-export keeps `from repro.explore.campaign import
# SCHEDULING_POLICIES` working.
from repro.explore.scheduling import (
    SCHEDULING_POLICIES,  # noqa: F401  (re-exported API)
    RoundRobin,
    SchedulingPolicy,
    resolve_policy,
)
from repro.explore.sink import (
    close_sink,
    open_sink,
    resolve_sink,
    uses_columnar_writes,
    write_sink,
    write_sink_batch,
)

# -- chunk plumbing -----------------------------------------------------

#: Chunk evaluation modes carried in a tagged chunk's spec: the stock
#: prefix-memoized path, the from-scratch fallback for models overriding
#: evaluate(), and the dedup path that returns pre-finalize states for
#: the collector to close under each member scenario's own link.
_MODE_MEMOIZED = "memoized"
_MODE_SCRATCH = "scratch"
_MODE_STATES = "states"

#: One tagged chunk's spec: (model, pass_rates, mode).
_ChunkSpec = tuple[Any, "dict[str, float] | None", str]


def _evaluate_tagged_chunk(
    tagged: tuple[int, _ChunkSpec, list[Any]],
) -> tuple[int, Any]:
    """Evaluate one scenario-tagged chunk (module-level for process-pool
    picklability). The tagged item carries *its own* scenario's (model,
    pass_rates, mode) spec — not the whole fleet's — so a
    process backend serializes one model per task, same as solo
    ``explore()``; the index travels with the results so the collector
    can route them back to their scenario.

    A :class:`~repro.explore.vectorized.CohortShard` (only stock models
    shard) is decoded and folded locally by the columnar evaluator; a
    config list goes through the shared chunk evaluator. A dedup
    leader's chunk (the states mode; its model is always stock) folds
    into columnar :class:`~repro.explore.vectorized.BatchChunkStates`
    instead of cost objects."""
    index, (model, pass_rates, mode), configs = tagged
    if isinstance(configs, CohortShard):
        batch = BatchPrefixEvaluator(model, pass_rates)
        if mode == _MODE_STATES:
            return index, batch.states_shard(configs)
        return index, batch.evaluate_shard(configs)
    if mode == _MODE_STATES:
        return index, BatchPrefixEvaluator(model, pass_rates).states_chunk(configs)
    if mode == _MODE_MEMOIZED:
        return index, evaluate_chunk(model, pass_rates, configs)
    return index, [_evaluate_scratch(model, pass_rates, config) for config in configs]


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


class _StateFinalizer:
    """Close shared compute-side prefix states under one scenario's own
    per-depth link terms.

    Delegates to the *stock* ``model.finalize`` (the definition the
    memoized walks are tested bit-identical against) with the link term
    from the one shared :func:`~repro.explore.incremental.
    depth_link_cost` definition — so a state evaluated once for a dedup
    group and finalized here is bit-identical to evaluating the
    configuration solo against this scenario's link (the invariant
    suite compares them byte for byte), and a future cost-field change
    lands here automatically instead of in a hand-inlined copy.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self._model = scenario.cost_model()
        self._energy = scenario.domain == "energy"
        self._link_costs: dict[int, Any] = {}  # cut depth -> finalize arg

    def link_cost(self, depth: int, config: Any) -> Any:
        """This scenario's per-depth finalize argument (cached): the
        communication rate (throughput) or (transmit joules, transmit
        seconds) pair (energy) of the cut-depth payload."""
        return depth_link_cost(
            self._model.link, self._energy, self._link_costs, depth, config
        )

    def finalize(self, payload: BatchChunkStates) -> list[Any]:
        """Close each same-depth run of the leader's columnar states with
        one ``finalize_batch`` call and materialize through the same
        field definitions the batch evaluator uses — bit-identical to
        finalizing each configuration through the scalar ``finalize``."""
        model = self._model
        out: list[Any] = []
        for configs, depth, state, _choices, _names in payload.segments:
            link_cost = self.link_cost(depth, configs[0])
            out.extend(
                _materialize_costs(
                    configs, model.finalize_batch(state, link_cost), self._energy
                )
            )
        return out


class PipelineCostCache:
    """Campaign-level cross-scenario evaluation dedup.

    Fleets routinely carry the same pipeline at several links (the
    design-space sweep shape: one product, every uplink tier); their
    compute-side costs are link-independent, so evaluating each scenario
    solo recomputes identical prefix folds once per link. This cache
    groups a fleet's scenarios by :func:`scenario_compute_key`; each
    group's *leader* (first in fleet order) evaluates its chunks into
    columnar pre-finalize states
    (:meth:`~repro.explore.vectorized.BatchPrefixEvaluator.states_chunk`),
    and every member — leader and followers —
    gets the states closed under its own link terms by a
    :class:`_StateFinalizer`. Followers never enter the interleaver:
    their chunks mirror the leader's the moment each leader chunk
    lands, preserving streaming, per-scenario enumeration order, sinks
    and export-only mode unchanged.

    The dedup outcome is surfaced through
    :attr:`CampaignResult.cache_stats`, derived from each run's
    ``dedup_source`` provenance — one source of truth, no separate
    counters to drift.
    """

    def __init__(self, scenarios: Sequence[Scenario]):
        self.leader_of: dict[int, int] = {}
        self.followers_of: dict[int, list[int]] = {}
        by_key: dict[tuple, int] = {}
        for index, scenario in enumerate(scenarios):
            key = scenario_compute_key(scenario)
            if key is None:
                continue
            leader = by_key.setdefault(key, index)
            if leader != index:
                self.leader_of[index] = leader
                self.followers_of.setdefault(leader, []).append(index)
        self._finalizers: dict[int, _StateFinalizer] = {}
        for leader, followers in self.followers_of.items():
            for member in (leader, *followers):
                self._finalizers[member] = _StateFinalizer(scenarios[member])

    @property
    def follower_indices(self) -> frozenset[int]:
        return frozenset(self.leader_of)

    def is_shared_leader(self, index: int) -> bool:
        """Whether this scenario evaluates states on behalf of a group."""
        return index in self.followers_of

    def members_of(self, leader: int) -> tuple[int, ...]:
        """The group's member indices, leader first, in fleet order."""
        return (leader, *self.followers_of.get(leader, ()))

    def finalize(self, index: int, payload: BatchChunkStates) -> list[Any]:
        """Scenario ``index``'s costs for one shared chunk of columnar
        states, fully materialized (the ``dedup="materialize"`` path)."""
        return self._finalizers[index].finalize(payload)

    def finalize_group(
        self, leader: int, payload: BatchChunkStates
    ) -> list[list[BatchRows]]:
        """Every member's lazy :class:`~repro.explore.vectorized.
        BatchRows` views of one leader chunk, in :meth:`members_of`
        order — the columnar end of the dedup path.

        Each segment's shared state closes under the whole group's link
        terms with ONE ``finalize_batch_multi`` broadcast (the per-cell
        float operations replay each member's scalar finalize exactly,
        so member rows stay bit-identical to a solo walk), and every
        member's view shares the segment's choice matrix and
        compute-side columns by reference. Nothing per-row is
        materialized here: consumers (columnar sinks, streaming stats)
        materialize survivors only.
        """
        members = self.members_of(leader)
        finalizers = [self._finalizers[member] for member in members]
        model = finalizers[0]._model
        energy = payload.energy
        out: list[list[BatchRows]] = [[] for _ in members]
        for configs, depth, state, choices, names in payload.segments:
            stack = [
                finalizer.link_cost(depth, configs[0]) for finalizer in finalizers
            ]
            columns_stack = model.finalize_batch_multi(state, stack)
            pipeline = configs[0].pipeline
            for slot, (finalizer, columns) in enumerate(
                zip(finalizers, columns_stack)
            ):
                out[slot].append(
                    BatchRows(
                        finalizer.scenario,
                        pipeline,
                        depth,
                        names,
                        choices,
                        columns,
                        energy,
                    )
                )
        return out


class _FleetProgress:
    """Chunk bookkeeping behind completion detection: a scenario is
    complete when its stream is known exhausted AND every chunk it
    emitted has been collected."""

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
    specs: Sequence[_ChunkSpec],
    sizes: Sequence[int],
    policy: SchedulingPolicy,
    progress: _FleetProgress,
    skip: frozenset[int] = frozenset(),
    shard: Sequence[bool] | None = None,
) -> Iterator[tuple[int, _ChunkSpec, list[Any]]]:
    """One chunk per policy selection: the selected scenario's next
    chunk is yielded (tagged), exhausted scenarios leave the live set,
    and no scenario's enumeration is materialized past its next chunk.
    Emission/exhaustion is recorded in ``progress`` so the collector can
    detect per-scenario completion. Scenarios in ``skip`` (dedup
    followers, fed by mirroring their leader's chunks at collection)
    never enter the live set and are never enumerated here.

    Scenarios flagged in ``shard`` stream
    :class:`~repro.explore.vectorized.CohortShard` descriptors instead
    of materialized config lists: workers regenerate the rows locally
    from the flat index ranges, so a process pool pickles O(1) data per
    chunk instead of per-config tuples. Shard boundaries follow the same
    per-scenario sizes, and both stream shapes flow through the same
    policy selection — scheduling is unchanged."""
    streams = {
        index: (
            iter_scenario_shards(scenario, sizes[index])
            if shard is not None and shard[index]
            else _chunked(scenario.iter_configs(), sizes[index])
        )
        for index, scenario in enumerate(scenarios)
        if index not in skip
    }
    live = [index for index in range(len(scenarios)) if index not in skip]
    policy.start(scenarios)
    try:
        while live:
            index = policy.select(tuple(live))
            if index not in live:
                raise ConfigurationError(
                    f"scheduling policy {getattr(policy, 'name', policy)!r} "
                    f"selected scenario {index}, not in the live set {live}"
                )
            chunk = next(streams[index], None)
            if chunk is None:
                live.remove(index)
                progress.exhausted[index] = True
                continue
            progress.emitted[index] += 1
            yield index, specs[index], chunk
    finally:
        # Mark abandoned streams exhausted-at-current-count so late
        # completion scans cannot block, and close their enumerators.
        for index in range(len(scenarios)):
            progress.exhausted[index] = True
        for stream in streams.values():
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
    never rode the lazy path (no dedup, or ``dedup="materialize"``).
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
        "best",
        "frontier",
        "_metric",
        "_maximize",
    )

    def __init__(self, domain: str, track_frontier: bool = True):
        self.n_evaluated = 0
        self.n_feasible = 0
        self.best: dict[str, Any] | None = None
        #: None when frontier tracking is opted out (``frontier=False``
        #: campaigns): consumers that never ask for the frontier — the
        #: joint-fleet optimizer's candidate-sink phase — skip its merge
        #: and the materialization of every row that joins it.
        self.frontier: ParetoFrontier | None = (
            domain_frontier(domain) if track_frontier else None
        )
        self._metric = _best_metric(domain)
        self._maximize = DEFAULT_AXES[domain][1]

    def update(self, rows: Sequence[dict[str, Any]]) -> None:
        metric, maximize = self._metric, self._maximize
        best = self.best
        feasible = 0
        for row in rows:
            if row["feasible"]:
                feasible += 1
            value = row[metric]
            # Strict comparison: ties keep the earliest-enumerated row,
            # matching ExplorationResult.best.
            if best is None or (value > best[metric] if maximize else value < best[metric]):
                best = row
        self.best = best
        self.n_evaluated += len(rows)
        self.n_feasible += feasible
        if self.frontier is not None:
            self.frontier.add(rows)

    def update_batch(self, batch: BatchRows) -> None:
        """:meth:`update` over a lazy columnar batch, materializing only
        the rows the statistics actually keep (the new best row and the
        frontier's survivors).

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
        if self.best is None:
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
            current = self.best[self._metric]
            improved = (values > current) if maximize else (values < current)
            if bool(np.any(improved)):
                winner = int(
                    np.nanargmax(values) if maximize else np.nanargmin(values)
                )
        if winner is not None:
            self.best = batch.row(winner)
        self.n_evaluated += n
        self.n_feasible += int(np.count_nonzero(feasible))
        if self.frontier is not None:
            self.frontier.add_batch(batch)


class Campaign:
    """A batch of scenarios explored through one shared executor.

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
        its scenario's last chunk lands.

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
        chunks in flight ahead of the consumer. Parameters are those of
        :meth:`run`.
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
            executor,
            chunk_size,
            sink_list,
            collect,
            policy,
            PipelineCostCache(scenarios) if dedup else None,
            dedup != "materialize",
            frontier,
        )

    def _stream_runs(
        self,
        executor: SweepExecutor,
        chunk_size: int | None,
        sink_list: list[Any],
        collect: bool,
        policy: SchedulingPolicy,
        cache: PipelineCostCache | None,
        dedup_lazy: bool = True,
        track_frontier: bool = True,
    ) -> Iterator[ScenarioRun]:
        """The generator behind :meth:`iter_runs` (argument validation
        stays eager in the caller, before the first ``next()``)."""
        scenarios = self.scenarios
        followers = cache.follower_indices if cache is not None else frozenset()
        models = [scenario.cost_model() for scenario in scenarios]
        spec_list: list[_ChunkSpec] = []
        for index, (model, scenario) in enumerate(zip(models, scenarios)):
            if cache is not None and cache.is_shared_leader(index):
                mode = _MODE_STATES
            elif supports_prefix_evaluation(model):
                mode = _MODE_MEMOIZED
            else:
                mode = _MODE_SCRATCH
            spec_list.append((model, scenario.pass_rates, mode))
        specs = tuple(spec_list)
        sizes = [
            self._chunk_size_for(scenario, executor, chunk_size)
            for scenario in scenarios
        ]
        stock = [uses_stock_cost_semantics(model) for model in models]
        # Cohort sharding on parallel executors: stock-model scenarios
        # ship compact (depth, flat-index-range) descriptors instead of
        # pickled config lists; workers rebuild the rows locally.
        shard_flags = [flag and not executor.is_serial for flag in stock]
        # Same pause rule as solo explore(): engine-only allocations
        # (the dedup states and finalized costs are engine-owned and
        # acyclic, so the states mode keeps the pause).
        pause = (
            all(stock)
            and all(scenario.prune is None for scenario in scenarios)
            and all(sink is None for sink in sink_list)
        )
        evaluations: list[list[Any]] | None = (
            [[] for _ in scenarios] if collect else None
        )
        # When a collected scenario also streams to a sink, its rows are
        # built anyway — keep them so the ExplorationResult is seeded
        # instead of re-deriving every row for the summary. Unlike solo
        # explore(), this adds no peak memory: building a ScenarioRun
        # forces every collected result's rows for the feasible/Pareto
        # summary, so the cache would materialize at run end regardless.
        row_caches: list[list[dict[str, Any]] | None] = [
            [] if collect and sink is not None else None for sink in sink_list
        ]
        stats = [
            _StreamingStats(scenario.domain, track_frontier)
            for scenario in scenarios
        ]
        # Per-scenario lazy-materialization accounting: None where rows
        # were never lazily closed (no dedup, or the materialize mode);
        # dedup group members under the lazy path count the rows their
        # consumers actually turned into Python objects.
        materialized: list[int | None] = [None] * len(scenarios)
        if cache is not None and dedup_lazy:
            for leader in cache.followers_of:
                for member in cache.members_of(leader):
                    materialized[member] = 0
        progress = _FleetProgress(len(scenarios))
        completed_at = [0.0] * len(scenarios)
        start = time.perf_counter()
        opened: list[int] = []
        closed: set[int] = set()
        error: BaseException | None = None
        interleaved = _interleave_chunks(
            scenarios, specs, sizes, policy, progress, followers, shard_flags
        )
        results = executor.imap(_evaluate_tagged_chunk, interleaved, chunk_size=1)

        def _absorb(index: int, costs: list[Any], now: float) -> None:
            """Route one collected (or mirrored) chunk's costs into the
            scenario's accumulation/sink/stats paths."""
            sink = sink_list[index]
            if evaluations is not None:
                evaluations[index].extend(costs)
            if sink is not None or evaluations is None:
                rows = [cost_row(scenarios[index], cost) for cost in costs]
                if evaluations is None:
                    # Streaming stats are only consulted on export-only
                    # runs; collected runs derive the summary from the
                    # result instead.
                    stats[index].update(rows)
                elif row_caches[index] is not None:
                    row_caches[index].extend(rows)
                if sink is not None:
                    write_sink(sink, rows, self._label(index))
            progress.collected[index] += 1
            completed_at[index] = now

        def _absorb_batches(index: int, batches: list[BatchRows], now: float) -> None:
            """Route one dedup group member's lazy columnar views — the
            batch counterpart of :func:`_absorb`. Collected runs bulk-
            materialize (a ScenarioRun forces every collected cost
            anyway); export-only runs fold the views through the
            streaming stats and columnar sinks, so only the survivors
            (best row, frontier members, heap entries) ever become
            Python objects."""
            sink = sink_list[index]
            label = self._label(index)
            if evaluations is not None:
                costs = [cost for batch in batches for cost in batch.costs()]
                evaluations[index].extend(costs)
                if sink is not None:
                    rows = [cost_row(scenarios[index], cost) for cost in costs]
                    if row_caches[index] is not None:
                        row_caches[index].extend(rows)
                    write_sink(sink, rows, label)
            else:
                columnar = sink is not None and uses_columnar_writes(sink)
                pending: list[dict[str, Any]] | None = (
                    [] if sink is not None and not columnar else None
                )
                for batch in batches:
                    stats[index].update_batch(batch)
                    if columnar:
                        write_sink_batch(sink, batch, label)
                    elif pending is not None:
                        pending.extend(batch.rows())
                if pending is not None:
                    # Row-only sinks keep one write per chunk, exactly
                    # the granularity _absorb's row path delivers.
                    write_sink(sink, pending, label)
            count = materialized[index]
            materialized[index] = (count or 0) + sum(
                batch.n_materialized for batch in batches
            )
            progress.collected[index] += 1
            completed_at[index] = now

        def _sync_followers() -> None:
            # A follower's stream is its leader's, mirrored at
            # *collection* time (its emitted/collected counts track the
            # leader's collected chunks in the loop below) — so it is
            # complete exactly when the leader is. Marking it exhausted
            # on the leader's mere enumeration exhaustion would complete
            # it early: a parallel interleaver runs ahead of collection
            # by the in-flight window.
            if cache is not None:
                for follower, leader in cache.leader_of.items():
                    progress.exhausted[follower] = progress.complete(leader)

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

        try:
            # Opening happens inside the try so a sink whose open()
            # fails still gets every *previously opened* sink closed
            # (flushed) on the way out.
            for index, sink in enumerate(sink_list):
                if sink is not None:
                    open_sink(sink, scenarios[index], self._label(index))
                    opened.append(index)
            _enter_pause()
            for index, payload in results:
                now = time.perf_counter() - start
                if cache is not None and cache.is_shared_leader(index):
                    # The leader's chunk arrived as pre-finalize states:
                    # close them under every group member's own link —
                    # one evaluation pass serves the whole group, and
                    # each follower's chunk lands (same boundaries, same
                    # enumeration order) the moment the leader's does.
                    # The states close lazily (one broadcast per segment
                    # for the whole group, survivors-only
                    # materialization); the "materialize" opt-out keeps
                    # the per-member materialized finalize.
                    if dedup_lazy:
                        group = cache.finalize_group(index, payload)
                        for member, batches in zip(
                            cache.members_of(index), group
                        ):
                            if member != index:
                                progress.emitted[member] += 1
                            _absorb_batches(member, batches, now)
                    else:
                        _absorb(index, cache.finalize(index, payload), now)
                        for follower in cache.followers_of[index]:
                            progress.emitted[follower] += 1
                            _absorb(follower, cache.finalize(follower, payload), now)
                else:
                    _absorb(index, payload, now)
                _sync_followers()
                done = self._finish_complete(
                    progress,
                    sink_list,
                    opened,
                    closed,
                    evaluations,
                    row_caches,
                    stats,
                    completed_at,
                    cache,
                    materialized,
                )
                if done:
                    _exit_pause()
                    yield from done
                    _enter_pause()
            # Exhaustions discovered after a scenario's final collection
            # (and zero-chunk scenarios) surface once the stream drains.
            _sync_followers()
            done = self._finish_complete(
                progress,
                sink_list,
                opened,
                closed,
                evaluations,
                row_caches,
                stats,
                completed_at,
                cache,
                materialized,
            )
            _exit_pause()
            yield from done
        except BaseException as exc:
            error = exc
            raise
        finally:
            _exit_pause()
            # Stop the executor stream first (the pool shuts down after
            # in-flight chunks finish), then the enumerators, then flush
            # every sink not already closed at scenario completion.
            stream_close = getattr(results, "close", None)
            if stream_close is not None:
                stream_close()
            interleaved.close()
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

    def _finish_complete(
        self,
        progress: _FleetProgress,
        sink_list: list[Any],
        opened: list[int],
        closed: set[int],
        evaluations: list[list[Any]] | None,
        row_caches: list[list[dict[str, Any]] | None],
        stats: list[_StreamingStats],
        completed_at: list[float],
        cache: PipelineCostCache | None = None,
        materialized: list[int | None] | None = None,
    ) -> list[ScenarioRun]:
        """Runs for scenarios that just completed, their sinks closed
        first so a handed-out run's exports are already flushed."""
        runs: list[ScenarioRun] = []
        for index in progress.pop_complete():
            if index in opened and index not in closed:
                closed.add(index)
                close_sink(sink_list[index], self._label(index))
            dedup_source = None
            if cache is not None and index in cache.leader_of:
                dedup_source = self.scenarios[cache.leader_of[index]].name
            runs.append(
                self._build_run(
                    index,
                    evaluations[index] if evaluations is not None else None,
                    row_caches[index],
                    stats[index],
                    completed_at[index],
                    dedup_source,
                    materialized[index] if materialized is not None else None,
                )
            )
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
        """Explore every scenario through one shared executor.

        A drain over :meth:`iter_runs` — identical results, with the
        per-scenario runs reassembled into fleet order.

        Parameters
        ----------
        executor:
            The one pool all scenarios share; defaults to serial. Row
            order per scenario is its enumeration order for any worker
            count.
        chunk_size:
            Configurations per streamed chunk for every scenario
            (default: the executor's ``chunk_size``, else sized per
            scenario the way solo ``explore()`` would).
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
        scenario: Scenario, executor: SweepExecutor, chunk_size: int | None
    ) -> int:
        if chunk_size is not None:
            return chunk_size
        if executor.chunk_size is not None:
            return executor.chunk_size
        if not executor.is_serial:
            return auto_chunk_size(
                scenario.count_configs(), executor.workers, DEFAULT_CHUNK_SIZE
            )
        return DEFAULT_CHUNK_SIZE

    def _build_run(
        self,
        index: int,
        scenario_evaluations: list[Any] | None,
        row_cache: list[dict[str, Any]] | None,
        run_stats: _StreamingStats,
        completed_at: float,
        dedup_source: str | None = None,
        n_materialized: int | None = None,
    ) -> ScenarioRun:
        scenario = self.scenarios[index]
        if scenario_evaluations is not None:
            result = ExplorationResult(
                scenario=scenario,
                rows=row_cache,
                evaluations=scenario_evaluations,
            )
            n_evaluated = len(result)
            n_feasible = len(result.feasible)
            try:
                best = result.best
            except PipelineError:
                best = None
            pareto_size = None  # computed lazily on first access
            frontier = None
        else:
            result = None
            n_evaluated = run_stats.n_evaluated
            n_feasible = run_stats.n_feasible
            best = run_stats.best
            if run_stats.frontier is not None:
                frontier = run_stats.frontier.rows
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
            wall_seconds=round(completed_at, 6),
            frontier=frontier,
            dedup_source=dedup_source,
            n_materialized=n_materialized,
        )
