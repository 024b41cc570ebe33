"""Columnar batch evaluation: struct-of-arrays prefix states.

The memoized scalar walk (:mod:`repro.explore.incremental`) reduced the
per-configuration work to amortized O(1) block extensions — the ceiling
left is Python object work: one ``PipelineConfig``, one cost object and
one row dict per configuration, regardless of how few survive the
consumer's frontier/top-k/feasibility filters. This module removes that
ceiling for the stock cost models by evaluating whole *cohorts* of
configurations as numpy struct-of-arrays operations:

* A depth-``d`` cohort (every platform assignment with ``d`` in-camera
  blocks, in exact enumeration order) is built by repeating the depth
  ``d-1`` cohort's state arrays across the next block's options —
  ``np.repeat`` over rows, ``np.tile`` over choices reproduces
  :func:`itertools.product` order — and extending them with one
  ``extend_state_batch`` call per depth.
* Cost/row/config *objects* are materialized lazily: a
  :class:`BatchRows` view hands consumers numeric columns
  (:meth:`BatchRows.metric_column`) and only constructs Python objects
  for rows a consumer actually touches. Sinks with columnar support
  (``ParetoSink``/``TopKSink``) keep live cost objects bounded by the
  surviving-row count, not the design-space size.

Bit-identity is the correctness contract: the batch kernels perform the
same IEEE-754 float operations in the same order as the scalar fold
(elementwise per row), so every materialized cost, row and frontier is
byte-identical to the scalar and brute-force paths — asserted by the
invariant suite. That constraint shapes the kernels: the running-min
update is ``np.where(new < cur, new, cur)`` (the scalar branch, not
``np.minimum``, whose NaN semantics differ), and per-block energies
stay one array per level so the left-to-right accumulation order is
preserved.

Pruned runs and campaign pool chunks ride the same columnar core:

* Prefix pruners carrying batch forms
  (:attr:`~repro.explore.enumerate.PrefixPruner.extend_batch`) fuse
  into the cohort walk as boolean-mask compaction — one fancy-index
  gather per depth drops pruned prefixes before they are repeated into
  deeper cohorts, reproducing DFS pruning semantics exactly; per-config
  ``scenario.prune`` hooks run as a scalar filter over the already
  compacted (small) cohort.
* Campaigns on parallel executors ship :class:`CohortShard`
  descriptors — compact (depth, flat index range) slices of a cohort —
  instead of pickled config lists; workers regenerate the state
  columns locally from the prefix plan in O(depth) array operations
  (:meth:`BatchPrefixEvaluator.evaluate_shard` /
  :meth:`~BatchPrefixEvaluator.states_shard`). Solo ``explore()``
  never shards: every stock run folds its cohorts in process, which
  measured faster than shipping them to pool workers.

Only models whose every cost step is stock
(:func:`~repro.explore.incremental.uses_stock_cost_semantics`) take
these paths; any other model rides the generic scalar
:class:`~repro.explore.incremental.PrefixEvaluator` walk.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.core.cost import (
    ConfigCost,
    EnergyCost,
    EnergyCostModel,
    ThroughputCostModel,
)
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.explore.enumerate import _normalize_hooks, enumeration_plan
from repro.explore.incremental import depth_link_cost, uses_stock_cost_semantics
from repro.explore.result import cost_row

# -- stock state-shape helpers ------------------------------------------
# Only the fully stock models reach these (gated by
# uses_stock_cost_semantics): throughput states are (fps array, label
# array), energy states (rate array, ((name, energy array), ...), active
# array).


def _repeat_state(state: Any, k: int, energy: bool) -> Any:
    """Each state row repeated ``k`` times (np.repeat copies bits)."""
    if energy:
        rate, energies, active = state
        return (
            np.repeat(rate, k),
            tuple((name, np.repeat(arr, k)) for name, arr in energies),
            np.repeat(active, k),
        )
    fps, labels = state
    return (np.repeat(fps, k), np.repeat(labels, k))


def _take_state(state: Any, indices: Any, energy: bool) -> Any:
    """State rows gathered by index (bit-exact copies)."""
    if energy:
        rate, energies, active = state
        return (
            rate[indices],
            tuple((name, arr[indices]) for name, arr in energies),
            active[indices],
        )
    fps, labels = state
    return (fps[indices], labels[indices])


def _materialize_costs(
    configs: Sequence[PipelineConfig], columns: dict[str, Any], energy: bool
) -> list[ConfigCost | EnergyCost]:
    """Cost objects for every row of a finalized column mapping.

    Mirrors the stock ``finalize`` field-for-field, with the same
    ``object.__new__`` construction; array values pass through
    ``tolist()`` so every field is a plain Python float/str,
    indistinguishable from scalar evaluation.
    """
    new = object.__new__
    set_field = object.__setattr__
    out: list[ConfigCost | EnergyCost] = []
    append_out = out.append
    if not energy:
        compute = columns["compute_fps"].tolist()
        slowest = columns["slowest_block"].tolist()
        communication_fps = columns["communication_fps"]
        for i, config in enumerate(configs):
            cost = new(ConfigCost)
            set_field(cost, "config", config)
            set_field(cost, "compute_fps", compute[i])
            set_field(cost, "communication_fps", communication_fps)
            set_field(cost, "slowest_block", slowest[i])
            append_out(cost)
        return out
    rate = columns["transmit_rate"].tolist()
    transmit = columns["transmit_energy"].tolist()
    active = columns["active_seconds"].tolist()
    levels = [(name, arr.tolist()) for name, arr in columns["block_energies"]]
    for i, config in enumerate(configs):
        cost = new(EnergyCost)
        set_field(cost, "config", config)
        set_field(cost, "sensor_energy", config.pipeline.sensor_energy_per_frame)
        set_field(cost, "block_energies", {name: values[i] for name, values in levels})
        set_field(cost, "transmit_energy", transmit[i])
        set_field(cost, "transmit_rate", rate[i])
        set_field(cost, "active_seconds", active[i])
        append_out(cost)
    return out


class BatchRows:
    """A columnar view over one evaluated span of configurations.

    The lazy-materialization seam between the batch evaluator and its
    consumers: all rows share one pipeline and cut depth, their platform
    choices live in an ``(n, depth)`` integer matrix and their cost
    fields in struct-of-arrays columns. Python objects
    (:class:`PipelineConfig`, cost objects, row dicts) exist only for
    rows a consumer materializes — frontier/top-k sinks read
    :meth:`metric_column` and materialize survivors only, so live cost
    objects stay bounded by the surviving-row count.

    :attr:`n_materialized` counts rows turned into objects (what the
    benchmark's memory check asserts on). Materialized rows/costs are
    built through the same ``cost_row``/finalize field definitions as
    the scalar path, so they are byte-identical to it.
    """

    __slots__ = (
        "scenario",
        "pipeline",
        "depth",
        "level_names",
        "choices",
        "columns",
        "n_materialized",
        "_energy",
    )

    def __init__(
        self,
        scenario: Any,
        pipeline: InCameraPipeline,
        depth: int,
        level_names: tuple[Sequence[str], ...],
        choices: Any,
        columns: dict[str, Any],
        energy: bool,
    ):
        self.scenario = scenario
        self.pipeline = pipeline
        self.depth = depth
        self.level_names = level_names
        self.choices = choices
        self.columns = columns
        self.n_materialized = 0
        self._energy = energy

    def __len__(self) -> int:
        return self.choices.shape[0]

    def slice(self, lo: int, hi: int) -> "BatchRows":
        """Rows ``[lo, hi)`` as a new view (array slices share memory)."""
        columns = {}
        for key, value in self.columns.items():
            if key == "block_energies":
                columns[key] = tuple((name, arr[lo:hi]) for name, arr in value)
            elif isinstance(value, np.ndarray):
                columns[key] = value[lo:hi]
            else:  # per-depth scalars (communication_fps)
                columns[key] = value
        return BatchRows(
            self.scenario,
            self.pipeline,
            self.depth,
            self.level_names,
            self.choices[lo:hi],
            columns,
            self._energy,
        )

    def config(self, i: int) -> PipelineConfig:
        """Row ``i``'s configuration (trusted constructor: choices come
        from the blocks' own implementation tables)."""
        names = self.level_names
        row = self.choices[i].tolist()
        return PipelineConfig.trusted(
            self.pipeline, tuple(names[level][c] for level, c in enumerate(row))
        )

    def cost(self, i: int) -> ConfigCost | EnergyCost:
        """Row ``i``'s cost object (counts as one materialization)."""
        self.n_materialized += 1
        one = self.slice(i, i + 1)
        return _materialize_costs([self.config(i)], one.columns, self._energy)[0]

    def costs(self) -> list[ConfigCost | EnergyCost]:
        """Every row's cost object, in row order (bulk materialization)."""
        names = self.level_names
        configs = [
            PipelineConfig.trusted(
                self.pipeline, tuple(names[level][c] for level, c in enumerate(row))
            )
            for row in self.choices.tolist()
        ]
        self.n_materialized += len(configs)
        return _materialize_costs(configs, self.columns, self._energy)

    def row(self, i: int) -> dict[str, Any]:
        """Row ``i``'s report row — exactly the scalar path's
        ``cost_row`` over the materialized cost."""
        return cost_row(self.scenario, self.cost(i))

    def rows(self) -> list[dict[str, Any]]:
        """Every report row, in row order (bulk materialization)."""
        scenario = self.scenario
        return [cost_row(scenario, cost) for cost in self.costs()]

    def metric_column(self, name: str) -> Any:
        """Per-row values of one numeric report-row metric as an array,
        without materializing anything; raises :class:`KeyError` for
        metrics that are not columnar (``config``, ``bottleneck``,
        ``slowest_block``, ...) so consumers can fall back to
        :meth:`rows`. Derived metrics replay the scalar row expressions
        elementwise (``total_fps`` is the scalar ``min`` branch, not
        ``np.minimum``)."""
        n = len(self)
        columns = self.columns
        scenario = self.scenario
        if name == "n_in_camera":
            return np.full(n, self.depth)
        if name == "offload_bytes":
            return np.full(n, self.pipeline.output_bytes_after(self.depth))
        if self._energy:
            if name in ("transmit_rate", "active_seconds"):
                return columns[name]
            if name == "transmit_energy_j":
                return columns["transmit_energy"]
            if name == "sensor_energy_j":
                return np.full(n, self.pipeline.sensor_energy_per_frame)
            if name in ("compute_energy_j", "total_energy_j", "feasible"):
                compute = np.zeros(n)
                for _block, arr in columns["block_energies"]:
                    compute = compute + arr
                if name == "compute_energy_j":
                    return compute
                total = (
                    self.pipeline.sensor_energy_per_frame
                    + compute
                    + columns["transmit_energy"]
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
                return np.full(n, columns["communication_fps"])
            if name == "total_fps":
                compute = columns["compute_fps"]
                communication = columns["communication_fps"]
                # min(a, b) returns b only when b < a — np.where keeps
                # that exact branch (NaN included), unlike np.minimum.
                return np.where(communication < compute, communication, compute)
            if name == "feasible":
                target = scenario.target_fps if scenario is not None else None
                if target is None:
                    return np.ones(n, dtype=bool)
                return np.logical_and(
                    columns["compute_fps"] >= target,
                    columns["communication_fps"] >= target,
                )
        raise KeyError(name)


class BatchChunkStates:
    """Pre-finalize compute-side states of one evaluated chunk, columnar.

    A campaign dedup leader's chunk stopped before finalize: the
    link-independent compute-side fold, held as contiguous
    same-``(pipeline, depth)`` runs of the chunk, each a ``(configs,
    depth, state, choices, level_names)`` segment — one struct-of-arrays
    state plus the ``(n, depth)`` choice matrix and per-level platform
    names that let a member build a lazy :class:`BatchRows` view without
    re-deriving them. Campaign dedup finalizes every run under each member
    scenario's own link terms (:class:`repro.explore.campaign.
    _StateFinalizer`); picklable, so process-pool leaders can ship
    states back.
    """

    __slots__ = ("segments", "energy")

    def __init__(
        self,
        segments: list[tuple[list[PipelineConfig], int, Any, Any, tuple]],
        energy: bool,
    ):
        self.segments = segments
        self.energy = energy

    def __len__(self) -> int:
        return sum(len(segment[0]) for segment in self.segments)


class CohortShard:
    """A compact wire descriptor of one run of depth-``depth`` cohort rows.

    A campaign's pool counterpart of a pickled config-list chunk:
    instead of shipping ``PipelineConfig`` objects to pool workers, the
    campaign driver ships ``(pipeline, depth, flat index range)`` and each worker
    regenerates the rows locally — mixed-radix decode of the flat
    product indices into an ``(n, depth)`` choice matrix (level 0 is the
    most significant digit, so flat order *is* enumeration order),
    then one columnar fold over the pipeline plan: O(depth) array
    operations per shard instead of O(rows) pickled objects.

    ``indices`` is None for an unfiltered scenario, where the shard
    covers the contiguous flat range ``[lo, hi)`` of the full option
    product. A pruned or hooked scenario's driver runs the masked
    pruner walk once (see :func:`iter_scenario_shards`) and ships the
    survivors' explicit flat indices — workers never need the pruner or
    the hooks, whose closures are not picklable in general.
    """

    __slots__ = ("pipeline", "depth", "lo", "hi", "indices")

    def __init__(
        self,
        pipeline: InCameraPipeline,
        depth: int,
        lo: int,
        hi: int,
        indices: Any = None,
    ):
        self.pipeline = pipeline
        self.depth = depth
        self.lo = lo
        self.hi = hi
        self.indices = indices

    def __len__(self) -> int:
        if self.indices is not None:
            return len(self.indices)
        return self.hi - self.lo

    def __getstate__(self):
        return (self.pipeline, self.depth, self.lo, self.hi, self.indices)

    def __setstate__(self, state):
        self.pipeline, self.depth, self.lo, self.hi, self.indices = state


class _Level:
    """One enumerable block's per-platform tables, in enumeration
    (sorted platform name) order."""

    __slots__ = ("block", "names", "lookup", "impls")

    def __init__(self, block: Any):
        self.block = block
        self.names = sorted(block.implementations)
        self.lookup = {name: j for j, name in enumerate(self.names)}
        self.impls = [block.implementations[name] for name in self.names]


class _PipelinePlan:
    """Cached per-pipeline evaluation tables (levels truncate at the
    first block with no implementations, like the enumeration plan) plus
    the per-depth link-term cache."""

    __slots__ = ("pipeline", "levels", "link_costs")

    def __init__(self, pipeline: InCameraPipeline):
        self.pipeline = pipeline
        self.levels: list[_Level] = []
        for block in pipeline.blocks:
            if not block.implementations:
                break
            self.levels.append(_Level(block))
        self.link_costs: dict[int, Any] = {}


class BatchPrefixEvaluator:
    """Evaluate configurations of stock-semantics models as columnar
    struct-of-arrays folds — the batch sibling of
    :class:`~repro.explore.incremental.PrefixEvaluator`.

    Three entry points share one fold core: :meth:`evaluate_many` (an
    arbitrary chunk, materialized cost objects — what campaign chunks
    use), :meth:`states_chunk` (pre-finalize states for dedup leaders),
    and :meth:`iter_scenario_batches` (whole-space cohort enumeration
    with lazy :class:`BatchRows`, the solo ``explore()`` fast path);
    :meth:`evaluate_shard` / :meth:`states_shard` are the first two for
    a campaign's :class:`CohortShard` pool chunks. Every path replays
    the scalar fold's float operations elementwise, so results are
    bit-identical to the scalar evaluator (and to brute force) —
    asserted row-for-row by the invariant suite.

    Only stock models
    (:func:`~repro.explore.incremental.uses_stock_cost_semantics`) are
    accepted: every path here assumes the stock state shapes.
    """

    def __init__(
        self,
        model: ThroughputCostModel | EnergyCostModel,
        pass_rates: dict[str, float] | None = None,
    ):
        if pass_rates is not None and not isinstance(model, EnergyCostModel):
            raise ConfigurationError(
                "pass_rates only apply to EnergyCostModel evaluation"
            )
        if not uses_stock_cost_semantics(model):
            raise ConfigurationError(
                "model is not batch-capable (it overrides a cost step, so "
                "the stock columnar kernels would bypass it); use the "
                "scalar PrefixEvaluator"
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

    def _extend(self, state: Any, level: _Level, choices: Any) -> Any:
        if self._energy:
            return self.model.extend_state_batch(
                state, level.block, level.impls, choices, self.pass_rates
            )
        return self.model.extend_state_batch(state, level.block, level.impls, choices)

    # -- arbitrary chunks ------------------------------------------------

    def _segments(
        self, configs: Sequence[PipelineConfig]
    ) -> Iterator[tuple[InCameraPipeline, int, list[PipelineConfig]]]:
        """Contiguous same-(pipeline, depth) runs, preserving order."""
        i = 0
        n = len(configs)
        while i < n:
            pipeline = configs[i].pipeline
            depth = len(configs[i].platforms)
            j = i + 1
            while (
                j < n
                and configs[j].pipeline is pipeline
                and len(configs[j].platforms) == depth
            ):
                j += 1
            yield pipeline, depth, list(configs[i:j])
            i = j

    def _run_choices(
        self, plan: _PipelinePlan, depth: int, run: Sequence[PipelineConfig]
    ) -> Any:
        """The ``(n, depth)`` choice matrix of one same-depth run."""
        levels = plan.levels
        try:
            rows = [
                [levels[level].lookup[platform] for level, platform in enumerate(c.platforms)]
                for c in run
            ]
        except (KeyError, IndexError):
            # An invalid trusted() platform choice (or a block past the
            # enumerable levels): surface the standard PipelineError the
            # validated path produces, exactly like the scalar walk.
            for config in run:
                config.in_camera_blocks()
            raise
        return np.array(rows, dtype=np.intp).reshape(len(run), depth)

    def _run_state(
        self, plan: _PipelinePlan, depth: int, run: Sequence[PipelineConfig]
    ) -> Any:
        """The pre-finalize state arrays of one same-depth run."""
        return self._fold_choices(plan, depth, self._run_choices(plan, depth, run))

    def _fold_choices(self, plan: _PipelinePlan, depth: int, choices: Any) -> Any:
        """The pre-finalize state arrays of one ``(n, depth)`` choice
        matrix — the shared fold core of chunk evaluation
        (:meth:`_run_state`) and shard regeneration
        (:meth:`evaluate_shard`/:meth:`states_shard`)."""
        levels = plan.levels
        state = self.model.initial_state_batch(choices.shape[0])
        for level in range(depth):
            state = self._extend(state, levels[level], choices[:, level])
        return state

    def evaluate_many(
        self, configs: Iterable[PipelineConfig]
    ) -> list[ConfigCost | EnergyCost]:
        """Costs for a configuration sequence, in sequence order —
        drop-in for :meth:`PrefixEvaluator.evaluate_many` (values are
        bit-identical; only the fold is columnar)."""
        configs = configs if isinstance(configs, Sequence) else list(configs)
        model = self.model
        energy = self._energy
        out: list[ConfigCost | EnergyCost] = []
        for pipeline, depth, run in self._segments(configs):
            plan = self._plan_for(pipeline)
            state = self._run_state(plan, depth, run)
            link_cost = depth_link_cost(
                model.link, energy, plan.link_costs, depth, run[0]
            )
            out.extend(
                _materialize_costs(run, model.finalize_batch(state, link_cost), energy)
            )
        return out

    def states_chunk(self, configs: Iterable[PipelineConfig]) -> BatchChunkStates:
        """The chunk's pre-finalize states as a :class:`BatchChunkStates`
        for campaign dedup leaders."""
        configs = configs if isinstance(configs, Sequence) else list(configs)
        segments = []
        for pipeline, depth, run in self._segments(configs):
            plan = self._plan_for(pipeline)
            choices = self._run_choices(plan, depth, run)
            state = self._fold_choices(plan, depth, choices)
            names = tuple(level.names for level in plan.levels[:depth])
            segments.append((run, depth, state, choices, names))
        return BatchChunkStates(segments, self._energy)

    # -- shard regeneration ----------------------------------------------

    def _shard_rows(
        self, shard: CohortShard
    ) -> tuple[_PipelinePlan, Any, list[PipelineConfig]]:
        """Decode a shard into its plan, ``(n, depth)`` choice matrix and
        trusted configs — mixed-radix decode from the least significant
        (deepest) level, the inverse of the enumeration's
        ``flat = flat * k + choice`` accumulation."""
        plan = self._plan_for(shard.pipeline)
        levels = plan.levels
        depth = shard.depth
        if depth > len(levels):
            raise ConfigurationError(
                f"shard depth {depth} exceeds the pipeline's "
                f"{len(levels)} enumerable levels"
            )
        if shard.indices is not None:
            flat = np.asarray(shard.indices, dtype=np.intp).copy()
        else:
            flat = np.arange(shard.lo, shard.hi, dtype=np.intp)
        choices = np.empty((flat.shape[0], depth), dtype=np.intp)
        for level in range(depth - 1, -1, -1):
            k = len(levels[level].names)
            choices[:, level] = flat % k
            flat //= k
        names = [level.names for level in levels[:depth]]
        trusted = PipelineConfig.trusted
        configs = [
            trusted(
                shard.pipeline, tuple(names[level][c] for level, c in enumerate(row))
            )
            for row in choices.tolist()
        ]
        return plan, choices, configs

    def evaluate_shard(self, shard: CohortShard) -> list[ConfigCost | EnergyCost]:
        """Costs for every row of a :class:`CohortShard`, in flat-index
        order — what a campaign's pool workers run instead of
        :meth:`evaluate_many` over a pickled config chunk. Row values
        are bit-identical to the scalar fold of the same configs."""
        plan, choices, configs = self._shard_rows(shard)
        if not configs:
            return []
        state = self._fold_choices(plan, shard.depth, choices)
        link_cost = depth_link_cost(
            self.model.link, self._energy, plan.link_costs, shard.depth, configs[0]
        )
        return _materialize_costs(
            configs, self.model.finalize_batch(state, link_cost), self._energy
        )

    def states_shard(self, shard: CohortShard) -> BatchChunkStates:
        """A shard's pre-finalize states as :class:`BatchChunkStates` —
        the shard counterpart of :meth:`states_chunk` for campaign
        dedup leaders."""
        plan, choices, configs = self._shard_rows(shard)
        if not configs:
            return BatchChunkStates([], self._energy)
        state = self._fold_choices(plan, shard.depth, choices)
        names = tuple(level.names for level in plan.levels[: shard.depth])
        return BatchChunkStates(
            [(configs, shard.depth, state, choices, names)], self._energy
        )

    # -- whole-space cohort enumeration ----------------------------------

    def iter_scenario_batches(
        self, scenario: Any, chunk_size: int | None = None
    ) -> Iterator[BatchRows]:
        """Stream a scenario's whole design space as lazy
        :class:`BatchRows`, one depth cohort at a time (sliced to
        ``chunk_size`` rows when given), in exact enumeration order.

        The solo ``explore()`` fast path: per depth, the previous
        cohort's state arrays are repeated across the next block's
        options and extended with one batch call — O(depth) array
        operations for the whole space, no per-configuration Python
        work until a consumer materializes a row. Pruning fuses into
        the same folds:

        * Depth pruning is honored (pruned depths still fold their
          states, which deeper depths extend).
        * A batch-capable prefix pruner (``scenario.prefix_pruner()``
          with :attr:`~repro.explore.enumerate.PrefixPruner.
          extend_batch`) runs as boolean-mask compaction: its keep mask
          gathers the surviving ``state``/``choices`` rows after every
          extend, so a pruned prefix is never repeated into deeper
          cohorts — exactly the scalar DFS's subtree cut. Bounds that
          are not depth-monotone additionally supply ``emit_mask``,
          applied to an emission-only gather so the *running* cohort
          keeps every row some deeper depth still needs. Survivor rows
          are byte-identical to the scalar pruned walk. A pruner
          without a batch form raises — callers gate on
          ``PrefixPruner.batch_capable``.
        * Per-config ``scenario.prune`` hooks run as a scalar filter
          over the already compacted cohort at emission time, in
          enumeration order with the scalar path's short-circuit
          semantics (hooks see only rows every other filter kept).
        """
        pruner = scenario.prefix_pruner()
        if pruner is not None and not pruner.batch_capable:
            raise ConfigurationError(
                "cohort enumeration with a prefix pruner needs its batch form "
                "(initial_batch/extend_batch); use the scalar path"
            )
        hooks = _normalize_hooks(scenario.prune)
        pipeline = scenario.pipeline
        plan = self._plan_for(pipeline)
        option_lists = enumeration_plan(pipeline, scenario.max_blocks)
        levels = plan.levels[: len(option_lists)]
        prune_depth = scenario.depth_prune_hook()
        energy = self._energy
        model = self.model
        link_cache = plan.link_costs
        trusted = PipelineConfig.trusted

        def hook_filter(depth: int, choices: Any, state: Any) -> tuple[Any, Any]:
            """Per-config hooks over the compacted cohort — the same
            configs, order and any()-short-circuit as the scalar walk's
            keep() filter."""
            names = [level.names for level in levels[:depth]]
            kept = [
                i
                for i, row in enumerate(choices.tolist())
                if not any(
                    hook(
                        trusted(
                            pipeline,
                            tuple(names[level][c] for level, c in enumerate(row)),
                        )
                    )
                    for hook in hooks
                )
            ]
            if len(kept) == choices.shape[0]:
                return choices, state
            idx = np.array(kept, dtype=np.intp)
            return choices[idx], _take_state(state, idx, energy)

        def emit(depth: int, choices: Any, state: Any) -> Iterator[BatchRows]:
            if choices.shape[0] == 0:
                return
            representative = trusted(
                pipeline, tuple(level.names[0] for level in levels[:depth])
            )
            link_cost = depth_link_cost(
                model.link, energy, link_cache, depth, representative
            )
            batch = BatchRows(
                scenario,
                pipeline,
                depth,
                tuple(level.names for level in levels[:depth]),
                choices,
                model.finalize_batch(state, link_cost),
                energy,
            )
            n = len(batch)
            if chunk_size is None or n <= chunk_size:
                yield batch
                return
            for lo in range(0, n, chunk_size):
                yield batch.slice(lo, min(lo + chunk_size, n))

        state = model.initial_state_batch(1)
        pstate = pruner.initial_batch(1) if pruner is not None else None
        choices = np.zeros((1, 0), dtype=np.intp)
        if scenario.include_empty and not (
            prune_depth is not None and prune_depth(0)
        ):
            # The raw-offload row has no platform choices, so the prefix
            # bound never applies to it; per-config hooks still do.
            emit_choices, emit_state = choices, state
            if hooks:
                emit_choices, emit_state = hook_filter(0, choices, state)
            yield from emit(0, emit_choices, emit_state)
        for depth in range(1, len(levels) + 1):
            level = levels[depth - 1]
            k = len(level.names)
            tile = np.tile(np.arange(k, dtype=np.intp), choices.shape[0])
            # repeat rows x tile options == itertools.product order.
            state = self._extend(_repeat_state(state, k, energy), level, tile)
            choices = np.concatenate(
                [np.repeat(choices, k, axis=0), tile[:, None]], axis=1
            )
            if pruner is not None:
                pstate = tuple(np.repeat(arr, k) for arr in pstate)
                pstate, keep = pruner.extend_batch(depth - 1, tile, pstate)
                if not keep.all():
                    idx = np.flatnonzero(keep)
                    choices = choices[idx]
                    state = _take_state(state, idx, energy)
                    pstate = tuple(arr[idx] for arr in pstate)
                if choices.shape[0] == 0:
                    # Every prefix is provably infeasible at every
                    # remaining depth; deeper cohorts are empty too.
                    return
            if prune_depth is not None and prune_depth(depth):
                continue
            emit_choices, emit_state = choices, state
            if pruner is not None and pruner.emit_mask is not None:
                mask = pruner.emit_mask(depth, pstate)
                if mask is not None and not mask.all():
                    # Emission-only gather: the running cohort keeps
                    # rows other depths still need.
                    idx = np.flatnonzero(mask)
                    emit_choices = choices[idx]
                    emit_state = _take_state(state, idx, energy)
            if hooks:
                emit_choices, emit_state = hook_filter(depth, emit_choices, emit_state)
            yield from emit(depth, emit_choices, emit_state)


# -- cohort sharding ----------------------------------------------------


def iter_scenario_shards(
    scenario: Any, shard_size: int
) -> Iterator[CohortShard]:
    """Describe a scenario's design space as :class:`CohortShard`
    descriptors of at most ``shard_size`` rows, in exact enumeration
    order.

    The campaign pool twin of :meth:`BatchPrefixEvaluator.
    iter_scenario_batches`: instead of folding cohorts, the campaign
    driver only *addresses* them — each shard names a run of flat product indices a
    worker decodes and folds locally, so nothing per-row is ever
    pickled. An unfiltered scenario yields pure ``[lo, hi)`` range
    shards per depth (O(1) driver work). With a batch-capable prefix
    pruner and/or per-config hooks, the driver runs the masked pruner
    walk once over flat indices (the same keep/emit masks the fused
    cohort walk applies, so the survivor sequence is byte-identical to
    the scalar pruned enumeration), filters hooks here in enumeration
    order — hooks may be stateful and are never pickled — and ships the
    survivors' explicit index arrays.
    """
    pruner = scenario.prefix_pruner()
    if pruner is not None and not pruner.batch_capable:
        raise ConfigurationError(
            "cohort sharding with a prefix pruner needs its batch form "
            "(initial_batch/extend_batch); use the scalar path"
        )
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    hooks = _normalize_hooks(scenario.prune)
    pipeline = scenario.pipeline
    option_lists = enumeration_plan(pipeline, scenario.max_blocks)
    counts = [len(options) for options in option_lists]
    prune_depth = scenario.depth_prune_hook()
    trusted = PipelineConfig.trusted

    def range_shards(depth: int, total: int) -> Iterator[CohortShard]:
        for lo in range(0, total, shard_size):
            yield CohortShard(pipeline, depth, lo, min(lo + shard_size, total))

    def index_shards(depth: int, flat: Any) -> Iterator[CohortShard]:
        n = flat.shape[0]
        for lo in range(0, n, shard_size):
            hi = min(lo + shard_size, n)
            yield CohortShard(pipeline, depth, 0, hi - lo, flat[lo:hi])

    def hook_keep(depth: int, flat: Any) -> Any:
        """Decode each flat index and apply the hooks — same configs,
        order and short-circuit as the scalar walk's keep() filter."""
        kept = []
        for value in flat.tolist():
            choice = []
            for level in range(depth - 1, -1, -1):
                value, digit = divmod(value, counts[level])
                choice.append(option_lists[level][digit])
            choice.reverse()
            config = trusted(pipeline, tuple(choice))
            kept.append(not any(hook(config) for hook in hooks))
        return np.array(kept, dtype=bool)

    if scenario.include_empty and not (prune_depth is not None and prune_depth(0)):
        # The raw-offload row: hooks apply, the prefix bound never does.
        if not hooks or bool(hook_keep(0, np.zeros(1, dtype=np.intp))[0]):
            yield CohortShard(pipeline, 0, 0, 1)
    if pruner is None and not hooks:
        total = 1
        for depth in range(1, len(counts) + 1):
            total *= counts[depth - 1]
            if prune_depth is not None and prune_depth(depth):
                continue
            yield from range_shards(depth, total)
        return
    # Masked walk over flat indices: the driver replays exactly the
    # fused cohort walk's compaction, but carries only the flat index
    # column (and the pruner's bound state) instead of cost states.
    flat = np.zeros(1, dtype=np.intp)
    pstate = pruner.initial_batch(1) if pruner is not None else None
    for depth in range(1, len(counts) + 1):
        k = counts[depth - 1]
        tile = np.tile(np.arange(k, dtype=np.intp), flat.shape[0])
        flat = np.repeat(flat, k) * k + tile
        if pruner is not None:
            pstate = tuple(np.repeat(arr, k) for arr in pstate)
            pstate, keep = pruner.extend_batch(depth - 1, tile, pstate)
            if not keep.all():
                idx = np.flatnonzero(keep)
                flat = flat[idx]
                pstate = tuple(arr[idx] for arr in pstate)
            if flat.shape[0] == 0:
                return
        if prune_depth is not None and prune_depth(depth):
            continue
        emit_flat = flat
        if pruner is not None and pruner.emit_mask is not None:
            mask = pruner.emit_mask(depth, pstate)
            if mask is not None and not mask.all():
                emit_flat = flat[np.flatnonzero(mask)]
        if hooks and emit_flat.shape[0]:
            keep = hook_keep(depth, emit_flat)
            if not keep.all():
                emit_flat = emit_flat[np.flatnonzero(keep)]
        if emit_flat.shape[0]:
            yield from index_shards(depth, emit_flat)
