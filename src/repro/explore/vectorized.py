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

Pruned runs and campaigns ride the same columnar core:

* Prefix pruners carrying batch forms
  (:attr:`~repro.explore.enumerate.PrefixPruner.extend_batch`) fuse
  into the cohort walk as boolean-mask compaction — one fancy-index
  gather per depth drops pruned prefixes before they are repeated into
  deeper cohorts, reproducing DFS pruning semantics exactly; per-config
  ``scenario.prune`` hooks run as a scalar filter over the already
  compacted (small) cohort.
* A campaign's stock members run the same walk in the calling process,
  and a dedup group walks its shared compute-side states once
  (:meth:`BatchPrefixEvaluator.iter_group_batches`), closing each slice
  under every member's link with one ``finalize_batch_multi``. Nothing
  columnar is ever shipped to pool workers: folding in process measured
  faster than any pool on every fleet tried.

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

    __slots__ = ("pipeline", "levels", "names", "link_costs")

    def __init__(self, pipeline: InCameraPipeline):
        self.pipeline = pipeline
        self.levels: list[_Level] = []
        for block in pipeline.blocks:
            if not block.implementations:
                break
            self.levels.append(_Level(block))
        #: Per-level platform names: what a BatchRows view decodes its
        #: choice matrix with.
        self.names = tuple(level.names for level in self.levels)
        self.link_costs: dict[int, Any] = {}

    def representative(self, depth: int) -> PipelineConfig:
        """One depth-``depth`` configuration: the link terms depend only
        on the cut depth, so any row of the cohort stands for all."""
        return PipelineConfig.trusted(
            self.pipeline, tuple(names[0] for names in self.names[:depth])
        )


class BatchPrefixEvaluator:
    """Evaluate configurations of stock-semantics models as columnar
    struct-of-arrays folds — the batch sibling of
    :class:`~repro.explore.incremental.PrefixEvaluator`.

    Three entry points share one fold core: :meth:`evaluate_many` (an
    arbitrary configuration sequence, materialized cost objects),
    :meth:`iter_scenario_batches` (whole-space cohort enumeration with
    lazy :class:`BatchRows`, the solo ``explore()`` and campaign-member
    path) and :meth:`iter_group_batches` (the same walk closed under a
    campaign dedup group's links). Every path replays the scalar fold's
    float operations elementwise, so results are bit-identical to the
    scalar evaluator (and to brute force) — asserted row-for-row by the
    invariant suite.

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
        choices = self._run_choices(plan, depth, run)
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

    # -- whole-space cohort enumeration ----------------------------------

    def iter_scenario_batches(
        self, scenario: Any, chunk_size: int | None = None
    ) -> Iterator[BatchRows]:
        """Stream a scenario's whole design space as lazy
        :class:`BatchRows`, one depth cohort at a time (sliced to
        ``chunk_size`` rows when given), in exact enumeration order —
        the path of solo ``explore()`` and of every stock campaign
        member outside a dedup group. See :meth:`_iter_cohort_states`
        for the walk and how pruning fuses into it."""
        model = self.model
        energy = self._energy
        for plan, depth, choices, state in self._iter_cohort_states(
            scenario, chunk_size
        ):
            link_cost = depth_link_cost(
                model.link, energy, plan.link_costs, depth, plan.representative(depth)
            )
            yield BatchRows(
                scenario,
                plan.pipeline,
                depth,
                plan.names[:depth],
                choices,
                model.finalize_batch(state, link_cost),
                energy,
            )

    def iter_group_batches(
        self, scenarios: Sequence[Any], chunk_size: int | None = None
    ) -> Iterator[list[BatchRows]]:
        """Stream a campaign dedup group: one cohort walk of the first
        scenario's compute-side states, each slice closed under every
        member's own link with ONE ``finalize_batch_multi`` broadcast.

        ``scenarios`` share one
        :func:`~repro.explore.campaign.scenario_compute_key` (same
        pipeline chain and platform axis, domain, bounds and pass rates,
        no pruning) and differ only in their links; this evaluator runs
        the first one's model. Each yielded list holds one lazy
        :class:`BatchRows` view per member, in ``scenarios`` order, all
        sharing the slice's choice matrix and compute-side columns by
        reference. The per-cell float operations replay each member's
        scalar finalize, so member rows are bit-identical to that
        member's solo walk.
        """
        model = self.model
        energy = self._energy
        links = [scenario.cost_model().link for scenario in scenarios]
        caches: list[dict[int, Any]] = [{} for _ in scenarios]
        for plan, depth, choices, state in self._iter_cohort_states(
            scenarios[0], chunk_size
        ):
            representative = plan.representative(depth)
            stack = [
                depth_link_cost(link, energy, cache, depth, representative)
                for link, cache in zip(links, caches)
            ]
            names = plan.names[:depth]
            yield [
                BatchRows(
                    scenario, plan.pipeline, depth, names, choices, columns, energy
                )
                for scenario, columns in zip(
                    scenarios, model.finalize_batch_multi(state, stack)
                )
            ]

    def _iter_cohort_states(
        self, scenario: Any, chunk_size: int | None
    ) -> Iterator[tuple[_PipelinePlan, int, Any, Any]]:
        """The cohort walk: ``(plan, depth, choices, state)`` slices of
        the scenario's pre-finalize states, at most ``chunk_size`` rows
        each, in exact enumeration order.

        Per depth, the previous cohort's state arrays are repeated
        across the next block's options and extended with one batch
        call — O(depth) array operations for the whole space, no
        per-configuration Python work. Pruning fuses into the same
        folds:

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
        trusted = PipelineConfig.trusted

        def hook_filter(depth: int, choices: Any, state: Any) -> tuple[Any, Any]:
            """Per-config hooks over the compacted cohort — the same
            configs, order and any()-short-circuit as the scalar walk's
            keep() filter."""
            names = plan.names[:depth]
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

        def emit(
            depth: int, choices: Any, state: Any
        ) -> Iterator[tuple[_PipelinePlan, int, Any, Any]]:
            n = choices.shape[0]
            if chunk_size is None or n <= chunk_size:
                if n:
                    yield plan, depth, choices, state
                return
            for lo in range(0, n, chunk_size):
                part = slice(lo, min(lo + chunk_size, n))
                yield plan, depth, choices[part], _take_state(state, part, energy)

        state = self.model.initial_state_batch(1)
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
