"""The exploration engine: enumerate, evaluate (possibly in parallel),
collect.

``explore()`` is the one entry point both case studies share: it walks
a :class:`~repro.explore.scenario.Scenario`'s lazily enumerated design
space, evaluates every surviving configuration under the scenario's
cost model through a :class:`~repro.explore.executor.SweepExecutor`,
and returns an :class:`~repro.explore.result.ExplorationResult`. Row
order is the enumeration order regardless of worker count, so parallel
and serial runs are interchangeable.

One rule picks the evaluation path. A model whose every cost step is
stock (:func:`~repro.explore.incremental.uses_stock_cost_semantics`)
takes the columnar cohort walk (:mod:`repro.explore.vectorized`), folded
in process on every executor: by ``explore()`` and by every stock
campaign member alike (a campaign dedup group walks its shared states
once and closes them under each member's link). Every other model — and
``evaluation="scalar"`` — takes the one generic scalar chunk function,
:func:`~repro.explore.incremental.evaluate_chunk`: the memoized
:class:`~repro.explore.incremental.PrefixEvaluator` walk if the model's
``evaluate()`` is stock, per-config ``evaluate()`` calls if not. Only
those scalar chunks travel through the executor. Both shapes of result
— lazy columnar batches and scalar cost chunks — land in one consumer
(:class:`_RunConsumer`) shared by ``explore()`` and every campaign member,
so solo runs and campaign members cannot drift apart.

The path is streaming end-to-end: configurations flow from the
enumerator into fixed-size chunks (or cohort slices), and scalar chunks
travel through the executor's ``imap`` with a bounded in-flight window —
nothing ever materializes the full configuration list, so peak
intermediate memory is set by the chunk size, not the design-space
size. For stock-model, unhooked runs (every allocation the engine's
own, all acyclic) the cyclic GC is paused while results accumulate:
bulk-appending millions of small cost objects otherwise triggers
quadratically many full collections over the growing result. Runs
involving user code (models overriding any cost step, per-config prune
hooks, sinks) keep the GC live so user cycles stay collectable.

``explore_brute_force()`` keeps the pre-streaming semantics — eager
enumeration, from-scratch per-config evaluation, eager rows — as the
correctness oracle and benchmark baseline the memoized path is compared
against, byte for byte.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager, nullcontext
from functools import partial
from itertools import islice
from typing import Any, Iterator

from repro.core.cost import EnergyCost
from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.explore.executor import (
    SweepExecutor,
    auto_chunk_size,
    resolve_executor,
)
from repro.explore.incremental import (
    PrefixEvaluator,
    evaluate_chunk,
    supports_prefix_evaluation,
    uses_stock_cost_semantics,
)
from repro.explore.result import ExplorationResult, cost_row
from repro.explore.scenario import Scenario
from repro.explore.sink import (
    resolve_sink,
    sink_stream,
    uses_columnar_writes,
    write_sink,
    write_sink_batch,
)
from repro.explore.vectorized import BatchPrefixEvaluator

#: Valid values of the ``evaluation=`` knob on :func:`explore` and
#: :func:`iter_evaluation_chunks`: ``"auto"`` picks the fastest
#: applicable path, ``"batch"`` requires the columnar path (raising for
#: models that cannot take it), ``"scalar"`` forces the scalar fold.
EVALUATION_MODES = ("auto", "batch", "scalar")

#: Valid values of the campaign ``dedup=`` knob (``Campaign.run`` /
#: ``iter_runs``, and :func:`evaluation_path`): off, lazy columnar
#: dedup (``True`` is ``"lazy"``), or per-member materialized finalize.
DEDUP_MODES = (False, True, "lazy", "materialize")

#: Configurations per streamed chunk when neither the caller nor the
#: executor pins one. Large enough to amortize chunk setup (one cold
#: prefix walk per chunk) to noise, small enough that the in-flight
#: window stays a few thousand configurations.
DEFAULT_CHUNK_SIZE = 1024

_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0
_gc_pause_restore = False


@contextmanager
def _gc_paused():
    """Disable the cyclic GC for a bulk-allocation region (reentrant).

    Refcounting still reclaims everything the engine allocates (cost
    objects are acyclic); only cycle detection is deferred. The previous
    state is restored when the last active region exits — also across
    threads — so callers who run with GC disabled are left untouched.
    """
    global _gc_pause_depth, _gc_pause_restore
    with _gc_pause_lock:
        if _gc_pause_depth == 0:
            _gc_pause_restore = gc.isenabled()
            if _gc_pause_restore:
                gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_pause_restore:
                gc.enable()


def _chunked(iterator: Iterator[Any], size: int) -> Iterator[list[Any]]:
    while True:
        chunk = list(islice(iterator, size))
        if not chunk:
            return
        yield chunk


def _check_evaluation_mode(evaluation: str, model: Any) -> None:
    """Validate the ``evaluation=`` knob (shared by the entry points)."""
    if evaluation not in EVALUATION_MODES:
        raise ConfigurationError(
            f"evaluation must be one of {EVALUATION_MODES}, got {evaluation!r}"
        )
    if evaluation == "batch" and not uses_stock_cost_semantics(model):
        raise ConfigurationError(
            "evaluation='batch' requires a batch-capable cost model "
            "(every cost step stock: evaluate(), the scalar steps and "
            "their batch twins) — neither columnar path "
            "(batch-cohort, batch-cohort-pruned) can run "
            "this model; use evaluation='auto' to fall back to the "
            "scalar paths (scalar-memoized / scalar-scratch)"
        )


def _check_dedup_mode(dedup: Any) -> None:
    """Validate the campaign ``dedup=`` knob (see :data:`DEDUP_MODES`)."""
    if dedup not in DEDUP_MODES:
        raise ConfigurationError(
            "dedup must be False, True, 'lazy' or 'materialize', "
            f"got {dedup!r}"
        )


def iter_evaluation_chunks(
    model: Any,
    configs: Iterator[PipelineConfig],
    executor: SweepExecutor | None = None,
    pass_rates: dict[str, float] | None = None,
    chunk_size: int | None = None,
    approx_total: int | None = None,
    evaluation: str = "auto",
) -> Iterator[list[Any]]:
    """Stream cost objects for a configuration iterable, as ordered
    chunk lists (the collection loop extends at C speed).

    The scalar evaluation pipe under :func:`explore` and the
    ``core.offload`` explicit-config facade: configurations are consumed
    lazily in chunks, each chunk evaluated columnar-batch when the model
    supports it and :func:`~repro.explore.incremental.evaluate_chunk`'s
    scalar walk otherwise (memoized, or per-config ``evaluate()`` for
    models that override it); chunks flow through the executor's
    bounded-window ``imap``. ``approx_total`` (when known) sizes chunks
    for parallel executors the way ``map`` would — about four chunks
    per worker — so small spaces still spread across workers.
    ``evaluation`` picks the path (see :data:`EVALUATION_MODES`); all
    paths produce bit-identical costs.
    """
    executor = resolve_executor(executor)
    _check_evaluation_mode(evaluation, model)
    if chunk_size is not None and chunk_size < 1:
        # islice(iterator, 0) would silently end the stream after zero
        # configurations; mirror SweepExecutor's field validation.
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    size = chunk_size if chunk_size is not None else executor.chunk_size
    if size is None:
        if approx_total is not None and not executor.is_serial:
            size = auto_chunk_size(approx_total, executor.workers, DEFAULT_CHUNK_SIZE)
        else:
            size = DEFAULT_CHUNK_SIZE
    allow_batch = evaluation != "scalar"
    chunks = _chunked(iter(configs), size)
    if executor.is_serial:
        # Serial fast path: one evaluator spans the whole stream (no
        # per-chunk cold restarts, no pool plumbing). Values are
        # identical to the chunk-local path — memoization only reuses
        # states a from-scratch walk would recompute bit-for-bit, and
        # the columnar fold performs the same operations elementwise.
        if allow_batch and uses_stock_cost_semantics(model):
            evaluator: Any = BatchPrefixEvaluator(model, pass_rates)
        else:
            evaluator = PrefixEvaluator(model, pass_rates)
        return (evaluator.evaluate_many(chunk) for chunk in chunks)
    chunk_fn = partial(evaluate_chunk, model, pass_rates, allow_batch=allow_batch)
    return executor.imap(chunk_fn, chunks, chunk_size=1)


def evaluation_path(
    scenario: Scenario,
    executor: SweepExecutor | None = None,
    evaluation: str = "auto",
    dedup: bool | str = False,
) -> str:
    """The evaluation path :func:`explore` would take for this call:

    - ``"batch-cohort"`` — whole depth cohorts as columnar arrays with
      lazily materialized rows, folded in process on every executor;
    - ``"batch-cohort-pruned"`` — the same cohort walk with the
      scenario's pruning fused in (prefix bounds as boolean-mask
      compaction, per-config hooks as an emission-time filter);
    - ``"scalar-memoized"`` — the generic scalar prefix walk, for
      ``evaluation="scalar"`` and for models that override any cost
      step but keep the stock ``evaluate()``;
    - ``"scalar-scratch"`` — per-config ``evaluate()`` for models that
      override it.

    Pass the campaign's ``dedup`` argument to report the path the
    scenario takes as a ``Campaign.run(dedup=...)`` member instead. A
    campaign member runs exactly its solo path above — stock members
    fold in the calling process, only scalar members' chunks reach the
    executor — except:

    - ``"batch-dedup"`` — with dedup on (``True``, ``"lazy"`` or
      ``"materialize"``), a campaign-dedupable scenario (it has a
      :func:`~repro.explore.campaign.scenario_compute_key`, so no
      pre-built ``model`` and its stock model applies) runs its
      group's walk: one fold of the shared columnar states, closed
      under every member's link by a multi-link broadcast finalize
      into lazy :class:`~repro.explore.vectorized.BatchRows` views
      (which ``"materialize"`` then materializes in bulk). A scenario
      with no sibling in the fleet is a group of one.

    ``executor`` is validated but changes no path: stock models fold
    in process on every executor.

    Purely informational, for self-describing perf repros; raises
    exactly like :func:`explore` for an invalid executor or an invalid
    or unsatisfiable ``evaluation=``, and like ``Campaign.run`` for an
    invalid ``dedup=``.
    """
    model = scenario.cost_model()
    _check_evaluation_mode(evaluation, model)
    _check_dedup_mode(dedup)
    resolve_executor(executor)
    if dedup and evaluation != "scalar":
        # Imported here: campaign builds on the engine, not vice versa.
        from repro.explore.campaign import scenario_compute_key

        if scenario_compute_key(scenario) is not None:
            return "batch-dedup"
    if _cohort_eligible(model, evaluation):
        if scenario.prune is not None or scenario.prefix_pruner() is not None:
            return "batch-cohort-pruned"
        return "batch-cohort"
    if supports_prefix_evaluation(model):
        return "scalar-memoized"
    return "scalar-scratch"


def _cohort_eligible(model: Any, evaluation: str) -> bool:
    """Whether :func:`explore` streams whole depth cohorts as columnar
    batches: a stock model (the cohort walk replicates state arrays, so
    it must know their layout), on any executor — shipping cohorts to
    pool workers measured slower than folding them in process. Depth
    pruning composes with cohorts; the scenario's auto-derived prefix
    pruner fuses in as mask compaction through its batch form, and
    per-config hooks filter compacted cohorts at emission time."""
    return evaluation != "scalar" and uses_stock_cost_semantics(model)


def explore(
    scenario: Scenario,
    executor: SweepExecutor | None = None,
    chunk_size: int | None = None,
    *,
    sink: Any = None,
    collect: bool = True,
    evaluation: str = "auto",
) -> ExplorationResult | None:
    """Evaluate a scenario's whole (pruned) design space.

    Parameters
    ----------
    scenario:
        What to explore and under which cost domain.
    executor:
        How to run the evaluations; defaults to serial. Stock models
        fold in process whatever the executor (the columnar cohort walk
        beats shipping cohorts to pool workers); the executor runs the
        scalar paths, with rows in the same order as serial ones.
    chunk_size:
        Configurations per streamed chunk (default: the executor's
        ``chunk_size``; the cohort walk then emits whole depth cohorts,
        the scalar paths :data:`DEFAULT_CHUNK_SIZE`, sized down for
        small spaces on parallel executors). Peak intermediate memory
        is proportional to this, never to the design-space size.
    sink:
        Optional :class:`~repro.explore.sink.ResultSink`: report rows
        are streamed to it chunk by chunk, in enumeration order, as
        evaluations complete. The sink is opened before the first chunk
        and closed on exit — also on error. Sink failures raise
        :class:`~repro.errors.SinkError` with the scenario named.
    collect:
        With ``collect=False`` (requires a sink) the engine never
        accumulates evaluations and returns None: an export-only run's
        peak memory is set by the chunk window, not the design-space
        size. The default keeps the full :class:`ExplorationResult`.
        Frontier questions survive export-only runs through a
        :class:`~repro.explore.sink.ParetoSink` (an online
        dominance-pruned frontier, identical to the collected
        ``result.pareto()``).
    evaluation:
        ``"auto"`` (default) rides the columnar batch path whenever the
        model supports it — stock runs stream whole depth cohorts with
        lazily materialized rows (pruning included: prefix bounds fuse
        in as mask compaction, per-config hooks as emission-time
        filters) — falling back to the scalar prefix walk for models
        that override any cost step. ``"batch"`` requires a
        batch path (raising :class:`ConfigurationError` when the model
        cannot take one); ``"scalar"`` forces the scalar fold. Every
        path produces bit-identical results (:func:`evaluation_path`
        reports which one runs).
    """
    sink = resolve_sink(sink)
    if not collect and sink is None:
        raise ConfigurationError(
            "collect=False discards every evaluation; pass sink= to "
            "stream rows somewhere (or drop collect=False)"
        )
    model = scenario.cost_model()
    _check_evaluation_mode(evaluation, model)
    # Pause the cyclic GC only when every allocation in the loop is the
    # engine's own (every cost step stock, no per-config user hooks, no
    # sink): those objects are acyclic, so pausing changes wall-time
    # only. A model overriding any step (extend_state included), prune
    # hooks and sinks may build cycles, which must stay collectable over
    # a multi-million-config run (the auto-derived pruners are
    # engine-owned and acyclic, so they keep the pause).
    pause = (
        uses_stock_cost_semantics(model)
        and scenario.prune is None
        and sink is None
    )
    label = f"scenario {scenario.name!r}"
    resolved = resolve_executor(executor)
    cohort = _cohort_eligible(model, evaluation)
    size = None
    if cohort:
        size = chunk_size if chunk_size is not None else resolved.chunk_size
        if size is not None and size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {size}")
    # Sink rows are built per chunk and dropped after the write — NOT
    # cached on the result. Keeping them would double-hold a row list
    # next to the evaluation list for the whole run (the bounded-memory
    # invariant ExplorationResult's lazy rows exist to protect); the
    # price is one lazy re-derivation if .rows is later accessed.
    consumer = _RunConsumer(scenario, sink, label, collect, size)
    with sink_stream(sink, scenario, label):
        with _gc_paused() if pause else nullcontext():
            if cohort:
                evaluator = BatchPrefixEvaluator(model, scenario.pass_rates)
                for batch in evaluator.iter_scenario_batches(scenario, size):
                    consumer.add_batch(batch)
            else:
                for costs in iter_evaluation_chunks(
                    model,
                    scenario.iter_configs(),
                    executor=resolved,
                    pass_rates=scenario.pass_rates,
                    chunk_size=chunk_size,
                    approx_total=scenario.count_configs(),
                    evaluation=evaluation,
                ):
                    consumer.add_costs(costs)
            consumer.flush()
    return consumer.result()


class _RunConsumer:
    """Where one scenario's evaluated rows go — the one consumer behind
    solo :func:`explore` and every campaign member, so the two cannot
    drift apart.

    It takes lazy columnar batches (:meth:`add_batch`, the cohort and
    dedup-group walks) and scalar cost chunks (:meth:`add_costs`) and
    routes them to:

    * the collected evaluations (``collect=True``), materialized in bulk
      — the result must hold them all anyway;
    * the sink: columnar sinks (``ParetoSink``/``TopKSink`` — anything
      overriding ``write_batch``) receive the lazy batch views directly
      and materialize only surviving rows, so live cost objects stay
      bounded by the survivor count. Row-only sinks keep the streaming
      contract exactly: rows are buffered across batch boundaries and
      written once per ``chunk_size`` rows in enumeration order (once
      per batch or chunk when ``chunk_size`` is None) — the same writes
      and bounded peak as the scalar chunk path;
    * ``stats`` (a campaign's export-only running statistics), fed the
      lazy batch unless the sink already forced its rows.

    ``keep_rows`` keeps the rows a collected run builds for a row-only
    sink so the result can reuse them (campaigns summarize every
    collected run from its rows anyway; solo runs do not keep them).
    Call :meth:`flush` once the stream ends to write the last partial
    chunk.
    """

    __slots__ = (
        "scenario",
        "sink",
        "label",
        "chunk_size",
        "columnar",
        "evaluations",
        "rows",
        "stats",
        "_pending",
    )

    def __init__(
        self,
        scenario: Scenario,
        sink: Any,
        label: str,
        collect: bool,
        chunk_size: int | None = None,
        *,
        stats: Any = None,
        keep_rows: bool = False,
    ):
        self.scenario = scenario
        self.sink = sink
        self.label = label
        self.chunk_size = chunk_size
        self.columnar = sink is not None and uses_columnar_writes(sink)
        self.evaluations: list[Any] | None = [] if collect else None
        self.rows: list[dict[str, Any]] | None = (
            [] if keep_rows and collect and sink is not None else None
        )
        self.stats = stats
        self._pending: list[dict[str, Any]] = []

    def add_batch(self, batch: Any) -> None:
        """One lazy :class:`~repro.explore.vectorized.BatchRows` batch."""
        sink = self.sink
        rows = None
        if self.evaluations is not None:
            costs = batch.costs()
            self.evaluations.extend(costs)
            if sink is not None and not self.columnar:
                scenario = self.scenario
                rows = [cost_row(scenario, cost) for cost in costs]
        elif sink is not None and not self.columnar:
            rows = batch.rows()
        if self.stats is not None:
            if rows is None:
                self.stats.update_batch(batch)
            else:
                self.stats.update(rows)
        if rows is not None:
            self._write(rows)
        elif sink is not None:
            write_sink_batch(sink, batch, self.label)

    def add_costs(self, costs: list[Any]) -> None:
        """One chunk of materialized cost objects."""
        if self.evaluations is not None:
            self.evaluations.extend(costs)
        if self.sink is None and self.stats is None:
            return
        scenario = self.scenario
        rows = [cost_row(scenario, cost) for cost in costs]
        if self.stats is not None:
            self.stats.update(rows)
        if self.sink is not None:
            self._write(rows)

    def _write(self, rows: list[dict[str, Any]]) -> None:
        if self.rows is not None:
            self.rows.extend(rows)
        size = self.chunk_size
        if size is None:
            write_sink(self.sink, rows, self.label)
            return
        pending = self._pending
        pending.extend(rows)
        if len(pending) < size:
            return
        cut = len(pending) - len(pending) % size
        self._pending = pending[cut:]
        for lo in range(0, cut, size):
            write_sink(self.sink, pending[lo : lo + size], self.label)

    def flush(self) -> None:
        """Write the buffered partial chunk, if any."""
        if self._pending:
            pending, self._pending = self._pending, []
            write_sink(self.sink, pending, self.label)

    def result(self) -> ExplorationResult | None:
        if self.evaluations is None:
            return None
        return ExplorationResult(
            scenario=self.scenario, rows=self.rows, evaluations=self.evaluations
        )


def _brute_force_throughput(model: Any, config: PipelineConfig) -> Any:
    """The seed's from-scratch throughput evaluation, kept verbatim."""
    from repro.core.cost import ConfigCost

    compute_fps = float("inf")
    slowest = "none"
    for block, impl in config.in_camera_blocks():
        if impl.fps < compute_fps:
            compute_fps = impl.fps
            slowest = f"{block.name}({impl.platform})"
    return ConfigCost(
        config=config,
        compute_fps=compute_fps,
        communication_fps=model.link.fps_for_bytes(config.offload_bytes),
        slowest_block=slowest,
    )


def _brute_force_energy(
    model: Any, pass_rates: dict[str, float] | None, config: PipelineConfig
) -> EnergyCost:
    """The seed's from-scratch energy evaluation, kept verbatim."""
    from repro.errors import PipelineError

    rate = 1.0
    block_energies: dict[str, float] = {}
    active = 0.0
    for block, impl in config.in_camera_blocks():
        block_energies[block.name] = rate * impl.energy_per_frame
        active += rate * impl.active_seconds
        block_rate = (
            pass_rates.get(block.name, block.pass_rate)
            if pass_rates is not None
            else block.pass_rate
        )
        if not 0.0 <= block_rate <= 1.0:
            raise PipelineError(
                f"pass rate for {block.name!r} must be in [0,1], got {block_rate}"
            )
        rate *= block_rate
    tx_energy = rate * model.link.tx_energy_for_bytes(config.offload_bytes)
    active += rate * model.link.seconds_for_bytes(config.offload_bytes)
    return EnergyCost(
        config=config,
        sensor_energy=config.pipeline.sensor_energy_per_frame,
        block_energies=block_energies,
        transmit_energy=tx_energy,
        transmit_rate=rate,
        active_seconds=active,
    )


def explore_brute_force(scenario: Scenario) -> ExplorationResult:
    """The pre-streaming engine, kept as oracle and baseline.

    Replicates what ``explore()`` did before the prefix-memoized
    streaming path landed: materializes the full configuration list
    through the validating :class:`PipelineConfig` constructor,
    evaluates every configuration from block 0 with the seed's
    evaluation loops through the public (validating, unslotted-speed)
    dataclass constructors, and builds all rows eagerly. Tests assert
    the streaming engine reproduces this byte for byte; the scaling
    benchmark measures how much faster the streaming engine is. The
    per-block float operations are the exact sequence the incremental
    path replays, which is why bit-identity holds.
    """
    model = scenario.cost_model()
    configs = [
        PipelineConfig(pipeline=config.pipeline, platforms=config.platforms)
        for config in scenario.iter_configs()
    ]
    custom = not supports_prefix_evaluation(model)
    if scenario.domain == "throughput":
        if custom:
            evaluations = [model.evaluate(config) for config in configs]
        else:
            evaluations = [_brute_force_throughput(model, config) for config in configs]
    elif custom:
        evaluations = [
            model.evaluate(config, scenario.pass_rates) for config in configs
        ]
    else:
        evaluations = [
            _brute_force_energy(model, scenario.pass_rates, config)
            for config in configs
        ]
    rows = [cost_row(scenario, cost) for cost in evaluations]
    return ExplorationResult(scenario=scenario, rows=rows, evaluations=evaluations)
