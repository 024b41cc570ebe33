"""The exploration engine: enumerate, evaluate, collect.

``explore()`` is the one entry point both case studies share: it walks
a :class:`~repro.explore.scenario.Scenario`'s lazily enumerated design
space, evaluates every surviving configuration under the scenario's
cost model in the calling process, and returns an
:class:`~repro.explore.result.ExplorationResult` whose rows are in
enumeration order.

The engine evaluates the paper's two cost models, the stock
:class:`~repro.core.cost.ThroughputCostModel` and
:class:`~repro.core.cost.EnergyCostModel` a scenario builds from its
link. One plan picks the evaluation path (:func:`_plan`, which
:func:`evaluation_path` reports). Every run takes the columnar cohort
walk (:mod:`repro.explore.vectorized`). The walk folds a group of
scenarios that differ only in their links once and closes it under
each member's link: solo ``explore()`` walks a group of one, a
campaign dedup group its members. ``evaluation="scalar"`` alone takes
the scalar reference fold, :func:`iter_evaluation_chunks` (one
memoized :class:`~repro.explore.incremental.PrefixEvaluator` walk over
the whole stream). ``explore()`` and every campaign member run one
stream (:func:`_scenario_stream`) into one consumer each
(:class:`_RunConsumer`), so solo runs and campaign members cannot
drift apart. The engine runs no worker pool: shipping cohorts or
scalar chunks to pool workers measured slower than folding them in
process (see ARCHITECTURE.md, "The engine runs no pool").

The path is streaming end-to-end: configurations flow from the
enumerator into fixed-size chunks (or cohort slices) — nothing ever
materializes the full configuration list, so peak intermediate memory
is set by the chunk size, not the design-space size. A collected
cohort-path run keeps the walk's columnar batches as its result and
allocates no per-configuration objects at all; the result builds row
dicts only for the rows a query returns. A collected scalar-path run
holds one cost object per configuration, so for unhooked runs (every
allocation the engine's own, all acyclic) the cyclic GC is paused
while results accumulate: bulk-appending millions of small cost
objects otherwise triggers quadratically many full collections over
the growing result (this is what ``evaluation="scalar"`` still does).
Runs involving user code (per-config prune hooks, sinks) keep the GC
live so user cycles stay collectable.

``explore_brute_force()`` keeps the pre-streaming semantics — eager
enumeration, from-scratch per-config evaluation, eager rows — as the
correctness oracle and benchmark baseline the memoized path is compared
against, byte for byte.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import Any, Iterator

from repro.core.cost import EnergyCost
from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.explore.executor import SweepExecutor, resolve_executor
from repro.explore.incremental import PrefixEvaluator
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
#: :func:`iter_evaluation_chunks`: ``"auto"`` takes the columnar cohort
#: walk, ``"scalar"`` the scalar reference fold.
EVALUATION_MODES = ("auto", "scalar")

#: Configurations per scalar chunk (and rows per campaign slice) when
#: the caller pins no ``chunk_size``. Large enough to amortize the
#: per-chunk loop to noise, small enough that one chunk stays a few
#: thousand configurations.
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


def _check_evaluation_mode(evaluation: str) -> None:
    """Validate the ``evaluation=`` knob (shared by the entry points)."""
    if evaluation not in EVALUATION_MODES:
        raise ConfigurationError(
            f"evaluation must be one of {EVALUATION_MODES}, got {evaluation!r}"
        )


def _check_dedup_mode(dedup: Any) -> None:
    """Validate the campaign ``dedup=`` knob: a plain bool."""
    if not isinstance(dedup, bool):
        raise ConfigurationError(f"dedup must be True or False, got {dedup!r}")


def _check_chunk_size(chunk_size: int | None) -> None:
    """Validate a ``chunk_size=`` argument: None or a positive count
    (``islice(iterator, 0)`` would silently end a stream after zero
    configurations)."""
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")


def iter_evaluation_chunks(
    model: Any,
    configs: Iterator[PipelineConfig],
    pass_rates: dict[str, float] | None = None,
    chunk_size: int | None = None,
    evaluation: str = "auto",
) -> Iterator[list[Any]]:
    """Stream cost objects for a configuration iterable, as ordered
    chunk lists of ``chunk_size`` (default :data:`DEFAULT_CHUNK_SIZE`)
    configurations (the collection loop extends at C speed).

    The scalar reference pipe under ``explore(...,
    evaluation="scalar")`` and the ``core.offload`` explicit-config
    facade: configurations are consumed lazily, chunk by chunk, and one
    :class:`~repro.explore.incremental.PrefixEvaluator` walks the whole
    stream in the calling process. ``"auto"`` and ``"scalar"`` both run
    this one scalar fold: the columnar walk is :func:`explore`'s
    scenario walk, not an arbitrary configuration stream.
    """
    _check_evaluation_mode(evaluation)
    _check_chunk_size(chunk_size)
    evaluator = PrefixEvaluator(model, pass_rates)
    chunks = _chunked(iter(configs), chunk_size or DEFAULT_CHUNK_SIZE)
    return (evaluator.evaluate_many(chunk) for chunk in chunks)


@dataclass(frozen=True)
class _Plan:
    """How one scenario runs: its evaluation path (the values
    :func:`evaluation_path` reports) and the cost model that runs it."""

    path: str
    model: Any

    @property
    def scalar(self) -> bool:
        """Whether the run takes the scalar pipe
        (:func:`iter_evaluation_chunks`) rather than a columnar walk."""
        return self.path == "scalar-memoized"


def _dedupable(scenario: Scenario) -> bool:
    """Whether the scenario has a campaign
    :func:`~repro.explore.campaign.scenario_compute_key`: no pruning of
    any kind."""
    return not (
        scenario.prune is not None
        or scenario.prune_depth is not None
        or scenario.auto_prune
        or scenario.auto_prune_configs
    )


def _plan(
    scenario: Scenario, evaluation: str = "auto", dedup: bool = False
) -> _Plan:
    """The one place a scenario's evaluation path is decided, read by
    :func:`explore`, every campaign member and :func:`evaluation_path`,
    which validate their arguments through it. A run takes a cohort
    walk or, with ``dedup=True``, a campaign-dedupable scenario its
    group's walk. ``evaluation="scalar"`` takes the scalar reference
    pipe."""
    _check_evaluation_mode(evaluation)
    _check_dedup_mode(dedup)
    model = scenario.cost_model()
    if evaluation == "scalar":
        return _Plan("scalar-memoized", model)
    if dedup and _dedupable(scenario):
        return _Plan("batch-dedup", model)
    # A scenario validates that auto_prune_configs has its domain's
    # bound, so it has a prefix pruner; the walk builds it.
    if scenario.prune is not None or scenario.auto_prune_configs:
        return _Plan("batch-cohort-pruned", model)
    return _Plan("batch-cohort", model)


def evaluation_path(
    scenario: Scenario,
    executor: SweepExecutor | None = None,
    evaluation: str = "auto",
    dedup: bool = False,
) -> str:
    """The evaluation path :func:`explore` would take for this call:

    - ``"batch-cohort"`` — the cohort walk: depth cohorts (split into
      fixed-size blocks of rows once they outgrow one) as columnar
      arrays with lazily materialized rows, folded in process;
    - ``"batch-cohort-pruned"`` — the same cohort walk with the
      scenario's pruning fused in (prefix bounds as boolean-mask
      compaction, per-config hooks as an emission-time filter);
    - ``"scalar-memoized"`` — the scalar reference fold
      (:class:`~repro.explore.incremental.PrefixEvaluator`), for
      ``evaluation="scalar"`` only.

    Pass the campaign's ``dedup`` argument to report the path the
    scenario takes as a ``Campaign.run(dedup=...)`` member instead. A
    campaign member runs exactly its solo path above (campaigns take no
    ``evaluation=``, so never the scalar fold), through the same stream
    solo ``explore()`` runs, in the calling process — except:

    - ``"batch-dedup"`` — with ``dedup=True``, a campaign-dedupable
      scenario (it has a
      :func:`~repro.explore.campaign.scenario_compute_key`: no pruning)
      runs its group's walk: one fold of the shared columnar states,
      closed under every member's link by its own ``finalize_batch``
      into lazy :class:`~repro.explore.vectorized.BatchRows` views. A
      scenario with no sibling in the fleet is a group of one.

    ``executor`` is a positional slot kept only because perfbench
    passes one: it is validated (anything but a
    :class:`~repro.explore.executor.SweepExecutor` or None raises
    :class:`~repro.errors.ConfigurationError`) and otherwise unused —
    no path runs a pool. Removing the slot is ROADMAP item 2's
    follow-up, once a benchmark change repoints perfbench.

    The same decision the runs read (:func:`_plan`), so it cannot drift
    from them; raises exactly like :func:`explore` for an invalid
    ``evaluation=``, and like ``Campaign.run`` for an invalid
    ``dedup=``.
    """
    resolve_executor(executor)
    return _plan(scenario, evaluation, dedup).path


def _scenario_stream(
    scenarios: tuple[Scenario, ...],
    plan: _Plan,
    consumers: tuple["_RunConsumer", ...],
) -> Iterator[None]:
    """Feed one walk's rows into its members' ``consumers``, one cohort
    slice or cost chunk per step, sliced at the consumers' write size
    (None: the walk's blocks of rows, or :data:`DEFAULT_CHUNK_SIZE`
    configurations per scalar chunk): the stream of solo
    :func:`explore` (a group of one) and of every campaign unit (a
    dedup group's members, or one other member). Cohort plans run one
    walk (:meth:`~repro.explore.vectorized.BatchPrefixEvaluator.
    iter_group_batches`) and hand each member its own view of every
    slice. The scalar plan (solo ``explore(..., evaluation="scalar")``,
    one member) runs :func:`iter_evaluation_chunks`."""
    size = consumers[0].chunk_size
    if plan.scalar:
        (scenario,) = scenarios
        (consumer,) = consumers
        stream = iter_evaluation_chunks(
            plan.model,
            scenario.iter_configs(),
            pass_rates=scenario.pass_rates,
            chunk_size=size,
        )
        add = consumer.add_costs
    else:
        evaluator = BatchPrefixEvaluator(plan.model, scenarios[0].pass_rates)
        stream = evaluator.iter_group_batches(scenarios, size)

        def add(batches: list[Any]) -> None:
            for consumer, batch in zip(consumers, batches):
                consumer.add_batch(batch)

    try:
        for item in stream:
            add(item)
            yield
    finally:
        stream.close()


def explore(
    scenario: Scenario,
    chunk_size: int | None = None,
    *,
    sink: Any = None,
    collect: bool = True,
    evaluation: str = "auto",
) -> ExplorationResult | None:
    """Evaluate a scenario's whole (pruned) design space, in the calling
    process.

    Parameters
    ----------
    scenario:
        What to explore and under which cost domain.
    chunk_size:
        Rows per streamed slice and sink write (default: the cohort
        walk's blocks of rows — whole depth cohorts while they fit one
        — and :data:`DEFAULT_CHUNK_SIZE` configurations per scalar
        chunk). Peak intermediate memory is bounded by this on the
        scalar fold and by a fixed number of row blocks per pipeline
        depth on the cohort walk, never by the design-space size.
    sink:
        Optional :class:`~repro.explore.sink.ResultSink`: report rows
        are streamed to it chunk by chunk, in enumeration order, as
        evaluations complete. The sink is opened before the first chunk
        and closed on exit — also on error — and never opened when the
        arguments are invalid. Sink failures raise
        :class:`~repro.errors.SinkError` with the scenario named.
    collect:
        With ``collect=False`` (requires a sink) the engine never
        accumulates evaluations and returns None: an export-only run's
        peak memory is set by the chunk window, not the design-space
        size. The default keeps the full :class:`ExplorationResult`
        (on the cohort path, the walk's columnar batches: its queries
        build only the rows they return).
        Frontier questions survive export-only runs through a
        :class:`~repro.explore.sink.ParetoSink` (an online
        dominance-pruned frontier, identical to the collected
        ``result.pareto()``).
    evaluation:
        ``"auto"`` (default) streams the cohort walk's columnar batches
        with lazily materialized rows (pruning included: prefix bounds
        fuse in as mask compaction, per-config hooks as emission-time
        filters). ``"scalar"`` runs the scalar reference fold, the
        baseline the perf and scaling benchmarks measure against. Both
        produce bit-identical results (:func:`evaluation_path` reports
        which one runs).
    """
    sink = resolve_sink(sink)
    if not collect and sink is None:
        raise ConfigurationError(
            "collect=False discards every evaluation; pass sink= to "
            "stream rows somewhere (or drop collect=False)"
        )
    _check_chunk_size(chunk_size)
    plan = _plan(scenario, evaluation)
    # Pause the cyclic GC only when every allocation in the loop is the
    # engine's own (no per-config user hooks, no sink): those objects
    # are acyclic, so pausing changes wall-time only. Prune hooks and
    # sinks may build cycles, which must stay collectable over a
    # multi-million-config run (the auto-derived pruners are
    # engine-owned and acyclic, so they keep the pause).
    pause = scenario.prune is None and sink is None
    label = f"scenario {scenario.name!r}"
    # Sink rows are built per chunk and dropped after the write — NOT
    # cached on the result. Keeping them would hold a row list next to
    # the result's batches or cost objects for the whole run (the
    # bounded-memory invariant ExplorationResult's lazy rows exist to
    # protect); the price is one lazy re-derivation if .rows is later
    # accessed.
    consumer = _RunConsumer(scenario, sink, label, collect, chunk_size)
    with sink_stream(sink, scenario, label):
        with _gc_paused() if pause else nullcontext():
            for _ in _scenario_stream((scenario,), plan, (consumer,)):
                pass
            consumer.flush()
    return consumer.result()


class _RunConsumer:
    """Where one scenario's evaluated rows go — the one consumer behind
    solo :func:`explore` and every campaign member, so the two cannot
    drift apart.

    It takes lazy columnar batches (:meth:`add_batch`, one member's
    views of the cohort walk) and, on solo ``explore(...,
    evaluation="scalar")``, scalar cost chunks (:meth:`add_costs`) and
    routes them to:

    * the collected result (``collect=True``): batches are kept as they
      are — the result answers its queries on their columns — and cost
      chunks are appended;
    * the sink: columnar sinks (``ParetoSink``/``TopKSink`` — anything
      overriding ``write_batch``) receive the lazy batch views directly
      and build rows only when their answers are read, so live cost
      objects stay bounded by what is read. Row-only sinks keep the
      streaming contract exactly: rows are buffered across batch
      boundaries and written once per ``chunk_size`` rows in
      enumeration order (once per batch or chunk when ``chunk_size`` is
      None) — the same writes and bounded peak as the scalar chunk
      path;
    * ``stats`` (a campaign's export-only running statistics), fed the
      lazy batch.

    :attr:`n_materialized` counts the rows each batch built while it
    was added (a row-only sink's rows; the folds build none). Call
    :meth:`flush` once the stream ends to write the last partial chunk.
    """

    __slots__ = (
        "scenario",
        "sink",
        "label",
        "chunk_size",
        "columnar",
        "batches",
        "evaluations",
        "stats",
        "n_materialized",
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
    ):
        self.scenario = scenario
        self.sink = sink
        self.label = label
        self.chunk_size = chunk_size
        self.columnar = sink is not None and uses_columnar_writes(sink)
        self.batches: list[Any] | None = [] if collect else None
        self.evaluations: list[Any] | None = [] if collect else None
        self.stats = stats
        self.n_materialized = 0
        self._pending: list[dict[str, Any]] = []

    def add_batch(self, batch: Any) -> None:
        """One lazy :class:`~repro.explore.vectorized.BatchRows` batch."""
        if self.batches is not None:
            # The result keeps a view of its own, so the metric columns
            # the folds below memoize on ``batch`` die with it.
            self.batches.append(batch.slice(0, len(batch)))
        if self.stats is not None:
            self.stats.update_batch(batch)
        sink = self.sink
        if sink is not None:
            if self.columnar:
                write_sink_batch(sink, batch, self.label)
            else:
                self._write(batch.rows())
        self.n_materialized += batch.n_materialized

    def add_costs(self, costs: list[Any]) -> None:
        """One chunk of materialized cost objects (the scalar fold)."""
        if self.evaluations is not None:
            self.evaluations.extend(costs)
        if self.sink is not None:
            scenario = self.scenario
            self._write([cost_row(scenario, cost) for cost in costs])

    def _write(self, rows: list[dict[str, Any]]) -> None:
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
        if self.batches is None:
            return None
        if self.batches:
            # A run takes one path: cohort batches or scalar cost chunks.
            return ExplorationResult._from_batches(self.scenario, self.batches)
        return ExplorationResult(scenario=self.scenario, evaluations=self.evaluations)


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
    if scenario.domain == "throughput":
        evaluations = [_brute_force_throughput(model, config) for config in configs]
    else:
        evaluations = [
            _brute_force_energy(model, scenario.pass_rates, config)
            for config in configs
        ]
    rows = [cost_row(scenario, cost) for cost in evaluations]
    return ExplorationResult(scenario=scenario, rows=rows, evaluations=evaluations)
