"""Lazy configuration enumeration with pluggable pruning hooks.

The paper's design space is every (cut point, platform assignment) of a
pipeline. The seed materialized it eagerly; at scale (deep pipelines,
many platforms per block) the space is exponential, so this module
yields configurations one at a time and lets callers prune whole cut
depths or individual configurations before they are ever evaluated.

Enumeration order is deterministic and identical to the historical
eager order: the raw-offload configuration first (if requested), then
cut depths 1..limit, platform choices per block in sorted name order,
cartesian products in :func:`itertools.product` order. Pruning removes
entries from this sequence without reordering the survivors, so a
pruned enumeration is always a subsequence of the unpruned one.

Both :func:`iter_configs` and :func:`count_configs` derive their depth
walk from one shared :func:`enumeration_plan`, so the enumeration rules
cannot drift apart (the counting function used to re-implement the
walk; any future rule change now lands in both automatically).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterator, Sequence

from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import PipelineError

#: Per-configuration hook: return True to skip (prune) the configuration.
PruneHook = Callable[[PipelineConfig], bool]

#: Per-depth hook: return True to skip every configuration with that many
#: in-camera blocks (0 = the raw-offload configuration).
DepthPruneHook = Callable[[int], bool]

#: Sentinel a :class:`PrefixPruner`'s ``extend`` returns to cut the whole
#: subtree rooted at the extended prefix.
PRUNED_SUBTREE = object()


@dataclass(frozen=True)
class PrefixPruner:
    """A stateful bound over platform-choice *prefixes*.

    Depth pruning cuts whole cut depths; a prefix pruner cuts subtrees
    *within* a depth: while the enumerator extends a partial platform
    assignment one block at a time, ``extend(block_index, platform,
    state)`` folds the choice into an accumulated bound state and
    returns either the new state or :data:`PRUNED_SUBTREE`, in which
    case no configuration extending that prefix is constructed at all.

    Soundness is the hook author's contract: a prefix may be cut only
    when *every* completion of it (at the current and every deeper cut
    depth) is provably infeasible — the enumerator asks about a prefix
    once per depth it could complete to. See
    :func:`repro.explore.prune.compute_fps_prefix_pruner` for the
    canonical instance (running min of chosen implementation rates vs a
    throughput target: extending a pipeline never raises its compute
    rate, so a prefix below target can cut its whole subtree).

    The enumerator walks each cut depth separately, so during the
    depth-``d`` walk every completion of a prefix is *exactly* at depth
    ``d`` — a strictly easier bounding problem than "every deeper
    depth". A pruner may exploit that through ``for_depth``: when set,
    the enumerator calls ``for_depth(d)`` once per walked depth and uses
    the returned extend function for that depth's DFS instead of the
    generic ``extend``. The depth-aware soundness contract is
    correspondingly narrower: cut a prefix only when every completion
    *at that depth* is provably infeasible. See
    :func:`repro.explore.prune.energy_prefix_pruner` for the canonical
    instance (the dual bound: per-depth exact transmit terms instead of
    the min over all completion depths).

    A pruner the columnar cohort walk runs (every
    ``Scenario.prefix_pruner()``) also carries a *batch* form of the
    same bound, which the walk
    (:meth:`repro.explore.vectorized.BatchPrefixEvaluator.iter_group_batches`)
    fuses into its depth folds as boolean-mask compaction. The batch
    state is a flat tuple whose 1-D arrays are equal-length per-row
    columns (row ``i`` is the scalar bound state of cohort row ``i``);
    any other item is shared by every row of the depth. The caller
    slices and compacts the columns with one fancy-index gather each
    (other items pass through) without knowing their meaning:

    - ``initial_batch(n)`` returns the batch state of ``n`` empty
      prefixes.
    - ``extend_batch(block_index, state, costs)`` extends every one of
      the ``n`` state rows by every one of the block's ``k`` platforms
      (in enumeration order) in *product order* — row ``i * k + j`` of
      the result is row ``i`` extended by platform ``j``, the order of
      the cost model's ``extend_state_batch`` — and returns
      ``(new_state, keep_mask)`` over those ``n * k`` rows. ``costs``
      is the stock cost model's state over the same ``n * k`` rows,
      already extended: a bound that equals one of its columns (the
      throughput floor is the running-min fps) reads it there and keeps
      no state of its own.
      ``keep_mask[r]`` False asserts row ``r``'s subtree is infeasible
      at *every* remaining cut depth — exactly the generic ``extend``
      contract — so the caller drops the row from all deeper cohorts.
    - ``emit_mask(depth, state)`` (optional) returns the boolean mask of
      compacted rows that survive the depth-``depth`` walk of the
      *depth-aware* bound — exactly the rows ``for_depth(depth)`` would
      yield. None (or an all-True mask) means the compacted cohort is
      already the exact survivor set, which holds for depth-monotone
      bounds like the throughput floor.

    Elementwise, the batch forms must perform the same float operations
    in the same order as their scalar counterparts: the fused walk's
    survivor set is then *byte-identical* to the scalar pruned walk's.

    Parameters
    ----------
    initial:
        The state of the empty prefix.
    extend:
        ``(block_index, platform, state) -> new_state | PRUNED_SUBTREE``.
    for_depth:
        Optional ``depth -> extend``-shaped factory for depth-aware
        bounds; when None the generic ``extend`` serves every depth.
    initial_batch:
        Optional ``n -> state_columns`` for the batch form.
    extend_batch:
        Optional ``(block_index, state_columns, cost_columns) ->
        (new_state_columns, keep_mask)``, in product order.
    emit_mask:
        Optional ``(depth, state_columns) -> mask | None`` mapping the
        compacted cohort to the depth-aware survivor set.
    """

    initial: Any
    extend: Callable[[int, str, Any], Any]
    for_depth: Callable[[int], Callable[[int, str, Any], Any]] | None = None
    initial_batch: Callable[[int], tuple] | None = None
    extend_batch: Callable[[int, tuple, tuple], tuple[tuple, Any]] | None = None
    emit_mask: Callable[[int, tuple], Any] | None = None


def _normalize_hooks(
    prune: PruneHook | Sequence[PruneHook] | None,
) -> tuple[PruneHook, ...]:
    if prune is None:
        return ()
    if callable(prune):
        return (prune,)
    return tuple(prune)


def enumeration_plan(
    pipeline: InCameraPipeline, max_blocks: int | None = None
) -> list[list[str]]:
    """The per-depth platform options shared by iteration and counting.

    Returns one sorted option list per enumerable cut depth: entry
    ``d-1`` holds the platform choices of block ``d``. The plan is
    truncated at the first block with no implementations (a block that
    cannot run in camera ends the enumerable depths) and capped at
    ``max_blocks``. Argument validation happens here, eagerly.
    """
    limit = len(pipeline.blocks) if max_blocks is None else max_blocks
    if not 0 <= limit <= len(pipeline.blocks):
        raise PipelineError(f"max_blocks must be in [0, {len(pipeline.blocks)}]")
    option_lists: list[list[str]] = []
    for block in pipeline.blocks[:limit]:
        options = sorted(block.implementations)
        if not options:
            break
        option_lists.append(options)
    return option_lists


def iter_configs(
    pipeline: InCameraPipeline,
    max_blocks: int | None = None,
    include_empty: bool = True,
    prune: PruneHook | Sequence[PruneHook] | None = None,
    prune_depth: DepthPruneHook | None = None,
    prune_prefix: PrefixPruner | None = None,
) -> Iterator[PipelineConfig]:
    """Lazily yield every (cut point, platform) configuration.

    Parameters
    ----------
    pipeline:
        The pipeline to enumerate.
    max_blocks:
        Cap on the number of in-camera blocks (default: all).
    include_empty:
        Include the raw-offload configuration (``S~``).
    prune:
        One hook or a sequence of hooks; a configuration is skipped when
        any hook returns True for it.
    prune_depth:
        Depth-level hook; when it returns True for a cut depth, no
        configuration at that depth is constructed at all (cheaper than
        per-config pruning for communication-bound cutoffs).
    prune_prefix:
        Subtree-level bound *within* surviving depths (see
        :class:`PrefixPruner`); when its ``extend`` cuts a prefix, no
        completion of that prefix is constructed. Survivors keep the
        exact product order, so a prefix-pruned enumeration is still a
        subsequence of the unpruned one.

    Argument validation happens eagerly, before the first ``next()``.
    """
    option_lists = enumeration_plan(pipeline, max_blocks)
    hooks = _normalize_hooks(prune)
    return _generate(
        pipeline, option_lists, include_empty, hooks, prune_depth, prune_prefix
    )


def _prefix_pruned_choices(
    option_lists: list[list[str]], depth: int, pruner: PrefixPruner
) -> Iterator[tuple[str, ...]]:
    """Depth-``depth`` platform assignments surviving the prefix bound,
    in exact :func:`itertools.product` order (DFS over sorted options is
    the product order; cut subtrees just drop their contiguous run)."""
    extend = pruner.for_depth(depth) if pruner.for_depth is not None else pruner.extend
    last = depth - 1

    def walk(level: int, prefix: tuple[str, ...], state: Any) -> Iterator[tuple[str, ...]]:
        for platform in option_lists[level]:
            extended = extend(level, platform, state)
            if extended is PRUNED_SUBTREE:
                continue
            choice = prefix + (platform,)
            if level == last:
                yield choice
            else:
                yield from walk(level + 1, choice, extended)

    return walk(0, (), pruner.initial)


def _generate(
    pipeline: InCameraPipeline,
    option_lists: list[list[str]],
    include_empty: bool,
    hooks: tuple[PruneHook, ...],
    prune_depth: DepthPruneHook | None,
    prune_prefix: PrefixPruner | None = None,
) -> Iterator[PipelineConfig]:
    def keep(config: PipelineConfig) -> bool:
        return not any(hook(config) for hook in hooks)

    # Choices come straight from block.implementations keys, so the
    # trusted (validation-free) constructor is safe on this hot path.
    trusted = PipelineConfig.trusted
    if include_empty and not (prune_depth is not None and prune_depth(0)):
        # The raw-offload configuration has no platform choices, so the
        # prefix bound never applies to it.
        config = trusted(pipeline, ())
        if keep(config):
            yield config
    for depth in range(1, len(option_lists) + 1):
        if prune_depth is not None and prune_depth(depth):
            continue
        if prune_prefix is not None:
            for choice in _prefix_pruned_choices(option_lists, depth, prune_prefix):
                config = trusted(pipeline, choice)
                if keep(config):
                    yield config
        elif hooks:
            for choice in product(*option_lists[:depth]):
                config = trusted(pipeline, choice)
                if keep(config):
                    yield config
        else:
            # Unhooked hot path: no per-config predicate machinery and
            # trusted() inlined (the classmethod dispatch alone is
            # measurable across millions of configurations).
            new = object.__new__
            set_field = object.__setattr__
            for choice in product(*option_lists[:depth]):
                config = new(PipelineConfig)
                set_field(config, "pipeline", pipeline)
                set_field(config, "platforms", choice)
                yield config


def count_configs(
    pipeline: InCameraPipeline,
    max_blocks: int | None = None,
    include_empty: bool = True,
    prune_depth: DepthPruneHook | None = None,
) -> int:
    """Size of the design space, without constructing configurations.

    Matches ``len(list(iter_configs(...)))`` for the same arguments as
    long as no *per-config* ``prune`` hook or *prefix* pruner filters
    further (depth-level pruning is exact here; counting those would
    require enumerating, so with them this is an upper bound).
    Useful for sizing work (the scheduling policies weigh a scenario by
    it) and for reporting how much a depth pruner saved: ``count_configs(p) - count_configs(p, prune_depth=h)``.
    """
    option_lists = enumeration_plan(pipeline, max_blocks)
    total = 0
    if include_empty and not (prune_depth is not None and prune_depth(0)):
        total += 1  # the raw-offload configuration
    per_depth = 1
    for depth, options in enumerate(option_lists, start=1):
        per_depth *= len(options)
        if prune_depth is not None and prune_depth(depth):
            continue
        total += per_depth
    return total
