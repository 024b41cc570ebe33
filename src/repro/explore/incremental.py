"""Prefix-memoized configuration evaluation.

The design space is a trie over platform choices: every depth-``d``
configuration is a depth-``d-1`` prefix plus one block, and both cost
models are prefix-decomposable (see :mod:`repro.core.cost`). Evaluating
each configuration from block 0 therefore repeats work exponentially —
the same sum-of-products structure exploited by the
storage/computation/communication tradeoff literature lets us pay for
each trie *node* once instead of once per descendant leaf.

:class:`PrefixEvaluator` walks an arbitrary configuration sequence
keeping the cost states along the most recent configuration's platform
path. For the engine's enumeration order (and any contiguous chunk of
it) consecutive configurations share all but a suffix of their path, so
the amortized work per configuration is O(1) block extensions instead
of O(depth): across a full enumeration with branching factor *b* the
total number of extensions is ``b/(b-1)`` per configuration. Because
:meth:`~repro.core.cost.ThroughputCostModel.extend_state` replays
exactly the float operations of ``evaluate()`` in the same order,
memoized results are bit-identical to from-scratch ones — the engine's
correctness gate (tests) compares them byte-for-byte.

The evaluator is deliberately sequence-agnostic: it never assumes
enumeration order, it just benefits from it. Out-of-order sequences
(e.g. a user-sorted config list) stay correct and degrade gracefully
toward from-scratch cost.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.cost import (
    ConfigCost,
    EnergyCost,
    EnergyCostModel,
    ThroughputCostModel,
)
from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError


def supports_prefix_evaluation(model: Any) -> bool:
    """Whether a model is safe to evaluate through the prefix walk.

    A subclass that overrides ``evaluate()`` (e.g. to post-process
    costs) would be silently bypassed by the incremental path, so only
    models whose ``evaluate`` is the stock prefix fold qualify;
    everything else falls back to per-config ``evaluate()`` calls.
    Subclasses that customize ``extend_state``/``finalize`` while
    keeping the stock ``evaluate`` remain eligible — the walk uses
    their overridden steps.
    """
    if isinstance(model, ThroughputCostModel):
        return type(model).evaluate is ThroughputCostModel.evaluate
    if isinstance(model, EnergyCostModel):
        return type(model).evaluate is EnergyCostModel.evaluate
    return False


#: Every cost-defining step of the stock models: ``evaluate``, the
#: scalar fold steps and their columnar batch twins.
_COST_STEPS = (
    "evaluate",
    "initial_state",
    "extend_state",
    "finalize",
    "initial_state_batch",
    "extend_state_batch",
    "finalize_batch",
    "finalize_batch_multi",
)


def uses_stock_cost_semantics(model: Any) -> bool:
    """Whether *every* cost-defining step of the model (see
    :data:`_COST_STEPS`) is the stock implementation.

    The one gate for everything that assumes the stock cost semantics
    and state shapes: the columnar paths (the cohort walk, batch chunk
    folds and the dedup group walk replicate and gather struct-of-arrays
    states, which is also what lets a campaign member fold in process),
    the bounds ``Scenario.auto_prune`` /
    ``auto_prune_configs`` derive from the raw ``Implementation``/link
    tables, and the engine's cyclic-GC pause (stock steps allocate only
    acyclic engine objects).
    Stricter than :func:`supports_prefix_evaluation`: a subclass that
    customizes any step while keeping the stock ``evaluate`` still
    takes the generic scalar prefix walk through its own steps, but
    nothing that assumes the stock tables or shapes.
    """
    for base in (ThroughputCostModel, EnergyCostModel):
        if isinstance(model, base):
            cls = type(model)
            return all(
                getattr(cls, name) is getattr(base, name) for name in _COST_STEPS
            )
    return False


def depth_link_cost(
    link: Any, energy: bool, cache: dict[int, Any], depth: int, config: PipelineConfig
) -> Any:
    """The per-depth link term, computed once per cut depth and cached.

    The payload crossing the uplink depends only on the cut depth, not
    the platform choices — so the walk caches ``depth -> finalize arg``
    ((transmit joules, transmit seconds) in the energy domain, the
    communication frame rate in the throughput domain). Shared by
    :class:`PrefixEvaluator` and the columnar walks, the campaign dedup
    group walk included: one definition, so the dedup finalize-replay
    stays expression-identical to solo evaluation.
    """
    cached = cache.get(depth)
    if cached is None:
        offload_bytes = config.offload_bytes
        if energy:
            cached = (
                link.tx_energy_for_bytes(offload_bytes),
                link.seconds_for_bytes(offload_bytes),
            )
        else:
            cached = link.fps_for_bytes(offload_bytes)
        cache[depth] = cached
    return cached


class PrefixEvaluator:
    """Evaluate configurations of one pipeline with prefix reuse.

    Parameters
    ----------
    model:
        A :class:`~repro.core.cost.ThroughputCostModel` or
        :class:`~repro.core.cost.EnergyCostModel` (or an eligible
        subclass, see :func:`supports_prefix_evaluation`).
    pass_rates:
        Energy domain only: per-block pass-rate overrides, forwarded to
        every ``extend_state`` step.

    One evaluator serves one pipeline at a time: the memoized path and
    the per-depth link-cost cache are invalidated automatically when a
    configuration of a different pipeline arrives.
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
        self.model = model
        self.pass_rates = pass_rates
        self._energy = isinstance(model, EnergyCostModel)
        self._memoized = supports_prefix_evaluation(model)
        self._pipeline = None
        self._platforms: tuple[str, ...] = ()
        self._states: list[Any] = []  # state after in-camera block i
        self._link_costs: dict[int, Any] = {}  # cut depth -> finalize arg

    def _reset(self, pipeline) -> None:
        self._pipeline = pipeline
        self._platforms = ()
        self._states = []
        self._link_costs = {}

    def _invalidate_path(self) -> None:
        """Drop the memoized path after a mid-walk exception: the state
        stack no longer corresponds to ``_platforms``, and a later
        evaluation on this evaluator must not extend from it. The
        per-depth link cache stays — it is value-correct regardless of
        the path. Cleared in place: the walk holds a local alias of the
        stack."""
        self._platforms = ()
        del self._states[:]

    def _link_cost(self, depth: int, config: PipelineConfig) -> Any:
        """Per-depth link term (see :func:`depth_link_cost`)."""
        return depth_link_cost(
            self.model.link, self._energy, self._link_costs, depth, config
        )

    def evaluate(self, config: PipelineConfig) -> ConfigCost | EnergyCost:
        """The configuration's cost, reusing the memoized prefix path."""
        if not self._memoized:
            if self._energy:
                return self.model.evaluate(config, self.pass_rates)
            return self.model.evaluate(config)
        return self.evaluate_many((config,))[0]

    def evaluate_many(
        self, configs: Iterable[PipelineConfig]
    ) -> list[ConfigCost | EnergyCost]:
        """Evaluate a configuration sequence (one executor chunk).

        Semantically ``[self.evaluate(c) for c in configs]``: one
        memoized walk through the model's ``extend_state``/``finalize``
        steps (stock or overridden), pinned by the property tests to
        from-scratch ``model.evaluate`` results.
        """
        if not self._memoized:
            evaluate = self.evaluate
            return [evaluate(config) for config in configs]
        model = self.model
        energy = self._energy
        pass_rates = self.pass_rates
        extend = model.extend_state
        finalize = model.finalize
        out: list[ConfigCost | EnergyCost] = []
        append_out = out.append
        try:
            for config in configs:
                if config.pipeline is not self._pipeline:
                    self._reset(config.pipeline)
                platforms = config.platforms
                prev = self._platforms
                states = self._states
                n = len(platforms)
                if n and len(prev) >= n - 1 and prev[: n - 1] == platforms[: n - 1]:
                    common = (
                        n
                        if len(prev) >= n and prev[n - 1] == platforms[n - 1]
                        else n - 1
                    )
                else:
                    common = 0
                    for mine, theirs in zip(prev, platforms):
                        if mine != theirs:
                            break
                        common += 1
                if len(states) > common:
                    del states[common:]
                state = states[common - 1] if common else model.initial_state()
                if common < n:
                    blocks = config.pipeline.blocks
                    append = states.append
                    if energy:
                        for i in range(common, n):
                            block = blocks[i]
                            state = extend(
                                state,
                                block,
                                block.implementations[platforms[i]],
                                pass_rates,
                            )
                            append(state)
                    else:
                        for i in range(common, n):
                            block = blocks[i]
                            state = extend(
                                state, block, block.implementations[platforms[i]]
                            )
                            append(state)
                self._platforms = platforms
                link_cost = self._link_costs.get(n)
                if link_cost is None:
                    link_cost = self._link_cost(n, config)
                append_out(finalize(state, config, link_cost))
        except KeyError:
            # An invalid trusted() platform choice: re-raise as the
            # standard PipelineError the validated path would produce.
            self._invalidate_path()
            config.in_camera_blocks()
            raise
        except BaseException:
            self._invalidate_path()
            raise
        return out


def evaluate_chunk(
    model: ThroughputCostModel | EnergyCostModel,
    pass_rates: dict[str, float] | None,
    configs: Sequence[PipelineConfig],
    allow_batch: bool = True,
) -> list[ConfigCost | EnergyCost]:
    """Evaluate one contiguous chunk of configurations.

    Module-level (picklable) so the process-pool backend can ship
    chunks to workers; each chunk gets its own evaluator, so memoization
    never crosses chunk boundaries and results are independent of how
    the stream was chunked. The one scalar chunk function: ``explore()``
    on a pool, the ``core.offload`` explicit-config facade and the
    campaign's pool lane all evaluate through it, which is why
    interleaving a fleet (under any scheduling policy) cannot change any
    scenario's values.

    Stock models (:func:`uses_stock_cost_semantics`) fold the chunk
    columnar (bit-identical values, see :mod:`repro.explore.vectorized`)
    unless ``allow_batch`` is False; everything else takes the scalar
    :class:`PrefixEvaluator` — memoized, or one ``evaluate()`` call per
    configuration for models that override it.
    """
    from repro.explore.vectorized import BatchPrefixEvaluator

    if allow_batch and uses_stock_cost_semantics(model):
        return BatchPrefixEvaluator(model, pass_rates).evaluate_many(configs)
    return PrefixEvaluator(model, pass_rates).evaluate_many(configs)
