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

The evaluator runs the paper's two stock cost models and nothing else
(:func:`_check_stock_model`). It is the scalar reference fold: the
engine takes it only for ``evaluation="scalar"`` and explicit
configuration lists, one evaluator per stream; every scenario run
otherwise folds the columnar cohort walk
(:mod:`repro.explore.vectorized`).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cost import (
    ConfigCost,
    EnergyCost,
    EnergyCostModel,
    ThroughputCostModel,
)
from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError


#: The engine's cost semantics: the paper's two stock models, exactly.
_STOCK_MODELS = (ThroughputCostModel, EnergyCostModel)


def _check_stock_model(model: Any, allowed: tuple[type, ...] = _STOCK_MODELS) -> None:
    """Raise unless ``model``'s type is exactly one of ``allowed`` (by
    default the two stock cost models).

    The engine evaluates the paper's two cost domains only, so every
    path assumes the stock steps and state shapes: the columnar walk
    replicates and gathers its state arrays, the auto-derived prune
    bounds read the raw ``Implementation``/link tables. A subclass could
    change any of that unseen, so it is refused rather than silently
    run with the stock semantics. The check for every caller that hands
    the engine a model object: :class:`PrefixEvaluator`,
    :class:`~repro.explore.vectorized.BatchPrefixEvaluator` and
    :class:`~repro.core.offload.OffloadAnalyzer`.
    """
    if type(model) not in allowed:
        names = " or ".join(cls.__name__ for cls in allowed)
        raise ConfigurationError(
            f"model must be a {names} (the engine evaluates the stock "
            f"cost models only), got {type(model).__name__}"
        )


def depth_link_cost(link: Any, energy: bool, offload_bytes: float) -> Any:
    """The link term ``finalize`` takes for a cut whose payload is
    ``offload_bytes`` (the pipeline's ``output_bytes_after(depth)``):
    (transmit joules, transmit seconds) in the energy domain, the
    communication frame rate in the throughput domain.

    The payload depends only on the cut depth, not the platform
    choices, so callers compute it once per depth and cache it. Shared
    by :class:`PrefixEvaluator` and every member of the columnar walk:
    one definition, so a dedup group member's link term stays
    expression-identical to solo evaluation.
    """
    if energy:
        return (
            link.tx_energy_for_bytes(offload_bytes),
            link.seconds_for_bytes(offload_bytes),
        )
    return link.fps_for_bytes(offload_bytes)


class PrefixEvaluator:
    """Evaluate configurations of one pipeline with prefix reuse.

    Parameters
    ----------
    model:
        A :class:`~repro.core.cost.ThroughputCostModel` or
        :class:`~repro.core.cost.EnergyCostModel` (exactly; see
        :func:`_check_stock_model`).
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
        _check_stock_model(model)
        if pass_rates is not None and not isinstance(model, EnergyCostModel):
            raise ConfigurationError(
                "pass_rates only apply to EnergyCostModel evaluation"
            )
        self.model = model
        self.pass_rates = pass_rates
        self._energy = isinstance(model, EnergyCostModel)
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

    def evaluate(self, config: PipelineConfig) -> ConfigCost | EnergyCost:
        """The configuration's cost, reusing the memoized prefix path."""
        return self.evaluate_many((config,))[0]

    def evaluate_many(
        self, configs: Iterable[PipelineConfig]
    ) -> list[ConfigCost | EnergyCost]:
        """Evaluate a configuration sequence (one scalar chunk).

        Semantically ``[self.evaluate(c) for c in configs]``: one
        memoized walk through the model's ``extend_state``/``finalize``
        steps, pinned by the property tests to from-scratch
        ``model.evaluate`` results.
        """
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
                    link_cost = self._link_costs[n] = depth_link_cost(
                        model.link, energy, config.offload_bytes
                    )
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

