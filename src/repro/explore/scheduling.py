"""Chunk scheduling policies for campaign interleaving.

The campaign driver (:mod:`repro.explore.campaign`) has exactly one
degree of freedom: *which scenario's chunk comes next* — a cohort slice
for stock members and dedup groups, a scalar chunk through the
executor for scalar members. This module owns that decision. A
:class:`SchedulingPolicy` sees every selection through
:meth:`~SchedulingPolicy.select`, asked once per step over every live
walk of the campaign's one lane.

Policies only reorder *between* scenarios; each scenario's own chunks
are always submitted in enumeration order, so per-scenario results are
byte-identical to solo ``explore()`` under every policy (the invariant
suite asserts it over seeded random fleets).

The builtin policies:

* :class:`RoundRobin` — one chunk per live scenario, cyclically;
* :class:`WeightedCompletionTime` — run-to-completion WSPT order
  minimizing the weighted mean completion time over ``iter_runs``
  (ascending design-space size at equal weights).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.explore.scenario import Scenario


class SchedulingPolicy:
    """Decides which scenario the interleaver draws its next chunk from.

    The one pluggable point of the campaign driver: before each chunk
    submission the interleaver calls :meth:`select` with the indices of
    the scenarios that still have chunks, and submits one chunk of the
    returned scenario. Policies only reorder *between* scenarios — each
    scenario's own chunks are always submitted in enumeration order, so
    per-scenario results stay byte-identical to solo ``explore()`` under
    every policy (tested).

    :meth:`start` is called once per campaign run with the full fleet,
    so one policy instance can be reused across runs (state resets) and
    can precompute per-scenario keys (sizes, weights).
    """

    #: Registry key and report label ("round_robin", ...).
    name = "policy"

    def start(self, scenarios: Sequence[Scenario]) -> None:
        """Reset state for a new run over ``scenarios``."""

    def select(self, live: Sequence[int]) -> int:
        """The scenario index to draw the next chunk from.

        ``live`` holds the indices (ascending) of scenarios whose
        enumeration is not yet exhausted; the return value must be one
        of them.
        """
        raise NotImplementedError


class RoundRobin(SchedulingPolicy):
    """One chunk per live scenario, cyclically: no scenario starves, and
    the fleet's first results arrive from every scenario early. The
    default, byte-compatible with the original fixed interleaver."""

    name = "round_robin"

    def __init__(self) -> None:
        self._last = -1

    def start(self, scenarios: Sequence[Scenario]) -> None:
        self._last = -1

    def select(self, live: Sequence[int]) -> int:
        for index in live:
            if index > self._last:
                self._last = index
                return index
        self._last = live[0]
        return live[0]


class WeightedCompletionTime(SchedulingPolicy):
    """Run scenarios to completion in descending weight-per-size order.

    The weighted-mean-completion-time objective over ``iter_runs``:
    minimize ``sum_i w_i * C_i`` where ``C_i`` is scenario *i*'s
    completion time in the stream. With one logical server and
    run-to-completion scheduling, weighted-shortest-processing-time
    (WSPT) is the classic exact rule — serve scenarios in descending
    ``weight / processing_time``, here estimated as ``weight /
    count_configs()``. High-weight and small scenarios stream out of
    :meth:`Campaign.iter_runs` first; ties keep fleet order. With equal
    weights this is exactly shortest-scenario-first order, zero-config
    scenarios included (the sort key is ``(size / weight, index)``).

    Parameters
    ----------
    weights:
        Mapping from scenario *name* to a positive completion-time
        weight; scenarios without an entry get ``default_weight``.
        Unknown names are rejected at :meth:`start` (they would
        silently never apply).
    default_weight:
        Weight of scenarios absent from ``weights``.
    """

    name = "weighted_completion"

    def __init__(
        self,
        weights: Mapping[str, float] | None = None,
        default_weight: float = 1.0,
    ):
        if default_weight <= 0:
            raise ConfigurationError(
                f"default_weight must be positive, got {default_weight}"
            )
        weights = dict(weights or {})
        for name, weight in weights.items():
            if not weight > 0:
                raise ConfigurationError(
                    f"weight for {name!r} must be positive, got {weight}"
                )
        self._by_name = weights
        self._default = default_weight
        self._order: tuple[int, ...] = ()

    def start(self, scenarios: Sequence[Scenario]) -> None:
        names = {scenario.name for scenario in scenarios}
        unknown = sorted(set(self._by_name) - names)
        if unknown:
            raise ConfigurationError(
                f"completion-time weights for unknown scenarios {unknown}; "
                f"campaign has {sorted(names)}"
            )
        keys = [
            scenario.count_configs() / self._by_name.get(scenario.name, self._default)
            for scenario in scenarios
        ]
        self._order = tuple(
            sorted(range(len(scenarios)), key=lambda index: (keys[index], index))
        )

    def select(self, live: Sequence[int]) -> int:
        alive = set(live)
        for index in self._order:
            if index in alive:
                return index
        return live[0]


#: Builtin policy factories by name (the string forms ``policy=`` takes).
SCHEDULING_POLICIES: dict[str, Callable[[], SchedulingPolicy]] = {
    RoundRobin.name: RoundRobin,
    WeightedCompletionTime.name: WeightedCompletionTime,
}


def resolve_policy(policy: Any) -> SchedulingPolicy:
    """Default to round-robin; accept a builtin name or a policy
    instance (duck-typed: anything with ``start``/``select``)."""
    if policy is None:
        return RoundRobin()
    if isinstance(policy, str):
        try:
            return SCHEDULING_POLICIES[policy]()
        except KeyError:
            raise ConfigurationError(
                f"unknown scheduling policy {policy!r}; builtin policies "
                f"are {sorted(SCHEDULING_POLICIES)} (or pass a "
                "SchedulingPolicy instance)"
            ) from None
    if isinstance(policy, SchedulingPolicy) or (
        callable(getattr(policy, "select", None))
        and callable(getattr(policy, "start", None))
    ):
        return policy
    raise ConfigurationError(
        "policy must be a SchedulingPolicy, one of "
        f"{sorted(SCHEDULING_POLICIES)}, or None, got {type(policy).__name__}"
    )
