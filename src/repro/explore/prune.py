"""Sound lower-bound depth pruning derived from a scenario's constraint.

A cut depth fixes everything platform choices cannot change: the
offload payload (hence the communication rate and the transmit energy)
and, in the energy domain, the expected transmit rate (pass rates live
on blocks, not implementations). Combining those exact per-depth terms
with the best case over platform choices gives *bounds*, not
heuristics: a depth is pruned only when **no** platform assignment at
that depth can satisfy the scenario's constraint. Pruned exploration
therefore loses only infeasible configurations — the feasible set, the
Pareto frontier restricted to feasible rows, and the per-row values of
every surviving configuration are identical to the unpruned run.

*Throughput*: depth ``d``'s communication rate is exactly
``link.fps_for_bytes(payload(d))``, and its best achievable compute
rate is ``min over blocks 1..d of (max impl fps)``. If either misses
``target_fps``, every configuration at depth ``d`` fails the paper's
two-axis criterion.

*Energy*: depth ``d``'s expected energy is at least sensor energy plus
each block's cheapest implementation scaled by the exact reach rate,
plus the exact transmit energy for depth ``d``'s payload. If that lower
bound exceeds ``energy_budget_j``, every configuration at the depth is
over budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cost import option_energy_columns
from repro.core.pipeline import InCameraPipeline
from repro.errors import PipelineError
from repro.explore.enumerate import (
    PRUNED_SUBTREE,
    DepthPruneHook,
    PrefixPruner,
    enumeration_plan,
)
from repro.hw.network import LinkModel

if TYPE_CHECKING:  # imported lazily to avoid an import cycle
    from repro.explore.scenario import Scenario


def throughput_depth_bounds(
    pipeline: InCameraPipeline,
    link: LinkModel,
    max_blocks: int | None = None,
) -> list[tuple[float, float]]:
    """Per-depth (best compute fps, exact communication fps).

    Entry ``d`` bounds cut depth ``d`` (0 = raw offload). The compute
    entry is an upper bound on any configuration's ``compute_fps`` at
    that depth; the communication entry is exact for every
    configuration at that depth.
    """
    option_lists = enumeration_plan(pipeline, max_blocks)
    bounds = [(float("inf"), link.fps_for_bytes(pipeline.sensor_bytes))]
    best_compute = float("inf")
    for depth, options in enumerate(option_lists, start=1):
        block = pipeline.blocks[depth - 1]
        fastest = max(block.implementations[name].fps for name in options)
        best_compute = min(best_compute, fastest)
        bounds.append((best_compute, link.fps_for_bytes(pipeline.output_bytes_after(depth))))
    return bounds


def energy_depth_lower_bounds(
    pipeline: InCameraPipeline,
    link: LinkModel,
    pass_rates: dict[str, float] | None = None,
    max_blocks: int | None = None,
) -> list[float]:
    """Per-depth lower bound on expected joules per captured frame.

    Entry ``d`` is sensor energy + the cheapest implementation of each
    of the first ``d`` blocks scaled by its exact reach rate + the
    exact transmit energy of depth ``d``'s payload. No configuration at
    depth ``d`` can cost less.
    """
    option_lists = enumeration_plan(pipeline, max_blocks)
    sensor = pipeline.sensor_energy_per_frame
    bounds = [sensor + link.tx_energy_for_bytes(pipeline.sensor_bytes)]
    rate = 1.0
    compute_floor = 0.0
    for depth, options in enumerate(option_lists, start=1):
        block = pipeline.blocks[depth - 1]
        cheapest = min(block.implementations[name].energy_per_frame for name in options)
        compute_floor += rate * cheapest
        block_rate = (
            pass_rates.get(block.name, block.pass_rate)
            if pass_rates is not None
            else block.pass_rate
        )
        # Same validation as the evaluation path: an invalid override
        # must raise here too, never silently corrupt a "sound" bound.
        if not 0.0 <= block_rate <= 1.0:
            raise PipelineError(
                f"pass rate for {block.name!r} must be in [0,1], got {block_rate}"
            )
        rate *= block_rate
        transmit = rate * link.tx_energy_for_bytes(pipeline.output_bytes_after(depth))
        bounds.append(sensor + compute_floor + transmit)
    return bounds


def compute_fps_prefix_pruner(scenario: "Scenario") -> PrefixPruner | None:
    """Per-config lower-bound pruning *within* surviving depths.

    The depth pruner cuts depths where no platform assignment can clear
    the constraint; this pruner cuts individual subtrees where the
    *chosen* platforms already cannot. A configuration's ``compute_fps``
    is the min over its chosen implementations' rates, and extending a
    prefix can only lower that min — so once a prefix's running min
    drops below ``target_fps``, every completion at every deeper cut
    depth is compute-infeasible and the subtree is skipped before any
    configuration is constructed.

    Exact, not heuristic: the running min over chosen platforms *is*
    each completion's compute-rate upper bound, so only provably
    infeasible configurations are dropped — the feasible set is
    identical to the unpruned run (tested against
    :func:`repro.explore.explore_brute_force`). Throughput domain with a
    ``target_fps`` only; None otherwise.
    """
    if scenario.domain != "throughput" or scenario.target_fps is None:
        return None
    target = scenario.target_fps
    fps_tables = [
        {name: impl.fps for name, impl in block.implementations.items()}
        for block in scenario.pipeline.blocks
    ]

    def extend(block_index: int, platform: str, state: float):
        fps = fps_tables[block_index][platform]
        floor = state if state < fps else fps
        return PRUNED_SUBTREE if floor < target else floor

    # Batch form: the bound is the cost fold's own running-min fps
    # column (the scalar `<` branch over the same positive rates, from
    # the same `inf`), so the pruner keeps no state and reads the
    # extended cost state. The bound is depth-monotone — a row the mask
    # keeps is feasible-so-far at every remaining depth — so the
    # compacted cohort is already the exact survivor set and no
    # emit_mask is needed.
    def initial_batch(n: int) -> tuple:
        return ()

    def extend_batch(block_index: int, state: tuple, costs: tuple):
        return (), ~(costs[0] < target)

    return PrefixPruner(
        initial=float("inf"),
        extend=extend,
        initial_batch=initial_batch,
        extend_batch=extend_batch,
    )


#: Relative slack on the energy prefix bound: the bound accumulates the
#: prefix energy in a different float association order than
#: ``EnergyCost.total_energy`` (incremental fold vs ``sensor + sum(...) +
#: transmit``), so an analytically equal bound can round one ulp either
#: way. Comparing against ``budget * (1 + slack)`` keeps the pruner
#: sound through reassociation — far below any real feasibility margin.
_ENERGY_BOUND_SLACK = 1e-12


def energy_prefix_pruner(scenario: "Scenario") -> PrefixPruner | None:
    """Per-config lower-bound pruning *within* surviving depths, energy
    domain — the mirror of :func:`compute_fps_prefix_pruner`.

    The prefix's expected energy is exact (sensor + each chosen
    implementation scaled by its exact reach rate), and the cheapest
    possible completion from depth ``k`` is a precomputable tail bound::

        T[D] = tx(D)
        T[k] = min(tx(k), cheapest[k+1] + pass_rate[k+1] * T[k+1])

    — either transmit right here (the depth-``k`` completion, exact for
    this prefix), or run the next block's cheapest implementation and
    continue optimally. ``prefix_energy + reach_rate * T[k]`` therefore
    lower-bounds *every* completion of the prefix at every deeper cut
    depth, so a prefix is cut only when no completion can stay within
    ``energy_budget_j``.

    That min, however, gives away exactness the enumerator does not
    require: the enumeration walks each cut depth *separately*, so
    during the depth-``d`` walk every completion of a prefix transmits
    at depth ``d`` precisely — and the pruner supplies a **dual bound**
    through :attr:`~repro.explore.enumerate.PrefixPruner.for_depth`
    that combines the cheapest-completion chain with the *per-depth
    pruner's exact transmit term* for that depth::

        T_d[d] = tx(d)                       (exact, as in the depth pruner)
        T_d[k] = cheapest[k+1] + pass_rate[k+1] * T_d[k+1]

    ``T_d[k] >= T[k]`` always (the min includes ``T_d``), so the dual
    bound cuts a superset of the single bound's prefixes while staying
    sound for the depth being walked. The gap matters on
    *late-collapsing payload chains* — pipelines whose ``output_bytes``
    stay large until a late block collapses them: there the min-tail
    assumes the cheap deep completion, which simply does not exist in a
    shallow depth's walk, and the single bound can cut nothing even
    though every depth-``d`` completion provably busts the budget
    through its still-huge transmit term. The generic ``extend`` keeps
    the depth-agnostic min (sound for any caller that walks depths
    jointly). Either way the feasible set is identical to the unpruned
    run (tested against :func:`repro.explore.explore_brute_force`,
    including randomized late-collapsing pipelines). Energy domain with
    a budget only; None otherwise.
    """
    if scenario.domain != "energy" or scenario.energy_budget_j is None:
        return None
    pipeline = scenario.pipeline
    link = scenario.link
    pass_rates = scenario.pass_rates
    option_lists = enumeration_plan(pipeline, scenario.max_blocks)
    n_depths = len(option_lists)
    rates: list[float] = []
    cheapest: list[float] = []
    energy_tables: list[dict[str, float]] = []
    for depth, options in enumerate(option_lists, start=1):
        block = pipeline.blocks[depth - 1]
        block_rate = (
            pass_rates.get(block.name, block.pass_rate)
            if pass_rates is not None
            else block.pass_rate
        )
        # Same validation as the evaluation path: an invalid override
        # must raise here too, never silently corrupt a sound bound.
        if not 0.0 <= block_rate <= 1.0:
            raise PipelineError(
                f"pass rate for {block.name!r} must be in [0,1], got {block_rate}"
            )
        rates.append(block_rate)
        table = {
            name: block.implementations[name].energy_per_frame for name in options
        }
        energy_tables.append(table)
        cheapest.append(min(table.values()))
    # Exact per-depth transmit terms (what the depth pruner bounds with).
    tx = [
        link.tx_energy_for_bytes(pipeline.output_bytes_after(k))
        for k in range(n_depths + 1)
    ]
    # Depth-agnostic tail bounds per prefix length: cheapest completion
    # cost relative to the prefix's reach rate, minimized over all
    # deeper cut depths (serves the generic extend).
    tails = [0.0] * (n_depths + 1)
    tails[n_depths] = tx[n_depths]
    for k in range(n_depths - 1, -1, -1):
        tails[k] = min(tx[k], cheapest[k] + rates[k] * tails[k + 1])
    # Dual bounds: one tail table per target cut depth d, closing with
    # that depth's exact transmit term instead of the min — T_d[k]
    # lower-bounds the completion of a length-k prefix at exactly depth
    # d, so the depth-d walk can cut strictly more than the min-tail.
    tails_for_depth: list[list[float]] = []
    for d in range(n_depths + 1):
        tail = [0.0] * (d + 1)
        tail[d] = tx[d]
        for k in range(d - 1, -1, -1):
            tail[k] = cheapest[k] + rates[k] * tail[k + 1]
        tails_for_depth.append(tail)
    budget = scenario.energy_budget_j * (1.0 + _ENERGY_BOUND_SLACK)
    sensor = pipeline.sensor_energy_per_frame

    def extend(block_index: int, platform: str, state: tuple[float, float]):
        rate, energy = state
        energy += rate * energy_tables[block_index][platform]
        rate *= rates[block_index]
        if energy + rate * tails[block_index + 1] > budget:
            return PRUNED_SUBTREE
        return (rate, energy)

    def for_depth(depth: int):
        tail = tails_for_depth[depth]

        def extend_at_depth(block_index: int, platform: str, state: tuple[float, float]):
            rate, energy = state
            energy += rate * energy_tables[block_index][platform]
            rate *= rates[block_index]
            if energy + rate * tail[block_index + 1] > budget:
                return PRUNED_SUBTREE
            return (rate, energy)

        return extend_at_depth

    # Batch form of the dual bound, extended in product order. The
    # reach rate belongs to the depth, not the row, so the state keeps
    # it as one float shared by every row. The dual tails are *not*
    # depth-monotone (a prefix cut in the depth-``d`` walk can
    # survive the depth-``d+1`` walk on late-collapsing payload
    # chains), so the batch state carries one accumulated violation
    # column per target cut depth not yet passed, the last one for
    # depth ``n_depths`` (depth ``d``'s sits at ``state[d - n_depths
    # - 1]``): ``viol_d[i]`` is True iff the scalar depth-``d`` DFS
    # would have cut row ``i``'s prefix at some level walked so far
    # (the |= accumulation mirrors the scalar walk's earliest-cut
    # short-circuit). A row is compacted away only when violated for
    # *every* remaining depth — the exact generic-extend soundness
    # contract — and the emit mask for depth ``d`` is simply
    # ``~viol_d``, reproducing the depth-aware survivor set
    # byte-for-byte.
    energy_columns = [
        option_energy_columns(
            [pipeline.blocks[depth - 1].implementations[name] for name in options]
        )[0]
        for depth, options in enumerate(option_lists, start=1)
    ]

    def initial_batch(n: int) -> tuple:
        return (
            1.0,
            np.full(n, sensor),
            *(np.zeros(n, dtype=bool) for _ in range(n_depths)),
        )

    def extend_batch(block_index: int, state: tuple, costs: tuple):
        # The bound folds from the sensor energy, in another float order
        # than the cost state's compute column, so it ignores ``costs``.
        rate, energy = state[0], state[1]
        steps = (rate * energy_columns[block_index]).tolist()
        shape = (len(energy), len(steps))
        out = np.empty(shape)
        for j, step in enumerate(steps):
            np.add(energy, step, out=out[:, j])
        energy = out.ravel()
        rate = rate * rates[block_index]
        prefix_len = block_index + 1
        keep = np.zeros(len(energy), dtype=bool)
        viols = []
        for d in range(prefix_len, n_depths + 1):
            # tails_for_depth[d][prefix_len] is the scalar walk's
            # tail[block_index + 1]; same floats, same order. A parent's
            # earlier violations hold for each of its children.
            cut = energy + rate * tails_for_depth[d][prefix_len] > budget
            parent = state[d - n_depths - 1]
            viol = (parent[:, None] | cut.reshape(shape)).ravel()
            viols.append(viol)
            keep |= ~viol
        return (rate, energy, *viols), keep

    def emit_mask(depth: int, state: tuple):
        return ~state[depth - n_depths - 1]

    return PrefixPruner(
        initial=(1.0, sensor),
        extend=extend,
        for_depth=for_depth,
        initial_batch=initial_batch,
        extend_batch=extend_batch,
        emit_mask=emit_mask,
    )


def shared_capacity_suffix_bounds(
    demands: "list[list[float]] | tuple",
) -> list[float]:
    """Suffix sums of per-member best-case link demand.

    ``demands[i]`` lists member ``i``'s possible transmit rates (bps),
    one per candidate split. Entry ``k`` of the result is the *minimum
    aggregate demand any completion of a length-k joint prefix can add*:
    the sum over members ``k..n-1`` of each member's cheapest candidate.
    This is a true lower bound — every member must pick some candidate,
    and no candidate demands less than the member's min — so pruning a
    joint prefix whose committed demand plus this bound exceeds capacity
    can never drop a feasible joint assignment.
    """
    n = len(demands)
    suffix = [0.0] * (n + 1)
    for index in range(n - 1, -1, -1):
        if not len(demands[index]):
            raise ValueError(
                f"member {index} has no candidate splits; an empty candidate "
                "list makes every joint assignment infeasible — handle it "
                "before building capacity bounds"
            )
        suffix[index] = min(demands[index]) + suffix[index + 1]
    return suffix


def shared_capacity_prefix_pruner(
    demands: "list[list[float]] | tuple",
    capacity_bps: float,
) -> PrefixPruner:
    """Sound lower-bound pruning over *joint* member prefixes.

    The joint-fleet search (:mod:`repro.explore.joint`) walks members in
    fleet order assigning each a candidate split; this pruner reuses the
    :class:`~repro.explore.enumerate.PrefixPruner` shape with level =
    member index and choice = candidate index. The carried state is the
    aggregate demand committed so far; a subtree is cut exactly when::

        committed + demand[member][candidate] + suffix_min[member + 1]
            > capacity_bps

    i.e. when even the best-case completion (every remaining member at
    its cheapest candidate) overflows the shared uplink. Only provably
    infeasible joint assignments are dropped, so the pruned search finds
    the same optimum (and the same first-attaining assignment) as the
    brute-force product walk — the invariant suite checks this against
    an :func:`itertools.product` oracle.
    """
    suffix = shared_capacity_suffix_bounds(demands)

    def extend(member_index: int, candidate_index: int, state: float):
        total = state + demands[member_index][candidate_index]
        if total + suffix[member_index + 1] > capacity_bps:
            return PRUNED_SUBTREE
        return total

    return PrefixPruner(initial=0.0, extend=extend)


def lower_bound_depth_hook(scenario: "Scenario") -> DepthPruneHook | None:
    """The scenario's sound depth pruner, or None when unconstrained.

    Returns a :data:`~repro.explore.enumerate.DepthPruneHook` that
    prunes exactly the depths where the scenario's constraint is
    *provably* unsatisfiable; with no ``target_fps`` / no
    ``energy_budget_j`` there is nothing sound to prune, so None.
    """
    link = scenario.link
    if scenario.domain == "throughput":
        target = scenario.target_fps
        if target is None:
            return None
        bounds = throughput_depth_bounds(scenario.pipeline, link, scenario.max_blocks)
        pruned = [compute < target or comm < target for compute, comm in bounds]
    else:
        budget = scenario.energy_budget_j
        if budget is None:
            return None
        lower = energy_depth_lower_bounds(
            scenario.pipeline,
            link,
            scenario.pass_rates,
            scenario.max_blocks,
        )
        pruned = [bound > budget for bound in lower]

    def hook(depth: int) -> bool:
        return depth < len(pruned) and pruned[depth]

    return hook
