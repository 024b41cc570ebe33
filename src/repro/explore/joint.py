"""Joint-fleet exploration: N cameras contending for one shared uplink.

The source paper treats each camera as sole owner of its link; the
related work (Eriksson et al., "Distributed Algorithms for Feature
Extraction Off-loading in Multi-Camera Visual Sensor Networks";
Ballotta et al., "Computation-Communication Trade-offs and Sensor
Selection in Real-time Estimation for Processing Networks") studies the
harder regime this module adds: *N* member scenarios choose their
offload splits **jointly**, and feasibility couples them through
aggregate link demand — the sum of per-member transmit rates at the
chosen splits must fit one shared uplink of fixed capacity.

The coupling model
------------------

Each member is an ordinary throughput-domain :class:`Scenario` with a
``target_fps`` (built *at the shared link*, so its solo rows already
price communication over that uplink). A member that cuts its pipeline
at depth ``d`` must ship ``offload_bytes(d)`` per frame at its target
rate, so its committed share of the uplink is exactly::

    demand_bps = bytes_to_bits(offload_bytes) * target_fps

Demand depends on the *cut depth only* (platform choices never change
the payload), which is what makes the joint search tractable: among a
member's solo-feasible rows, one representative per depth — the first
row attaining that depth's maximum ``total_fps``, the same
first-enumerated tie rule as :func:`repro.explore.result.best_row` —
is an **exact** compression for the fleet objective below: swapping
any feasible row for its depth representative preserves every demand
and can only raise the member's rate.

The objective is fleet-level: maximize the *minimum member FPS* over
joint assignments whose aggregate demand fits the capacity (the
max-min fairness point); the weighted-mean-completion-time objective
over ``iter_runs`` lands alongside as
:meth:`~repro.explore.campaign.CampaignResult.weighted_completion_seconds`,
and the fleet's weights order the phase-1 campaign's walks.

Machinery reuse, not re-enumeration
-----------------------------------

Phase 1 evaluates every member's solo design space through one
:class:`~repro.explore.campaign.Campaign` — each walk run to completion
in WSPT order under the fleet's weights, and (with ``dedup=True``) the
cross-member evaluation dedup: members sharing a pipeline ride one lazy
columnar group walk and are costed once. Member rows are therefore
byte-identical to solo ``explore()`` runs by the campaign's standing
contract. Phase 2 is an exact
threshold max-min over the per-member candidates
(:func:`search_joint_assignment`): a binary search over the candidate
rates finds the largest rate ``t`` at which every member's cheapest
candidate with ``fps >= t`` still fits the capacity, and one pass in
fleet order picks the first assignment in product order attaining it.
An assignment fits when its demands, added left to right in fleet
order from ``0.0``, total at most the capacity.

The byte-identity contract extends here: a joint fleet whose capacity
is at least :meth:`JointFleetScenario.solo_demand_bps` (every member
free to pick its worst-case payload simultaneously) is *uncontended* —
no threshold probe overflows the capacity, member rows reproduce solo
``explore()`` byte-identically, and the fleet optimum equals the
weakest member's solo-best feasible rate (the invariant suite asserts
all three).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.report import TextTable, joint_fleet_summary_table
from repro.errors import ConfigurationError
from repro.explore.campaign import Campaign, CampaignResult, _check_weights
from repro.explore.executor import SweepExecutor, resolve_executor
from repro.explore.scenario import Scenario
from repro.explore.sink import ResultSink
from repro.units import bytes_to_bits


@dataclass(frozen=True)
class JointFleetScenario:
    """N member scenarios sharing one uplink of fixed capacity.

    Parameters
    ----------
    name:
        Fleet label (reports, campaign name).
    members:
        The member scenarios. Throughput domain with a ``target_fps``
        each (the demand model needs a sustained rate), unique names
        (campaign-legal), and conventionally built at the shared link
        so solo rows price communication over the uplink they contend
        for (:meth:`ScenarioCatalog.build_joint_fleets` does this).
    capacity_bps:
        The shared uplink capacity in bits/second that the members'
        aggregate demand must fit.
    weights:
        Optional per-member completion-time weights (aligned with
        ``members``) for the weighted-mean-completion-time objective:
        :func:`explore_joint` runs the member campaign under them
        (``Campaign.run(weights=fleet.weight_map())``) and
        :meth:`JointFleetResult.weighted_completion_seconds` defaults
        to them.
    """

    name: str
    members: tuple[Scenario, ...]
    capacity_bps: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ConfigurationError("joint fleet needs at least one member")
        for member in self.members:
            if not isinstance(member, Scenario):
                raise ConfigurationError(
                    f"fleet members must be Scenario instances, got "
                    f"{type(member).__name__}"
                )
            if member.domain != "throughput" or member.target_fps is None:
                raise ConfigurationError(
                    f"joint fleet member {member.name!r} must be a "
                    "throughput-domain scenario with a target_fps — the "
                    "shared-uplink demand model is payload bits x "
                    "sustained frame rate"
                )
        names = [member.name for member in self.members]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"fleet member names must be unique, got {names}"
            )
        if not (
            isinstance(self.capacity_bps, (int, float))
            and math.isfinite(self.capacity_bps)
            and self.capacity_bps > 0
        ):
            raise ConfigurationError(
                f"capacity_bps must be a positive finite number, got "
                f"{self.capacity_bps!r}"
            )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != len(self.members):
                raise ConfigurationError(
                    f"weights must align with members "
                    f"({len(self.members)}), got {len(self.weights)}"
                )
            _check_weights(dict(zip(names, self.weights)), names)

    def weight_map(self) -> dict[str, float] | None:
        """The weights keyed by member name (None when unweighted)."""
        if self.weights is None:
            return None
        return {
            member.name: weight
            for member, weight in zip(self.members, self.weights)
        }

    def solo_demand_bps(self) -> float:
        """Capacity sufficient for *any* simultaneous member choices.

        The sum over members of each member's worst-case demand across
        every cut depth (``0..len(blocks)``, clamped by ``max_blocks``).
        A fleet with ``capacity_bps >= solo_demand_bps()`` is
        *uncontended*: no joint assignment can overflow the uplink, so
        the shared-capacity constraint is vacuous and the joint optimum
        degenerates to each member's independent solo optimum.
        """
        total = 0.0
        for member in self.members:
            pipeline = member.pipeline
            depths = len(pipeline.blocks)
            if member.max_blocks is not None:
                depths = min(depths, member.max_blocks)
            total += max(
                bytes_to_bits(pipeline.output_bytes_after(depth))
                * member.target_fps
                for depth in range(depths + 1)
            )
        return total

    def is_uncontended(self) -> bool:
        """True when the capacity admits every joint assignment."""
        return self.capacity_bps >= self.solo_demand_bps()


@dataclass
class JointCandidate:
    """One member split the joint search may assign: the depth's best
    solo-feasible row, its rate, and its committed uplink demand."""

    row: dict[str, Any]
    depth: int
    fps: float
    demand_bps: float


def member_demand_bps(member: Scenario, row: Mapping[str, Any]) -> float:
    """The uplink share (bits/second) row's split commits the member to:
    payload bits per frame times the sustained target frame rate."""
    return bytes_to_bits(row["offload_bytes"]) * member.target_fps


def joint_candidates(
    member: Scenario, rows: Sequence[dict[str, Any]]
) -> list[JointCandidate]:
    """One candidate per cut depth from a member's solo rows.

    Among solo-feasible rows, each depth is represented by the first
    row attaining that depth's maximum ``total_fps`` (the
    :func:`~repro.explore.result.best_row` tie rule). Exact for the
    max-min objective: demand is a function of the payload, hence of
    the depth alone, so replacing any feasible row with its depth
    representative preserves every aggregate demand and can only raise
    the member's rate — the compressed search space contains a joint
    optimum of the full space. Candidates keep depth first-appearance
    (= enumeration) order, so the search's tie-break is deterministic.

    One reduction: the rows feed a :class:`JointCandidateSink`, the same
    fold ``explore_joint`` streams every member through.
    """
    sink = JointCandidateSink(member)
    sink.write_rows(rows)
    return sink.candidates()


class JointCandidateSink(ResultSink):
    """Build a member's per-depth candidates while its rows stream.

    The one joint-candidate reduction (:func:`joint_candidates` feeds it
    a row list; ``explore_joint`` streams every member through it):
    instead of collecting the member's full row list and compressing it
    afterwards, the sink folds each batch into a running (depth -> best
    feasible row) map. On the columnar batch path each depth segment of
    a batch (a run of rows of one depth; a batch may span several)
    reduces to at most one materialized row (the first feasible row
    attaining the segment's maximum ``total_fps``), so memory stays
    bounded by the number of depths, never the design-space size.

    Exactness: the running entry for a depth is replaced only on a
    *strictly* greater rate, so the surviving row is the first in
    stream (= enumeration) order attaining the depth's maximum — the
    :func:`~repro.explore.result.best_row` tie rule (asserted against
    it by the unit suite).
    """

    def __init__(self, member: Scenario):
        self.member = member
        #: depth -> (best fps, its first-attaining row), insertion order
        #: = depth first-appearance order.
        self._by_depth: dict[int, tuple[float, dict[str, Any]]] = {}

    def write_rows(self, rows: Sequence[dict[str, Any]]) -> None:
        by_depth = self._by_depth
        for row in rows:
            if not row["feasible"]:
                continue
            depth = row["n_in_camera"]
            held = by_depth.get(depth)
            if held is None or row["total_fps"] > held[0]:
                by_depth[depth] = (row["total_fps"], row)

    def write_batch(self, batch: Any) -> None:
        """One cohort batch -> at most one materialized winner row per
        depth segment."""
        if len(batch) == 0:
            return
        try:
            fps = batch.metric_column("total_fps")
            feasible = batch.metric_column("feasible")
            depths = batch.metric_column("n_in_camera")
        except KeyError:  # pragma: no cover - stock throughput columns
            self.write_rows(batch.rows())
            return
        mask = feasible.astype(bool)
        if not bool(mask.any()):
            return
        masked = np.where(mask, fps, -np.inf)
        # Rows come in stream order, so each depth is one run of rows.
        starts = np.flatnonzero(np.diff(depths, prepend=-1)).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(batch)]):
            if not bool(mask[lo:hi].any()):
                continue
            segment = masked[lo:hi]
            best = segment.max()
            depth = int(depths[lo])
            held = self._by_depth.get(depth)
            if held is None or best > held[0]:
                # argmax returns the FIRST index attaining the maximum —
                # exactly the stream-order tie rule.
                winner = batch.row(lo + int(segment.argmax()))
                # Keep the row's own float, not the column's, so
                # candidate rates compare byte-identically to the
                # collected path.
                self._by_depth[depth] = (winner["total_fps"], winner)

    def candidates(self) -> list[JointCandidate]:
        """The per-depth candidates streamed so far, in depth
        first-appearance order."""
        return [
            JointCandidate(
                row=row,
                depth=depth,
                fps=fps,
                demand_bps=member_demand_bps(self.member, row),
            )
            for depth, (fps, row) in self._by_depth.items()
        ]


def search_joint_assignment(
    candidates: Sequence[Sequence[JointCandidate]],
    capacity_bps: float,
) -> tuple[tuple[int, ...] | None, float, float, dict[str, int]]:
    """Exact max-min over per-member candidates under the capacity.

    An assignment *fits* when its demands, added left to right in fleet
    order starting from ``0.0``, total ``<= capacity_bps`` (the same
    arithmetic as a brute-force :func:`itertools.product` walk). The
    optimum ``v*`` is one of the candidates' rates, and whether a rate
    ``t`` is reachable is monotone in ``t``: each member takes its
    cheapest candidate with ``fps >= t``, and that total must fit. A
    binary search over the sorted distinct rates finds ``v*``; a pass
    in fleet order then gives each member its first candidate with
    ``fps >= v*`` whose cheapest completion at ``v*`` still fits. The
    assignment is therefore the first in product order attaining the
    optimum, a deterministic tie-break. Cost: O(n * M) for ``n``
    members and ``M`` candidates in total.

    Returns ``(choice, value, demand, counters)``: per-member candidate
    indices (None when no joint assignment fits), the fleet min-FPS
    optimum, its aggregate demand, and the search counters:
    ``n_candidate_space`` (the size of the candidate product),
    ``n_searched`` (thresholds probed) and ``n_capacity_pruned``
    (probes whose cheapest total overflowed the capacity).
    """
    space = math.prod(len(member) for member in candidates)
    counters = {"n_candidate_space": space, "n_searched": 0, "n_capacity_pruned": 0}
    if space == 0:
        # A member with no feasible split makes every joint assignment
        # infeasible.
        return None, float("-inf"), 0.0, counters

    def cheapest(threshold: float) -> list[float]:
        return [
            min(c.demand_bps for c in member if c.fps >= threshold)
            for member in candidates
        ]

    def fits(prefix: float, demands: Sequence[float]) -> bool:
        # IEEE round-to-nearest addition is monotone (a <= b implies
        # a + c <= b + c), so the cheapest completion of a prefix has
        # the smallest fleet-order total of all its completions: if any
        # completion at a threshold fits, the cheapest one does. A
        # higher threshold can only raise each member's cheapest
        # demand, so fitting is monotone in the threshold too.
        for demand in demands:
            prefix += demand
        return prefix <= capacity_bps

    # Every member has a candidate at each rate up to the weakest
    # member's best.
    ceiling = min(max(c.fps for c in member) for member in candidates)
    rates = sorted({c.fps for member in candidates for c in member if c.fps <= ceiling})
    low, high = -1, len(rates)  # rates[low] fits, rates[high] does not
    while high - low > 1:
        middle = (low + high) // 2
        counters["n_searched"] += 1
        if fits(0.0, cheapest(rates[middle])):
            low = middle
        else:
            counters["n_capacity_pruned"] += 1
            high = middle
    if low < 0:
        return None, float("-inf"), 0.0, counters
    value = rates[low]
    floor = cheapest(value)
    choice = []
    total = 0.0
    for position, member in enumerate(candidates):
        index = next(
            index
            for index, c in enumerate(member)
            if c.fps >= value and fits(total, [c.demand_bps, *floor[position + 1 :]])
        )
        choice.append(index)
        total += member[index].demand_bps
    return tuple(choice), value, total, counters


class JointFleetResult:
    """The outcome of one joint-fleet search.

    ``campaign`` holds every member's full solo outcome (rows
    byte-identical to solo ``explore()``); ``best_assignment`` the
    chosen :class:`JointCandidate` per member (None when some member
    has no feasible split or no joint assignment fits the capacity).
    """

    def __init__(
        self,
        fleet: JointFleetScenario,
        campaign: CampaignResult,
        candidates: list[list[JointCandidate]],
        best_choice: tuple[int, ...] | None,
        best_fleet_fps: float,
        best_demand_bps: float,
        counters: dict[str, int],
    ):
        self.fleet = fleet
        self.campaign = campaign
        self.candidates = candidates
        self.best_choice = best_choice
        self.best_fleet_fps = best_fleet_fps
        self.best_demand_bps = best_demand_bps
        self.counters = counters

    @property
    def capacity_bps(self) -> float:
        return self.fleet.capacity_bps

    @property
    def feasible(self) -> bool:
        """Whether any joint assignment fits the shared capacity."""
        return self.best_choice is not None

    @property
    def best_assignment(self) -> list[JointCandidate] | None:
        """The optimum's per-member candidates, in fleet order."""
        if self.best_choice is None:
            return None
        return [
            member[index]
            for member, index in zip(self.candidates, self.best_choice)
        ]

    @property
    def utilization(self) -> float | None:
        """The optimum's share of the capacity (None when infeasible)."""
        if self.best_choice is None:
            return None
        return self.best_demand_bps / self.capacity_bps

    def weighted_completion_seconds(
        self, weights: Mapping[str, float] | None = None
    ) -> float:
        """The fleet's weighted mean completion time over the member
        campaign, defaulting to the fleet's own weights."""
        if weights is None:
            weights = self.fleet.weight_map()
        return self.campaign.weighted_completion_seconds(weights)

    def summary_rows(self) -> list[dict[str, Any]]:
        """One report row per member (see
        :func:`repro.core.report.joint_fleet_summary_table`)."""
        assignment = self.best_assignment
        rows = []
        for index, member in enumerate(self.fleet.members):
            run = self.campaign[member.name]
            solo_best = (
                max(candidate.fps for candidate in self.candidates[index])
                if self.candidates[index]
                else "-"
            )
            assigned = assignment[index] if assignment is not None else None
            rows.append(
                {
                    "member": member.name,
                    "configs": run.n_evaluated,
                    "feasible": run.n_feasible,
                    "solo_best_fps": solo_best,
                    "joint_config": assigned.row["config"] if assigned else "-",
                    "joint_fps": assigned.fps if assigned else "-",
                    "demand_bps": assigned.demand_bps if assigned else "-",
                    "capacity_share": (
                        assigned.demand_bps / self.capacity_bps
                        if assigned
                        else "-"
                    ),
                }
            )
        return rows

    def to_table(self, title: str | None = None) -> TextTable:
        """The per-member summary as a
        :class:`~repro.core.report.TextTable`."""
        if title is None:
            verdict = (
                f"min {self.best_fleet_fps:.3g} FPS, "
                f"{self.utilization:.1%} of {self.capacity_bps:.3g} bps"
                if self.feasible
                else f"infeasible at {self.capacity_bps:.3g} bps"
            )
            title = (
                f"joint fleet {self.fleet.name!r} "
                f"({len(self.fleet.members)} members, {verdict})"
            )
        return joint_fleet_summary_table(self.summary_rows(), title=title)


def explore_joint(
    fleet: JointFleetScenario,
    executor: SweepExecutor | None = None,
    *,
    dedup: bool = True,
    collect: bool = True,
) -> JointFleetResult:
    """Explore a joint fleet: solo member sweeps, then the joint search.

    Phase 1 runs every member through one
    :class:`~repro.explore.campaign.Campaign` in the calling process,
    its walks in WSPT order under the fleet's weights
    (:meth:`JointFleetScenario.weight_map`). ``dedup=True`` (the
    default here: joint fleets are a dedup-heavy shape, N cameras often
    sharing a pipeline) shares compute-side states across members
    through the campaign's dedup groups. Member rows are byte-identical
    to solo ``explore()`` runs.

    Phase 2 finds the max-min-FPS joint assignment fitting
    ``fleet.capacity_bps`` over each member's per-depth candidates:
    :func:`search_joint_assignment` binary-searches the candidate rates
    for the optimum, then takes the first assignment in product order
    attaining it. Phase 1 already reduced the candidates: every
    member's rows stream through a :class:`JointCandidateSink` as they
    land, so the reduction materializes at most one row per cohort
    batch, never every member row.

    ``collect`` only decides whether the campaign keeps each member's
    :class:`~repro.explore.result.ExplorationResult`
    (``result.campaign[...].result``); ``collect=False`` keeps memory
    bounded by depths x members. Candidates and the joint optimum are
    the same either way.

    ``executor`` is a positional slot kept only because perfbench
    passes one: it is validated (anything but a
    :class:`~repro.explore.executor.SweepExecutor` or None raises
    :class:`~repro.errors.ConfigurationError`) and otherwise unused.
    Removing the slot is ROADMAP item 2's follow-up, once a benchmark
    change repoints perfbench.
    """
    if not isinstance(fleet, JointFleetScenario):
        raise ConfigurationError(
            f"explore_joint needs a JointFleetScenario, got "
            f"{type(fleet).__name__}"
        )
    resolve_executor(executor)
    sinks = {member.name: JointCandidateSink(member) for member in fleet.members}
    campaign = Campaign(list(fleet.members), name=fleet.name).run(
        weights=fleet.weight_map(),
        dedup=dedup,
        sinks=sinks,
        collect=collect,
        # The joint layer never asks for member Pareto frontiers, and
        # the throughput domain's anti-correlated axes make most rows
        # join the online frontier: merging and materializing them
        # would double the export-only sweep.
        frontier=collect,
    )
    candidates = [sinks[member.name].candidates() for member in fleet.members]
    feasible_space = 1
    for member in fleet.members:
        feasible_space *= campaign[member.name].n_feasible
    choice, value, demand, counters = search_joint_assignment(
        candidates, fleet.capacity_bps
    )
    counters = {"n_feasible_space": feasible_space, **counters}
    return JointFleetResult(
        fleet=fleet,
        campaign=campaign,
        candidates=candidates,
        best_choice=choice,
        best_fleet_fps=value,
        best_demand_bps=demand,
        counters=counters,
    )
