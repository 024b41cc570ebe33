"""Cost models: the paper's two evaluation domains.

*Throughput domain* (VR case study): every block and the uplink are
pipeline stages across frames, so the system rate is the minimum of the
per-stage rates — "the slowest step will dominate overall throughput".

*Energy domain* (harvested-power case study): the system cost is joules
per captured frame — sensor + expected block energies + transmit energy —
where *expected* reflects filter blocks gating their successors (a frame
rejected by motion detection never pays for face detection).

Both models are *prefix-decomposable*: a depth-``d`` configuration's
cost is its depth-``d-1`` prefix cost extended by exactly one block
(running min-fps for throughput; running pass rate, accumulated block
energies, and active seconds for energy), plus a final link term that
depends only on the cut depth. The models therefore expose that
structure directly — :meth:`initial_state` / :meth:`extend_state` /
:meth:`finalize` — and ``evaluate()`` is defined as the full left fold
over a configuration's in-camera blocks. Incremental evaluation
(:mod:`repro.explore.incremental`) replays the *same* float operations
in the *same* order, so prefix-memoized results are bit-identical to
from-scratch ones.

Each scalar step has a columnar batch twin (``*_batch``) over whole
cohorts of prefixes. ``finalize_batch`` closes a folded cohort under
one link's per-depth term; since the folded state is link-independent,
a campaign dedup group closes one state under each member's link with
one ``finalize_batch`` call per member.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Any, Sequence

import numpy as np

from repro.core.block import Block, Implementation
from repro.core.pipeline import InCameraPipeline, PipelineConfig, _digest
from repro.errors import PipelineError
from repro.hw.network import LinkModel


def implementation_fingerprint(impl: Implementation) -> tuple:
    """The cost-defining identity of one implementation: every field
    either cost model reads (platform name, frame rate, energy per
    frame, active seconds). Two implementations with equal fingerprints
    are interchangeable under both stock cost models."""
    return (impl.platform, impl.fps, impl.energy_per_frame, impl.active_seconds)


def platform_axis_fingerprint(pipeline: InCameraPipeline) -> str:
    """Digest of the pipeline's *platform axis*: every block's
    implementation cost table, platforms in sorted (enumeration) order.

    The complement of :meth:`InCameraPipeline.fingerprint`: the chain
    fingerprint covers what the blocks *are*, this covers what running
    them *costs* on each available platform. Campaign-level evaluation
    dedup (:func:`repro.explore.campaign.scenario_compute_key`) keys on
    the pair — two scenarios share compute-side prefix states only when
    both digests (and the enumeration bounds) match, so structurally
    identical pipelines with different implementation prices can never
    poison each other's cache entries.
    """
    return _digest(
        tuple(
            tuple(
                implementation_fingerprint(block.implementations[name])
                for name in sorted(block.implementations)
            )
            for block in pipeline.blocks
        )
    )

def option_fps_column(impls: Sequence[Implementation]) -> Any:
    """The frame rate of each implementation as one float column.

    ``impls`` must be in enumeration (sorted platform) order. The
    columnar throughput fold extends its rows by this column's entries;
    the vectorized throughput pruner reads the fold's running min, so
    bound and cost are the exact same floats.
    """
    return np.array([impl.fps for impl in impls])


def option_energy_columns(impls: Sequence[Implementation]) -> tuple[Any, Any]:
    """Per-implementation (energy per frame, active seconds) columns.

    ``impls`` must be in enumeration (sorted platform) order. Shared
    batch bound kernel: the columnar energy fold and the vectorized
    energy pruner both extend their rows by the energy column's entries,
    so bound and cost read the exact same floats.
    """
    return (
        np.array([impl.energy_per_frame for impl in impls]),
        np.array([impl.active_seconds for impl in impls]),
    )


#: Throughput prefix state: (running min fps, slowest block label).
#: The batch twin keeps only what a row's platform choices cannot
#: recover: one fps column. The label is decoded from the choices of the
#: rows that become cost objects (the first level whose chosen rate
#: equals the running min; ``"none"`` while it is ``inf``).
ThroughputState = tuple[float, str]

#: Energy prefix state: (fraction of frames reaching the next stage,
#: accumulated (block name, expected joules) pairs, expected active
#: seconds). The energies are a tuple so states are immutable and safe
#: to share between sibling prefixes in a memoized walk. The batch twin
#: keeps the rate as one scalar, the block energies as one per-option
#: table per level (a row's energy is its choice's entry), and per row
#: only the running compute-energy sum and the active seconds.
EnergyState = tuple[float, tuple[tuple[str, float], ...], float]


@dataclass(frozen=True, slots=True)
class ConfigCost:
    """Throughput-domain evaluation of one configuration.

    Slotted, like :class:`~repro.core.pipeline.PipelineConfig`: one
    instance exists per explored configuration."""

    config: PipelineConfig
    compute_fps: float
    communication_fps: float
    slowest_block: str

    @property
    def total_fps(self) -> float:
        """Pipelined system throughput."""
        return min(self.compute_fps, self.communication_fps)

    @property
    def bottleneck(self) -> str:
        """'compute' or 'communication', whichever binds."""
        return "compute" if self.compute_fps < self.communication_fps else "communication"

    def meets(self, target_fps: float) -> bool:
        """Whether *both* axes clear the target (the paper's criterion:
        "we seek to uncover scenarios in which both computation and
        communication surpass our minimum frame rate")."""
        return self.compute_fps >= target_fps and self.communication_fps >= target_fps


class ThroughputCostModel:
    """Evaluate configurations as frame rates over a given uplink."""

    def __init__(self, link: LinkModel):
        self.link = link

    def initial_state(self) -> ThroughputState:
        """The cost state of the empty (raw-offload) prefix."""
        return (float("inf"), "none")

    def extend_state(
        self, state: ThroughputState, block: Block, impl: Implementation
    ) -> ThroughputState:
        """The state after running one more block in camera."""
        if impl.fps < state[0]:
            return (impl.fps, f"{block.name}({impl.platform})")
        return state

    def finalize(
        self,
        state: ThroughputState,
        config: PipelineConfig,
        communication_fps: float | None = None,
    ) -> ConfigCost:
        """Close a prefix state into a :class:`ConfigCost`.

        ``communication_fps`` lets a memoized walk pass the per-depth
        link rate it already computed (the payload depends only on the
        cut depth, not the platform choices); when None it is derived
        from the configuration.
        """
        if communication_fps is None:
            communication_fps = self.link.fps_for_bytes(config.offload_bytes)
        cost = object.__new__(ConfigCost)
        set_field = object.__setattr__
        set_field(cost, "config", config)
        set_field(cost, "compute_fps", state[0])
        set_field(cost, "communication_fps", communication_fps)
        set_field(cost, "slowest_block", state[1])
        return cost

    def evaluate(self, config: PipelineConfig) -> ConfigCost:
        state = self.initial_state()
        for block, impl in config.in_camera_blocks():
            state = self.extend_state(state, block, impl)
        return self.finalize(state, config)

    # -- columnar batch counterparts -----------------------------------
    # Row i of every array is the scalar fold of configuration i: the
    # batch kernels perform the same float operations in the same order
    # (elementwise), so results are bit-identical to the scalar path.

    def initial_state_batch(self, n: int) -> tuple[Any]:
        """Array-shaped :meth:`initial_state` for ``n`` configurations:
        one running-fps column."""
        return (np.full(n, float("inf")),)

    def extend_state_batch(self, state: tuple[Any], option_fps: Any) -> tuple[Any]:
        """Array-shaped :meth:`extend_state` in product order.

        Extends every one of the ``n`` state rows by every one of the
        block's ``k`` options (``option_fps``: each implementation's frame
        rate, in enumeration order; see :func:`option_fps_column`). Row
        ``i * k + j`` of the result is row ``i`` extended by option
        ``j`` (:func:`itertools.product` order): each option's column
        is written into an ``(n, k)`` buffer with one strided pass,
        returned raveled (a view). Each option's running min is written
        straight into its column by ``np.minimum(..., out=...)``, with no
        temporaries. That equals the scalar branch ``if impl.fps <
        state[0]`` bit for bit: the two differ only when a rate is NaN
        (``np.minimum`` propagates it, the branch keeps the state) or on
        a tie of ``0.0`` with ``-0.0``, and :class:`Implementation`
        rejects every rate that is not ``> 0``, NaN included, so the
        running min starts at ``inf`` and only ever takes such rates.
        """
        (fps_cur,) = state
        out = np.empty((len(fps_cur), len(option_fps)))
        for j, fps in enumerate(option_fps.tolist()):
            np.minimum(fps_cur, fps, out=out[:, j])
        return (out.ravel(),)

    def finalize_batch(
        self, state: tuple[Any], communication_fps: float
    ) -> dict[str, Any]:
        """Close a batch state into columnar cost fields.

        ``communication_fps`` is the per-depth link rate shared by every
        row (the payload depends only on the cut depth). Returns the
        column mapping consumed by
        :class:`repro.explore.vectorized.BatchRows`, which decodes
        ``slowest_block`` from the ``compute_fps`` column and each
        row's platform choices.
        """
        return {"compute_fps": state[0], "communication_fps": communication_fps}


@dataclass(frozen=True, slots=True)
class EnergyCost:
    """Energy-domain evaluation of one configuration.

    Slotted, like :class:`~repro.core.pipeline.PipelineConfig`: one
    instance exists per explored configuration."""

    config: PipelineConfig
    sensor_energy: float
    block_energies: dict[str, float]  # expected joules per captured frame
    transmit_energy: float  # expected joules per captured frame
    transmit_rate: float  # fraction of frames whose output is transmitted
    active_seconds: float  # expected active time per captured frame

    @property
    def total_energy(self) -> float:
        """Expected joules per captured frame. Block energies add left
        to right, as the batch fold's column does (``sum()`` of floats
        is compensated from Python 3.12 on)."""
        blocks = reduce(add, self.block_energies.values(), 0)
        return self.sensor_energy + blocks + self.transmit_energy

    def average_power(self, frames_per_second: float) -> float:
        """Mean power at a steady capture rate."""
        if frames_per_second <= 0:
            raise PipelineError("frames_per_second must be positive")
        return self.total_energy * frames_per_second


class EnergyCostModel:
    """Evaluate configurations as expected joules per captured frame.

    Filter blocks gate their successors: block *i* runs only on the
    fraction of frames every earlier filter passed, and the uplink
    transmits only what survives the whole in-camera chain. This is the
    quantitative form of the paper's "progressive filtering" argument.
    """

    def __init__(self, link: LinkModel):
        self.link = link

    def initial_state(self) -> EnergyState:
        """The cost state of the empty (raw-offload) prefix."""
        return (1.0, (), 0.0)

    def extend_state(
        self,
        state: EnergyState,
        block: Block,
        impl: Implementation,
        pass_rates: dict[str, float] | None = None,
    ) -> EnergyState:
        """The state after running one more block in camera."""
        rate, energies, active = state
        energy = rate * impl.energy_per_frame
        active = active + rate * impl.active_seconds
        block_rate = (
            pass_rates.get(block.name, block.pass_rate)
            if pass_rates is not None
            else block.pass_rate
        )
        if not 0.0 <= block_rate <= 1.0:
            raise PipelineError(
                f"pass rate for {block.name!r} must be in [0,1], got {block_rate}"
            )
        return (rate * block_rate, energies + ((block.name, energy),), active)

    def finalize(
        self,
        state: EnergyState,
        config: PipelineConfig,
        link_costs: tuple[float, float] | None = None,
    ) -> EnergyCost:
        """Close a prefix state into an :class:`EnergyCost`.

        ``link_costs`` is the per-payload (transmit joules, transmit
        seconds) pair; a memoized walk passes the per-depth values it
        already computed, and when None they are derived from the
        configuration.
        """
        rate, energies, active = state
        if link_costs is None:
            offload_bytes = config.offload_bytes
            link_costs = (
                self.link.tx_energy_for_bytes(offload_bytes),
                self.link.seconds_for_bytes(offload_bytes),
            )
        cost = object.__new__(EnergyCost)
        set_field = object.__setattr__
        set_field(cost, "config", config)
        set_field(cost, "sensor_energy", config.pipeline.sensor_energy_per_frame)
        set_field(cost, "block_energies", dict(energies))
        set_field(cost, "transmit_energy", rate * link_costs[0])
        set_field(cost, "transmit_rate", rate)
        set_field(cost, "active_seconds", active + rate * link_costs[1])
        return cost

    def evaluate(
        self,
        config: PipelineConfig,
        pass_rates: dict[str, float] | None = None,
    ) -> EnergyCost:
        """Compute expected energy.

        Parameters
        ----------
        config:
            The configuration to evaluate.
        pass_rates:
            Optional measured pass rates per block name, overriding the
            blocks' static ``pass_rate`` (benchmarks feed rates measured
            on actual workload traces here).
        """
        state = self.initial_state()
        for block, impl in config.in_camera_blocks():
            state = self.extend_state(state, block, impl, pass_rates)
        return self.finalize(state, config)

    # -- columnar batch counterparts -----------------------------------
    # Row i of every column is the scalar fold of configuration i: the
    # batch kernels perform the same float operations in the same order
    # (elementwise, or once per option where every row of a depth
    # shares the operands), so results are bit-identical to the scalar
    # path.

    def initial_state_batch(self, n: int) -> tuple[float, tuple, Any, Any]:
        """Array-shaped :meth:`initial_state` for ``n`` configurations:
        ``(rate, tables, compute, active)`` with empty columns."""
        return (1.0, (), np.zeros(n), np.zeros(n))

    def extend_state_batch(
        self,
        state: tuple[float, tuple, Any, Any],
        block: Block,
        options: tuple[Any, Any],
        pass_rates: dict[str, float] | None = None,
    ) -> tuple[float, tuple, Any, Any]:
        """Array-shaped :meth:`extend_state` in product order.

        ``options`` is the block's (energy per frame, active seconds)
        column pair, one entry per implementation in enumeration order
        (see :func:`option_energy_columns`). Every one of the ``n``
        state rows is extended by every one of the ``k`` options: row
        ``i * k + j`` of the result is row ``i`` extended by option
        ``j`` (:func:`itertools.product` order), each option's column
        written into an ``(n, k)`` buffer with one strided pass and
        returned raveled (a view).

        A pass rate belongs to a block, not a platform, so every row of
        a depth shares one ``rate`` scalar. A block's expected energies
        are therefore one table of ``rate * energy_per_frame`` per
        option — entry ``j`` is the scalar fold's
        ``rate * impl.energy_per_frame`` bit for bit — and the state
        keeps those ``(block name, table)`` pairs in place of per-row
        energy arrays. Per row it carries only the running sum of the
        chosen entries (``compute + rate * energy_per_frame``, added
        left to right from zero, exactly as
        :attr:`EnergyCost.total_energy` adds ``block_energies``) and
        the active seconds (``active + rate * active_seconds``).
        """
        rate, tables, compute, active = state
        option_energy, option_active = options
        table = rate * option_energy
        block_rate = (
            pass_rates.get(block.name, block.pass_rate)
            if pass_rates is not None
            else block.pass_rate
        )
        if not 0.0 <= block_rate <= 1.0:
            raise PipelineError(
                f"pass rate for {block.name!r} must be in [0,1], got {block_rate}"
            )
        shape = (len(compute), len(table))
        new_compute = np.empty(shape)
        new_active = np.empty(shape)
        steps = zip(table.tolist(), (rate * option_active).tolist())
        for j, (energy, seconds) in enumerate(steps):
            np.add(compute, energy, out=new_compute[:, j])
            np.add(active, seconds, out=new_active[:, j])
        return (
            float(rate * block_rate),
            tables + ((block.name, table),),
            new_compute.ravel(),
            new_active.ravel(),
        )

    def finalize_batch(
        self, state: tuple[float, tuple, Any, Any], link_costs: tuple[float, float]
    ) -> dict[str, Any]:
        """Close a batch state into columnar cost fields.

        ``link_costs`` is the per-depth (transmit joules, transmit
        seconds) pair shared by every row. Returns the column mapping
        consumed by :class:`repro.explore.vectorized.BatchRows`:
        ``transmit_rate`` and ``transmit_energy`` are per-depth scalars,
        ``block_energies`` the per-level option tables (decoded per row
        from its platform choices) and ``compute_energy`` /
        ``active_seconds`` per-row columns.
        """
        rate, tables, compute, active = state
        return {
            "transmit_rate": rate,
            "block_energies": tables,
            "compute_energy": compute,
            "transmit_energy": float(rate * link_costs[0]),
            "active_seconds": active + rate * link_costs[1],
        }
