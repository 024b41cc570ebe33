"""Blocks and implementations — the unit of pipeline decomposition.

A :class:`Block` is a functional stage (motion detection, demosaic, depth
estimation, ...) with a defined output size per frame and one or more
:class:`Implementation` options (the same block might run on an ASIC, the
host CPU, an FPGA...). Costs live on implementations because that is what
the paper varies: Figure 10's nine configurations differ only in *where*
B3/B4 run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PipelineError


@dataclass(frozen=True)
class Implementation:
    """One way to execute a block.

    Exactly the two cost axes the paper evaluates:

    Parameters
    ----------
    platform:
        Name ('asic', 'cpu', 'gpu', 'fpga', 'isp', ...).
    fps:
        Sustainable throughput in frames/second (throughput domain);
        ``inf`` for negligible stages.
    energy_per_frame:
        Joules per processed frame (energy domain).
    active_seconds:
        Wall-clock active time per frame (used by the duty-cycle
        simulator on harvested-energy nodes).
    """

    platform: str
    fps: float = float("inf")
    energy_per_frame: float = 0.0
    active_seconds: float = 0.0

    def __post_init__(self) -> None:
        # Written as negated comparisons so NaN (for which every
        # comparison is False) is rejected too.
        if not self.fps > 0:
            raise PipelineError(f"fps must be positive, got {self.fps}")
        if not (self.energy_per_frame >= 0 and self.active_seconds >= 0):
            raise PipelineError("energy and active time must be >= 0")


@dataclass(frozen=True)
class Block:
    """A pipeline stage.

    Parameters
    ----------
    name:
        Stage label ('B1', 'motion', ...).
    output_bytes:
        Size of this block's per-frame output (what crosses the uplink if
        the pipeline is cut after this block).
    implementations:
        Available platforms, keyed by platform name.
    optional:
        Whether the block may be dropped from the pipeline (the paper's
        "optional blocks" — filters that don't change the result but can
        reduce downstream cost).
    pass_rate:
        For gating/filter blocks in the energy domain: the expected
        fraction of frames this block lets through to the next stage
        (1.0 for non-filtering blocks).
    """

    name: str
    output_bytes: float
    implementations: dict[str, Implementation] = field(default_factory=dict)
    optional: bool = False
    pass_rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.output_bytes >= 0:
            raise PipelineError(f"output_bytes must be >= 0, got {self.output_bytes}")
        if not 0.0 <= self.pass_rate <= 1.0:
            raise PipelineError(f"pass_rate must be in [0, 1], got {self.pass_rate}")
        for key, impl in self.implementations.items():
            if key != impl.platform:
                raise PipelineError(
                    f"implementation key {key!r} != platform {impl.platform!r}"
                )

    def implementation(self, platform: str) -> Implementation:
        """Look up an implementation, with a helpful error."""
        if platform not in self.implementations:
            raise PipelineError(
                f"block {self.name!r} has no {platform!r} implementation; "
                f"available: {sorted(self.implementations)}"
            )
        return self.implementations[platform]

    def with_implementation(self, impl: Implementation) -> "Block":
        """A copy of this block with one more implementation registered."""
        impls = dict(self.implementations)
        impls[impl.platform] = impl
        return Block(
            name=self.name,
            output_bytes=self.output_bytes,
            implementations=impls,
            optional=self.optional,
            pass_rate=self.pass_rate,
        )
