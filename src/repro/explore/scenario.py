"""Declarative exploration scenarios.

A :class:`Scenario` bundles everything one design-space exploration
needs — the pipeline, the uplink, the cost domain, the target
constraint, and the enumeration controls — into one object, so the
VR rig's throughput study and the face-authentication camera's energy
study run through the same engine instead of each having its own
ad-hoc driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.explore.enumerate import (
    DepthPruneHook,
    PrefixPruner,
    PruneHook,
    count_configs,
    iter_configs,
)
from repro.hw.network import LinkModel

#: The two evaluation domains of the paper: frames/second over a
#: mains-powered link (VR case study) and joules/frame on a harvested
#: budget (face-authentication case study).
DOMAINS = ("throughput", "energy")


@dataclass(frozen=True)
class Scenario:
    """One declarative design-space exploration.

    Parameters
    ----------
    name:
        Label used in reports and exports.
    pipeline:
        The block chain whose (cut point, platform) space is explored.
    link:
        The uplink carrying whatever the camera offloads.
    domain:
        ``'throughput'`` (frames/second, both axes must clear
        ``target_fps``) or ``'energy'`` (expected joules per captured
        frame, must stay within ``energy_budget_j``).
    target_fps:
        Throughput-domain feasibility bar (the paper's 30 FPS); when
        None every configuration is considered feasible.
    energy_budget_j:
        Energy-domain feasibility bar in joules/frame; when None every
        configuration is considered feasible.
    pass_rates:
        Energy domain only: measured per-block pass rates overriding
        the blocks' static ``pass_rate`` (benchmarks feed trace-derived
        rates here).
    max_blocks / include_empty:
        Enumeration bounds, as in :func:`repro.explore.enumerate.iter_configs`.
    prune / prune_depth:
        Pruning hooks forwarded to the lazy enumerator.
    auto_prune:
        Derive a *sound* depth pruner from the scenario's constraint
        (see :mod:`repro.explore.prune`): cut depths where the exact
        communication rate / transmit-energy lower bound already misses
        ``target_fps`` / ``energy_budget_j`` are skipped before any
        configuration is constructed. Lower bounds only — pruning never
        removes a feasible configuration. Requires a constraint to
        bound against.
    auto_prune_configs:
        Per-config pruning *within* surviving depths: subtrees whose
        chosen platforms already provably miss the constraint are
        skipped before construction. Throughput domain: the running min
        of chosen implementation rates vs ``target_fps``
        (:func:`repro.explore.prune.compute_fps_prefix_pruner`); energy
        domain: the prefix's exact expected energy plus a cheapest-
        completion lower bound vs ``energy_budget_j``
        (:func:`repro.explore.prune.energy_prefix_pruner`). Both are
        sound lower bounds — the feasible set is identical to the
        unpruned run — but unlike ``auto_prune`` they drop individual
        infeasible configurations, so :meth:`count_configs` becomes an
        upper bound. Layers on top of (and composes with)
        ``auto_prune``.
    """

    name: str
    pipeline: InCameraPipeline
    link: LinkModel
    domain: str = "throughput"
    target_fps: float | None = None
    energy_budget_j: float | None = None
    pass_rates: dict[str, float] | None = None
    max_blocks: int | None = None
    include_empty: bool = True
    prune: PruneHook | Sequence[PruneHook] | None = None
    prune_depth: DepthPruneHook | None = field(default=None)
    auto_prune: bool = False
    auto_prune_configs: bool = False

    def __post_init__(self) -> None:
        if self.domain not in DOMAINS:
            raise ConfigurationError(
                f"domain must be one of {DOMAINS}, got {self.domain!r}"
            )
        if self.target_fps is not None:
            if self.domain != "throughput":
                raise ConfigurationError("target_fps only applies to the throughput domain")
            if self.target_fps <= 0:
                raise ConfigurationError(
                    f"target_fps must be positive, got {self.target_fps}"
                )
        if self.energy_budget_j is not None:
            if self.domain != "energy":
                raise ConfigurationError(
                    "energy_budget_j only applies to the energy domain"
                )
            if self.energy_budget_j <= 0:
                raise ConfigurationError(
                    f"energy_budget_j must be positive, got {self.energy_budget_j}"
                )
        if self.pass_rates is not None and self.domain != "energy":
            raise ConfigurationError("pass_rates only apply to the energy domain")
        if self.auto_prune:
            constrained = (
                self.target_fps is not None
                if self.domain == "throughput"
                else self.energy_budget_j is not None
            )
            if not constrained:
                raise ConfigurationError(
                    "auto_prune needs a constraint to bound against: set "
                    + (
                        "target_fps"
                        if self.domain == "throughput"
                        else "energy_budget_j"
                    )
                )
        if self.auto_prune_configs:
            constrained = (
                self.target_fps is not None
                if self.domain == "throughput"
                else self.energy_budget_j is not None
            )
            if not constrained:
                raise ConfigurationError(
                    "auto_prune_configs bounds prefixes against the "
                    "scenario constraint: set "
                    + (
                        "target_fps"
                        if self.domain == "throughput"
                        else "energy_budget_j"
                    )
                )

    def depth_prune_hook(self) -> DepthPruneHook | None:
        """The effective depth pruner: the user hook, the auto-derived
        lower-bound pruner, or (with both) their union — a depth is
        skipped when either prunes it."""
        hooks = [self.prune_depth]
        if self.auto_prune:
            from repro.explore.prune import lower_bound_depth_hook

            hooks.append(lower_bound_depth_hook(self))
        hooks = [hook for hook in hooks if hook is not None]
        if not hooks:
            return None
        if len(hooks) == 1:
            return hooks[0]
        return lambda depth: any(hook(depth) for hook in hooks)

    def prefix_pruner(self) -> PrefixPruner | None:
        """The effective within-depth prefix bound (None unless
        ``auto_prune_configs``): the domain's sound per-config pruner."""
        if not self.auto_prune_configs:
            return None
        if self.domain == "throughput":
            from repro.explore.prune import compute_fps_prefix_pruner

            return compute_fps_prefix_pruner(self)
        from repro.explore.prune import energy_prefix_pruner

        return energy_prefix_pruner(self)

    def iter_configs(self) -> Iterator[PipelineConfig]:
        """The scenario's (lazily enumerated, pruned) design space."""
        return iter_configs(
            self.pipeline,
            max_blocks=self.max_blocks,
            include_empty=self.include_empty,
            prune=self.prune,
            prune_depth=self.depth_prune_hook(),
            prune_prefix=self.prefix_pruner(),
        )

    def count_configs(self) -> int:
        """Size of the depth-pruned design space, without constructing
        configurations. Exact unless per-config ``prune`` hooks or
        ``auto_prune_configs`` filter further, in which case it is an
        upper bound (the engine uses it to size streaming chunks;
        reporting uses it to quantify depth-pruning savings)."""
        return count_configs(
            self.pipeline,
            max_blocks=self.max_blocks,
            include_empty=self.include_empty,
            prune_depth=self.depth_prune_hook(),
        )

    def cost_model(self) -> ThroughputCostModel | EnergyCostModel:
        """The stock cost model of this scenario's domain, over
        ``link``."""
        if self.domain == "throughput":
            return ThroughputCostModel(self.link)
        return EnergyCostModel(self.link)
