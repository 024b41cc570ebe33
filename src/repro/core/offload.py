"""Configuration enumeration and offload analysis (Figure 10's machinery).

Given a pipeline whose blocks each offer one or more implementations,
enumerate every (cut point, platform assignment) configuration, evaluate
them under a cost model, and answer the paper's questions: which
configurations meet the real-time target on *both* axes, and which block
placement is optimal.

This module is the throughput-domain facade over the general engine in
:mod:`repro.explore`: enumeration is a thin eager wrapper around the
lazy :func:`repro.explore.enumerate.iter_configs`, and
:class:`OffloadAnalyzer` drives :func:`repro.explore.explore` while
returning the same :class:`OffloadReport` it always has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.cost import ConfigCost, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline, PipelineConfig
from repro.errors import PipelineError
from repro.explore.engine import explore, iter_evaluation_chunks
from repro.explore.enumerate import iter_configs
from repro.explore.incremental import _check_stock_model
from repro.explore.result import cost_row
from repro.explore.scenario import Scenario
from repro.explore.sink import resolve_sink, sink_stream


def enumerate_configs(
    pipeline: InCameraPipeline,
    max_blocks: int | None = None,
    include_empty: bool = True,
) -> list[PipelineConfig]:
    """All (cut point, platform) configurations of a pipeline.

    Eager wrapper over the lazy
    :func:`repro.explore.enumerate.iter_configs` (same order, no
    pruning); prefer the generator for large spaces.

    Parameters
    ----------
    pipeline:
        The pipeline to enumerate.
    max_blocks:
        Cap on the number of in-camera blocks (default: all).
    include_empty:
        Include the raw-offload configuration (``S~``).
    """
    return list(
        iter_configs(pipeline, max_blocks=max_blocks, include_empty=include_empty)
    )


@dataclass(frozen=True)
class OffloadReport:
    """Evaluation of every configuration plus the verdicts."""

    costs: list[ConfigCost]
    target_fps: float

    @property
    def feasible(self) -> list[ConfigCost]:
        """Configurations clearing the target on both axes."""
        return [c for c in self.costs if c.meets(self.target_fps)]

    @property
    def best(self) -> ConfigCost:
        """Highest total-throughput configuration."""
        if not self.costs:
            raise PipelineError("no configurations evaluated")
        return max(self.costs, key=lambda c: c.total_fps)


class OffloadAnalyzer:
    """Sweep a pipeline's configuration space under a throughput model.

    Parameters
    ----------
    model:
        The stock throughput cost model (carries the uplink); a
        subclass raises :class:`~repro.errors.ConfigurationError`.
    target_fps:
        Feasibility bar on both axes.
    """

    def __init__(self, model: ThroughputCostModel, target_fps: float = 30.0):
        _check_stock_model(model, (ThroughputCostModel,))
        if target_fps <= 0:
            raise PipelineError(f"target_fps must be positive, got {target_fps}")
        self.model = model
        self.target_fps = target_fps

    def analyze(
        self,
        pipeline: InCameraPipeline,
        configs: list[PipelineConfig] | None = None,
        sink: Any = None,
    ) -> OffloadReport:
        """Evaluate the given (or all) configurations.

        ``sink`` (a :class:`repro.explore.sink.ResultSink`) receives the
        engine's report rows streamed as evaluation completes — the same
        pass-through ``explore()`` offers, so legacy callers gain
        streaming export without switching APIs.
        """
        scenario = Scenario(
            name=pipeline.name,
            pipeline=pipeline,
            link=self.model.link,
            domain="throughput",
            target_fps=self.target_fps,
        )
        if configs is None:
            return explore(scenario, sink=sink).as_offload_report()
        # Explicit config sequences (lists or generators, as before)
        # stream through the scalar prefix-memoized walk; sink rows are
        # written chunk by chunk (DEFAULT_CHUNK_SIZE configurations) as
        # evaluation completes, exactly like explore().
        sink = resolve_sink(sink)
        chunks = iter_evaluation_chunks(self.model, iter(configs))
        costs: list[ConfigCost] = []
        with sink_stream(sink, scenario, f"pipeline {pipeline.name!r}") as write:
            for chunk in chunks:
                costs.extend(chunk)
                if write is not None:
                    write([cost_row(scenario, cost) for cost in chunk])
        return OffloadReport(costs=costs, target_fps=self.target_fps)
