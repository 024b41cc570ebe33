"""Unified design-space exploration across both cost domains.

The paper's central exercise — enumerate every (cut point, platform)
configuration of a pipeline and find the ones that clear the target on
both the computation and the communication axis — appears twice, once
per case study, with a different cost model each time. This package
turns that exercise into one reusable engine over exactly those two
models: a :class:`Scenario` always evaluates under the stock
``ThroughputCostModel`` or ``EnergyCostModel`` built from its link, and
the engine refuses subclassed models rather than bypass their
overrides:

* :mod:`.enumerate` — lazy configuration enumeration with pluggable
  pruning hooks (the design space is exponential in pipeline depth);
* :mod:`.executor` — chunked thread/process-parallel sweep execution
  with deterministic result ordering and a serial fallback, for
  parameter sweeps; the engine itself runs no pool (``Campaign.run``,
  :func:`explore_joint` and :func:`evaluation_path` only validate the
  executor they accept);
* :mod:`.scenario` — the declarative :class:`Scenario` spec: pipeline +
  link + cost domain + target constraint in one object;
* :mod:`.result` — :class:`ExplorationResult` with feasibility,
  Pareto-frontier extraction, dominated-config elimination, top-k
  ranking, CSV/JSON export, and an adapter back to the legacy
  ``OffloadReport`` type;
* :mod:`.incremental` — :class:`~.incremental.PrefixEvaluator`, prefix-memoized
  evaluation turning per-config cost from O(depth) into amortized O(1)
  block extensions (bit-identical to from-scratch evaluation): the
  scalar reference fold, ``explore(..., evaluation="scalar")``;
* :mod:`.vectorized` — :class:`BatchPrefixEvaluator`, the columnar
  batch core: depth cohorts fold as numpy struct-of-arrays states with
  lazily materialized rows (bit-identical to the scalar fold);
* :mod:`.prune` — sound lower-bound pruning derived from a scenario's
  constraint: whole depths (``Scenario(..., auto_prune=True)``) and
  per-config subtrees within surviving depths
  (``auto_prune_configs=True``);
* :mod:`.engine` — :func:`explore`, the streaming, in-process entry
  point tying them together (:func:`evaluation_path` names which of its four paths
  a call takes), and :func:`explore_brute_force`, the pre-streaming
  oracle every path is tested byte-identical against;
* :mod:`.sink` — :class:`ResultSink` streaming outputs (CSV, JSON
  Lines, a bounded top-k; any object with ``write_rows`` also works):
  ``explore(..., sink=..., collect=False)`` exports a design space in
  memory bounded by the walk's batch size;
* :mod:`.catalog` — the named, parameterized scenario library the case
  studies register into (``load_builtin()``);
* :mod:`.campaign` — :class:`Campaign`, many scenarios through one
  run, each member on its solo columnar path, folded in the calling
  process, with results byte-identical to
  solo :func:`explore` runs, cross-scenario evaluation dedup
  (``dedup=True`` shares link-independent compute states across a
  fleet), ``iter_runs`` streaming (each walk runs to completion in
  weighted-shortest-processing-time order, ``weights=``), plus the
  fleet summary report;
* :mod:`.joint` — :func:`explore_joint`, the joint-fleet domain: N
  member scenarios share one uplink of fixed capacity, feasibility
  couples them through aggregate demand, and the max-min-FPS joint
  assignment is an exact threshold search over per-depth candidates
  (member rows stay byte-identical to solo runs — phase 1 *is* a
  campaign).

The package namespace holds only the names a caller outside it uses
(ARCHITECTURE.md, "Every public name earns its place"). The engine's
internals import from their modules: ``TopK``, ``ParetoFrontier`` and
``pareto_filter`` from :mod:`.result`, ``BatchRows`` from
:mod:`.vectorized`, ``iter_configs`` and ``count_configs`` from
:mod:`.enumerate`, ``JointCandidateSink`` from :mod:`.joint`.

Quickstart::

    from repro.explore import Scenario, explore
    from repro.hw.network import ETHERNET_25G
    from repro.vr.scenarios import build_vr_pipeline

    scenario = Scenario(
        name="fig10", pipeline=build_vr_pipeline(),
        link=ETHERNET_25G, target_fps=30.0,
    )
    result = explore(scenario)
    print(result.best["config"], [r["config"] for r in result.pareto()])
"""

from repro.explore.campaign import Campaign, CampaignResult, ScenarioRun
from repro.explore.catalog import (
    FleetSpec,
    JointFleetSpec,
    ScenarioCatalog,
    load_builtin,
    register_scenario,
)
from repro.explore.joint import (
    JointCandidate,
    JointFleetResult,
    JointFleetScenario,
    explore_joint,
    joint_candidates,
    member_demand_bps,
    search_joint_assignment,
)
from repro.explore.engine import evaluation_path, explore, explore_brute_force
from repro.explore.executor import SweepExecutor
from repro.explore.vectorized import BatchPrefixEvaluator
from repro.explore.result import ExplorationResult
from repro.explore.scenario import Scenario
from repro.explore.sink import CsvSink, JsonlSink, ResultSink, TopKSink

__all__ = [
    "BatchPrefixEvaluator",
    "Campaign",
    "CampaignResult",
    "CsvSink",
    "ExplorationResult",
    "FleetSpec",
    "JointCandidate",
    "JointFleetResult",
    "JointFleetScenario",
    "JointFleetSpec",
    "JsonlSink",
    "ResultSink",
    "Scenario",
    "ScenarioCatalog",
    "ScenarioRun",
    "SweepExecutor",
    "TopKSink",
    "evaluation_path",
    "explore",
    "explore_brute_force",
    "explore_joint",
    "joint_candidates",
    "load_builtin",
    "member_demand_bps",
    "register_scenario",
    "search_joint_assignment",
]
