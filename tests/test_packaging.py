"""Packaging metadata stays in sync with the library."""

from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_pyproject_exists_with_src_layout():
    text = PYPROJECT.read_text()
    assert 'where = ["src"]' in text
    assert "[tool.pytest.ini_options]" in text


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")  # stdlib from 3.11
    metadata = tomllib.loads(PYPROJECT.read_text())["project"]
    assert metadata["name"] == "repro"
    assert metadata["version"] == repro.__version__


#: The public surface of ``repro.explore``: what examples, perfbench,
#: benchmarks and docs import from the package. Growing it is a
#: deliberate API decision, so the list is pinned here.
EXPLORE_PUBLIC_NAMES = [
    "BatchPrefixEvaluator",
    "BatchRows",
    "CallbackSink",
    "Campaign",
    "CampaignResult",
    "CsvSink",
    "ExplorationResult",
    "FleetSpec",
    "JointCandidate",
    "JointCandidateSink",
    "JointFleetResult",
    "JointFleetScenario",
    "JointFleetSpec",
    "JsonlSink",
    "MemorySink",
    "ParetoFrontier",
    "ParetoSink",
    "ResultSink",
    "RoundRobin",
    "SCHEDULING_POLICIES",
    "Scenario",
    "ScenarioCatalog",
    "ScenarioRun",
    "SchedulingPolicy",
    "SweepExecutor",
    "TopK",
    "TopKSink",
    "WeightedCompletionTime",
    "count_configs",
    "evaluation_path",
    "explore",
    "explore_brute_force",
    "explore_joint",
    "iter_configs",
    "joint_candidates",
    "load_builtin",
    "member_demand_bps",
    "pareto_filter",
    "register_scenario",
    "search_joint_assignment",
]


def test_explore_public_surface_is_pinned():
    import repro.explore as explore

    assert explore.__all__ == EXPLORE_PUBLIC_NAMES
    for name in EXPLORE_PUBLIC_NAMES:
        assert getattr(explore, name) is not None, name



def test_explore_design_counters_are_pinned():
    """The design numbers tracked across changes to ``repro.explore``:
    two ``evaluation=`` modes, four evaluation paths (every one reached
    by the matrix below) and 40 public names. Moving one is a
    deliberate design decision, made here."""
    from dataclasses import replace

    from repro.explore import engine, evaluation_path, load_builtin

    assert engine.EVALUATION_MODES == ("auto", "scalar")
    assert len(EXPLORE_PUBLIC_NAMES) == 40
    scenario = load_builtin().build("vr-fig10")
    matrix = [
        (scenario, {}),
        (scenario, {"evaluation": "scalar"}),
        (replace(scenario, auto_prune_configs=True), {}),
        (replace(scenario, prune=lambda config: False), {}),
        (scenario, {"dedup": True}),
        (replace(scenario, auto_prune=True), {"dedup": True}),
    ]
    paths = {evaluation_path(member, **knobs) for member, knobs in matrix}
    assert paths == {
        "batch-cohort",
        "batch-cohort-pruned",
        "batch-dedup",
        "scalar-memoized",
    }
