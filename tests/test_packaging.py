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
#: benchmarks and the library outside the package import from it.
#: Growing it is a deliberate API decision, so the list is pinned here;
#: ARCHITECTURE.md ("Every public name earns its place") lists each
#: name beside its user.
EXPLORE_PUBLIC_NAMES = [
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

#: Public names kept without a user outside the package, each for the
#: reason ARCHITECTURE.md records: ``CampaignResult`` and
#: ``ScenarioRun`` are the return types of ``Campaign.run`` and
#: ``iter_runs``, and ``JsonlSink`` is the only streaming JSON-Lines
#: export (``CsvSink`` points heterogeneous rows to it).
EXPLORE_NAMES_WITHOUT_USERS = ("CampaignResult", "ScenarioRun", "JsonlSink")


def test_explore_public_surface_is_pinned():
    import repro.explore as explore

    assert explore.__all__ == EXPLORE_PUBLIC_NAMES
    for name in EXPLORE_PUBLIC_NAMES:
        assert getattr(explore, name) is not None, name


def test_explore_public_names_have_users():
    """Every public name but the exempt ones is used by code outside
    the package: the library's other modules, an example, a benchmark
    or perfbench. Only identifiers count (NAME tokens: imports,
    attributes, calls), never a mention in a docstring, string or
    comment. A name that loses its last user leaves ``__all__``."""
    import io
    import tokenize

    root = PYPROJECT.parent
    package = root / "src" / "repro" / "explore"
    files = [
        path
        for path in (root / "src").rglob("*.py")
        if package not in path.parents
    ]
    for folder in ("examples", "benchmarks", "perfbench"):
        files += (root / folder).rglob("*.py")
    used = {
        token.string
        for path in files
        for token in tokenize.generate_tokens(
            io.StringIO(path.read_text(encoding="utf-8")).readline
        )
        if token.type == tokenize.NAME
    }
    assert set(EXPLORE_NAMES_WITHOUT_USERS) <= set(EXPLORE_PUBLIC_NAMES)
    unused = [
        name
        for name in EXPLORE_PUBLIC_NAMES
        if name not in EXPLORE_NAMES_WITHOUT_USERS and name not in used
    ]
    assert unused == []


def test_explore_design_counters_are_pinned():
    """The design numbers tracked across changes to ``repro.explore``:
    two ``evaluation=`` modes, four evaluation paths (every one reached
    by the matrix below) and 26 public names. Moving one is a
    deliberate design decision, made here."""
    from dataclasses import replace

    from repro.explore import engine, evaluation_path, load_builtin

    assert engine.EVALUATION_MODES == ("auto", "scalar")
    assert len(EXPLORE_PUBLIC_NAMES) == 26
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


def _explore_callables_taking(parameter: str) -> set[str]:
    """``module.name`` of every ``repro.explore`` callable with a
    ``parameter`` parameter. Every function, class and class method
    defined in the package's modules is walked (``__all__``, the
    ``Campaign`` methods and the private helpers alike), except the
    pool's own module."""
    import importlib
    import inspect
    import pkgutil

    import repro.explore as package

    taking = set()
    for info in pkgutil.iter_modules(package.__path__):
        if info.name == "executor":
            continue
        module = importlib.import_module(f"repro.explore.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            found = [(name, obj)]
            if inspect.isclass(obj):
                found += [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(obj).items()
                    if inspect.isfunction(member)
                ]
            for label, member in found:
                if not callable(member):
                    continue
                try:
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if parameter in parameters:
                    taking.add(f"{info.name}.{label}")
    return taking


def test_explore_executor_slots_are_pinned():
    """Which ``repro.explore`` callables take an ``executor``: exactly
    the three positional slots perfbench passes one to. The slots only
    validate the executor, so each raises ``ConfigurationError`` for
    anything but a ``SweepExecutor`` or None."""
    import repro.explore as package
    from repro.errors import ConfigurationError
    from repro.explore import Campaign, JointFleetScenario, load_builtin

    assert _explore_callables_taking("executor") == {
        "campaign.Campaign.run",
        "engine.evaluation_path",
        "joint.explore_joint",
    }

    scenario = load_builtin().build("vr-fig10")
    fleet = JointFleetScenario(
        name="pinned", members=(scenario,), capacity_bps=1e12
    )
    for call in (
        lambda: Campaign([scenario]).run([2]),
        lambda: package.explore_joint(fleet, [2]),
        lambda: package.evaluation_path(scenario, [2]),
    ):
        with pytest.raises(ConfigurationError, match="executor must be"):
            call()


def test_explore_batch_size_is_the_walks_alone():
    """No ``repro.explore`` callable outside the pool's module takes a
    ``chunk_size``: the cohort walk's batches and the scalar fold's
    ``DEFAULT_CHUNK_SIZE`` chunks are the only batch sizes."""
    assert _explore_callables_taking("chunk_size") == set()
