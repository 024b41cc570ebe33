"""Streaming campaign consumption: ``iter_runs``, scheduling policies,
and the online Pareto frontier.

The acceptance gates of the streaming driver: ``iter_runs()`` yields
each scenario's run the moment its last chunk lands (observably before
the fleet drains), ``Campaign.run`` results stay byte-identical to solo
``explore()`` under every builtin scheduling policy, the streamed
Pareto frontier under ``collect=False`` equals the collected-mode
frontier exactly, an abandoned or interrupted iterator closes every
walk and every sink, and a mid-campaign sink failure never corrupts
sibling scenarios' streamed frontiers.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import ConfigurationError, SinkError
from repro.explore import (
    SCHEDULING_POLICIES,
    Campaign,
    MemorySink,
    ParetoFrontier,
    ParetoSink,
    ResultSink,
    RoundRobin,
    Scenario,
    SchedulingPolicy,
    SweepExecutor,
    WeightedCompletionTime,
    explore,
    load_builtin,
    pareto_filter,
)
from repro.explore.result import domain_frontier
from repro.explore.vectorized import BatchPrefixEvaluator
from repro.explore.scheduling import resolve_policy

#: A mixed-size, mixed-domain fleet (ascending design-space sizes:
#: faceauth 11, vr 15, snnap-dvfs 40, codec 81).
FLEET_NAMES = ("vr-fig10", "faceauth-energy", "snnap-dvfs", "compression-throughput")


def build_fleet(names=FLEET_NAMES) -> list[Scenario]:
    catalog = load_builtin()
    return [catalog.build(name) for name in names]


# -- the online Pareto frontier ------------------------------------------


def random_rows(rng: random.Random, n: int, n_axes: int = 2) -> list[dict]:
    """Random rows with deliberate value collisions so exact ties and
    duplicate points exercise the tie-survival rule."""
    return [
        {
            "config": f"c{i}",
            **{f"m{a}": float(rng.randint(0, 6)) for a in range(n_axes)},
        }
        for i in range(n)
    ]


@pytest.mark.parametrize("seed", range(8))
def test_frontier_matches_pareto_filter_on_random_rows(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, rng.randint(0, 60), n_axes=rng.choice([1, 2, 3]))
    axes = [f"m{a}" for a in range(len(rows[0]) - 1)] if rows else ["m0"]
    maximize = rng.choice(
        [True, False, [rng.choice([True, False]) for _ in axes]]
    )
    frontier = ParetoFrontier(axes, maximize)
    position = 0
    while position < len(rows):
        step = rng.randint(1, 7)
        frontier.add(rows[position : position + step])
        position += step
    expected = pareto_filter(rows, axes, maximize)
    assert frontier.rows == expected  # same rows, same (input) order
    assert len(frontier) == len(expected)
    assert frontier.n_seen == len(rows)


def test_frontier_keeps_exact_ties_and_evicts_dominated():
    frontier = ParetoFrontier(["x", "y"], True)
    a = {"x": 1.0, "y": 1.0}
    b = {"x": 1.0, "y": 1.0}  # exact tie with a: both survive
    c = {"x": 2.0, "y": 2.0}  # dominates both
    frontier.add([a, b])
    assert frontier.rows == [a, b]
    frontier.add([c])
    assert frontier.rows == [c]
    frontier.add([{"x": 0.0, "y": 0.0}])  # dominated on arrival
    assert frontier.rows == [c]


def test_frontier_validation_matches_pareto_filter():
    with pytest.raises(ConfigurationError, match="at least one axis"):
        ParetoFrontier([])
    with pytest.raises(ConfigurationError, match="maximize flags"):
        ParetoFrontier(["x", "y"], [True])
    frontier = ParetoFrontier(["x"], True)
    frontier.add([{"x": 1.0}])
    # Positions count across add() calls, like row indices in the batch.
    with pytest.raises(ConfigurationError, match="missing in row 1"):
        frontier.add([{"y": 2.0}])
    with pytest.raises(ConfigurationError, match="NaN in row 1"):
        frontier.add([{"x": float("nan")}])


def test_domain_frontier_uses_canonical_axes():
    throughput = domain_frontier("throughput")
    throughput.add([{"compute_fps": 1.0, "communication_fps": 2.0}])
    assert len(throughput) == 1
    energy = domain_frontier("energy")
    energy.add(
        [
            {"total_energy_j": 1.0, "active_seconds": 2.0},
            {"total_energy_j": 0.5, "active_seconds": 1.0},  # dominates
        ]
    )
    assert [row["total_energy_j"] for row in energy.rows] == [0.5]


# -- ParetoSink ----------------------------------------------------------


@pytest.mark.parametrize("name", ["vr-fig10", "faceauth-energy"])
def test_pareto_sink_equals_collected_frontier(name):
    """Acceptance: the streamed frontier under collect=False equals the
    collected-mode frontier exactly on the catalog scenarios."""
    scenario = load_builtin().build(name)
    sink = ParetoSink()
    assert explore(scenario, sink=sink, collect=False, chunk_size=3) is None
    collected = explore(scenario)
    assert json.dumps(sink.pareto()) == json.dumps(collected.pareto())
    assert len(sink.frontier) == len(collected.pareto())


def test_pareto_sink_explicit_axes():
    scenario = load_builtin().build("vr-fig10")
    sink = ParetoSink(axes=["total_fps"], maximize=True)
    explore(scenario, sink=sink, collect=False)
    collected = explore(scenario)
    assert json.dumps(sink.pareto()) == json.dumps(
        collected.pareto(["total_fps"], True)
    )


def test_pareto_sink_explicit_axes_keep_domain_direction():
    """maximize=None means the domain's direction also for explicit
    axes, as for ExplorationResult.pareto(): an energy frontier must not
    silently flip to maximization."""
    scenario = load_builtin().build("faceauth-energy")
    axes = ("total_energy_j", "active_seconds")
    sink = ParetoSink(axes=axes)
    explore(scenario, sink=sink, collect=False)
    expected = explore(scenario).pareto(axes=axes)
    assert json.dumps(sink.pareto()) == json.dumps(expected)
    # Scenario-less streams have no domain and maximize.
    sink = ParetoSink(axes=["x"])
    sink.open(None)
    sink.write_rows([{"x": 2.0}, {"x": 1.0}])
    assert sink.pareto() == [{"x": 2.0}]


def test_pareto_sink_needs_axes_for_scenarioless_streams():
    sink = ParetoSink()
    with pytest.raises(ConfigurationError, match="axes"):
        sink.open(None)
    with pytest.raises(ConfigurationError, match="before open"):
        ParetoSink().write_rows([{"x": 1.0}])
    assert ParetoSink().pareto() == []


# -- iter_runs: streaming consumption ------------------------------------


def test_iter_runs_yields_before_fleet_drains():
    """Acceptance ordering probe: the first run is observable while the
    rest of the fleet is still evaluating."""
    fleet = build_fleet()
    total = sum(scenario.count_configs() for scenario in fleet)
    sinks = {scenario.name: MemorySink() for scenario in fleet}
    iterator = Campaign(fleet).iter_runs(
        chunk_size=4, sinks=sinks, policy="weighted_completion"
    )
    first = next(iterator)
    streamed_so_far = sum(len(sink.rows) for sink in sinks.values())
    assert streamed_so_far < total  # the fleet has NOT drained
    # Shortest-first: the smallest scenario completes first, fully.
    smallest = min(fleet, key=lambda scenario: scenario.count_configs())
    assert first.name == smallest.name
    assert len(sinks[first.name].rows) == first.n_evaluated
    rest = list(iterator)
    assert [run.name for run in rest] != []
    assert {run.name for run in [first] + rest} == {s.name for s in fleet}
    assert sum(len(sink.rows) for sink in sinks.values()) == total


def test_iter_runs_matches_run_byte_for_byte():
    fleet = build_fleet()
    streamed = {
        run.name: run
        for run in Campaign(fleet).iter_runs(chunk_size=3)
    }
    drained = Campaign(fleet).run()
    assert set(streamed) == {run.name for run in drained}
    for run in drained:
        other = streamed[run.name]
        assert json.dumps(other.result.rows) == json.dumps(run.result.rows)
        assert other.n_feasible == run.n_feasible
        assert other.pareto_size == run.pareto_size


def test_iter_runs_completion_order_shortest_first():
    from dataclasses import replace

    fleet = build_fleet()
    fleet.append(replace(fleet[0], name="empty", max_blocks=0, include_empty=False))
    # Equal weights: weighted-completion order is shortest-first.
    runs = list(Campaign(fleet).iter_runs(policy=WeightedCompletionTime()))
    sizes = [run.scenario.count_configs() for run in runs]
    assert sizes == sorted(sizes)
    assert runs[0].name == "empty" and runs[0].n_evaluated == 0
    # run() reassembles fleet order regardless of completion order.
    result = Campaign(fleet).run(policy="weighted_completion")
    assert [run.name for run in result] == [scenario.name for scenario in fleet]


def test_abandoned_iter_runs_releases_executor_and_sinks(monkeypatch):
    """A consumer that walks away mid-fleet must leave no resources
    behind: every sink is closed exactly once, and no pool ever starts
    (``iter_runs`` takes no executor; every member folds in process).
    Round-robin starts every member's stream before the first run
    completes."""
    import repro.explore.executor as executor_module

    pools = []
    real_pool = executor_module.ThreadPoolExecutor

    class TrackingPool(real_pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(executor_module, "ThreadPoolExecutor", TrackingPool)

    lifecycle: list[str] = []

    class Tracking(ResultSink):
        def __init__(self, name):
            self._name = name

        def open(self, scenario):
            lifecycle.append(f"open:{self._name}")

        def write_rows(self, rows):
            pass

        def close(self):
            lifecycle.append(f"close:{self._name}")

    fleet = build_fleet()
    sinks = {scenario.name: Tracking(scenario.name) for scenario in fleet}
    iterator = Campaign(fleet).iter_runs(
        chunk_size=1, sinks=sinks, policy="round_robin"
    )
    first = next(iterator)
    iterator.close()  # walk away mid-fleet
    assert not pools
    opened = [e.split(":", 1)[1] for e in lifecycle if e.startswith("open:")]
    closed = [e.split(":", 1)[1] for e in lifecycle if e.startswith("close:")]
    assert sorted(opened) == sorted(scenario.name for scenario in fleet)
    assert sorted(closed) == sorted(opened)  # every sink closed exactly once
    assert first.n_evaluated > 0


class _InterruptingSink(ResultSink):
    """A columnar sink recording its lifecycle; the victim raises
    ``KeyboardInterrupt`` from its third ``write_batch``."""

    def __init__(self, name, lifecycle, walks, victim=False):
        self._name = name
        self._lifecycle = lifecycle
        self._walks = walks
        self._victim = victim
        self._batches = 0

    def open(self, scenario):
        self._lifecycle.append(("open", self._name, None))

    def write_batch(self, batch):
        self._batches += 1
        if self._victim and self._batches == 3:
            raise KeyboardInterrupt

    def write_rows(self, rows):
        raise AssertionError("a columnar sink is written batches")

    def close(self):
        self._lifecycle.append(("close", self._name, self._walks.open))


class _InterruptingPolicy(RoundRobin):
    """Round-robin that raises ``KeyboardInterrupt`` from its sixth
    ``select``."""

    def start(self, scenarios):
        super().start(scenarios)
        self._calls = 0

    def select(self, live):
        self._calls += 1
        if self._calls == 6:
            raise KeyboardInterrupt
        return super().select(live)


class _WalkTracker:
    """Counts cohort walks that started and have not finished."""

    def __init__(self, monkeypatch):
        self.started = 0
        self.open = 0
        real = BatchPrefixEvaluator.iter_group_batches
        tracker = self

        def walk(evaluator, scenarios, chunk_size=None):
            tracker.started += 1
            tracker.open += 1
            try:
                yield from real(evaluator, scenarios, chunk_size)
            finally:
                tracker.open -= 1

        monkeypatch.setattr(BatchPrefixEvaluator, "iter_group_batches", walk)


@pytest.mark.parametrize("source", ["write_batch", "select"])
def test_keyboard_interrupt_mid_iter_runs_closes_walks_and_sinks(source, monkeypatch):
    """Fault injection: a ``KeyboardInterrupt`` raised mid-fleet — from
    a sink's ``write_batch`` or from the policy's ``select`` —
    propagates unwrapped (not as a ``SinkError``). Every opened sink is
    closed exactly once, and the sinks still open when the interrupt hit
    close only after every walk has been closed, so none is left
    open."""
    catalog = load_builtin()
    fleet = build_fleet() + catalog.build_at_links("vr-fig10", ("wifi", "low-power"))
    walks = _WalkTracker(monkeypatch)
    lifecycle: list[tuple] = []
    victim = fleet[2].name if source == "write_batch" else None
    sinks = {
        member.name: _InterruptingSink(
            member.name, lifecycle, walks, victim=member.name == victim
        )
        for member in fleet
    }
    policy = _InterruptingPolicy() if source == "select" else "round_robin"
    runs = Campaign(fleet).iter_runs(
        chunk_size=2, sinks=sinks, collect=False, policy=policy, dedup=True
    )
    with pytest.raises(KeyboardInterrupt) as caught:
        for _ in runs:
            pass
    assert caught.type is KeyboardInterrupt
    assert walks.started > 1  # the interrupt hit with walks in flight
    assert walks.open == 0
    opened = [name for event, name, _ in lifecycle if event == "open"]
    closes = [(name, live) for event, name, live in lifecycle if event == "close"]
    assert sorted(opened) == sorted(member.name for member in fleet)
    assert sorted(name for name, _ in closes) == sorted(opened)
    # The sinks still open at the interrupt close last, after every
    # walk is closed.
    assert closes[-1][1] == 0


def test_sink_error_preserves_sibling_streamed_frontiers():
    """A SinkError mid-campaign must not corrupt sibling scenarios'
    streamed frontiers: each sibling's frontier equals the batch
    frontier of exactly the rows it was shown (a clean enumeration
    prefix), never a mixture with another scenario's rows."""
    fleet = build_fleet()
    victim = fleet[-1].name  # the largest scenario: fails mid-fleet

    class Boom(ResultSink):
        def __init__(self):
            self.writes = 0

        def write_rows(self, rows):
            self.writes += 1
            if self.writes >= 3:
                raise OSError("quota exceeded")

    class RecordingPareto(ParetoSink):
        def __init__(self):
            super().__init__()
            self.seen: list[dict] = []

        def write_rows(self, rows):
            self.seen.extend(rows)
            super().write_rows(rows)

    sinks: dict[str, ResultSink] = {
        scenario.name: RecordingPareto() for scenario in fleet
    }
    sinks[victim] = Boom()
    with pytest.raises(SinkError, match=victim):
        Campaign(fleet).run(chunk_size=2, sinks=sinks, collect=False)
    for scenario in fleet:
        if scenario.name == victim:
            continue
        sink = sinks[scenario.name]
        assert sink.seen, scenario.name  # siblings did stream
        solo_rows = explore(scenario).rows
        # A clean prefix of the scenario's own enumeration...
        assert json.dumps(sink.seen) == json.dumps(solo_rows[: len(sink.seen)])
        # ...and the streamed frontier is exactly the batch frontier of
        # that prefix under the scenario's domain axes.
        expected = domain_frontier(scenario.domain)
        expected.add(sink.seen)
        assert json.dumps(sink.pareto()) == json.dumps(expected.rows)


def test_iter_runs_consumer_code_sees_live_gc():
    """No GC pause leaks into the consumer: code between next() calls
    (dashboards, plotting — cycle-heavy) runs with the cyclic GC
    enabled, also on the fleets solo explore() would pause for (no
    sinks, stock models, no prune hooks)."""
    import gc

    assert gc.isenabled()
    fleet = build_fleet(("vr-fig10", "faceauth-energy"))
    states = []
    for run in Campaign(fleet).iter_runs(chunk_size=2):
        states.append(gc.isenabled())  # consumer-side code
    assert states and all(states)
    assert gc.isenabled()


# -- streamed vs collected frontier through campaigns --------------------


def test_campaign_streamed_frontier_equals_collected_on_catalog():
    """Acceptance: collect=False pareto equals collected pareto exactly
    on the fig10 and faceauth catalog scenarios."""
    fleet = build_fleet(("vr-fig10", "faceauth-energy", "faceauth-throughput"))
    collected = Campaign(fleet).run(chunk_size=3)
    streamed = Campaign(fleet).run(chunk_size=3, collect=False)
    for full, lean in zip(collected, streamed):
        assert lean.result is None and full.result is not None
        assert json.dumps(lean.pareto()) == json.dumps(full.pareto())
        assert lean.pareto_size == full.pareto_size == len(full.result.pareto())
        assert lean.summary_row()["pareto"] == full.summary_row()["pareto"]


# -- scheduling policies -------------------------------------------------


def test_run_byte_identical_under_every_builtin_policy():
    """Acceptance: Campaign.run results stay byte-identical to solo
    explore() — i.e. to the pre-policy behavior — under every builtin
    scheduling policy, serial and parallel."""
    fleet = build_fleet()
    solo = {scenario.name: explore(scenario).rows for scenario in fleet}
    for policy in sorted(SCHEDULING_POLICIES):
        for executor in (None, SweepExecutor(workers=3, backend="thread")):
            result = Campaign(fleet).run(executor, chunk_size=2, policy=policy)
            assert result.policy == policy
            for run in result:
                assert json.dumps(run.result.rows) == json.dumps(
                    solo[run.name]
                ), (policy, run.name)


def test_round_robin_cycles_live_indices():
    policy = RoundRobin()
    policy.start([])
    picks = [policy.select([0, 1, 2]) for _ in range(5)]
    assert picks == [0, 1, 2, 0, 1]
    assert policy.select([0, 2]) == 2  # 1 exhausted: cycle skips it
    assert policy.select([0, 2]) == 0


def test_resolve_policy_accepts_names_instances_and_ducks():
    assert isinstance(resolve_policy(None), RoundRobin)
    assert isinstance(resolve_policy("weighted_completion"), WeightedCompletionTime)
    instance = WeightedCompletionTime()
    assert resolve_policy(instance) is instance
    with pytest.raises(ConfigurationError, match="unknown scheduling policy"):
        resolve_policy("fifo")
    with pytest.raises(ConfigurationError, match="policy must be"):
        resolve_policy(42)


def test_custom_policy_selecting_dead_scenario_fails_fast():
    class Broken(SchedulingPolicy):
        name = "broken"

        def select(self, live):
            return -1

    fleet = build_fleet(("vr-fig10",))
    with pytest.raises(ConfigurationError, match="live set"):
        Campaign(fleet).run(policy=Broken())


def test_campaign_result_reports_policy():
    fleet = build_fleet(("vr-fig10",))
    result = Campaign(fleet).run(policy="weighted_completion")
    assert result.policy == "weighted_completion"
    assert "weighted_completion" in result.to_table().render()


def test_single_scenario_fleet_works_under_every_policy():
    scenario = load_builtin().build("faceauth-energy")
    solo = explore(scenario).rows
    for policy in sorted(SCHEDULING_POLICIES):
        result = Campaign([scenario]).run(policy=policy)
        assert json.dumps(result.runs[0].result.rows) == json.dumps(solo)


def test_policies_compose_with_pruned_scenarios():
    """Policy interleaving over auto-pruned scenarios: per-scenario
    results still match solo explore() (pruning changes each scenario's
    chunk stream, not the routing)."""
    from dataclasses import replace

    catalog = load_builtin()
    fleet = [
        catalog.build("vr-fig10-pruned"),
        replace(
            catalog.build("faceauth-energy", name="faceauth-pruned"),
            auto_prune=True,
            auto_prune_configs=True,
        ),
    ]
    solo = {scenario.name: explore(scenario).rows for scenario in fleet}
    result = Campaign(fleet).run(chunk_size=2, policy="weighted_completion")
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(solo[run.name])
