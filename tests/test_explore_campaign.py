"""Scenario catalog and batch exploration campaigns.

The acceptance gates of the campaign driver: a fleet spanning both cost
domains runs through *one* shared executor with every scenario's
evaluations byte-identical to a solo ``explore()``, interleaving
preserves deterministic per-scenario ordering for any worker count,
sinks receive per-scenario streams that match the solo exports, a
mid-campaign sink failure surfaces a clear error without corrupting the
other scenarios' outputs, and an export-only campaign stays within the
chunk-window memory bound.
"""

from __future__ import annotations

import gc
import io
import json

import pytest
from _sinks import MemorySink

from repro.core.block import Block, Implementation
from repro.core.cost import ConfigCost, EnergyCost
from repro.core.pipeline import InCameraPipeline
from repro.core.report import CAMPAIGN_SUMMARY_COLUMNS
from repro.errors import ConfigurationError, SinkError
from repro.explore import (
    Campaign,
    CsvSink,
    ResultSink,
    Scenario,
    ScenarioCatalog,
    SweepExecutor,
    evaluation_path,
    explore,
    load_builtin,
    vectorized,
)
import repro.explore.engine as engine_module
import repro.explore.executor as executor_module
from repro.explore.catalog import LINKS, resolve_link
from repro.hw.network import ETHERNET_25G, RF_BACKSCATTER, LinkModel

#: The fleet the acceptance criterion runs: >= 6 catalog scenarios
#: covering both cost domains through one shared executor.
FLEET_NAMES = (
    "vr-fig10",
    "vr-fig10-400g",
    "faceauth-energy",
    "faceauth-throughput",
    "compression-throughput",
    "compression-energy",
    "harvest-near",
)


def build_fleet() -> list[Scenario]:
    catalog = load_builtin()
    return [catalog.build(name) for name in FLEET_NAMES]


# -- catalog -------------------------------------------------------------


def test_builtin_catalog_is_diverse():
    catalog = load_builtin()
    assert len(catalog) >= 8
    domains = {entry.domain for entry in catalog}
    assert domains == {"throughput", "energy"}
    # Entries from every contributing stack.
    names = " ".join(catalog.names())
    for stack in ("vr", "faceauth", "compression", "harvest"):
        assert stack in names
    # Scenario names are campaign-unique out of the box.
    fleet = catalog.build_all()
    assert len({scenario.name for scenario in fleet}) == len(fleet)


def test_catalog_build_is_fresh_and_parameterized():
    catalog = load_builtin()
    first = catalog.build("vr-fig10")
    second = catalog.build("vr-fig10")
    assert first is not second
    custom = catalog.build("vr-fig10", target_fps=60.0)
    assert custom.target_fps == 60.0
    # Defaults applied by the entry, caller overrides win.
    pruned = catalog.build("vr-fig10-pruned")
    assert pruned.auto_prune and pruned.auto_prune_configs
    assert catalog.build("vr-fig10-pruned", auto_prune_configs=False).auto_prune


def test_catalog_unknown_name_lists_available():
    with pytest.raises(ConfigurationError, match="vr-fig10"):
        load_builtin().build("no-such-scenario")


def test_catalog_domain_filter_and_registration_rules():
    catalog = ScenarioCatalog()

    @catalog.register("a", domain="throughput", summary="x")
    def factory() -> Scenario:
        return Scenario(
            name="a",
            pipeline=InCameraPipeline(name="p", sensor_bytes=1.0, blocks=()),
            link=ETHERNET_25G,
        )

    # Same factory, same name: idempotent (module re-imports).
    catalog.register("a", domain="throughput", summary="x")(factory)
    assert catalog.names() == ["a"]

    # Different factory under a taken name: rejected.
    with pytest.raises(ConfigurationError, match="already registered"):
        catalog.register("a", domain="throughput", summary="y")(lambda: None)

    with pytest.raises(ConfigurationError, match="domain"):
        catalog.register("b", domain="latency", summary="z")
    assert catalog.names("energy") == []
    assert catalog.names("throughput") == ["a"]
    with pytest.raises(ConfigurationError, match="domain"):
        catalog.names("latency")


def test_catalog_survives_module_reload():
    import importlib

    import repro.vr.scenarios as vr_scenarios

    before = load_builtin().names()
    importlib.reload(vr_scenarios)  # fresh function objects, same defs
    assert load_builtin().names() == before
    assert load_builtin().build("vr-fig10").count_configs() == 15


def test_catalog_domain_mismatch_is_caught_at_build():
    catalog = ScenarioCatalog()

    @catalog.register("wrong", domain="energy", summary="claims energy")
    def factory() -> Scenario:
        return Scenario(
            name="wrong",
            pipeline=InCameraPipeline(name="p", sensor_bytes=1.0, blocks=()),
            link=ETHERNET_25G,
            domain="throughput",
        )

    with pytest.raises(ConfigurationError, match="registered for the 'energy'"):
        catalog.build("wrong")


def test_resolve_link_accepts_keys_and_models():
    assert resolve_link("25g") is ETHERNET_25G
    assert resolve_link(RF_BACKSCATTER) is RF_BACKSCATTER
    assert set(LINKS) >= {"25g", "400g", "backscatter", "wifi", "low-power"}
    with pytest.raises(ConfigurationError, match="unknown link"):
        resolve_link("56k-modem")
    with pytest.raises(ConfigurationError, match="LinkModel"):
        resolve_link(25.0)


# -- campaign: byte-identity through one shared executor -----------------


def test_campaign_matches_solo_explores_byte_for_byte():
    """Acceptance: >= 6 catalog scenarios, both domains, one shared
    executor; every scenario's rows byte-identical to solo explore()."""
    fleet = build_fleet()
    assert {scenario.domain for scenario in fleet} == {"throughput", "energy"}
    shared = SweepExecutor(workers=4, backend="thread", chunk_size=3)
    result = Campaign(fleet, name="acceptance").run(shared)
    assert len(result) == len(fleet)
    for run in result:
        solo = explore(run.scenario)
        assert json.dumps(run.result.rows) == json.dumps(solo.rows), run.name
        assert run.n_evaluated == len(solo.rows)
        assert run.n_feasible == len(solo.feasible)
        assert run.best == solo.best
        assert run.pareto_size == len(solo.pareto())
        assert run.wall_seconds >= 0.0


def test_collected_pareto_size_builds_no_row():
    """A collected run counts its frontier on the result's columns: no
    row is built for pareto_size, in either domain."""
    fleet = build_fleet()
    for run in Campaign(fleet).run():
        batches = run.result._batches
        assert batches, run.name
        built = sum(batch.n_materialized for batch in batches)
        assert run.pareto_size == len(explore(run.scenario).pareto())
        assert sum(batch.n_materialized for batch in batches) == built, run.name
        assert run.result._rows is None


def test_campaign_interleaving_is_deterministic_across_executors():
    fleet = build_fleet()
    serial = Campaign(fleet).run()
    threaded = Campaign(build_fleet()).run(SweepExecutor(workers=3, backend="thread"))
    for left, right in zip(serial, threaded):
        assert left.name == right.name
        assert json.dumps(left.result.rows) == json.dumps(right.result.rows)


def test_campaign_process_backend_round_trips():
    fleet = [load_builtin().build("faceauth-energy"), load_builtin().build("vr-fig10")]
    result = Campaign(fleet).run(SweepExecutor(workers=2, backend="process"))
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_run_campaign_convenience_and_lookup():
    result = Campaign(build_fleet()[:2], name="mini").run()
    assert result.name == "mini"
    assert result["vr-16cam@25GbE"].n_evaluated == 15
    with pytest.raises(KeyError, match="no scenario"):
        result["nope"]


# -- campaign validation -------------------------------------------------


def test_campaign_rejects_bad_fleets():
    scenario = load_builtin().build("vr-fig10")
    with pytest.raises(ConfigurationError, match="at least one"):
        Campaign([])
    with pytest.raises(ConfigurationError, match="unique"):
        Campaign([scenario, load_builtin().build("vr-fig10")])
    with pytest.raises(ConfigurationError, match="Scenario instances"):
        Campaign([scenario, "vr-fig10"])


def test_campaign_rejects_unknown_sink_keys_and_shapes():
    campaign = Campaign(build_fleet()[:2])
    with pytest.raises(ConfigurationError, match="unknown scenarios"):
        campaign.run(sinks={"not-a-scenario": MemorySink()})
    with pytest.raises(ConfigurationError, match="mapping"):
        campaign.run(sinks=MemorySink())


def test_export_only_rejects_partial_sink_coverage():
    fleet = build_fleet()[:2]
    with pytest.raises(ConfigurationError, match="without one") as info:
        Campaign(fleet).run(collect=False, sinks={fleet[0].name: MemorySink()})
    assert fleet[1].name in str(info.value)
    # Full coverage and no-sinks (summary-only) both stay legal.
    Campaign(fleet).run(
        collect=False, sinks={s.name: MemorySink() for s in fleet}
    )
    Campaign(fleet).run(collect=False)


def test_catalog_rejects_distinct_lambdas_under_one_name():
    catalog = ScenarioCatalog()
    catalog.register("x", domain="throughput", summary="a")(lambda: None)
    with pytest.raises(ConfigurationError, match="already registered"):
        catalog.register("x", domain="throughput", summary="b")(lambda: None)


def test_catalog_rejects_same_factory_with_different_metadata():
    """A copy-pasted stacked decorator that forgot to change the entry
    name must collide loudly, not silently replace the entry's
    defaults/domain/summary."""
    catalog = ScenarioCatalog()

    def factory(**kw):
        return None

    catalog.register("x", domain="throughput", summary="a",
                     defaults={"target_fps": 30.0})(factory)
    for changed in (
        {"summary": "b", "defaults": {"target_fps": 30.0}},
        {"summary": "a", "defaults": {"target_fps": 60.0}},
        {"summary": "a", "defaults": {"target_fps": 30.0}, "domain": "energy"},
    ):
        kwargs = {"domain": "throughput", **changed}
        with pytest.raises(ConfigurationError, match="already registered"):
            catalog.register("x", kwargs["domain"], kwargs["summary"],
                             defaults=kwargs["defaults"])(factory)
    # Identical re-registration (reload semantics) stays a no-op.
    catalog.register("x", domain="throughput", summary="a",
                     defaults={"target_fps": 30.0})(factory)
    assert catalog.names() == ["x"]


# -- campaign sinks ------------------------------------------------------


def test_campaign_sinks_match_solo_exports_byte_for_byte():
    fleet = build_fleet()
    buffers = {scenario.name: io.StringIO() for scenario in fleet}
    sinks = {name: CsvSink(buffer) for name, buffer in buffers.items()}
    Campaign(fleet).run(SweepExecutor(workers=4, backend="thread"), sinks=sinks)
    for scenario in fleet:
        assert (
            buffers[scenario.name].getvalue() == explore(scenario).to_csv()
        ), scenario.name


def test_campaign_sink_factory_and_partial_mapping():
    fleet = build_fleet()[:3]
    per_scenario: dict[str, MemorySink] = {}

    def factory(scenario):
        if scenario.domain != "energy":
            return None  # only energy scenarios get a sink
        per_scenario[scenario.name] = MemorySink()
        return per_scenario[scenario.name]

    result = Campaign(fleet).run(sinks=factory)
    energy = [scenario for scenario in fleet if scenario.domain == "energy"]
    assert set(per_scenario) == {scenario.name for scenario in energy}
    for scenario in energy:
        assert per_scenario[scenario.name].rows == result[scenario.name].result.rows


def test_mid_campaign_sink_failure_names_scenario_and_flushes_others(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 4)  # many batches a walk
    fleet = build_fleet()
    victim = fleet[2].name  # faceauth-energy

    class Boom(ResultSink):
        def write_rows(self, rows):
            raise OSError("quota exceeded")

    paths = {
        scenario.name: tmp_path / f"{index}.csv"
        for index, scenario in enumerate(fleet)
        if scenario.name != victim
    }
    sinks: dict[str, ResultSink] = {
        name: CsvSink(str(path)) for name, path in paths.items()
    }
    sinks[victim] = Boom()
    with pytest.raises(SinkError, match=victim) as info:
        Campaign(fleet).run(sinks=sinks)
    assert isinstance(info.value.__cause__, OSError)
    # Every other scenario's file was closed (flushed) and holds only
    # complete, correct rows: a strict prefix of (or the full) solo
    # export — never truncated mid-line, never another scenario's rows.
    for scenario in fleet:
        if scenario.name == victim:
            continue
        written = paths[scenario.name].read_text(encoding="utf-8")
        solo = explore(scenario).to_csv()
        assert solo.startswith(written)
        assert written == "" or written.endswith("\n")


def test_sink_open_failure_closes_previously_opened_sinks():
    fleet = build_fleet()[:3]
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

    class BadOpen(ResultSink):
        def open(self, scenario):
            raise OSError("no such directory")

        def write_rows(self, rows):
            pass

    sinks = {
        fleet[0].name: Tracking("first"),
        fleet[1].name: BadOpen(),
        fleet[2].name: Tracking("third"),
    }
    with pytest.raises(SinkError, match="failed to open"):
        Campaign(fleet).run(sinks=sinks)
    # The already-opened sink was closed (flushed); the sink after the
    # failing one was never opened, so it is not closed either.
    assert lifecycle == ["open:first", "close:first"]


def test_campaign_close_failure_surfaces_but_closes_all(tmp_path):
    closed = []

    class BadClose(ResultSink):
        def write_rows(self, rows):
            pass

        def close(self):
            closed.append("bad")
            raise RuntimeError("flush failed")

    class GoodClose(ResultSink):
        def write_rows(self, rows):
            pass

        def close(self):
            closed.append("good")

    fleet = build_fleet()[:2]
    with pytest.raises(SinkError, match="failed to close"):
        Campaign(fleet).run(
            sinks={fleet[0].name: BadClose(), fleet[1].name: GoodClose()}
        )
    assert sorted(closed) == ["bad", "good"]


# -- export-only campaigns -----------------------------------------------


def test_export_only_campaign_streams_stats_without_results():
    fleet = build_fleet()
    collected = Campaign(fleet).run()
    streamed = Campaign(fleet).run(collect=False)
    for full, lean in zip(collected, streamed):
        assert lean.result is None
        assert lean.n_evaluated == full.n_evaluated
        assert lean.n_feasible == full.n_feasible
        assert lean.best == full.best
        # The online frontier restores pareto under collect=False:
        # identical rows, identical order, to the collected-mode pareto.
        assert lean.pareto_size == full.pareto_size
        assert json.dumps(lean.pareto()) == json.dumps(full.pareto())
    rows = streamed.summary_rows()
    assert all(isinstance(row["pareto"], int) for row in rows)


def test_member_batch_computes_each_metric_column_once(monkeypatch):
    """The running statistics, the online frontier and a ``total_fps``
    top-k sink all read a member batch's metric columns; the batch view
    computes each derived column once and hands the same array to every
    reader."""
    from repro.explore import TopKSink
    from repro.explore.vectorized import BatchRows

    computed = []  # (batch, name); holding the batch keeps ids unique
    derive = BatchRows._metric

    def counting(self, name):
        computed.append((self, name))
        return derive(self, name)

    monkeypatch.setattr(BatchRows, "_metric", counting)
    scenario = load_builtin().build("vr-fig10")
    sink = TopKSink("total_fps", k=3)
    (run,) = Campaign([scenario]).run(collect=False, sinks={scenario.name: sink})
    totals = [id(batch) for batch, name in computed if name == "total_fps"]
    assert totals and len(totals) == len(set(totals))
    solo = explore(scenario)
    assert json.dumps(sink.top_k()) == json.dumps(solo.top_k("total_fps", 3))
    assert json.dumps(run.best) == json.dumps(solo.best)


def _live_costs() -> int:
    return sum(1 for obj in gc.get_objects() if isinstance(obj, (ConfigCost, EnergyCost)))


def test_export_only_campaign_memory_bounded_by_chunk_window(monkeypatch):
    """Acceptance: an export-only campaign through a CSV sink never
    materializes the full row cache: live cost objects stay a few
    batches' worth of a (shrunk) block."""
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=float(500 - 50 * i),
            pass_rate=0.7,
            implementations={
                p: Implementation(p, fps=40.0 - 2 * i + j, energy_per_frame=1e-6,
                                  active_seconds=1e-3)
                for j, p in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(6)
    )
    pipeline = InCameraPipeline(
        name="fleet-deep", sensor_bytes=1000.0, blocks=blocks,
        sensor_energy_per_frame=1e-6,
    )
    fleet = [
        Scenario(name="deep-throughput", pipeline=pipeline,
                 link=LinkModel(name="l", raw_bps=1e6), target_fps=10.0),
        Scenario(name="deep-energy", pipeline=pipeline, link=RF_BACKSCATTER,
                 domain="energy", energy_budget_j=1e-3),
    ]
    total = sum(scenario.count_configs() for scenario in fleet)
    block = 32
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", block)
    assert total > 20 * block
    peaks = []

    class Observing(CsvSink):
        def write_rows(self, rows):
            super().write_rows(rows)
            peaks.append(_live_costs())

    buffers = {scenario.name: io.StringIO() for scenario in fleet}
    result = Campaign(fleet).run(
        sinks={name: Observing(buffer) for name, buffer in buffers.items()},
        collect=False,
    )
    assert peaks and max(peaks) <= 6 * block  # a few in-flight batches, not `total`
    for run, scenario in zip(result, fleet):
        assert run.result is None
        assert run.n_evaluated == scenario.count_configs()
        assert buffers[scenario.name].getvalue() == explore(scenario).to_csv()


# -- mixed fleets: every walk kind in one lane -------------------------


def _mixed_pipeline(name: str, n_blocks: int) -> InCameraPipeline:
    blocks = tuple(
        Block(
            name=f"{name}{i}",
            output_bytes=float(900 - 110 * i),
            pass_rate=0.6 + 0.05 * i,
            implementations={
                p: Implementation(
                    p,
                    fps=35.0 - 3 * i + 4 * j,
                    energy_per_frame=1e-6 * (1 + i + j),
                    active_seconds=1e-3 * (1 + j),
                )
                for j, p in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(
        name=name, sensor_bytes=1000.0, blocks=blocks, sensor_energy_per_frame=1e-6
    )


def _no_cpu_head(config) -> bool:
    """Per-config prune hook: drop configurations whose first block runs
    on the cpu."""
    return config.platforms[:1] == ("cpu",)


def _mixed_fleet() -> list[Scenario]:
    """A stock member in each domain, an auto-pruned member, a hooked
    member, a pass-rate member and a same-pipeline two-link dedup pair:
    every walk kind (``batch-cohort``, ``batch-cohort-pruned``,
    ``batch-dedup``) in one fleet."""
    pipeline = _mixed_pipeline("m", 4)
    shared = _mixed_pipeline("d", 3)
    slow = LinkModel(name="slow", raw_bps=4e5, tx_energy_per_bit=2e-9)
    fleet = [
        Scenario(name="stock", pipeline=pipeline, link=RF_BACKSCATTER,
                 domain="energy", energy_budget_j=1e-3),
        Scenario(name="pruned", pipeline=pipeline, link=slow, target_fps=20.0,
                 auto_prune=True, auto_prune_configs=True),
        Scenario(name="hooked", pipeline=pipeline, link=slow,
                 target_fps=20.0, prune=_no_cpu_head),
        Scenario(name="rated", pipeline=pipeline, link=RF_BACKSCATTER,
                 domain="energy", pass_rates={"m0": 0.5}),
        Scenario(name="pair-slow", pipeline=shared, link=slow, target_fps=15.0),
        Scenario(name="pair-fast", pipeline=shared, link=ETHERNET_25G,
                 target_fps=15.0),
    ]
    return fleet


MIXED_EXECUTORS = pytest.mark.parametrize(
    "executor",
    [
        SweepExecutor(),
        SweepExecutor(workers=2, backend="thread"),
        SweepExecutor(workers=2, backend="process"),
    ],
    ids=["serial", "thread", "process"],
)


@MIXED_EXECUTORS
def test_mixed_fleet_matches_solo_and_pools_only_scalar_chunks(executor, monkeypatch):
    """Every member (solo, pruned, hooked, pass-rated, a dedup pair)
    folds the cohort walk in process: rows stay byte-identical to solo
    explore() under every dedup mode, and no member
    reaches the scalar pipe or the executor's ``imap``, whatever the
    executor — campaigns have no scalar members."""
    fleet = _mixed_fleet()
    solo = {scenario.name: json.dumps(explore(scenario).rows) for scenario in fleet}
    piped: list[str] = []
    pooled: list[str] = []
    real_chunks = engine_module.iter_evaluation_chunks
    real_imap = SweepExecutor.imap

    def spying_chunks(model, configs, *args, **kwargs):
        piped.append(type(model).__name__)
        return real_chunks(model, configs, *args, **kwargs)

    def spying_imap(self, fn, items, chunk_size=None):
        pooled.append(fn)
        return real_imap(self, fn, items, chunk_size)

    monkeypatch.setattr(engine_module, "iter_evaluation_chunks", spying_chunks)
    monkeypatch.setattr(SweepExecutor, "imap", spying_imap)
    for dedup in (False, True):
        piped.clear()
        pooled.clear()
        result = Campaign(fleet).run(executor, dedup=dedup)
        for run in result:
            assert json.dumps(run.result.rows) == solo[run.name], (dedup, run.name)
        assert piped == [], dedup
        assert pooled == [], dedup
        shared = 1 if dedup else 0
        assert result.cache_stats["scenarios_shared"] == shared


@pytest.mark.parametrize(
    "executor",
    [SweepExecutor(), SweepExecutor(workers=2, backend="thread")],
    ids=["serial", "thread"],
)
@pytest.mark.parametrize("dedup", [False, True])
def test_mixed_fleet_completes_in_wspt_order(executor, dedup):
    """One lane for every walk kind: the campaign hands runs out in
    WSPT order (ascending ``count_configs()``, ties in fleet
    order) whatever path each member takes. The executor reaches only
    ``evaluation_path``'s slot, which reports the same mixed paths on
    every executor."""
    fleet = _mixed_fleet()
    paths = {evaluation_path(member, executor, dedup=dedup) for member in fleet}
    assert paths == {"batch-dedup" if dedup else "batch-cohort", "batch-cohort-pruned"}
    runs = Campaign(fleet).iter_runs(dedup=dedup)
    assert [run.name for run in runs] == [
        "pair-slow",
        "pair-fast",
        "stock",
        "pruned",
        "hooked",
        "rated",
    ]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("dedup", [False, True])
def test_stock_only_campaign_constructs_no_pool(backend, dedup, monkeypatch):
    """A fleet of stock models folds entirely in the calling process: a
    parallel executor is accepted but no pool is ever started."""
    started = []

    def forbid(*args, **kwargs):
        started.append(args)
        raise AssertionError("a stock-only campaign started a pool")

    monkeypatch.setattr(executor_module, "ThreadPoolExecutor", forbid)
    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", forbid)
    fleet = build_fleet()
    result = Campaign(fleet).run(SweepExecutor(workers=2, backend=backend), dedup=dedup)
    assert not started
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


# -- summary report ------------------------------------------------------


def test_campaign_summary_table_shape():
    result = Campaign(build_fleet()).run()
    table = result.to_table()
    rendered = table.render()
    for column in CAMPAIGN_SUMMARY_COLUMNS:
        assert column in rendered
    assert table.n_rows == len(FLEET_NAMES)
    for row, run in zip(result.summary_rows(), result):
        assert row["scenario"] == run.name
        assert row["configs"] == run.n_evaluated
        assert row["best_config"] == run.best["config"]
        # Every member rides the cohort walk, so every run (dedup off
        # here) reports the rows it built: at least its best row.
        assert row["materialized"] == run.n_materialized >= 1
