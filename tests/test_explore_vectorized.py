"""The columnar batch evaluation core (`repro.explore.vectorized`).

Unit coverage for the pieces the invariant suite exercises end-to-end:
the stock-model check and the subclasses it refuses, the
``evaluation=`` knob and path report, :class:`BatchRows` laziness and
columnar metrics, the columnar sink folds (``add_batch`` ==  scalar
``add``, including NaN positions and ties), and the error surfaces of
every entry point.
"""

from __future__ import annotations

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from _sinks import FrontierSink, MemorySink

from repro.core.block import Block, Implementation
from repro.core.cost import EnergyCostModel, ThroughputCostModel
from repro.core.pipeline import InCameraPipeline
from repro.errors import ConfigurationError
from repro.explore import (
    BatchPrefixEvaluator,
    Campaign,
    ResultSink,
    Scenario,
    SweepExecutor,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
    vectorized,
)
from repro.core.offload import OffloadAnalyzer
from repro.explore.engine import EVALUATION_MODES, iter_evaluation_chunks
from repro.explore.incremental import PrefixEvaluator, _check_stock_model
from repro.explore.result import ParetoFrontier, TopK, best_row, cost_row
from repro.explore.sink import uses_columnar_writes
from repro.hw.network import LinkModel


def build_pipeline(n_blocks: int = 3) -> InCameraPipeline:
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=900.0 - 200.0 * i,
            pass_rate=0.8,
            implementations={
                platform: Implementation(
                    platform,
                    fps=90.0 - 7 * i + 3 * j,
                    energy_per_frame=1e-6 * (i + j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, platform in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return InCameraPipeline(
        name="vec-unit", sensor_bytes=1200.0, blocks=blocks,
        sensor_energy_per_frame=2e-7,
    )


LINK = LinkModel(name="vec-link", raw_bps=2e6, tx_energy_per_bit=1e-9)


def build_scenario(**overrides) -> Scenario:
    kwargs = {
        "name": "vec-unit",
        "pipeline": build_pipeline(),
        "link": LINK,
        "target_fps": 60.0,
    }
    kwargs.update(overrides)
    return Scenario(**kwargs)


# -- the stock-model check ------------------------------------------------


class _ScalarOnlyOverride(ThroughputCostModel):
    """Customizes a scalar step only: the stock batch kernel would
    silently bypass it."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)


class _MatchedOverride(ThroughputCostModel):
    """Customizes a scalar step and its batch twin."""

    def extend_state(self, state, block, impl):
        return super().extend_state(state, block, impl)

    def extend_state_batch(self, state, option_fps):
        return super().extend_state_batch(state, option_fps)


class _BatchOnlyOverride(ThroughputCostModel):
    """Customizes only a batch kernel."""

    def extend_state_batch(self, state, option_fps):
        return super().extend_state_batch(state, option_fps)


class _CustomEvaluate(ThroughputCostModel):
    def evaluate(self, config):
        return super().evaluate(config)


_STEP_OVERRIDES = (_ScalarOnlyOverride, _MatchedOverride, _BatchOnlyOverride)

#: Every cost-defining step of the stock models: ``evaluate``, the
#: scalar fold steps and their columnar batch twins.
_COST_STEPS = (
    "evaluate",
    "initial_state",
    "extend_state",
    "finalize",
    "initial_state_batch",
    "extend_state_batch",
    "finalize_batch",
)


def test_probes_on_stock_models():
    for model in (ThroughputCostModel(LINK), EnergyCostModel(LINK)):
        _check_stock_model(model)
        PrefixEvaluator(model)
        BatchPrefixEvaluator(model)
    OffloadAnalyzer(ThroughputCostModel(LINK))
    with pytest.raises(ConfigurationError, match="ThroughputCostModel"):
        OffloadAnalyzer(EnergyCostModel(LINK))


def test_probes_on_override_matrix():
    """The check is by exact type: any subclass — overriding a scalar
    step, a batch twin, both, ``evaluate()`` or nothing at all — is
    refused, as is anything that is not a cost model."""

    class JustASubclass(ThroughputCostModel):
        pass

    for cls in (*_STEP_OVERRIDES, _CustomEvaluate, JustASubclass):
        with pytest.raises(ConfigurationError, match=cls.__name__):
            _check_stock_model(cls(LINK))
    with pytest.raises(ConfigurationError, match="stock cost models only"):
        _check_stock_model(object())


@pytest.mark.parametrize("domain", ("throughput", "energy"))
@pytest.mark.parametrize("step", _COST_STEPS)
def test_overriding_any_cost_step_leaves_the_stock_gate(step, domain):
    """A subclass overriding only ``step`` (delegating to the stock
    one) is refused by every entry point that takes a model object,
    before it evaluates anything."""
    base = ThroughputCostModel if domain == "throughput" else EnergyCostModel

    def delegate(self, *args, **kwargs):
        return getattr(base, step)(self, *args, **kwargs)

    model = type(f"Override_{step}", (base,), {step: delegate})(LINK)
    entry_points = [PrefixEvaluator, BatchPrefixEvaluator]
    if domain == "throughput":
        entry_points.append(OffloadAnalyzer)
    for entry in entry_points:
        with pytest.raises(ConfigurationError, match=f"Override_{step}"):
            entry(model)


def test_batch_prefix_evaluator_dispatch():
    for cls in _STEP_OVERRIDES:
        with pytest.raises(ConfigurationError, match="stock cost models only"):
            BatchPrefixEvaluator(cls(LINK))
    with pytest.raises(ConfigurationError, match="pass_rates only apply"):
        BatchPrefixEvaluator(ThroughputCostModel(LINK), pass_rates={"B0": 0.5})


def test_matched_override_refuses_cohort_enumeration():
    scenario = build_scenario()
    with pytest.raises(ConfigurationError, match="stock cost models only"):
        BatchPrefixEvaluator(_MatchedOverride(LINK))
    # The stock model walks the same scenario's cohorts.
    stock = BatchPrefixEvaluator(ThroughputCostModel(LINK))
    walked = sum(len(batch) for batch in stock.iter_scenario_batches(scenario))
    assert walked == scenario.count_configs()


# -- the evaluation= knob and path report --------------------------------


def test_evaluation_path_values():
    scenario = build_scenario()
    assert evaluation_path(scenario) == "batch-cohort"
    # Stock runs fold their cohorts in process on every executor: a
    # pool would only ship them out and pickle cost objects back.
    for backend in ("thread", "process"):
        pool = SweepExecutor(workers=2, backend=backend)
        assert evaluation_path(scenario, pool) == "batch-cohort"
    assert evaluation_path(scenario, evaluation="scalar") == "scalar-memoized"
    # Per-config filtering (a custom prune hook) fuses into the cohort
    # walk as an emission-time filter, on any executor.
    filtered = build_scenario(prune=lambda config: False)
    assert evaluation_path(filtered) == "batch-cohort-pruned"
    assert evaluation_path(filtered, SweepExecutor(workers=2)) == "batch-cohort-pruned"
    # Auto-derived prefix pruners carry batch forms: pruned scenarios
    # report the fused cohort path, not a scalar fallback.
    pruned = build_scenario(auto_prune=True, auto_prune_configs=True)
    assert evaluation_path(pruned) == "batch-cohort-pruned"
    assert evaluation_path(pruned, SweepExecutor(workers=2)) == "batch-cohort-pruned"
    # Pruned runs take the scalar reference fold only when asked to.
    assert evaluation_path(pruned, evaluation="scalar") == "scalar-memoized"


def test_pruned_explore_builds_its_prefix_pruner_once(monkeypatch):
    """Planning names the pruned path without building the pruner; the
    walk builds it, once per explore(), in both domains."""
    builds = []
    real = Scenario.prefix_pruner
    monkeypatch.setattr(
        Scenario, "prefix_pruner", lambda self: builds.append(self) or real(self)
    )
    for scenario in (
        build_scenario(auto_prune_configs=True),
        build_scenario(
            auto_prune_configs=True, domain="energy", target_fps=None,
            energy_budget_j=1e-5,
        ),
    ):
        assert evaluation_path(scenario) == "batch-cohort-pruned"
        assert not builds
        explore(scenario)
        assert builds == [scenario]
        builds.clear()


def test_evaluation_mode_validation():
    scenario = build_scenario()
    assert EVALUATION_MODES == ("auto", "scalar")
    # "batch" is not a mode: "auto" is the columnar walk.
    for bad in ("bogus", "batch"):
        with pytest.raises(ConfigurationError, match="evaluation must be one of"):
            explore(scenario, evaluation=bad)
        with pytest.raises(ConfigurationError, match="evaluation must be one of"):
            evaluation_path(scenario, evaluation=bad)
        with pytest.raises(ConfigurationError, match="evaluation must be one of"):
            iter_evaluation_chunks(
                ThroughputCostModel(LINK), scenario.iter_configs(), evaluation=bad
            )


def test_explore_modes_agree_on_rows():
    scenario = build_scenario()
    auto = explore(scenario)
    scalar = explore(scenario, evaluation="scalar")
    assert json.dumps(auto.rows) == json.dumps(scalar.rows)
    streamed = [
        cost_row(scenario, cost)
        for chunk in iter_evaluation_chunks(
            scenario.cost_model(), scenario.iter_configs()
        )
        for cost in chunk
    ]
    assert json.dumps(streamed) == json.dumps(scalar.rows)


# -- BatchRows -----------------------------------------------------------


def scenario_batches(scenario):
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    return list(evaluator.iter_scenario_batches(scenario))


def test_batch_rows_materialize_lazily():
    scenario = build_scenario()
    batches = scenario_batches(scenario)
    assert sum(len(b) for b in batches) == scenario.count_configs()
    deepest = batches[-1]
    assert deepest.n_materialized == 0
    column = deepest.metric_column("total_fps")
    assert len(column) == len(deepest)
    assert deepest.n_materialized == 0  # columns never materialize
    cost = deepest.cost(0)
    assert deepest.n_materialized == 1
    assert cost.config == deepest.config(0)
    row = deepest.row(1)
    assert deepest.n_materialized == 2
    assert row == cost_row(scenario, deepest.cost(1))


def test_batch_rows_match_scalar_rows_and_columns():
    scenario = build_scenario()
    scalar = explore(scenario, evaluation="scalar")
    rows = [row for batch in scenario_batches(scenario) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(scalar.rows)
    position = 0
    for batch in scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        for metric in ("n_in_camera", "offload_bytes", "compute_fps",
                       "communication_fps", "total_fps", "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)
    with pytest.raises(KeyError):
        scenario_batches(scenario)[0].metric_column("config")


def test_energy_batch_columns_match_scalar_rows():
    scenario = build_scenario(
        domain="energy", target_fps=None, energy_budget_j=2e-5,
        pass_rates={"B0": 0.4},
    )
    scalar = explore(scenario, evaluation="scalar")
    evaluator = BatchPrefixEvaluator(
        scenario.cost_model(), pass_rates=scenario.pass_rates
    )
    position = 0
    for batch in evaluator.iter_scenario_batches(scenario):
        span = scalar.rows[position : position + len(batch)]
        assert json.dumps(batch.rows()) == json.dumps(span)
        for metric in ("transmit_rate", "active_seconds", "transmit_energy_j",
                       "sensor_energy_j", "compute_energy_j", "total_energy_j",
                       "feasible"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)


def test_energy_rows_add_block_energies_as_the_fold_does():
    """Ten blocks of 0.1 J do not add exactly: left to right they make
    0.9999999999999999, the compensated ``sum()`` of Python 3.12 and
    later 1.0. The fold's compute column adds left to right, so every
    row (columnar, scalar or oracle) must too, or ``best`` would rank
    on values its rows do not show."""
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=1000.0 / (i + 2),
            implementations={
                "asic": Implementation("asic", fps=60.0, energy_per_frame=0.1)
            },
        )
        for i in range(10)
    )
    pipeline = InCameraPipeline(name="tenths", sensor_bytes=1000.0, blocks=blocks)
    scenario = Scenario(name="tenths", pipeline=pipeline, link=LINK, domain="energy")
    batches = scenario_batches(scenario)
    rows = [row for batch in batches for row in batch.rows()]
    assert rows[-1]["compute_energy_j"] == 0.9999999999999999
    position = 0
    for batch in batches:
        span = rows[position : position + len(batch)]
        for metric in ("compute_energy_j", "total_energy_j"):
            got = batch.metric_column(metric).tolist()
            assert got == [row[metric] for row in span], metric
        position += len(batch)
    result = explore(scenario)
    assert json.dumps(result.rows) == json.dumps(rows)
    assert result.best == best_row(result.rows, "total_energy_j", maximize=False)
    scalar = explore(scenario, evaluation="scalar")
    for reference in (scalar, explore_brute_force(scenario)):
        assert json.dumps(reference.rows) == json.dumps(rows)
        assert reference.best == result.best
    assert [cost.total_energy for cost in result.evaluations] == [
        row["total_energy_j"] for row in rows
    ]


def test_batch_rows_view_is_the_same_rows_without_the_memo():
    scenario = build_scenario()
    batch = scenario_batches(scenario)[-1]
    column = batch.metric_column("total_fps")
    view = batch.view()
    assert len(view) == len(batch)
    assert not view._metrics  # the memo stays with the batch
    assert view.metric_column("total_fps") is not column
    assert view.metric_column("total_fps").tolist() == column.tolist()
    assert json.dumps(view.rows()) == json.dumps(batch.rows())


#: Ceiling on the traced peak of a 12-block export (0.74 MB throughput
#: and 1.27 MB energy measured; the whole-cohort walk this bounds peaked
#: at 123 MB).
EXPORT_PEAK_CAP = 2 * 2**20


def _deep_chain(n_blocks: int, domain: str = "throughput") -> Scenario:
    """A chain with three platforms per block, unpruned."""
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=1000.0 - 50.0 * (i + 1),
            pass_rate=0.9,
            implementations={
                platform: Implementation(
                    platform,
                    fps=100.0 - 4 * i + j,
                    energy_per_frame=1e-6 * (j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, platform in enumerate(("asic", "cpu", "fpga"))
            },
        )
        for i in range(n_blocks)
    )
    return Scenario(
        name=f"chain-{n_blocks}",
        pipeline=InCameraPipeline(
            name=f"chain-{n_blocks}", sensor_bytes=1000.0, blocks=blocks
        ),
        link=LinkModel(
            name="link", raw_bps=1e6, efficiency=0.8, tx_energy_per_bit=1e-9
        ),
        domain=domain,
        target_fps=30.0 if domain == "throughput" else None,
    )


def _export_peak_bytes(n_blocks: int, domain: str = "throughput") -> int:
    """Peak traced bytes of a ``collect=False`` top-k export."""
    scenario = _deep_chain(n_blocks, domain)
    if domain == "throughput":
        sink = TopKSink("total_fps", k=5)
    else:
        sink = TopKSink("total_energy_j", k=5, maximize=False)
    tracemalloc.start()
    try:
        explore(scenario, sink=sink, collect=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("block_rows", [None, 4096])
def test_export_peak_memory_does_not_grow_with_the_space(block_rows, monkeypatch):
    """The cohort walk's working set is a fixed number of row blocks:
    nine times the configurations (12 vs 10 blocks) leave the export's
    peak nearly flat, at the default block and at a smaller one."""
    if block_rows is not None:
        monkeypatch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
    _export_peak_bytes(3)  # first-call allocations, untimed
    shallow = _export_peak_bytes(10)
    deep = _export_peak_bytes(12)
    assert deep <= 1.5 * shallow, (shallow, deep)
    assert deep < EXPORT_PEAK_CAP, deep


@pytest.mark.parametrize("block_rows", [None, 4096])
def test_energy_export_peak_memory_does_not_grow_with_the_space(
    block_rows, monkeypatch
):
    """The energy twin: per-level block energies live in per-option
    tables, not per-row arrays, so a deeper chain does not widen the
    rows the walk holds."""
    if block_rows is not None:
        monkeypatch.setattr(vectorized, "_BLOCK_ROWS", block_rows)
    _export_peak_bytes(3, "energy")  # first-call allocations
    shallow = _export_peak_bytes(10, "energy")
    deep = _export_peak_bytes(12, "energy")
    assert deep <= 1.5 * shallow, (shallow, deep)
    assert deep < EXPORT_PEAK_CAP, deep


@pytest.mark.parametrize("n_blocks", [200, 300])
def test_long_chain_level_codes_equal_scalar(n_blocks):
    """Every block of a single-platform chain is slower than the last,
    so the slowest-block level code reaches ``n_blocks - 1`` — past
    what an ``int8`` code holds — and still decodes to the scalar
    label."""
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=1000.0 - i,
            implementations={"cpu": Implementation("cpu", fps=1000.0 - i)},
        )
        for i in range(n_blocks)
    )
    scenario = Scenario(
        name=f"long-{n_blocks}",
        pipeline=InCameraPipeline(
            name=f"long-{n_blocks}", sensor_bytes=1000.0, blocks=blocks
        ),
        link=LINK,
        target_fps=30.0,
    )
    batch = explore(scenario)
    assert len(batch) == n_blocks + 1
    assert batch.rows[-1]["slowest_block"] == f"B{n_blocks - 1}(cpu)"
    assert json.dumps(batch.rows) == json.dumps(
        explore(scenario, evaluation="scalar").rows
    )


def test_cohorts_honor_depth_pruning_and_include_empty():
    pruned = build_scenario(auto_prune=True)
    rows = [row for batch in scenario_batches(pruned) for row in batch.rows()]
    assert json.dumps(rows) == json.dumps(explore(pruned, evaluation="scalar").rows)
    no_empty = build_scenario(include_empty=False)
    # A batch may span several depths; each row carries its own.
    depths = [
        d
        for batch in scenario_batches(no_empty)
        for d in batch.metric_column("n_in_camera").tolist()
    ]
    assert 0 not in depths
    assert sum(len(b) for b in scenario_batches(no_empty)) == no_empty.count_configs()


def test_group_batches_equal_each_members_solo_walk(monkeypatch):
    """The dedup group walk: one fold of the leader's states closed
    under every member's link equals each member's own cohort walk
    (several batches of a 7-row block), and members share the batch's
    choice selection by reference."""
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 7)
    for domain, extra in (
        ("throughput", {}),
        ("energy", {"target_fps": None, "pass_rates": {"B0": 0.4}}),
    ):
        pipeline = build_pipeline()
        links = [
            LINK,
            LinkModel(name="vec-fast", raw_bps=9e7, tx_energy_per_bit=3e-10),
        ]
        group = [
            build_scenario(
                name=f"g{index}", pipeline=pipeline, link=link, domain=domain, **extra
            )
            for index, link in enumerate(links)
        ]
        lead = group[0]
        evaluator = BatchPrefixEvaluator(lead.cost_model(), lead.pass_rates)
        slices = list(evaluator.iter_group_batches(group))
        assert len(slices) > 1
        assert all(len(views) == len(group) for views in slices)
        for views in slices:
            assert all(view._choices is views[0]._choices for view in views)
            assert all(len(view) <= 7 for view in views)
        for slot, member in enumerate(group):
            rows = [row for views in slices for row in views[slot].rows()]
            solo = BatchPrefixEvaluator(member.cost_model(), member.pass_rates)
            expected = [
                row
                for batch in solo.iter_scenario_batches(member)
                for row in batch.rows()
            ]
            assert json.dumps(rows) == json.dumps(expected), (domain, slot)


@pytest.mark.parametrize("domain", ["throughput", "energy"])
def test_a_member_that_fits_one_block_arrives_as_one_batch(domain):
    """Every depth of a small walk is resident, so a campaign member
    whose whole space fits one block gets exactly one batch, spanning
    all its depths, and each member of a dedup group gets its own view
    of that one batch."""
    pipeline = build_pipeline(4)
    links = [LINK, LinkModel(name="vec-fast", raw_bps=9e7, tx_energy_per_bit=3e-10)]
    extra = {"target_fps": None} if domain == "energy" else {}
    fleet = [
        build_scenario(
            name=f"m{index}", pipeline=pipeline, link=link, domain=domain, **extra
        )
        for index, link in enumerate(links)
    ]
    seen: dict[str, list] = {member.name: [] for member in fleet}

    class _Recording(ResultSink):
        def __init__(self, name):
            self.name = name

        def write_batch(self, batch):
            seen[self.name].append(batch)

    Campaign(fleet).run(
        dedup=True,
        collect=False,
        sinks={member.name: _Recording(member.name) for member in fleet},
    )
    n = fleet[0].count_configs()
    assert 1 < n <= vectorized._BLOCK_ROWS
    (first,), (second,) = seen.values()
    assert len(first) == len(second) == n
    assert first is not second and first._choices is second._choices
    assert first.metric_column("n_in_camera").tolist() == [
        row["n_in_camera"] for row in explore(fleet[0]).rows
    ]


# -- columnar sink folds -------------------------------------------------


class _FakeBatch:
    """The minimal add_batch consumer contract over plain rows."""

    def __init__(self, rows, columnar=("m",), owner=None):
        self._rows = rows
        self._columnar = columnar
        self._owner = self if owner is None else owner
        self.n_materialized = 0

    def __len__(self):
        return len(self._rows)

    def metric_column(self, name):
        if name not in self._columnar:
            raise KeyError(name)
        return np.array([row[name] for row in self._rows], dtype=float)

    def row(self, i):
        self.n_materialized += 1
        return self._rows[i]

    def take(self, indices):
        self._owner.n_materialized += len(indices)
        return [self._rows[i] for i in indices]

    def rows(self):
        self.n_materialized += len(self._rows)
        return list(self._rows)

    def compact(self, indices):
        """The rows at ``indices``; what it builds counts against this
        batch."""
        return _FakeBatch(
            [self._rows[i] for i in indices], self._columnar, owner=self._owner
        )


def test_topk_add_batch_equals_scalar_add_with_ties():
    rows = [{"config": f"c{i}", "m": float(v)} for i, v in
            enumerate([5, 7, 7, 3, 7, 9, 1, 9, 2, 7])]
    for maximize in (True, False):
        for k in (0, 2, 4, 50):
            online = TopK("m", k=k, maximize=maximize)
            online.add_batch(_FakeBatch(rows[:6]))
            online.add_batch(_FakeBatch(rows[6:]))
            batch = TopK("m", k=k, maximize=maximize)
            batch.add(rows)
            assert online.rows == batch.rows, (maximize, k)
            assert online.n_seen == batch.n_seen == len(rows)


def test_topk_add_batch_materializes_candidates_only():
    rows = [{"m": float(v)} for v in [9, 8, 1, 1, 1, 1, 10, 1]]
    online = TopK("m", k=2, maximize=True)
    fake = _FakeBatch(rows)
    online.add_batch(fake)
    # The heap fill (2) and the single later row beating the batch-start
    # root enter undecoded: the fold builds no row.
    assert fake.n_materialized == 0
    assert [row["m"] for row in online.rows] == [10.0, 9.0]
    # The read builds exactly the rows it returns, once.
    assert fake.n_materialized == 2
    assert [row["m"] for row in online.rows] == [10.0, 9.0]
    assert fake.n_materialized == 2


def test_topk_add_batch_nan_raises_at_the_exact_position():
    rows = [{"m": 4.0}, {"m": 5.0}, {"m": float("nan")}, {"m": 6.0}]
    online = TopK("m", k=2)
    with pytest.raises(ConfigurationError, match="row 2"):
        online.add_batch(_FakeBatch(rows))


@pytest.mark.parametrize("maximize", [True, False])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_topk_add_batch_equals_add_under_heavy_ties(maximize, k):
    """Four distinct values over 300 rows: the window's own k best must
    pick the same tied rows the scalar fold keeps, however the stream
    is split into batches."""
    values = np.random.default_rng(k).integers(0, 4, size=300).astype(float)
    rows = [{"config": f"c{i}", "m": float(v)} for i, v in enumerate(values)]
    reference = TopK("m", k=k, maximize=maximize)
    reference.add(rows)
    for split in (1, 7, 50, 300):
        online = TopK("m", k=k, maximize=maximize)
        for lo in range(0, len(rows), split):
            online.add_batch(_FakeBatch(rows[lo : lo + split]))
        assert online.rows == reference.rows, (split, maximize, k)
        assert online.n_seen == reference.n_seen == len(rows)


@pytest.mark.parametrize("maximize", [True, False])
def test_topk_add_batch_nan_after_candidates_matches_add(maximize):
    """A NaN behind many improving rows raises at its own position,
    with the ranking folded exactly as far as the scalar fold got."""
    rows = [{"config": f"c{i}", "m": float(i % 9)} for i in range(40)]
    rows.append({"config": "nan", "m": float("nan")})
    rows.append({"config": "after", "m": 100.0})
    online = TopK("m", k=3, maximize=maximize)
    online.add_batch(_FakeBatch(rows[:5]))
    with pytest.raises(ConfigurationError, match="row 40"):
        online.add_batch(_FakeBatch(rows[5:]))
    reference = TopK("m", k=3, maximize=maximize)
    with pytest.raises(ConfigurationError, match="row 40"):
        reference.add(rows)
    assert online.rows == reference.rows
    assert online.n_seen == reference.n_seen == 41


def test_topk_add_batch_materializes_at_most_2k_rows():
    """Every row of a strictly improving batch beats the batch-start
    root; still the fold builds no row, and a read builds only the k
    rows it returns."""
    k = 5
    rows = [{"m": float(i)} for i in range(1000)]
    online = TopK("m", k=k)
    fake = _FakeBatch(rows)
    online.add_batch(fake)
    assert fake.n_materialized == 0
    assert [row["m"] for row in online.rows] == [999.0, 998.0, 997.0, 996.0, 995.0]
    assert fake.n_materialized == k
    # A full heap: the next batch builds nothing until the read, which
    # builds its k winners and none of the evicted rows of the first.
    fake2 = _FakeBatch([{"m": float(1000 + i)} for i in range(1000)])
    online.add_batch(fake2)
    assert fake2.n_materialized == 0
    assert [row["m"] for row in online.rows] == [1999.0, 1998.0, 1997.0, 1996.0, 1995.0]
    assert (fake.n_materialized, fake2.n_materialized) == (k, k)


@pytest.mark.parametrize("maximize", [True, False])
def test_topk_add_batch_beats_a_rounded_integer_root(maximize):
    """A heap root past 2**53 left by the row path rounds in float64:
    a batch row beating it exactly must still enter."""
    # float64 rounds the row-path value onto the batch row's exact value.
    big, beats = (2**53 + 3, 2**53 + 4) if maximize else (2**53 + 1, 2**53)
    assert float(big) == beats
    rows = [{"m": big}, {"m": float(beats)}]
    online = TopK("m", k=1, maximize=maximize)
    online.add(rows[:1])
    online.add_batch(_FakeBatch(rows[1:]))
    reference = TopK("m", k=1, maximize=maximize)
    reference.add(rows)
    assert online.rows == reference.rows == [rows[1]]


class _BoundedFakeBatch(_FakeBatch):
    """A fake view that also reports its exact best value, counting the
    columns it builds."""

    def __init__(self, rows, columnar=("m",), owner=None):
        super().__init__(rows, columnar, owner)
        self.n_columns = 0

    def metric_column(self, name):
        self.n_columns += 1
        return super().metric_column(name)

    def metric_best(self, name, maximize):
        values = [row[name] for row in self._rows]
        return max(values) if maximize else min(values)


@pytest.mark.parametrize("maximize", [True, False])
def test_topk_batch_rejection_keeps_a_rounded_integer_root_exact(maximize):
    """The batch rejection compares the batch's best key with an integer
    root past 2**53 as Python scalars: a value beating it exactly enters
    although it equals the root once rounded, and one below it is
    dropped without its column."""
    big, beats = (2**53 + 3, 2**53 + 4) if maximize else (2**53 + 1, 2**53)
    worse = 2**53 + 2  # exact in float64, and worse than big either way
    assert float(big) == beats and float(worse) == worse
    rows = [{"m": big}, {"m": float(worse)}, {"m": float(beats)}]
    online = TopK("m", k=1, maximize=maximize)
    online.add(rows[:1])
    losing, winning = _BoundedFakeBatch(rows[1:2]), _BoundedFakeBatch(rows[2:])
    online.add_batch(losing)
    assert losing.n_columns == 0 and online.n_seen == 2
    online.add_batch(winning)
    assert winning.n_columns == 1
    reference = TopK("m", k=1, maximize=maximize)
    reference.add(rows)
    assert online.rows == reference.rows == [rows[2]]
    assert online.n_seen == reference.n_seen == 3


#: Under this link, raw offload (1200 bytes) runs at ~21 fps and every
#: in-camera cut (100 bytes) at ~250 fps.
TIED_LINK = LinkModel(name="tied-link", raw_bps=2e5, tx_energy_per_bit=1e-9)


def _tied_pipeline() -> InCameraPipeline:
    """Every in-camera configuration runs at 30 fps and costs the same
    (transmit-only) energy, both better than raw offload: once a
    depth-1 row is in the heap, every later batch ties the root."""
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=100.0,
            implementations={
                platform: Implementation(platform, fps=30.0)
                for platform in ("asic", "cpu")
            },
        )
        for i in range(4)
    )
    return InCameraPipeline(name="tied", sensor_bytes=1200.0, blocks=blocks)


@pytest.mark.parametrize("shape", ["distinct", "tied"])
@pytest.mark.parametrize("domain", ["throughput", "energy"])
@pytest.mark.parametrize("k", [1, 5])
def test_topk_rejects_a_batch_before_building_its_column(monkeypatch, shape, domain, k):
    """A full ranking drops a real batch whose exact best value cannot
    enter (ties with the root included) without building its metric
    column or a compact view; the ranking and ``n_seen`` still equal
    the row fold over every streamed row."""
    pipeline, link = (build_pipeline(4), LINK)
    if shape == "tied":
        pipeline, link = _tied_pipeline(), TIED_LINK
    scenario = Scenario(name="reject", pipeline=pipeline, link=link, domain=domain)
    metric, maximize = (
        ("total_fps", True) if domain == "throughput" else ("total_energy_j", False)
    )
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 4)
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    batches = list(evaluator.iter_scenario_batches(scenario))
    expected_rows = [
        batch.rows() for batch in evaluator.iter_scenario_batches(scenario)
    ]
    built, compacted = [], []
    metric_column = vectorized.BatchRows.metric_column
    compact = vectorized.BatchRows.compact

    def spy_column(self, name):
        built.append(id(self))
        return metric_column(self, name)

    def spy_compact(self, indices):
        compacted.append(id(self))
        return compact(self, indices)

    monkeypatch.setattr(vectorized.BatchRows, "metric_column", spy_column)
    monkeypatch.setattr(vectorized.BatchRows, "compact", spy_compact)
    online = TopK(metric, k=k, maximize=maximize)
    rejected = ties = 0
    for batch, rows in zip(batches, expected_rows):
        values = [row[metric] for row in rows]
        best = max(values) if maximize else -min(values)
        full = len(online) == k
        drop = full and not best > online._heap[0][0][0]
        ties += drop and best == online._heap[0][0][0]
        online.add_batch(batch)
        touched = id(batch) in built or id(batch) in compacted
        assert touched == (not drop), (len(batch), values)
        rejected += drop
    assert rejected
    if shape == "tied":
        assert ties
    reference = TopK(metric, k=k, maximize=maximize)
    reference.add([row for rows in expected_rows for row in rows])
    assert online.n_seen == reference.n_seen == scenario.count_configs()
    assert json.dumps(online.rows) == json.dumps(reference.rows)


def test_metric_best_is_the_best_row_value_and_defers_to_a_built_column(monkeypatch):
    # A 5-row block: spanning batches of several depths and descended ones.
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", 5)
    for domain, metric in (("throughput", "total_fps"), ("energy", "total_energy_j")):
        scenario = Scenario(
            name="best", pipeline=build_pipeline(3), link=LINK, domain=domain
        )
        evaluator = BatchPrefixEvaluator(scenario.cost_model())
        for batch in evaluator.iter_scenario_batches(scenario):
            values = [row[metric] for row in batch.rows()]
            for maximize in (True, False):
                best = batch.metric_best(metric, maximize)
                assert best == (max(values) if maximize else min(values))
            for other in ("compute_fps", "active_seconds", "n_in_camera"):
                assert batch.metric_best(other, True) is None
            # Once the column exists, the ranking reads it instead.
            batch.metric_column(metric)
            assert batch.metric_best(metric, True) is None


def test_throughput_kernel_equals_the_scalar_fold_at_edge_rates():
    """The in-place running min equals the scalar ``<`` branch bit for
    bit where the two could part: options equal to the running min, an
    ``inf`` running state, ``inf`` rates and ``1e-300`` rates."""
    model = ThroughputCostModel(LINK)
    block = Block(
        name="B",
        output_bytes=1.0,
        implementations={
            name: Implementation(name, fps=fps)
            for name, fps in (("a", 30.0), ("b", float("inf")), ("c", 1e-300))
        },
    )
    impls = [block.implementations[name] for name in sorted(block.implementations)]
    states = [float("inf"), 30.0, 1e-300, 5e-301, 60.0, 2.0]
    (fps,) = model.extend_state_batch(
        (np.array(states),), np.array([impl.fps for impl in impls])
    )
    expected = [
        model.extend_state((state, "none"), block, impl)[0]
        for state in states
        for impl in impls
    ]
    assert fps.tobytes() == np.array(expected).tobytes()


def test_energy_kernel_equals_the_scalar_fold_at_edge_values():
    """The energy kernel (unchanged, in place already) pinned the same
    way over a three-level fold with ``1e-300`` and zero costs and pass
    rates of 0 and 1: the compute column is the scalar fold's
    ``sum(block_energies.values())`` and the active column its active
    seconds, bit for bit."""
    import itertools

    model = EnergyCostModel(LINK)
    costs = ((0.0, 0.0), (1e-300, 1e-300), (3e-6, 2e-3))
    blocks = [
        Block(
            name=f"B{i}",
            output_bytes=1.0,
            pass_rate=rate,
            implementations={
                f"p{j}": Implementation(f"p{j}", energy_per_frame=e, active_seconds=a)
                for j, (e, a) in enumerate(costs)
            },
        )
        for i, rate in enumerate((0.5, 1.0, 0.0))
    ]
    state = model.initial_state_batch(1)
    for block in blocks:
        impls = [block.implementations[name] for name in sorted(block.implementations)]
        state = model.extend_state_batch(
            state,
            block,
            (
                np.array([impl.energy_per_frame for impl in impls]),
                np.array([impl.active_seconds for impl in impls]),
            ),
        )
    _, _, compute, active = state
    scalar = []
    for choice in itertools.product(*(sorted(b.implementations) for b in blocks)):
        fold = model.initial_state()
        for block, name in zip(blocks, choice):
            fold = model.extend_state(fold, block, block.implementations[name])
        scalar.append(fold)
    assert compute.tobytes() == np.array(
        [sum(dict(fold[1]).values()) for fold in scalar]
    ).tobytes()
    assert active.tobytes() == np.array([fold[2] for fold in scalar]).tobytes()


def test_pareto_add_batch_equals_scalar_add():
    rows = [
        {"a": float(i % 5), "b": float((i * 7) % 4)} for i in range(40)
    ]
    online = ParetoFrontier(("a", "b"), maximize=True)
    online.add_batch(_FakeBatch(rows[:25], columnar=("a", "b")))
    online.add_batch(_FakeBatch(rows[25:], columnar=("a", "b")))
    batch = ParetoFrontier(("a", "b"), maximize=True)
    batch.add(rows)
    assert online.rows == batch.rows
    assert online.n_seen == batch.n_seen == len(rows)


def test_pareto_add_batch_nan_raises_at_the_exact_position():
    rows = [{"a": 1.0, "b": 1.0}, {"a": float("nan"), "b": 0.0}]
    online = ParetoFrontier(("a", "b"), maximize=True)
    with pytest.raises(ConfigurationError, match="row 1"):
        online.add_batch(_FakeBatch(rows, columnar=("a", "b")))


def test_add_batch_falls_back_on_non_columnar_metrics():
    rows = [{"m": float(v), "other": v} for v in (3, 1, 2)]
    online = TopK("other", k=2)
    fake = _FakeBatch(rows)  # only "m" is columnar
    online.add_batch(fake)
    assert fake.n_materialized == len(rows)
    batch = TopK("other", k=2)
    batch.add(rows)
    assert online.rows == batch.rows


def test_uses_columnar_writes_probe():
    assert uses_columnar_writes(TopKSink("total_fps", k=3))
    assert not uses_columnar_writes(MemorySink())
    assert not uses_columnar_writes(SimpleNamespace(write_rows=lambda rows: None))

    class _Columnar(ResultSink):
        def write_batch(self, batch):
            pass

    assert uses_columnar_writes(_Columnar())

    class _Recording(TopKSink):
        def write_rows(self, rows):
            super().write_rows(rows)

    # Overriding write_rows below the batch fold makes a sink row-only:
    # the inherited write_batch would bypass the override.
    assert not uses_columnar_writes(_Recording("total_fps", k=3))


def test_columnar_sinks_match_collected_results_end_to_end():
    scenario = build_scenario()
    collected = explore(scenario)
    sink = TopKSink("total_fps", k=4)
    explore(scenario, sink=sink, collect=False)
    assert json.dumps(sink.top_k()) == json.dumps(collected.top_k("total_fps", k=4))
    (run,) = Campaign([scenario]).run(collect=False)
    assert json.dumps(run.pareto()) == json.dumps(collected.pareto())
    # A bool axis, minimized, folds through the columns as well.
    axes, flags = ("feasible", "compute_fps"), (False, True)
    frontier = FrontierSink(ParetoFrontier(axes, flags))
    explore(scenario, sink=frontier, collect=False)
    assert json.dumps(frontier.pareto()) == json.dumps(collected.pareto(axes, flags))


def test_collected_segments_keep_no_memoized_metric_column():
    """A collected result keeps views of its own: neither the columns a
    columnar sink memoized on the walk's batches nor the ones the
    result's queries read stay alive a second time next to the result's
    concatenated column cache."""
    scenario = build_scenario()
    sink = TopKSink("total_fps", k=3)
    result = explore(scenario, sink=sink)
    assert json.dumps(result.top_k("total_fps", 3)) == json.dumps(sink.top_k())
    result.pareto()
    assert result._batches
    assert all(not batch._metrics for batch in result._batches)


def test_online_folds_pin_no_batch_once_swept(monkeypatch):
    """A collect=False walk of several budget-sized blocks: once the
    frontier's pending block is swept and top-k has compacted its
    candidates, no fold — nor the pending best row — keeps a batch or
    its walk frames alive. What stays is the frontier, the heap, the
    best row's one-row view and at most one pending block, never the
    design space."""
    import gc
    import weakref

    from repro.explore.campaign import _StreamingStats

    budget = 16
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", budget)
    scenario = build_scenario(pipeline=build_pipeline(4))
    assert scenario.count_configs() >= 4 * budget
    evaluator = BatchPrefixEvaluator(scenario.cost_model())
    stats = _StreamingStats("throughput")
    frontier = stats.frontier
    ranking = TopK("total_fps", k=3)
    seen = []
    rows = []
    gc.disable()  # liveness must come from references, not collection
    try:
        for batch in evaluator.iter_scenario_batches(scenario):
            seen.append((weakref.ref(batch), weakref.ref(batch._choices.frame)))
            rows.extend(batch.rows())
            stats.update_batch(batch)
            ranking.add_batch(batch)
            del batch
            live = [ref() for ref, _ in seen if ref() is not None]
            # Only batches in the pending block are alive.
            pending = [id(batch) for _, batch in frontier._pending]
            assert sorted(id(batch) for batch in live) == sorted(pending)
            assert frontier._n_pending <= budget
            del live
        assert len(frontier) == len(frontier.rows)  # sweeps the last block
        assert all(ref() is None and frame() is None for ref, frame in seen)
    finally:
        gc.enable()
    expected = ParetoFrontier(("compute_fps", "communication_fps"))
    expected.add(rows)
    assert json.dumps(frontier.rows) == json.dumps(expected.rows)
    assert json.dumps(ranking.rows) == json.dumps(
        sorted(rows, key=lambda row: row["total_fps"], reverse=True)[:3]
    )
    assert json.dumps(stats.best) == json.dumps(
        max(rows, key=lambda row: row["total_fps"])
    )


def test_export_only_campaign_pins_at_most_a_pending_block(monkeypatch):
    """A collect=False dedup campaign holds, besides each member's
    frontier and heap, at most one pending block of batches per member;
    once the runs are handed out no batch is alive, and the undecoded
    frontiers still answer exactly as solo explore()."""
    import weakref

    budget = 16
    monkeypatch.setattr(vectorized, "_BLOCK_ROWS", budget)
    fleet = [
        build_scenario(name=f"m{i}", pipeline=build_pipeline(4), link=link)
        for i, link in enumerate(
            [LINK, LinkModel(name="vec-fast", raw_bps=9e7, tx_energy_per_bit=3e-10)]
        )
    ]
    seen = []

    class _Recording(TopKSink):
        def write_batch(self, batch):
            seen.append(weakref.ref(batch))
            super().write_batch(batch)
            live = [ref() for ref in seen if ref() is not None]
            assert sum(len(view) for view in live) <= (len(fleet) + 1) * budget

    sinks = {member.name: _Recording("total_fps", k=3) for member in fleet}
    result = Campaign(fleet).run(dedup=True, collect=False, sinks=sinks)
    assert len(seen) >= len(fleet) * fleet[0].count_configs() // budget
    assert all(ref() is None for ref in seen)
    for run in result:
        solo = explore(run.scenario)
        assert run.pareto_size == len(solo.pareto())
        assert json.dumps(run.pareto()) == json.dumps(solo.pareto())
        assert json.dumps(run.best) == json.dumps(solo.best)
        assert json.dumps(sinks[run.name].top_k()) == json.dumps(
            solo.top_k("total_fps", 3)
        )
