"""Shrinking property tests for the product-order batch steps.

The cohort walk extends every parent row by every option of a block in
one call: row ``i * k + j`` of the result is parent row ``i`` extended
by option ``j`` (:func:`itertools.product` order). Both cost models'
``extend_state_batch`` and both built-in prefix pruners'
``extend_batch`` follow that contract; each must equal its scalar
step row for row, bit for bit, on random parent states and option
tables drawn from the rate pool of ``test_invariant_compact_rows``
(ties, ``1e-300`` and ``inf``). The throughput state folds no
slowest-block code, so the decoded ``slowest_block`` must equal the
scalar fold's label. Last, a walk whose target depth lies at least
three levels below the resident cohort (two or more intermediate
descent levels) must match the brute-force oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_invariant_compact_rows import (
    ACTIVE,
    ENERGY,
    FPS,
    PASS_RATES,
    PLATFORMS,
    _assert_equals_oracle,
    implementations,
)

from repro.core.block import Block, Implementation
from repro.core.cost import (
    EnergyCostModel,
    ThroughputCostModel,
    option_energy_columns,
    option_fps_column,
)
from repro.core.pipeline import InCameraPipeline
from repro.explore import Scenario, vectorized
from repro.explore.enumerate import PRUNED_SUBTREE
from repro.explore.prune import compute_fps_prefix_pruner, energy_prefix_pruner
from repro.hw.network import LinkModel

LINK = LinkModel(name="link", raw_bps=1e5, tx_energy_per_bit=1e-9)
#: Running compute energies and active seconds a parent row may carry.
SUMS = (0.0, 1e-6, 3e-6, 1e-3, 2.5e-3)
RATES = (0.0, 0.25, 0.5, 1.0)
PARENT_SUMS = st.lists(
    st.tuples(st.sampled_from(SUMS), st.sampled_from(SUMS)), min_size=1, max_size=6
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def chains(draw, min_blocks=1, max_blocks=5):
    n_blocks = draw(st.integers(min_blocks, max_blocks))
    return InCameraPipeline(
        name="product",
        sensor_bytes=1000.0,
        blocks=tuple(
            Block(
                name=f"B{i}",
                output_bytes=draw(st.sampled_from((10.0, 100.0, 900.0, 1000.0))),
                pass_rate=draw(st.sampled_from(PASS_RATES)),
                implementations=draw(implementations()),
            )
            for i in range(n_blocks)
        ),
    )


def _impls(block: Block) -> list[Implementation]:
    return [block.implementations[name] for name in sorted(block.implementations)]


@settings(max_examples=200, deadline=None)
@given(
    implementations(),
    st.lists(st.sampled_from(FPS), min_size=1, max_size=6),
)
def test_throughput_step_equals_the_scalar_fold(options, parents):
    block = Block(name="B", output_bytes=1.0, implementations=options)
    impls = _impls(block)
    model = ThroughputCostModel(LINK)
    (fps,) = model.extend_state_batch((np.array(parents),), option_fps_column(impls))
    expected = [
        model.extend_state((parent, "none"), block, impl)[0]
        for parent in parents
        for impl in impls
    ]
    assert _bits(fps) == _bits(expected)


@settings(max_examples=200, deadline=None)
@given(
    implementations(),
    st.sampled_from(RATES),
    st.sampled_from(PASS_RATES),
    PARENT_SUMS,
)
def test_energy_step_equals_the_scalar_fold(options, rate, pass_rate, parents):
    block = Block(
        name="B", output_bytes=1.0, pass_rate=pass_rate, implementations=options
    )
    impls = _impls(block)
    model = EnergyCostModel(LINK)
    compute = np.array([energy for energy, _ in parents])
    active = np.array([seconds for _, seconds in parents])
    new_rate, tables, new_compute, new_active = model.extend_state_batch(
        (rate, (), compute, active), block, option_energy_columns(impls)
    )
    scalar = [
        (energy, model.extend_state((rate, (), seconds), block, impl))
        for energy, seconds in parents
        for impl in impls
    ]
    assert all(state[0] == new_rate for _, state in scalar)
    entries = [state[1][0][1] for _, state in scalar]
    assert _bits(tables[0][1]) == _bits(entries[: len(impls)])
    # The compute column is the running sum of the block energies.
    assert _bits(new_compute) == _bits(
        [energy + entry for (energy, _), entry in zip(scalar, entries)]
    )
    assert _bits(new_active) == _bits([state[2] for _, state in scalar])


@settings(max_examples=200, deadline=None)
@given(chains(), st.data())
def test_decoded_slowest_block_equals_the_scalar_label(pipeline, data):
    plan = vectorized._PipelinePlan(pipeline)
    depth = data.draw(st.integers(0, len(plan.levels)))
    levels = plan.levels[:depth]
    rows = data.draw(
        st.lists(
            st.tuples(*(st.integers(0, len(level.names) - 1) for level in levels)),
            min_size=1,
            max_size=8,
        )
    )
    model = ThroughputCostModel(LINK)
    states = []
    for row in rows:
        state = model.initial_state()
        for level, choice in zip(levels, row):
            impl = level.block.implementations[level.names[choice]]
            state = model.extend_state(state, level.block, impl)
        states.append(state)
    matrix = np.array(rows, dtype=np.uint8).reshape(len(rows), depth)
    costs = vectorized._materialize_costs(
        plan,
        matrix,
        {
            "compute_fps": np.array([state[0] for state in states]),
            "communication_fps": 1.0,
        },
        False,
    )
    assert [cost.slowest_block for cost in costs] == [state[1] for state in states]


@settings(max_examples=200, deadline=None)
@given(
    chains(),
    st.sampled_from((5.0, 30.0, 60.0)),
    st.lists(st.sampled_from(FPS), min_size=1, max_size=6),
    st.data(),
)
def test_throughput_pruner_step_equals_the_scalar_extend(
    pipeline, target, parents, data
):
    scenario = Scenario(name="product", pipeline=pipeline, link=LINK, target_fps=target)
    pruner = compute_fps_prefix_pruner(scenario)
    index = data.draw(st.integers(0, len(pipeline.blocks) - 1))
    block = pipeline.blocks[index]
    names = sorted(block.implementations)
    # The pruner keeps no state: its floor is the model's extended
    # running-min column, which it reads from the cost state.
    costs = ThroughputCostModel(LINK).extend_state_batch(
        (np.array(parents),),
        option_fps_column([block.implementations[name] for name in names]),
    )
    state, keep = pruner.extend_batch(index, pruner.initial_batch(len(parents)), costs)
    assert state == ()
    (floor,) = costs
    expected = [
        pruner.extend(index, name, parent) for parent in parents for name in names
    ]
    assert keep.tolist() == [state is not PRUNED_SUBTREE for state in expected]
    assert _bits(floor[keep]) == _bits(
        [state for state in expected if state is not PRUNED_SUBTREE]
    )


@settings(max_examples=200, deadline=None)
@given(
    chains(),
    st.sampled_from((5e-6, 1e-5, 1e-4)),
    st.sampled_from(RATES),
    st.lists(st.sampled_from(SUMS), min_size=1, max_size=6),
    st.data(),
)
def test_energy_pruner_step_equals_the_scalar_extend(
    pipeline, budget, rate, parents, data
):
    scenario = Scenario(
        name="product",
        pipeline=pipeline,
        link=LINK,
        domain="energy",
        energy_budget_j=budget,
    )
    pruner = energy_prefix_pruner(scenario)
    n_depths = len(pipeline.blocks)
    index = data.draw(st.integers(0, n_depths - 1))
    names = sorted(pipeline.blocks[index].implementations)
    # One accumulated violation column per cut depth 1..n_depths; the
    # step reads only the depths it has not passed.
    flags = st.lists(st.booleans(), min_size=len(parents), max_size=len(parents))
    viols = [np.array(data.draw(flags)) for _ in range(n_depths)]
    state, keep = pruner.extend_batch(index, (rate, np.array(parents), *viols), ())
    depths = range(index + 1, n_depths + 1)
    assert len(state) == 2 + len(depths)
    expected_viols = {d: [] for d in depths}
    for i, parent in enumerate(parents):
        for j, name in enumerate(names):
            row = i * len(names) + j
            for d in depths:
                cut = pruner.for_depth(d)(index, name, (rate, parent))
                pruned = cut is PRUNED_SUBTREE
                expected_viols[d].append(bool(viols[d - 1][i]) or pruned)
                if not pruned:
                    assert cut[0] == state[0]
                    assert _bits(cut[1]) == _bits(state[1][row])
    for d in depths:
        assert state[d - n_depths - 1].tolist() == expected_viols[d]
    assert keep.tolist() == [
        not all(expected_viols[d][r] for d in depths) for r in range(len(keep))
    ]
    assert pruner.emit_mask(index + 1, state).tolist() == [
        not viol for viol in expected_viols[index + 1]
    ]


@st.composite
def deep_scenarios(draw):
    """Chains of 6-7 blocks with 2-3 platforms each, so a budget of at
    most 8 rows leaves the deepest depth three or more levels below the
    resident cohort."""
    n_blocks = draw(st.integers(6, 7))
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=draw(st.sampled_from((10.0, 100.0, 400.0, 900.0))),
            pass_rate=draw(st.sampled_from(PASS_RATES)),
            implementations={
                platform: Implementation(
                    platform,
                    fps=draw(st.sampled_from(FPS)),
                    energy_per_frame=draw(st.sampled_from(ENERGY)),
                    active_seconds=draw(st.sampled_from(ACTIVE)),
                )
                for platform in draw(
                    st.lists(
                        st.sampled_from(PLATFORMS), min_size=2, max_size=3, unique=True
                    )
                )
            },
        )
        for i in range(n_blocks)
    )
    domain = draw(st.sampled_from(("throughput", "energy")))
    if domain == "throughput":
        bound = {"target_fps": draw(st.sampled_from((None, 5.0, 30.0)))}
    else:
        bound = {"energy_budget_j": draw(st.sampled_from((None, 1e-5, 1e-4)))}
    constrained = next(iter(bound.values())) is not None
    return Scenario(
        name="deep",
        pipeline=InCameraPipeline(name="deep", sensor_bytes=1000.0, blocks=blocks),
        link=LINK,
        domain=domain,
        auto_prune_configs=constrained and draw(st.booleans()),
        **bound,
    )


def _resident_depth(scenario: Scenario, block: int) -> int:
    """The deepest depth the walk folds whole under a ``block`` budget."""
    n, depth = 1, 0
    for level in scenario.pipeline.blocks:
        if n * len(level.implementations) > block:
            break
        n *= len(level.implementations)
        depth += 1
    return depth


@settings(max_examples=40, deadline=None)
@given(deep_scenarios(), st.sampled_from((4, 5, 8)))
def test_multi_level_descent_equals_the_oracle(scenario, block):
    assert len(scenario.pipeline.blocks) >= _resident_depth(scenario, block) + 3
    _assert_equals_oracle(scenario, block)

