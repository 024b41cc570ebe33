"""Perf scaling: brute force vs prefix-memoized vs lower-bound pruned.

The design space of a deep pipeline is exponential (13 blocks x 3
platforms/block = 2.39M configurations); the pre-PR engine walked every
configuration from block 0 and built every row eagerly. This benchmark
measures configs/second through three engines on that space:

* ``brute``    — :func:`repro.explore.explore_brute_force`, the pre-PR
  semantics kept as oracle (eager list, from-scratch evaluation, eager
  rows);
* ``memoized`` — :func:`repro.explore.explore`, the streaming
  prefix-memoized engine (amortized O(1) block extensions per config,
  chunked generator feed, lazy rows);
* ``pruned``   — the same engine with ``auto_prune=True``: sound
  communication/compute lower bounds drop whole infeasible cut depths
  before construction.

Each run appends one entry to the ``BENCH_explore.json`` trajectory at
the repository root (and mirrors it into ``benchmarks/results/``), so
speedups are tracked across commits. The in-test assertion is the CI
smoke bar (memoized must not be slower than brute force — ratios vary
with runner load); the recorded trajectory carries the actual speedup,
>= 5x on the reference machine.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import replace

import _trajectory
from repro.core.block import Block, Implementation
from repro.core.cost import ConfigCost, EnergyCost
from repro.core.pipeline import InCameraPipeline
from repro.core.report import TextTable
from repro.explore import (
    Scenario,
    TopKSink,
    evaluation_path,
    explore,
    explore_brute_force,
)
from repro.explore.result import cost_row
from repro.hw.network import LinkModel

#: Depth of the synthetic pipeline (>= 12 per the scaling brief) and
#: platform options per block.
N_BLOCKS = 13
PLATFORMS = ("asic", "cpu", "fpga")

#: Row-sample stride for the byte-identity spot check (full-row JSON of
#: 2.39M rows would dominate the benchmark itself).
SAMPLE = 7919

#: Repetitions behind each columnar timing of the vectorized benchmark
#: (its median is recorded): those runs take tens of milliseconds.
REPEATS = 5


def build_deep_scenario() -> Scenario:
    """A deep synthetic camera pipeline in the throughput domain.

    Block payloads shrink with depth (progressive reduction) and the
    fastest implementation slows with depth (deeper blocks do more
    work), so the auto-pruner has real work on both ends: shallow cuts
    are communication-infeasible, deep cuts compute-infeasible, and a
    band in the middle must actually be evaluated.
    """
    blocks = tuple(
        Block(
            name=f"B{i}",
            output_bytes=float(1000 - 50 * (i + 1)),
            pass_rate=0.9,
            implementations={
                platform: Implementation(
                    platform,
                    fps=100.0 - 4 * i + j,
                    energy_per_frame=1e-6 * (j + 1),
                    active_seconds=1e-3 * (j + 1),
                )
                for j, platform in enumerate(PLATFORMS)
            },
        )
        for i in range(N_BLOCKS)
    )
    pipeline = InCameraPipeline(
        name="deep-synthetic", sensor_bytes=2000.0, blocks=blocks,
        sensor_energy_per_frame=1e-6,
    )
    link = LinkModel(name="bench-link", raw_bps=520000.0, tx_energy_per_bit=1e-9)
    return Scenario(
        name="explore-scaling", pipeline=pipeline, link=link, target_fps=80.0
    )


def _timed(fn):
    """One cold, GC-controlled wall-clock measurement."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_explore_scaling_speedup(benchmark, publish, results_dir, append_trajectory):
    scenario = build_deep_scenario()
    n_configs = scenario.count_configs()
    assert n_configs == sum(len(PLATFORMS) ** d for d in range(N_BLOCKS + 1))

    def run():
        measurements = {}

        seconds, brute = _timed(lambda: explore_brute_force(scenario))
        brute_sample = json.dumps(brute.rows[::SAMPLE])
        brute_feasible = [row["config"] for row in brute.rows if row["feasible"]]
        measurements["brute"] = {
            "seconds": round(seconds, 3),
            "evaluated": len(brute.evaluations),
            "configs_per_sec": round(n_configs / seconds),
        }
        del brute  # two 2.39M-config results must never coexist

        # ``evaluation="scalar"`` pins this mode to the scalar memoized
        # engine so the explore_scaling trajectory keeps measuring the
        # same path across commits; the columnar batch path has its own
        # trajectory kind (see test_explore_vectorized_speedup).
        seconds, memoized = _timed(lambda: explore(scenario, evaluation="scalar"))
        memo_sample = json.dumps(
            [cost_row(scenario, cost) for cost in memoized.evaluations[::SAMPLE]]
        )
        measurements["memoized"] = {
            "seconds": round(seconds, 3),
            "evaluated": len(memoized.evaluations),
            "configs_per_sec": round(n_configs / seconds),
        }
        assert len(memoized.evaluations) == n_configs
        assert memo_sample == brute_sample  # byte-identical spot check
        del memoized

        pruned_scenario = replace(scenario, auto_prune=True)
        to_evaluate = pruned_scenario.count_configs()
        seconds, pruned = _timed(lambda: explore(pruned_scenario, evaluation="scalar"))
        assert len(pruned.evaluations) == to_evaluate < n_configs
        # Soundness on the full-depth space: pruning must keep every
        # brute-force-feasible configuration, in order.
        assert [row["config"] for row in pruned.feasible] == brute_feasible
        measurements["pruned"] = {
            "seconds": round(seconds, 6),
            "evaluated": to_evaluate,
            "configs_per_sec": round(to_evaluate / seconds),
            "effective_configs_per_sec": round(n_configs / seconds),
            "pruned_away": n_configs - to_evaluate,
        }
        del pruned
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = (
        measurements["memoized"]["configs_per_sec"]
        / measurements["brute"]["configs_per_sec"]
    )
    effective_prune_speedup = (
        measurements["pruned"]["effective_configs_per_sec"]
        / measurements["brute"]["configs_per_sec"]
    )
    entry = {
        "kind": "explore_scaling",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pipeline": {"blocks": N_BLOCKS, "platforms_per_block": len(PLATFORMS)},
        "n_configs": n_configs,
        "modes": measurements,
        "speedup_memoized_vs_brute": round(speedup, 2),
        "speedup_pruned_effective_vs_brute": round(effective_prune_speedup, 1),
    }
    append_trajectory(entry)
    (results_dir / "BENCH_explore.json").write_text(json.dumps(entry, indent=2) + "\n")

    table = TextTable(
        ["mode", "seconds", "evaluated", "configs_per_sec"],
        title=f"Explore scaling: {N_BLOCKS} blocks x {len(PLATFORMS)} platforms "
              f"({n_configs} configs)",
    )
    table.add_rows(
        {"mode": mode, **{k: v for k, v in stats.items() if k in table.columns}}
        for mode, stats in measurements.items()
    )
    publish("explore_scaling", table.render())

    # CI smoke bar: memoization must never lose to brute force. The
    # trajectory records the actual ratio (>= 5x on the reference box).
    assert speedup >= 1.0, f"memoized path slower than brute force ({speedup:.2f}x)"
    # Pruning evaluates a tiny feasible band yet covers the whole space.
    assert measurements["pruned"]["evaluated"] < n_configs / 100
    assert effective_prune_speedup > speedup


class _CountingTopKSink(TopKSink):
    """A single-ranking top-k sink that counts, per streamed batch, how
    many rows the lazy columnar path actually materialized."""

    def __init__(self) -> None:
        super().__init__("total_fps", k=5)
        self.materialized = 0
        self.rows_seen = 0

    def write_batch(self, batch) -> None:
        before = batch.n_materialized
        super().write_batch(batch)
        self.materialized += batch.n_materialized - before
        self.rows_seen += len(batch)


def _live_cost_instances() -> int:
    """Count live cost objects (after a forced collection)."""
    gc.collect()
    return sum(
        1 for obj in gc.get_objects() if isinstance(obj, (ConfigCost, EnergyCost))
    )


def test_explore_vectorized_speedup(
    benchmark, publish, results_dir, append_trajectory, trajectory_baseline
):
    """Columnar batch core vs the scalar memoized engine.

    Four modes over the same 2.39M-config space:

    * ``scalar``     — ``explore(..., evaluation="scalar")``, the
      prefix-memoized per-config fold (the prior engine);
    * ``batch``      — ``explore(...)`` riding the batch-cohort path with
      a collected result (which keeps the columnar batches and builds
      nothing per configuration);
    * ``batch_materialized`` — the same collected run followed by
      ``.evaluations``: every cost object built (materialize-all);
    * ``batch_lazy`` — the batch-cohort path streamed into a top-k sink
      with ``collect=False``: rows stay columnar and only heap
      candidates ever materialize a cost object.

    ``batch`` and ``batch_lazy`` record the median of :data:`REPEATS`
    runs (``repeats`` in their mode dicts), each lazy run into a fresh
    sink with every check repeated.

    The trajectory entry (kind ``explore_vectorized``) records
    ``speedup_batch_vs_scalar`` from the lazy mode; the acceptance bar is
    >= 10x the best memoized throughput in the *session-start* snapshot
    of the trajectory (``trajectory_baseline``) — entries appended
    earlier in the same session come from this machine at this commit
    and must not move the bar, or full-suite runs couple through test
    order (the bug this fixture split fixed).
    """
    scenario = build_deep_scenario()
    n_configs = scenario.count_configs()
    assert evaluation_path(scenario) == "batch-cohort"

    def run():
        measurements = {}

        seconds, scalar = _timed(lambda: explore(scenario, evaluation="scalar"))
        scalar_sample = json.dumps(
            [cost_row(scenario, cost) for cost in scalar.evaluations[::SAMPLE]]
        )
        scalar_top = json.dumps(scalar.top_k("total_fps", k=5))
        measurements["scalar"] = {
            "seconds": round(seconds, 3),
            "evaluated": len(scalar.evaluations),
            "configs_per_sec": round(n_configs / seconds),
        }
        del scalar  # two 2.39M-config results must never coexist

        # The columnar modes take tens of milliseconds: one timing is
        # too noisy to set a gated best, so each is the median of
        # REPEATS runs.
        batch_seconds = []
        for _ in range(REPEATS):
            batch = None  # two 2.39M-config results must never coexist
            seconds, batch = _timed(lambda: explore(scenario))
            batch_seconds.append(seconds)
        materialize_seconds, evaluations = _timed(lambda: batch.evaluations)
        batch_sample = json.dumps(
            [cost_row(scenario, cost) for cost in evaluations[::SAMPLE]]
        )
        assert len(evaluations) == n_configs
        assert batch_sample == scalar_sample  # byte-identical spot check
        median = statistics.median(batch_seconds)
        measurements["batch"] = {
            "seconds": round(median, 3),
            "evaluated": n_configs,
            "configs_per_sec": round(n_configs / median),
            "repeats": REPEATS,
        }
        # Materialize-all: the last collected run plus its .evaluations.
        seconds += materialize_seconds
        measurements["batch_materialized"] = {
            "seconds": round(seconds, 3),
            "evaluated": n_configs,
            "configs_per_sec": round(n_configs / seconds),
        }
        del batch, evaluations

        lazy_seconds = []
        for _ in range(REPEATS):
            sink = _CountingTopKSink()
            seconds, _ = _timed(
                lambda: explore(scenario, sink=sink, collect=False)
            )
            lazy_seconds.append(seconds)
            assert sink.rows_seen == n_configs
            # Lazy materialization: only heap candidates become cost
            # objects, and none of them outlive the stream.
            assert sink.materialized < n_configs / 100, sink.materialized
            assert _live_cost_instances() < n_configs / 100
            # The online top-k over lazy batches matches the collected
            # scalar ranking byte for byte.
            assert json.dumps(sink.top_k()) == scalar_top
        median = statistics.median(lazy_seconds)
        measurements["batch_lazy"] = {
            "seconds": round(median, 3),
            "evaluated": n_configs,
            "configs_per_sec": round(n_configs / median),
            "rows_materialized": sink.materialized,
            "repeats": REPEATS,
        }
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    speedup = (
        measurements["batch_lazy"]["configs_per_sec"]
        / measurements["scalar"]["configs_per_sec"]
    )
    collect_speedup = (
        measurements["batch"]["configs_per_sec"]
        / measurements["scalar"]["configs_per_sec"]
    )
    materialized_speedup = (
        measurements["batch_materialized"]["configs_per_sec"]
        / measurements["scalar"]["configs_per_sec"]
    )
    entry = {
        "kind": "explore_vectorized",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pipeline": {"blocks": N_BLOCKS, "platforms_per_block": len(PLATFORMS)},
        "n_configs": n_configs,
        "modes": measurements,
        "speedup_batch_vs_scalar": round(speedup, 2),
        "speedup_batch_collect_vs_scalar": round(collect_speedup, 2),
        "speedup_batch_materialized_vs_scalar": round(materialized_speedup, 2),
    }
    append_trajectory(entry)
    (results_dir / "BENCH_explore_vectorized.json").write_text(
        json.dumps(entry, indent=2) + "\n"
    )

    table = TextTable(
        ["mode", "seconds", "evaluated", "configs_per_sec"],
        title=f"Explore vectorized: {N_BLOCKS} blocks x {len(PLATFORMS)} "
              f"platforms ({n_configs} configs)",
    )
    table.add_rows(
        {"mode": mode, **{k: v for k, v in stats.items() if k in table.columns}}
        for mode, stats in measurements.items()
    )
    publish("explore_vectorized", table.render())

    # The tentpole acceptance bar: the lazy columnar path must clear
    # 10x the best memoized throughput any prior commit recorded. The
    # bar anchors on the session-start snapshot, not the post-append
    # trajectory (see _trajectory.vectorized_bar).
    bar = _trajectory.vectorized_bar(trajectory_baseline)
    if bar is not None:
        lazy = measurements["batch_lazy"]["configs_per_sec"]
        assert lazy >= bar, (
            f"lazy columnar path at {lazy} configs/s is below 10x the best "
            f"prior memoized trajectory entry ({bar / 10:.0f} configs/s)"
        )
    # CI smoke bar mirroring the scaling benchmark: batching must never
    # lose to the scalar fold, lazy must never lose to materialize-all.
    # (The collected ``batch`` mode materializes nothing any more: it
    # runs the same walk as the lazy export, so the two differ by noise.)
    assert speedup >= 1.0, f"batch path slower than scalar ({speedup:.2f}x)"
    assert speedup >= materialized_speedup, (speedup, materialized_speedup)
