"""Perf scaling: fused columnar pruning vs the scalar pruned walk.

PR 6 made the unpruned walk columnar; pruned runs still fell back to
the scalar DFS because lower-bound pruners could only see one prefix
at a time. This benchmark measures the fused path — batch pruner
bounds applied as boolean-mask compaction over whole depth cohorts —
against the scalar pruned walk on the same 13-block x 3-platform space
the other explore benchmarks use, with per-config prefix pruning
enabled (``auto_prune_configs=True``) at a 65 FPS bar: loose enough
that a large feasible band survives (the regime where walk speed
matters), tight enough that the pruner discards ~97% of the 2.39M
configurations before evaluation.

* ``scalar_pruned`` — ``explore(..., evaluation="scalar")``: the
  prefix-memoized DFS consulting the pruner one prefix at a time;
* ``fused``         — ``explore(...)`` riding ``batch-cohort-pruned``
  with full row collection; survivor rows asserted byte-identical to
  the scalar walk's;
* ``fused_lazy``    — the fused walk streamed into a top-k sink with
  ``collect=False``: the fold itself, no bulk cost materialization
  (the gated metric, mirroring the unpruned trajectory's lazy mode).

Earlier entries also carry ``shard_process_x2``/``x4`` modes: solo
``explore()`` on 2 and 4 process workers shipping pruned cohorts as
flat-index descriptors. They measured slower than the serial fused walk
at every worker count, that path is gone (solo runs fold in process on
every executor), and the modes are no longer recorded.

The in-test acceptance bar requires the lazy fused fold to clear 5x
the scalar pruned throughput. Each run appends one
``explore_pruned_vectorized`` entry to the ``BENCH_explore.json``
trajectory (gated in CI by ``check_bench_regression.py`` on
``speedup_fused_vs_scalar_pruned``).
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import replace

from repro.core.report import TextTable
from repro.explore import TopKSink, evaluation_path, explore
from repro.explore.result import cost_row

from test_bench_explore_scaling import N_BLOCKS, PLATFORMS, build_deep_scenario

#: The pruning bar: below the reference scenario's 80 FPS so the
#: surviving band is large (~69k configs) and the walk, not fixed
#: overheads, dominates both modes.
TARGET_FPS = 65.0


def _timed(fn):
    """One cold, GC-controlled wall-clock measurement."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_explore_pruned_vectorized_speedup(
    benchmark, publish, results_dir, append_trajectory
):
    scenario = replace(
        build_deep_scenario(), target_fps=TARGET_FPS, auto_prune_configs=True
    )
    n_configs = scenario.count_configs()
    assert evaluation_path(scenario) == "batch-cohort-pruned"

    def run():
        measurements = {}

        seconds, scalar = _timed(lambda: explore(scenario, evaluation="scalar"))
        survivors = len(scalar.evaluations)
        scalar_rows = json.dumps(
            [cost_row(scenario, cost) for cost in scalar.evaluations]
        )
        scalar_top = json.dumps(scalar.top_k("total_fps", k=5))
        measurements["scalar_pruned"] = {
            "seconds": round(seconds, 6),
            "evaluated": survivors,
            "configs_per_sec": round(survivors / seconds),
        }
        del scalar

        seconds, fused = _timed(lambda: explore(scenario))
        assert len(fused.evaluations) == survivors
        # The tentpole identity: the fused mask-compaction walk keeps
        # exactly the scalar walk's survivors, byte for byte.
        assert (
            json.dumps([cost_row(scenario, cost) for cost in fused.evaluations])
            == scalar_rows
        )
        measurements["fused"] = {
            "seconds": round(seconds, 6),
            "evaluated": survivors,
            "configs_per_sec": round(survivors / seconds),
        }
        del fused

        sink = TopKSink("total_fps", k=5)
        seconds, _ = _timed(lambda: explore(scenario, sink=sink, collect=False))
        # The streamed fold ranks the same survivors: online top-k over
        # lazy batches == the collected scalar ranking, byte for byte.
        assert json.dumps(sink.top_k()) == scalar_top
        measurements["fused_lazy"] = {
            "seconds": round(seconds, 6),
            "evaluated": survivors,
            "configs_per_sec": round(survivors / seconds),
        }
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    survivors = measurements["fused"]["evaluated"]
    speedup = (
        measurements["fused_lazy"]["configs_per_sec"]
        / measurements["scalar_pruned"]["configs_per_sec"]
    )
    collect_speedup = (
        measurements["fused"]["configs_per_sec"]
        / measurements["scalar_pruned"]["configs_per_sec"]
    )
    entry = {
        "kind": "explore_pruned_vectorized",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "pipeline": {"blocks": N_BLOCKS, "platforms_per_block": len(PLATFORMS)},
        "n_configs": n_configs,
        "target_fps": TARGET_FPS,
        "survivors": survivors,
        "modes": measurements,
        "speedup_fused_vs_scalar_pruned": round(speedup, 2),
        "speedup_fused_collect_vs_scalar_pruned": round(collect_speedup, 2),
    }
    append_trajectory(entry)
    (results_dir / "BENCH_explore_pruned.json").write_text(
        json.dumps(entry, indent=2) + "\n"
    )

    table = TextTable(
        ["mode", "seconds", "evaluated", "configs_per_sec"],
        title=f"Explore pruned vectorized: {N_BLOCKS} blocks x "
              f"{len(PLATFORMS)} platforms ({n_configs} configs, "
              f"{survivors} survive the {TARGET_FPS:.0f} FPS bound)",
    )
    table.add_rows(
        {"mode": mode, **{k: v for k, v in stats.items() if k in table.columns}}
        for mode, stats in measurements.items()
    )
    publish("explore_pruned_vectorized", table.render())

    # The tentpole acceptance bar: the fused fold must clear 5x the
    # scalar pruned walk on the reference space.
    assert speedup >= 5.0, (
        f"fused pruned path at {speedup:.2f}x the scalar pruned walk — "
        "below the 5x acceptance bar"
    )
