"""Tests of the benchmark itself: digests catch wrong answers, seeds
reproduce inputs, span self time, and the metric tables match
``BENCHMARK.json``.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def _cheap_query_op(seed: int) -> tuple[list[workloads.Op], int]:
    """The design_query pool and the slot of its smallest op."""
    pool = workloads.build_pool("design_query", seed)
    slot = min(range(len(pool)), key=lambda index: pool[index].full_configs)
    return pool, slot


def test_answers_match_reference_and_corruption_is_caught():
    pool, slot = _cheap_query_op(7)
    answer = workloads.run_op(pool[slot])
    assert run.check_answers(pool, [(slot, workloads.digest(answer))]) == []

    corrupted = json.loads(json.dumps(answer))
    corrupted["best"]["total_fps"] = corrupted["best"]["total_fps"] * (1 + 1e-12)
    failures = run.check_answers(pool, [(slot, workloads.digest(corrupted))])
    assert len(failures) == 1 and pool[slot].label in failures[0]
    # An op that raised (no digest) fails too.
    assert len(run.check_answers(pool, [(slot, None)])) == 1


def test_joint_reference_search_matches_the_engine():
    op = workloads.build_pool("fleet_uplink", 3)[1]
    assert op.kind == "joint"
    engine = workloads.run_joint(op, workloads.SweepExecutor())
    assert workloads.digest(engine) == workloads.digest(workloads.reference_answer(op))


def test_same_seed_same_inputs_other_seed_other_values():
    for workload in workloads.WORKLOADS:
        first = workloads.build_pool(workload, 11)
        again = workloads.build_pool(workload, 11)
        other = workloads.build_pool(workload, 12)
        assert [repr(op) for op in first] == [repr(op) for op in again]
        assert [repr(op) for op in first] != [repr(op) for op in other]
        assert [op.full_configs for op in first] == [op.full_configs for op in other]


def test_seed_changes_values_not_frontier_shape():
    sizes = []
    for seed in (1, 2):
        pool, slot = _cheap_query_op(seed)
        sizes.append(len(workloads.run_op(pool[slot])["pareto"]))
    assert sizes[0] == sizes[1]


def test_self_time_subtracts_covered_child_intervals():
    tracer = Tracer()
    tracer.spans = [
        Span("op", 0, 100, None, "w/0/0"),
        Span("a", 10, 30, 0, "w/0/0"),
        Span("b", 20, 50, 0, "w/0/0"),  # overlaps a: union is 10..50
        Span("c", 40, 45, 2, "w/0/0"),
    ]
    assert tracer.self_ns() == [60, 20, 25, 5]
    totals = tracer.totals("w/")
    assert totals["op"]["calls"] == 1 and abs(totals["op"]["self_s"] - 60e-9) < 1e-15
    assert tracer.totals("other/") == {}


def test_host_slowdown_and_lower_quartile():
    assert set(hostspeed.WORKLOAD_KERNEL) == set(workloads.WORKLOADS)
    for variant, reference_ms in hostspeed.KERNEL_REF_MS.items():
        reference_ns = reference_ms * 1e6
        assert hostspeed.slowdown(variant, reference_ns, reference_ns) == 1.0
        assert hostspeed.slowdown(variant, reference_ns, 3 * reference_ns) == 2.0
        assert hostspeed.timed_kernel(variant) > 0
    assert run.lower_quartile([7.0]) == 7.0
    assert run.lower_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
