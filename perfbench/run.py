#!/usr/bin/env python3
"""Benchmark of the design-space exploration engine, end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload design_query --seed 1 --seconds 25 --trace 0

One client asks one design question (an *op*) at a time, closed loop, in
one process, through the public ``repro.explore`` API. The workloads:

* ``design_query``: a serial ``explore()`` per op, results collected,
  then ``.best``, ``.pareto()`` and ``.top_k()``;
* ``pruned_export``: deep spaces streamed ``collect=False`` into a
  ``TopKSink``, two of five with ``auto_prune_configs``;
* ``fleet_uplink``: ``Campaign.run(dedup=True)`` over a skewed fleet and
  ``explore_joint()`` over a shared-uplink fleet, each op on a fresh
  two-worker process pool.

``--trace 0`` times the workload and prints the end-to-end metrics.
The run cycles the op pool for ``--seconds``. The host is shared: other
tenants slow every op by up to 2x in phases that can outlast a run, so
raw times measure the neighbours. A fixed calibration kernel
(``hostspeed.py``, one variant per workload) therefore runs between
every two ops, and each op's time is divided by the host slowdown the
kernels either side of it read, which gives the op's time at the
reference machine's speed. Each op's latency is the lower quartile of
these over its repetitions;
``query_p50_ms`` and ``query_tail_ms`` are the median and the slowest
of the per-op latencies, and ``configs_per_s`` is one pass of the pool
at them. ``setup_s`` is scaled the same way. The report line keeps the
raw times.
``--trace 1`` replays the ops of all three workloads as explicit calls
into each layer, records spans around them, and prints the per-layer
metrics (workload-prefixed, so every traced run reports every layer);
the spans are written to ``.perfbench/`` in the repository root.

Every answer is checked against a reference digest computed untimed on
the brute-force or scalar path. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 1 when any op failed, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("design_query", "pruned_export", "fleet_uplink")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
#: ``--seed`` default, and a seed held back for confirming later claims
#: on inputs no change was tuned against.
DEFAULT_SEED = 1
HOLDOUT_SEED = 20171022
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.explore; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "configs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics of the traced run, by workload. Times and counts
#: are per pass over the workload's op pool, except the means
#: (``completion_mean_s``, ``pool_start_s`` per pool), ``fallbacks``
#: (whole run) and ``trace.overhead_ms`` (per op).
PER_LAYER = {
    "design_query": {
        "setup.inputs_s": "s",
        "engine.explore_s": "s",
        "engine.path.batch-cohort": "count",
        "engine.path.other": "count",
        "vectorized.fold_s": "s",
        "vectorized.materialize_s": "s",
        "vectorized.rows_materialized": "count",
        "result.rows_s": "s",
        "result.best_s": "s",
        "result.top_k_s": "s",
        "result.pareto_s": "s",
        "result.pareto_size": "count",
        "trace.overhead_ms": "ms",
    },
    "pruned_export": {
        "setup.inputs_s": "s",
        "engine.explore_s": "s",
        "engine.path.batch-cohort": "count",
        "engine.path.batch-cohort-pruned": "count",
        "engine.path.other": "count",
        "vectorized.fold_s": "s",
        "prune.fold_s": "s",
        "prune.survivor_ratio": "ratio",
        "sink.write_s": "s",
        "sink.rows_materialized": "count",
        "trace.overhead_ms": "ms",
    },
    "fleet_uplink": {
        "setup.inputs_s": "s",
        "engine.path.batch-dedup": "count",
        "engine.path.other": "count",
        "sink.write_s": "s",
        "sink.rows_materialized": "count",
        "campaign.run_s": "s",
        "campaign.frontier_s": "s",
        "campaign.dedup_skip_ratio": "ratio",
        "campaign.materialized_ratio": "ratio",
        "scheduling.completion_mean_s": "s",
        "executor.pool_start_s": "s",
        "executor.overhead_s": "s",
        "executor.fallbacks": "count",
        "joint.explore_s": "s",
        "joint.candidates_s": "s",
        "joint.search_s": "s",
        "joint.capacity_pruned": "count",
        "joint.searched": "count",
        "trace.overhead_ms": "ms",
    },
}


def per_layer_spec() -> dict[str, str]:
    """Every per-layer metric name (workload-prefixed) with its unit."""
    spec = {"setup.import_s": "s"}
    for workload, metrics in PER_LAYER.items():
        spec.update({f"{workload}.{name}": unit for name, unit in metrics.items()})
    return spec


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_program() -> float:
    """Import ``repro.explore`` from this checkout's ``src``; returns the
    import seconds. Exits with code 2 when the sources are missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    begin = time.perf_counter()
    import repro.explore

    seconds = time.perf_counter() - begin
    if not Path(repro.explore.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: repro imported from {repro.explore.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return seconds


def probe_import() -> float:
    """Seconds to import ``repro.explore`` in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(completed.stdout.split()[-1])


def provenance() -> dict:
    """Machine, toolchain and source identity for every result."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        sources.update(str(path.relative_to(SRC)).encode())
        sources.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": sources.hexdigest(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> dict[str, float]:
    """Peak resident set of this process and of its largest reaped child."""
    main = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {"main": main, "largest_child": worker}


def check_answers(pool, answers: list[tuple[int, str | None]]) -> list[str]:
    """Compare op digests against reference digests (computed untimed,
    once per pool slot). Returns one description per failed answer."""
    import workloads

    references: dict[int, str] = {}
    failures = []
    for slot, got in answers:
        if slot not in references:
            references[slot] = workloads.digest(workloads.reference_answer(pool[slot]))
        if got != references[slot]:
            failures.append(f"{pool[slot].label}: {got} != {references[slot]}")
    return failures


def timed_op(op) -> tuple[str | None, int]:
    """Run one op after a collection pass: its answer's digest (None when
    it raised) and its nanoseconds. Only the op itself is timed."""
    import workloads

    gc.collect()
    started = time.perf_counter_ns()
    try:
        answer = workloads.run_op(op)
    except Exception:
        traceback.print_exc()
        answer = None
    elapsed = time.perf_counter_ns() - started
    return (None if answer is None else workloads.digest(answer)), elapsed


def lower_quartile(values: list[float]) -> float:
    """The first quartile (the value itself for a single repetition)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def fallback_count(caught) -> int:
    return sum(
        1
        for warning in caught
        if issubclass(warning.category, RuntimeWarning)
        and "falling back to serial" in str(warning.message)
    )


def timed_run(args: argparse.Namespace) -> tuple[dict, dict, int, int]:
    import hostspeed
    import workloads

    # The calibration kernel runs before the first set-up and after every
    # set-up and every op, so each of them sits between two kernel runs.
    variant = hostspeed.WORKLOAD_KERNEL[args.workload]
    hostspeed.timed_kernel(variant)
    kernels_ns = [hostspeed.timed_kernel(variant)]
    setups = []
    setups_ref = []
    for _ in range(SETUP_REPS):
        import_s = probe_import()
        begin = time.perf_counter()
        pool = workloads.build_pool(args.workload, args.seed)
        inputs_s = time.perf_counter() - begin
        begin = time.perf_counter()
        timed_op(pool[0])
        warmup_s = time.perf_counter() - begin
        setups.append(import_s + inputs_s + warmup_s)
        kernels_ns.append(hostspeed.timed_kernel(variant))
        setups_ref.append(setups[-1] / hostspeed.slowdown(variant, *kernels_ns[-2:]))
    first_op_s = time.perf_counter() - START

    kernels_ns = kernels_ns[-1:]
    records: list[tuple[int, str | None, int]] = []
    cycles = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        begin = time.perf_counter()
        while cycles == 0 or time.perf_counter() - begin < args.seconds:
            for slot, op in enumerate(pool):
                records.append((slot, *timed_op(op)))
                kernels_ns.append(hostspeed.timed_kernel(variant))
            cycles += 1
        measured_s = time.perf_counter() - begin
    rss = peak_rss_mb()

    failures = check_answers(pool, [(slot, got) for slot, got, _ in records])
    failed = len(failures)
    latencies_ms = [elapsed / 1e6 for _, _, elapsed in records]
    per_slot_ms: list[list[float]] = [[] for _ in pool]
    per_slot_ref_ms: list[list[float]] = [[] for _ in pool]
    for index, (slot, _, elapsed) in enumerate(records):
        per_slot_ms[slot].append(elapsed / 1e6)
        factor = hostspeed.slowdown(variant, kernels_ns[index], kernels_ns[index + 1])
        per_slot_ref_ms[slot].append(elapsed / 1e6 / factor)
    op_ms = [lower_quartile(values) for values in per_slot_ref_ms]
    paths: dict[str, int] = defaultdict(int)
    for slot, op in enumerate(pool):
        for path in workloads.op_paths(op):
            paths[path] += cycles
    metrics = {
        "query_p50_ms": statistics.median(op_ms),
        "query_tail_ms": max(op_ms),
        "configs_per_s": sum(op.full_configs for op in pool) / (sum(op_ms) / 1e3),
        "peak_rss_mb": max(rss.values()),
        "setup_s": statistics.median(setups_ref),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(records),
        "pool_size": len(pool),
        "cycles": cycles,
        "measured_s": measured_s,
        "op_seconds_total": sum(latencies_ms) / 1e3,
        "configs_answered": sum(pool[slot].full_configs for slot, _, _ in records),
        "all_ops_p50_ms": statistics.median(latencies_ms),
        "ops_failed_frac": failed / len(records),
        "failures": failures,
        "peak_rss_mb": rss,
        "setup_reps_s": setups,
        "setup_reps_reference_s": setups_ref,
        "script_start_to_first_op_s": first_op_s,
        "engine_paths": dict(paths),
        "executor_fallbacks": fallback_count(caught),
        "kernel": variant,
        "host_slowdown_median": statistics.median(kernels_ns)
        / (hostspeed.KERNEL_REF_MS[variant] * 1e6),
        "per_slot_reference_ms": {op.label: op_ms[index] for index, op in enumerate(pool)},
        "per_slot_median_ms": {
            op.label: statistics.median(per_slot_ms[index]) for index, op in enumerate(pool)
        },
        "per_slot_fastest_ms": {
            op.label: min(per_slot_ms[index]) for index, op in enumerate(pool)
        },
        "ops_in_order": [[slot, elapsed / 1e6] for slot, _, elapsed in records],
        "kernels_ms": [elapsed / 1e6 for elapsed in kernels_ns],
        "provenance": provenance(),
    }
    return metrics, report, len(records), failed


def traced_run(args: argparse.Namespace, import_s: float) -> tuple[dict, dict, int, int]:
    import replay
    import workloads
    from spans import Tracer

    tracer = Tracer()
    metrics: dict[str, float] = {"setup.import_s": import_s}
    report: dict = {"seed": args.seed, "workloads": {}}
    attempted = failed = 0
    share = args.seconds / len(WORKLOADS)
    for name in WORKLOADS:
        begin = time.perf_counter()
        pool = workloads.build_pool(name, args.seed)
        inputs_s = time.perf_counter() - begin
        timed_op(pool[0])
        counters: dict[str, float] = defaultdict(float)
        answers: list[tuple[int, str | None]] = []
        cycles = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            begin = time.perf_counter()
            while cycles == 0 or time.perf_counter() - begin < share:
                for slot, op in enumerate(pool):
                    tracer.op = f"{name}/{cycles}/{slot}"
                    # Alternate which twin runs first, so warm-up effects
                    # cancel out of the tracing overhead.
                    plain_first = (cycles + slot) % 2 == 0
                    if plain_first:
                        got, plain = timed_op(op)
                    gc.collect()
                    first = len(tracer.spans)
                    try:
                        replayed = replay.replay(op, tracer, counters)
                    except Exception:
                        traceback.print_exc()
                        replayed = [None]
                    if not plain_first:
                        got, plain = timed_op(op)
                    answers.append((slot, got))
                    answers.extend(
                        (slot, None if answer is None else workloads.digest(answer))
                        for answer in replayed
                    )
                    own = {record.name: record for record in tracer.spans[first:]}
                    if "op" in own:
                        counters["trace.op_ns"] += own["op"].end_ns - own["op"].start_ns
                        counters["trace.plain_ns"] += plain
                        counters["trace.ops"] += 1
                    if "executor.serial_op" in own:
                        serial = own["executor.serial_op"]
                        counters["executor.overhead_ns"] += plain - (
                            serial.end_ns - serial.start_ns
                        )
                cycles += 1
        counters["executor.fallbacks"] = fallback_count(caught)
        failures = check_answers(pool, answers)
        attempted += len(answers)
        failed += len(failures)
        totals = tracer.totals(f"{name}/")
        values = layer_metrics(name, totals, counters, cycles)
        values["setup.inputs_s"] = inputs_s
        metrics.update({f"{name}.{key}": value for key, value in values.items()})
        report["workloads"][name] = {
            "cycles": cycles,
            "ops": cycles * len(pool),
            "answers_checked": len(answers),
            "failures": failures,
            "spans": totals,
            "counters": dict(counters),
        }
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    report["provenance"] = provenance()
    return metrics, report, attempted, failed


def layer_metrics(
    workload: str, totals: dict, counters: dict[str, float], cycles: int
) -> dict[str, float]:
    """Per-pass layer metrics from span totals and counters."""

    def self_s(span: str) -> float:
        return totals.get(span, {}).get("self_s", 0.0) / cycles

    def total_s(span: str) -> float:
        return totals.get(span, {}).get("total_s", 0.0) / cycles

    expected = {
        key.removeprefix("engine.path.")
        for key in PER_LAYER[workload]
        if key.startswith("engine.path.") and key != "engine.path.other"
    }
    values: dict[str, float] = {"engine.path.other": 0.0}
    for key, count in counters.items():
        if key.startswith("engine.path."):
            path = key.removeprefix("engine.path.")
            slot = key if path in expected else "engine.path.other"
            values[slot] = values.get(slot, 0.0) + count / cycles
    for path in expected:
        values.setdefault(f"engine.path.{path}", 0.0)
    for span in (
        "engine.explore",
        "result.rows",
        "result.best",
        "result.top_k",
        "result.pareto",
        "sink.write",
        "campaign.run",
        "joint.explore",
        "joint.candidates",
        "joint.search",
    ):
        values[span + "_s"] = self_s(span)
    for span in ("vectorized.fold", "vectorized.materialize", "prune.fold"):
        values[span + "_s"] = total_s(span)
    for key in (
        "vectorized.rows_materialized",
        "result.pareto_size",
        "sink.rows_materialized",
        "joint.capacity_pruned",
        "joint.searched",
    ):
        values[key] = counters.get(key, 0.0) / cycles
    values["executor.fallbacks"] = counters.get("executor.fallbacks", 0.0)
    values["executor.overhead_s"] = counters.get("executor.overhead_ns", 0.0) / 1e9 / cycles
    values["trace.overhead_ms"] = _ratio(
        counters.get("trace.op_ns", 0.0) - counters.get("trace.plain_ns", 0.0),
        1e6 * counters.get("trace.ops", 0.0),
    )
    values["prune.survivor_ratio"] = _ratio(
        counters.get("prune.rows_emitted", 0.0), counters.get("prune.full_space", 0.0)
    )
    values["campaign.frontier_s"] = total_s("campaign.run") - total_s(
        "campaign.run_nofrontier"
    )
    values["campaign.dedup_skip_ratio"] = _ratio(
        counters.get("campaign.evaluations_skipped", 0.0),
        counters.get("campaign.evaluations_total", 0.0),
    )
    values["campaign.materialized_ratio"] = _ratio(
        counters.get("campaign.rows_materialized", 0.0),
        counters.get("campaign.member_rows_closed", 0.0),
    )
    values["scheduling.completion_mean_s"] = _ratio(
        counters.get("scheduling.completion_s", 0.0), counters.get("scheduling.runs", 0.0)
    )
    start = totals.get("executor.pool_start")
    values["executor.pool_start_s"] = start["total_s"] / start["calls"] if start else 0.0
    return {key: value for key, value in values.items() if key in PER_LAYER[workload]}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def print_table(title: str, rows: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    import_s = load_program()
    if args.trace:
        values, report, attempted, failed = traced_run(args, import_s)
        units = per_layer_spec()
        missing = set(units) - set(values)
        if missing:
            raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    else:
        values, report, attempted, failed = timed_run(args)
        units = END_TO_END
    print_table(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}", values, units
    )
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
