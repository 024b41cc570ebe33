#!/usr/bin/env python
"""CI gate over the ``BENCH_explore.json`` speedup trajectory.

After the perf benchmarks append their entries, this script gates each
tracked kind independently (``GATED_KINDS`` maps kind -> gated
metrics), comparing each metric of the *newest* entry against the *best
prior* entry of the same kind:

* within ``WARN_RATIO`` (2x) of the best: OK;
* worse than ``WARN_RATIO`` but within ``FAIL_RATIO`` (5x): a warning
  comment lands in the GitHub step summary, the build stays green
  (shared-runner timing noise routinely costs 2x);
* worse than ``FAIL_RATIO``: hard failure — a 5x drop is a real
  regression (e.g. the memoized path silently falling back to brute
  force), not noise.

Usage: ``check_bench_regression.py [path-to-BENCH_explore.json]``.
The logic lives in importable functions; ``tests/test_bench_gate.py``
covers the ok/warn/fail paths.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

#: Trajectory entries examined and the metric gated (the historical
#: single-kind default, kept for backward compatibility).
KIND = "explore_scaling"
METRIC = "speedup_memoized_vs_brute"
#: Every gated kind and its metrics; ``main`` assesses each pair in turn
#: and the build fails if any metric regresses past the hard gate.
GATED_KINDS: dict[str, tuple[str, ...]] = {
    "explore_scaling": ("speedup_memoized_vs_brute",),
    "explore_vectorized": (
        "speedup_batch_vs_scalar",
        "speedup_batch_collect_vs_scalar",
        # Materialize-all: every cost object built, each slowest-block
        # label decoded from the choices (guards against a per-row
        # fallback in the decode).
        "speedup_batch_materialized_vs_scalar",
    ),
    "explore_pruned_vectorized": ("speedup_fused_vs_scalar_pruned",),
    # Lazy dedup views vs the row-only-sink baseline (every member row
    # built); the metric keeps its name so older entries still compare.
    "campaign_fleet_columnar": ("speedup_lazy_vs_materialize",),
    "joint_fleet": ("speedup_joint_vs_naive",),
    # ``joint_fleet_16cam`` stays ungated: its entries record absolute
    # search seconds (0.2 ms-scale), not a higher-is-better ratio, so a
    # best-prior ratio gate would read timer noise as a regression. Its
    # benchmark asserts each search under one second itself.
}
#: best_prior / latest above this: warn-only comment in the summary.
WARN_RATIO = 2.0
#: best_prior / latest above this: hard failure.
FAIL_RATIO = 5.0


def latest_and_best_prior(
    trajectory: list[dict], kind: str = KIND, metric: str = METRIC
) -> tuple[float | None, float | None]:
    """(newest entry's metric, best metric among prior same-kind
    entries); None where no such entry exists."""
    values = [
        entry[metric]
        for entry in trajectory
        if entry.get("kind") == kind and isinstance(entry.get(metric), (int, float))
    ]
    if not values:
        return None, None
    if len(values) == 1:
        return values[-1], None
    return values[-1], max(values[:-1])


def assess(
    latest: float | None,
    best_prior: float | None,
    warn_ratio: float = WARN_RATIO,
    fail_ratio: float = FAIL_RATIO,
    kind: str = KIND,
    metric: str = METRIC,
) -> tuple[str, str]:
    """('ok' | 'warn' | 'fail', human-readable message)."""
    if latest is None:
        return "ok", f"no {kind!r} entries with {metric!r} in the trajectory yet"
    if best_prior is None:
        return "ok", f"first {kind!r} entry: {metric} = {latest}x (no prior to gate against)"
    if latest <= 0:
        return "fail", f"newest {metric} is {latest}x — the gated path lost outright"
    ratio = best_prior / latest
    message = (
        f"newest {metric} = {latest}x vs best prior {best_prior}x "
        f"({ratio:.2f}x off the best)"
    )
    if ratio > fail_ratio:
        return "fail", f"{message}: regression beyond the {fail_ratio}x gate"
    if ratio > warn_ratio:
        return "warn", f"{message}: beyond the {warn_ratio}x advisory bar"
    return "ok", message


def write_step_summary(status: str, message: str) -> None:
    """Append the verdict to the GitHub step summary when running in CI."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    marker = {"ok": "✅", "warn": "⚠️", "fail": "❌"}[status]
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write(f"{marker} benchmark gate: {message}\n")


def main(argv: list[str]) -> int:
    path = Path(argv[1]) if len(argv) > 1 else Path("BENCH_explore.json")
    if not path.exists():
        print(f"benchmark gate: {path} not found (benchmark did not run?)")
        return 1
    trajectory = json.loads(path.read_text())
    failed = False
    for kind, metrics in GATED_KINDS.items():
        for metric in metrics:
            latest, best_prior = latest_and_best_prior(trajectory, kind, metric)
            status, message = assess(latest, best_prior, kind=kind, metric=metric)
            print(f"benchmark gate [{status}] {kind}: {message}")
            write_step_summary(status, f"{kind}: {message}")
            failed = failed or status == "fail"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
