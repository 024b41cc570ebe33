"""Pure helpers behind the benchmark trajectory fixtures.

Two failure modes motivated splitting this out of ``conftest.py``:

* the vectorized-speedup bar compared against ``max(prior memoized)``
  over the *post-append* trajectory, so a same-session
  ``explore_scaling`` entry recorded minutes earlier on the same
  machine inflated the bar and failed full-suite runs that passed in
  isolation — the bar must be computed from a session-start snapshot;
* every ``pytest`` run rewrote tracked artifacts (``BENCH_explore.json``
  and ``benchmarks/results/*``), leaving ``git status`` dirty after an
  ordinary tier-1 run — publishing to the tracked paths is now an
  explicit opt-in (``BENCH_PUBLISH=1``, set by the CI bench job), and
  local runs write throwaway twins under pytest's tmp directory.

Everything here is deliberately free of pytest and of module-level
state so the regression tests in ``tests/test_bench_trajectory.py``
can load it by path and exercise the exact logic the fixtures run.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Mapping

#: Environment flag that routes trajectory appends and ``publish()``
#: artifacts to the tracked repository paths. Anything else (including
#: unset) keeps writes inside the per-session tmp directory.
PUBLISH_ENV_VAR = "BENCH_PUBLISH"

#: Environment variable consumed by examples that archive their own
#: summaries (``examples/campaign_fleet.py``): the bench session points
#: it at whichever results directory is active so example-driven writes
#: obey the same opt-in.
RESULTS_DIR_ENV_VAR = "BENCH_RESULTS_DIR"

#: Trajectory length cap: local full-suite runs append too, so bound
#: the committed artifact to the most recent entries.
MAX_TRAJECTORY_ENTRIES = 100


def publish_enabled(environ: Mapping[str, str]) -> bool:
    """True when this run may rewrite the tracked benchmark artifacts."""
    return environ.get(PUBLISH_ENV_VAR) == "1"


def resolve_output_paths(
    tmp_dir: Path,
    environ: Mapping[str, str],
    *,
    trajectory_path: Path,
    results_dir: Path,
) -> tuple[Path, Path]:
    """Pick (trajectory write path, results dir) for this session.

    With the opt-in set, writes land on the tracked ``trajectory_path``
    and ``results_dir``; otherwise both are twinned under ``tmp_dir`` so
    a plain ``pytest`` run leaves the working tree untouched.
    """
    if publish_enabled(environ):
        return trajectory_path, results_dir
    return tmp_dir / trajectory_path.name, tmp_dir / "results"


def load_trajectory(path: Path) -> list[dict]:
    """The trajectory at ``path``, or ``[]`` when absent."""
    if not path.exists():
        return []
    return json.loads(path.read_text())


def machine() -> dict:
    """The host a measurement was taken on: cores, Python and numpy."""
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def append_entry(
    trajectory: list[dict],
    entry: dict,
    commit: str | None,
    cap: int = MAX_TRAJECTORY_ENTRIES,
) -> list[dict]:
    """Append ``entry`` (stamped with ``commit`` and, unless it names
    one, the :func:`machine`) to a trajectory copy.

    Rerunning a benchmark at the *same* commit replaces that
    (kind, commit) pair's latest entry instead of appending, so local
    rerun-before-commit loops don't pile timing-noise duplicates into
    the committed artifact — while cross-commit entries (the trend the
    trajectory exists to show) always append. Entries beyond ``cap``
    roll off oldest-first.
    """
    entry = dict(entry)
    entry["commit"] = commit
    entry.setdefault("machine", machine())
    trajectory = list(trajectory)
    # Replace the latest entry of the SAME kind at the same commit
    # (several kinds interleave per run, so trajectory[-1] alone would
    # never match and reruns would still pile up duplicates).
    replaced = False
    if commit is not None:
        for position in range(len(trajectory) - 1, -1, -1):
            previous = trajectory[position]
            if previous.get("kind") != entry.get("kind"):
                continue
            if previous.get("commit") == commit:
                trajectory[position] = entry
                replaced = True
            break  # only the latest same-kind entry is a candidate
    if not replaced:
        trajectory.append(entry)
    return trajectory[-cap:]


def best_prior_memoized(baseline: list[dict]) -> float | None:
    """Best memoized configs/sec among genuinely prior entries.

    ``baseline`` must be the session-start snapshot of the trajectory,
    NOT the post-append list ``append_entry`` returns: entries recorded
    earlier in the same pytest session come from this machine at this
    commit and would silently couple one benchmark's bar to another
    benchmark's fresh measurement.
    """
    prior = [
        e["modes"]["memoized"]["configs_per_sec"]
        for e in baseline
        if e.get("kind") == "explore_scaling" and "memoized" in e.get("modes", {})
    ]
    return max(prior) if prior else None


def vectorized_bar(baseline: list[dict]) -> float | None:
    """The lazy-batch throughput floor: 10x the best prior memoized
    rate, or None when the snapshot has no memoized entries to anchor
    against (first run on a fresh trajectory)."""
    best = best_prior_memoized(baseline)
    return None if best is None else 10.0 * best
