"""Regression tests for the benchmark trajectory plumbing.

Two bugs are pinned here (both fixed by splitting the pure logic into
``benchmarks/_trajectory.py``):

* the vectorized-speedup bar used the *post-append* trajectory, so an
  ``explore_scaling`` entry appended earlier in the same pytest session
  inflated the bar and failed full-suite runs that passed in isolation
  — the bar must anchor on a session-start snapshot;
* every ``pytest`` run rewrote the tracked ``BENCH_explore.json`` and
  ``benchmarks/results/*``, dirtying ``git status`` — tracked writes
  are now opt-in via ``BENCH_PUBLISH=1``.

``benchmarks/`` is not a package, so the module is loaded by file path.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULE_PATH = REPO_ROOT / "benchmarks" / "_trajectory.py"


def load_module():
    spec = importlib.util.spec_from_file_location("_trajectory", MODULE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trajectory = load_module()


def scaling_entry(memoized_rate: float, commit: str = "aaaaaaa") -> dict:
    return {
        "kind": "explore_scaling",
        "modes": {"memoized": {"configs_per_sec": memoized_rate}},
        "commit": commit,
    }


def vectorized_entry(commit: str = "aaaaaaa") -> dict:
    return {
        "kind": "explore_vectorized",
        "speedup_batch_vs_scalar": 25.0,
        "commit": commit,
    }


# -- the order-dependence regression --------------------------------------


def test_vectorized_bar_ignores_same_session_scaling_entries():
    """The exact full-suite failure mode: ``explore_scaling`` runs first
    in the same session and records a fast memoized rate on this
    machine; the vectorized bar must still reflect only the
    session-start snapshot."""
    baseline = [scaling_entry(1_000.0, commit="old1"), vectorized_entry("old1")]
    bar_at_start = trajectory.vectorized_bar(baseline)
    assert bar_at_start == pytest.approx(10_000.0)

    # Same-session append of a much faster memoized measurement (what
    # test_bench_explore_scaling.py does minutes before the vectorized
    # benchmark in a full-suite run)...
    updated = trajectory.append_entry(
        baseline, scaling_entry(50_000.0), commit="new1"
    )
    assert trajectory.vectorized_bar(updated) == pytest.approx(500_000.0)

    # ...must not move the bar the vectorized benchmark asserts against.
    assert trajectory.vectorized_bar(baseline) == bar_at_start
    # A lazy rate that clears 10x prior-commit memoized but not 10x the
    # same-session rate passes against the snapshot bar.
    lazy = 30_000.0
    assert lazy >= bar_at_start
    assert lazy < trajectory.vectorized_bar(updated)


def test_vectorized_bar_none_without_prior_memoized_entries():
    assert trajectory.vectorized_bar([]) is None
    assert trajectory.vectorized_bar([vectorized_entry()]) is None
    no_modes = [{"kind": "explore_scaling", "commit": "x"}]
    assert trajectory.vectorized_bar(no_modes) is None


def test_best_prior_memoized_takes_the_max_across_entries():
    baseline = [
        scaling_entry(100.0, "c1"),
        scaling_entry(400.0, "c2"),
        scaling_entry(250.0, "c3"),
    ]
    assert trajectory.best_prior_memoized(baseline) == 400.0


# -- append_entry semantics ------------------------------------------------


def test_append_entry_is_pure_and_stamps_commit():
    baseline = [scaling_entry(1.0, "old")]
    entry = {"kind": "explore_scaling", "modes": {}}
    updated = trajectory.append_entry(baseline, entry, commit="new")
    assert baseline == [scaling_entry(1.0, "old")]  # input untouched
    assert "commit" not in entry  # entry dict untouched
    assert updated[-1]["commit"] == "new"
    assert len(updated) == 2


def test_append_entry_stamps_the_machine():
    """Every new entry records the host it was measured on (cores,
    Python, numpy); an entry that already names its machine keeps it,
    and neither the input trajectory nor the entry dict is touched."""
    import os
    import platform

    import numpy as np

    entry = {"kind": "explore_scaling", "modes": {}}
    updated = trajectory.append_entry([], entry, commit="c1")
    assert updated[-1]["machine"] == {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    assert "machine" not in entry
    own = {"cores": 64, "python": "3.0.0", "numpy": "0.0"}
    kept = trajectory.append_entry(
        updated, {"kind": "energy_pareto", "machine": own}, commit="c1"
    )
    assert kept[-1]["machine"] == own
    assert len(updated) == 1  # the input trajectory is untouched


def test_append_entry_replaces_latest_same_kind_same_commit():
    baseline = [
        scaling_entry(1.0, "c1"),
        vectorized_entry("c1"),
        scaling_entry(2.0, "c2"),
    ]
    rerun = trajectory.append_entry(baseline, scaling_entry(3.0), commit="c2")
    assert len(rerun) == 3
    assert rerun[2]["modes"]["memoized"]["configs_per_sec"] == 3.0
    # A different kind at the same commit appends rather than replacing.
    other = trajectory.append_entry(baseline, vectorized_entry(), commit="c2")
    assert len(other) == 4
    # Only the LATEST same-kind entry is a replacement candidate: a new
    # commit appends even though c1 entries of the kind exist.
    cross = trajectory.append_entry(baseline, scaling_entry(9.0), commit="c3")
    assert len(cross) == 4


def test_append_entry_caps_oldest_first_and_handles_no_commit():
    baseline = [scaling_entry(float(i), f"c{i}") for i in range(5)]
    capped = trajectory.append_entry(
        baseline, scaling_entry(99.0), commit="c9", cap=3
    )
    assert len(capped) == 3
    assert capped[-1]["commit"] == "c9"
    assert capped[0]["commit"] == "c3"
    # commit=None (outside git) always appends.
    appended = trajectory.append_entry(baseline, scaling_entry(7.0), commit=None)
    assert len(appended) == 6
    assert appended[-1]["commit"] is None


# -- opt-in output routing -------------------------------------------------


def test_publish_disabled_routes_all_writes_under_tmp(tmp_path):
    tracked_trajectory = REPO_ROOT / "BENCH_explore.json"
    tracked_results = REPO_ROOT / "benchmarks" / "results"
    for environ in ({}, {"BENCH_PUBLISH": "0"}, {"BENCH_PUBLISH": "yes"}):
        assert not trajectory.publish_enabled(environ)
        out_trajectory, out_results = trajectory.resolve_output_paths(
            tmp_path,
            environ,
            trajectory_path=tracked_trajectory,
            results_dir=tracked_results,
        )
        assert out_trajectory == tmp_path / "BENCH_explore.json"
        assert out_results == tmp_path / "results"
        assert tmp_path in out_trajectory.parents
        assert tmp_path in out_results.parents


def test_publish_opt_in_routes_to_tracked_paths(tmp_path):
    environ = {"BENCH_PUBLISH": "1"}
    assert trajectory.publish_enabled(environ)
    out_trajectory, out_results = trajectory.resolve_output_paths(
        tmp_path,
        environ,
        trajectory_path=REPO_ROOT / "BENCH_explore.json",
        results_dir=REPO_ROOT / "benchmarks" / "results",
    )
    assert out_trajectory == REPO_ROOT / "BENCH_explore.json"
    assert out_results == REPO_ROOT / "benchmarks" / "results"


def test_bench_conftest_fixtures_write_nothing_outside_tmp(
    tmp_path, monkeypatch
):
    """Drive the actual ``benchmarks/conftest.py`` fixture bodies (via
    ``__wrapped__``) with the opt-in unset and assert every produced
    path lives under the fake tmp dir — the property that keeps a plain
    tier-1 run's ``git status`` clean."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)

    monkeypatch.delenv("BENCH_PUBLISH", raising=False)
    monkeypatch.delenv("BENCH_RESULTS_DIR", raising=False)

    class FakeFactory:
        def mktemp(self, name):
            path = tmp_path / name
            path.mkdir()
            return path

    trajectory_path, results_dir = conftest.bench_output.__wrapped__(
        FakeFactory()
    )
    assert tmp_path in trajectory_path.parents
    assert tmp_path in results_dir.parents
    assert results_dir.is_dir()
    # The example-summary env var follows the tmp routing too.
    import os

    assert os.environ["BENCH_RESULTS_DIR"] == str(results_dir)

    bench_output = (trajectory_path, results_dir)
    append = conftest.append_trajectory.__wrapped__(bench_output, [])
    written = append({"kind": "explore_scaling", "modes": {}})
    assert trajectory_path.exists()
    assert len(written) == 1

    publish = conftest.publish.__wrapped__(results_dir)
    publish("probe", "table text")
    assert (results_dir / "probe.txt").read_text() == "table text\n"
    # The tracked results dir gained no probe artifact.
    assert not (REPO_ROOT / "benchmarks" / "results" / "probe.txt").exists()


def test_trajectory_baseline_reads_the_tracked_snapshot(monkeypatch, tmp_path):
    """``trajectory_baseline`` must read the TRACKED trajectory (the
    session-start snapshot), not the session's write path."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest2", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    assert conftest.trajectory_baseline.__wrapped__() == trajectory.load_trajectory(
        conftest.TRAJECTORY_PATH
    )


def test_load_trajectory_missing_file_is_empty(tmp_path):
    assert trajectory.load_trajectory(tmp_path / "absent.json") == []
