"""The CI benchmark-regression gate over ``BENCH_explore.json``.

The gate script lives in ``.github/scripts`` (it is CI tooling, not
library code); these tests load it by path and pin the ok / warn-only /
hard-fail semantics: within 2x of the best prior entry is OK, beyond 2x
warns without failing the build, beyond 5x fails.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

GATE_PATH = (
    Path(__file__).resolve().parent.parent
    / ".github"
    / "scripts"
    / "check_bench_regression.py"
)


def load_gate():
    spec = importlib.util.spec_from_file_location("bench_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = load_gate()


def entry(speedup, kind="explore_scaling"):
    return {"kind": kind, "speedup_memoized_vs_brute": speedup}


def test_latest_and_best_prior_filters_kind_and_metric():
    trajectory = [
        entry(5.0),
        {"kind": "energy_pareto", "speedup_memoized_vs_brute": 99.0},
        entry(6.5),
        {"kind": "explore_scaling"},  # no metric: ignored
        entry(4.0),
    ]
    latest, best = gate.latest_and_best_prior(trajectory)
    assert latest == 4.0
    assert best == 6.5  # the best PRIOR entry, not the global best


def test_latest_and_best_prior_edge_cases():
    assert gate.latest_and_best_prior([]) == (None, None)
    assert gate.latest_and_best_prior([entry(5.0)]) == (5.0, None)


def test_assess_ok_within_two_x():
    status, _ = gate.assess(4.0, 6.0)  # 1.5x off the best
    assert status == "ok"
    assert gate.assess(6.0, 5.0)[0] == "ok"  # faster than ever
    assert gate.assess(None, None)[0] == "ok"  # empty trajectory
    assert gate.assess(5.0, None)[0] == "ok"  # first entry


def test_assess_warns_between_two_and_five_x():
    status, message = gate.assess(2.0, 6.0)  # 3x off the best
    assert status == "warn"
    assert "advisory" in message


def test_assess_fails_beyond_five_x():
    status, message = gate.assess(1.0, 6.0)  # 6x off the best
    assert status == "fail"
    assert "regression" in message
    assert gate.assess(0.0, 6.0)[0] == "fail"


def vec_entry(speedup):
    return {"kind": "explore_vectorized", "speedup_batch_vs_scalar": speedup}


def pruned_entry(speedup):
    return {
        "kind": "explore_pruned_vectorized",
        "speedup_fused_vs_scalar_pruned": speedup,
    }


def fleet_entry(speedup):
    return {
        "kind": "campaign_fleet_columnar",
        "speedup_lazy_vs_materialize": speedup,
    }


def test_gated_kinds_cover_every_trajectory_kind():
    assert gate.GATED_KINDS == {
        "explore_scaling": ("speedup_memoized_vs_brute",),
        "explore_vectorized": (
            "speedup_batch_vs_scalar",
            "speedup_batch_collect_vs_scalar",
            "speedup_batch_materialized_vs_scalar",
        ),
        "explore_pruned_vectorized": ("speedup_fused_vs_scalar_pruned",),
        "campaign_fleet_columnar": ("speedup_lazy_vs_materialize",),
        "joint_fleet": ("speedup_joint_vs_naive",),
    }


def collect_entry(lazy, collect):
    return {
        "kind": "explore_vectorized",
        "speedup_batch_vs_scalar": lazy,
        "speedup_batch_collect_vs_scalar": collect,
    }


def test_collected_batch_speedup_is_gated_next_to_the_lazy_one(tmp_path):
    """``explore_vectorized`` carries two gated metrics: the collected
    run's speedup fails the build on its own even when the lazy one is
    healthy, and either one regressing alone is enough."""
    assert gate.latest_and_best_prior(
        [collect_entry(20.0, 15.0), collect_entry(19.0, 12.0)],
        "explore_vectorized",
        "speedup_batch_collect_vs_scalar",
    ) == (12.0, 15.0)
    path = tmp_path / "BENCH_explore.json"
    healthy = [entry(6.0), collect_entry(20.0, 15.0)]
    path.write_text(json.dumps(healthy + [collect_entry(19.0, 14.0)]))
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(json.dumps(healthy + [collect_entry(19.0, 2.0)]))
    assert gate.main(["gate", str(path)]) == 1
    path.write_text(json.dumps(healthy + [collect_entry(2.0, 14.0)]))
    assert gate.main(["gate", str(path)]) == 1
    # Entries from before the collected metric was recorded stay green.
    path.write_text(json.dumps([entry(6.0), vec_entry(20.0), vec_entry(19.0)]))
    assert gate.main(["gate", str(path)]) == 0


def materialized_entry(materialized):
    return {
        **collect_entry(20.0, 15.0),
        "speedup_batch_materialized_vs_scalar": materialized,
    }


def test_materialize_all_speedup_is_gated(tmp_path):
    """``speedup_batch_materialized_vs_scalar`` (every cost object built)
    fails the build on its own past the hard gate; entries recorded
    before the metric existed are skipped, so the first entry that
    carries it has no prior to gate against."""
    path = tmp_path / "BENCH_explore.json"
    older = [entry(6.0), collect_entry(20.0, 15.0)]
    path.write_text(json.dumps(older + [materialized_entry(1.2)]))
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(
        json.dumps(older + [materialized_entry(1.2), materialized_entry(1.0)])
    )
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(
        json.dumps(older + [materialized_entry(1.2), materialized_entry(0.2)])
    )
    assert gate.main(["gate", str(path)]) == 1


def test_latest_and_best_prior_is_kind_aware():
    trajectory = [entry(5.0), vec_entry(20.0), entry(6.0), vec_entry(15.0)]
    assert gate.latest_and_best_prior(trajectory) == (6.0, 5.0)
    assert gate.latest_and_best_prior(
        trajectory, "explore_vectorized", "speedup_batch_vs_scalar"
    ) == (15.0, 20.0)


def test_assess_message_names_the_gated_kind_and_metric():
    status, message = gate.assess(
        2.0, 20.0, kind="explore_vectorized", metric="speedup_batch_vs_scalar"
    )
    assert status == "fail"
    assert "speedup_batch_vs_scalar" in message
    _, first = gate.assess(
        20.0, None, kind="explore_vectorized", metric="speedup_batch_vs_scalar"
    )
    assert "explore_vectorized" in first


def test_main_gates_each_kind_independently(tmp_path):
    path = tmp_path / "BENCH_explore.json"
    # Scaling healthy, vectorized regressed past the hard gate.
    path.write_text(json.dumps([entry(6.0), vec_entry(20.0), entry(5.5), vec_entry(2.0)]))
    assert gate.main(["gate", str(path)]) == 1
    # Both healthy.
    path.write_text(json.dumps([entry(6.0), vec_entry(20.0), entry(5.5), vec_entry(18.0)]))
    assert gate.main(["gate", str(path)]) == 0
    # A trajectory with no vectorized entries yet stays green.
    path.write_text(json.dumps([entry(6.0), entry(5.5)]))
    assert gate.main(["gate", str(path)]) == 0


def test_pruned_vectorized_kind_is_gated(tmp_path):
    """The fused-pruning trajectory rides the same gate semantics: its
    speedup metric is kind-filtered and a hard regression fails the
    build even when every other kind is healthy."""
    assert gate.latest_and_best_prior(
        [pruned_entry(8.0), vec_entry(20.0), pruned_entry(7.0)],
        "explore_pruned_vectorized",
        "speedup_fused_vs_scalar_pruned",
    ) == (7.0, 8.0)
    path = tmp_path / "BENCH_explore.json"
    healthy = [entry(6.0), vec_entry(20.0), pruned_entry(8.0)]
    path.write_text(json.dumps(healthy + [pruned_entry(7.5)]))
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(json.dumps(healthy + [pruned_entry(1.0)]))
    assert gate.main(["gate", str(path)]) == 1


def test_fleet_columnar_kind_is_gated(tmp_path):
    """The fleet-scale lazy-dedup trajectory rides the same gate
    semantics: its speedup metric is kind-filtered and a hard
    regression (e.g. the lazy path silently falling back to per-member
    materialization) fails the build on its own."""
    assert gate.latest_and_best_prior(
        [fleet_entry(8.0), pruned_entry(14.0), fleet_entry(7.0)],
        "campaign_fleet_columnar",
        "speedup_lazy_vs_materialize",
    ) == (7.0, 8.0)
    path = tmp_path / "BENCH_explore.json"
    healthy = [entry(6.0), vec_entry(20.0), fleet_entry(8.0)]
    path.write_text(json.dumps(healthy + [fleet_entry(7.0)]))
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(json.dumps(healthy + [fleet_entry(1.0)]))
    assert gate.main(["gate", str(path)]) == 1


def joint_entry(speedup):
    return {"kind": "joint_fleet", "speedup_joint_vs_naive": speedup}


def test_joint_fleet_kind_is_gated(tmp_path):
    """The joint-fleet trajectory rides the same gate semantics: its
    speedup metric is kind-filtered and a hard regression (e.g. the
    shared campaign phase silently degrading to naive per-member
    re-evaluation) fails the build on its own."""
    assert gate.latest_and_best_prior(
        [joint_entry(15.0), fleet_entry(8.0), joint_entry(12.0)],
        "joint_fleet",
        "speedup_joint_vs_naive",
    ) == (12.0, 15.0)
    path = tmp_path / "BENCH_explore.json"
    healthy = [entry(6.0), vec_entry(20.0), joint_entry(15.0)]
    path.write_text(json.dumps(healthy + [joint_entry(12.0)]))
    assert gate.main(["gate", str(path)]) == 0
    path.write_text(json.dumps(healthy + [joint_entry(1.0)]))
    assert gate.main(["gate", str(path)]) == 1


def test_main_exit_codes_and_step_summary(tmp_path, monkeypatch):
    summary = tmp_path / "summary.md"
    monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
    path = tmp_path / "BENCH_explore.json"

    path.write_text(json.dumps([entry(6.0), entry(5.5)]))
    assert gate.main(["gate", str(path)]) == 0

    path.write_text(json.dumps([entry(6.0), entry(2.0)]))
    assert gate.main(["gate", str(path)]) == 0  # warn-only stays green

    path.write_text(json.dumps([entry(6.0), entry(1.0)]))
    assert gate.main(["gate", str(path)]) == 1

    assert gate.main(["gate", str(tmp_path / "missing.json")]) == 1
    text = summary.read_text()
    assert "benchmark gate" in text and "⚠️" in text and "❌" in text
