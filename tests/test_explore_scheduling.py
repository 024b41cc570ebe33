"""Campaign scheduling: the policy registry and duck-typed custom policies.

The builtin orders themselves are pinned in ``test_explore_streaming``
(completion order) and ``test_explore_joint`` (WSPT order); the
invariant suite asserts byte-identity to solo ``explore()`` under every
registered policy.
"""

from __future__ import annotations

import json

from repro.explore import (
    Campaign,
    Scenario,
    explore,
    load_builtin,
)


def build_fleet(names=("vr-fig10", "faceauth-energy", "snnap-dvfs")) -> list[Scenario]:
    catalog = load_builtin()
    return [catalog.build(name) for name in names]


def test_policies_without_observe_still_work():
    """Duck-typed custom policies (start/select only, no
    SchedulingPolicy base) run unchanged."""

    class Legacy:
        name = "legacy"

        def start(self, scenarios):
            pass

        def select(self, live):
            return live[0]

    fleet = build_fleet(("vr-fig10", "faceauth-energy"))
    result = Campaign(fleet).run(policy=Legacy())
    assert result.policy == "legacy"
    for run in result:
        assert json.dumps(run.result.rows) == json.dumps(explore(run.scenario).rows)


def test_moved_policies_stay_importable_from_campaign():
    """The scheduling module split must not break existing imports."""
    from repro.explore import campaign, scheduling

    for name in (
        "SchedulingPolicy",
        "RoundRobin",
        "SCHEDULING_POLICIES",
        "resolve_policy",
    ):
        assert getattr(campaign, name) is getattr(scheduling, name)
    assert set(scheduling.SCHEDULING_POLICIES) == {
        "round_robin",
        "weighted_completion",
    }
