"""Fault injection at the dedup-group seam.

A dedup group folds one walk and hands every member its own view of
each slice, so one member's failure happens *inside* a step its
siblings share. These tests break a group mid-run and check what the
campaign promises:

* a failing sink — row-only or columnar — surfaces as a
  :class:`~repro.errors.SinkError` naming the failing scenario;
* every sibling's sink is still closed, and each sibling's CSV export
  is a line-complete prefix of its solo export (never a torn row);
* abandoning ``iter_runs()`` while another unit is still walking leaves
  every run already yielded able to answer ``pareto()`` from its
  compact views, byte-identical to a solo run.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.errors import SinkError
from repro.explore import (
    Campaign,
    CsvSink,
    MemorySink,
    ResultSink,
    TopKSink,
    evaluation_path,
    explore,
    load_builtin,
)

#: Three uplinks: one dedup group of three members per catalog entry.
LINKS = ("25g", "wifi", "low-power")


def _group():
    fleet = load_builtin().build_at_links("vr-fig10", LINKS)
    assert [evaluation_path(member, dedup=True) for member in fleet] == [
        "batch-dedup"
    ] * len(LINKS)
    return fleet


class _ClosingCsv(CsvSink):
    """A CSV sink over a caller-owned buffer that records its close."""

    def __init__(self):
        self.buffer = io.StringIO()
        self.closed = False
        super().__init__(self.buffer)

    def close(self):
        super().close()
        self.closed = True


class _RowOnlyBoom(ResultSink):
    """A row-only sink that fails on its third write."""

    def __init__(self):
        self.writes = 0

    def write_rows(self, rows):
        self.writes += 1
        if self.writes >= 3:
            raise OSError("disk full")


class _ColumnarBoom(TopKSink):
    """A columnar sink whose ``write_batch`` fails on its third batch."""

    def __init__(self):
        super().__init__("total_fps", k=3)
        self.batches = 0

    def write_batch(self, batch):
        self.batches += 1
        if self.batches >= 3:
            raise OSError("quota exceeded")
        super().write_batch(batch)


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("boom_cls", [_RowOnlyBoom, _ColumnarBoom])
def test_failing_member_sink_inside_a_dedup_group(boom_cls, collect):
    fleet = _group()
    victim = fleet[1].name  # the middle member: one sibling each side
    boom = boom_cls()
    sinks = {
        member.name: boom if member.name == victim else _ClosingCsv()
        for member in fleet
    }
    with pytest.raises(SinkError, match=victim.replace("+", r"\+")):
        Campaign(fleet).run(chunk_size=2, sinks=sinks, collect=collect, dedup=True)
    for member in fleet:
        if member.name == victim:
            continue
        sink = sinks[member.name]
        assert sink.closed, member.name
        written = sink.buffer.getvalue()
        solo = explore(member).to_csv()
        assert written and solo.startswith(written), member.name
        assert written.endswith("\n"), member.name  # no torn row
        assert written != solo, member.name  # the failure was mid-run


def test_abandoned_iter_runs_keeps_yielded_group_runs_answering():
    """The dedup group finishes first; the consumer walks away while the
    larger unit is still walking. Runs already yielded keep their
    frontiers as compact views that pin nothing of the closed walk."""
    catalog = load_builtin()
    fleet = _group() + catalog.build_at_links("snnap-dvfs", ("25g",))
    straggler = fleet[-1]
    sinks = {member.name: MemorySink() for member in fleet}
    runs = Campaign(fleet).iter_runs(
        chunk_size=2, sinks=sinks, collect=False, dedup=True
    )
    yielded = [next(runs) for _ in LINKS]
    runs.close()
    assert [run.name for run in yielded] == [member.name for member in fleet[:3]]
    # The other unit was mid-walk when the consumer left.
    assert 0 < len(sinks[straggler.name].rows) < straggler.count_configs()
    for run in yielded:
        assert run.result is None and run.frontier is not None
        assert run.dedup_source in (None, fleet[0].name)
        solo = explore(run.scenario)
        assert json.dumps(run.pareto()) == json.dumps(solo.pareto()), run.name
        assert run.pareto_size == len(solo.pareto())
