"""Fixed-width text tables for benchmark output.

Every experiment harness prints its paper-correspondence table through
this class, so EXPERIMENTS.md and the benchmark logs share a format.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Any

from repro.errors import ConfigurationError


class TextTable:
    """A simple aligned table.

    >>> t = TextTable(["config", "fps"])
    >>> t.add_row({"config": "S~", "fps": 15.7})
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: list[str], title: str | None = None):
        if not columns:
            raise ConfigurationError("table needs at least one column")
        if len(set(columns)) != len(columns):
            raise ConfigurationError(f"duplicate columns: {columns}")
        self.columns = list(columns)
        self.title = title
        self._rows: list[list[str]] = []

    @staticmethod
    def _format(value: Any) -> str:
        if isinstance(value, float):
            if math.isnan(value):
                return "nan"
            if value == float("inf"):
                return "inf"
            if value == float("-inf"):
                return "-inf"
            if value == 0:
                return "0"
            magnitude = abs(value)
            if magnitude >= 1000 or magnitude < 0.001:
                return f"{value:.3g}"
            return f"{value:.3f}".rstrip("0").rstrip(".")
        return str(value)

    def add_row(self, row: dict[str, Any]) -> None:
        """Append one row; missing columns render as '-'."""
        self._rows.append([self._format(row.get(c, "-")) for c in self.columns])

    def add_rows(self, rows: list[dict[str, Any]]) -> None:
        for row in rows:
            self.add_row(row)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def render(self) -> str:
        """The formatted table as a string."""
        widths = [
            max(len(col), *(len(r[i]) for r in self._rows)) if self._rows else len(col)
            for i, col in enumerate(self.columns)
        ]
        lines = []
        if self.title:
            lines.append(f"== {self.title} ==")
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for row in self._rows:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV, cells formatted exactly as :meth:`render`
        formats them (exploration results export through this)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self._rows)
        return buffer.getvalue()

    def print(self) -> None:
        """Print the table (captured by pytest -s / tee in bench logs)."""
        print("\n" + self.render())


#: Canonical column order of a campaign summary row (see
#: :meth:`repro.explore.campaign.ScenarioRun.summary_row`).
CAMPAIGN_SUMMARY_COLUMNS = (
    "scenario",
    "domain",
    "configs",
    "feasible",
    "best_config",
    "best_metric",
    "pareto",
    "seconds",
    "dedup",
    "materialized",
)


def campaign_summary_table(
    rows: list[dict[str, Any]], title: str | None = None
) -> TextTable:
    """The fleet-level report of a batch exploration campaign.

    One row per scenario — evaluated configuration count, feasible
    count, best configuration and its domain metric (total FPS or total
    joules/frame), Pareto-frontier size (export-only campaigns maintain
    the frontier online, see :class:`repro.explore.result.ParetoFrontier`;
    ``"-"`` when one opted out with ``frontier=False``), and completion
    wall-time — rendered in the same fixed-width format every benchmark
    table uses, so campaign summaries archive alongside the paper
    tables. Rows are plain dicts (built by
    ``CampaignResult.summary_rows()``); extra keys beyond the canonical
    columns are appended in first-appearance order.
    ``CampaignResult.to_table`` titles it with the campaign's name,
    member count and wall time.
    """
    columns = list(CAMPAIGN_SUMMARY_COLUMNS)
    known = set(columns)
    for row in rows:
        for key in row:
            if key not in known:
                known.add(key)
                columns.append(key)
    table = TextTable(columns, title=title or "campaign summary")
    table.add_rows(rows)
    return table


#: Canonical column order of a joint-fleet summary row (see
#: :meth:`repro.explore.joint.JointFleetResult.summary_rows`): each
#: member's solo-best throughput next to the split the *joint* optimum
#: assigned it, its committed uplink demand, and the share of the shared
#: capacity that demand claims.
JOINT_SUMMARY_COLUMNS = (
    "member",
    "configs",
    "feasible",
    "solo_best_fps",
    "joint_config",
    "joint_fps",
    "demand_bps",
    "capacity_share",
)


def joint_fleet_summary_table(
    rows: list[dict[str, Any]], title: str | None = None
) -> TextTable:
    """The per-member report of a joint-fleet (shared uplink) search.

    Same extension contract as :func:`campaign_summary_table`: rows are
    plain dicts, extra keys beyond the canonical columns are appended in
    first-appearance order.
    """
    columns = list(JOINT_SUMMARY_COLUMNS)
    known = set(columns)
    for row in rows:
        for key in row:
            if key not in known:
                known.add(key)
                columns.append(key)
    table = TextTable(columns, title=title or "joint fleet summary")
    table.add_rows(rows)
    return table
