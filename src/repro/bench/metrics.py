"""Aggregation and table formatting for the paper's performance metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Sequence

from ..core.stats import QueryStats


@dataclass
class AggregateStats:
    """Mean per-query metrics over a batch of queries (one plot point)."""

    queries: int = 0
    npe: float = 0.0
    noe: float = 0.0
    svg_size: float = 0.0
    logical_reads: float = 0.0
    page_faults: float = 0.0
    io_time_ms: float = 0.0
    cpu_time_ms: float = 0.0
    total_time_ms: float = 0.0
    split_solves: float = 0.0
    lemma1_prunes: float = 0.0
    lemma6_prunes: float = 0.0
    lemma7_cutoffs: float = 0.0
    nodes_expanded: float = 0.0

    @classmethod
    def of(cls, stats: Iterable[QueryStats]) -> "AggregateStats":
        stats = list(stats)
        agg = cls(queries=len(stats))
        if not stats:
            return agg
        n = float(len(stats))
        agg.npe = sum(s.npe for s in stats) / n
        agg.noe = sum(s.noe for s in stats) / n
        agg.svg_size = sum(s.svg_size for s in stats) / n
        agg.logical_reads = sum(s.io.logical_reads for s in stats) / n
        agg.page_faults = sum(s.io.page_faults for s in stats) / n
        agg.io_time_ms = sum(s.io_time_ms for s in stats) / n
        agg.cpu_time_ms = sum(s.cpu_time_ms for s in stats) / n
        agg.total_time_ms = sum(s.total_time_ms for s in stats) / n
        agg.split_solves = sum(s.split_solves for s in stats) / n
        agg.lemma1_prunes = sum(s.lemma1_prunes for s in stats) / n
        agg.lemma6_prunes = sum(s.lemma6_prunes for s in stats) / n
        agg.lemma7_cutoffs = sum(s.lemma7_cutoffs for s in stats) / n
        agg.nodes_expanded = sum(s.nodes_expanded for s in stats) / n
        return agg


@dataclass
class Row:
    """One table row: a parameter value plus its aggregate metrics."""

    label: str
    agg: AggregateStats
    extra: dict = field(default_factory=dict)


def format_table(title: str, param_name: str, rows: Sequence[Row],
                 columns: Sequence[str] = ("io_time_ms", "cpu_time_ms",
                                           "total_time_ms", "npe", "noe",
                                           "svg_size", "page_faults")) -> str:
    """Render rows as a fixed-width text table (the paper's figures as text)."""
    headers = [param_name, *columns, *sorted({k for r in rows for k in r.extra})]
    widths = [max(len(h), 10) for h in headers]
    lines = [title, "-" * (sum(widths) + 2 * len(widths))]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in rows:
        cells: List[str] = [row.label]
        for col in columns:
            v = getattr(row.agg, col)
            cells.append(f"{v:.1f}" if isinstance(v, float) else str(v))
        for key in headers[1 + len(columns):]:
            v = row.extra.get(key, "")
            cells.append(f"{v:.1f}" if isinstance(v, float) else str(v))
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
