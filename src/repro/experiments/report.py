"""Rendering experiment results as tables and CSV.

The paper's figures are line plots; the harness prints the same data as
aligned text tables (one row per x-value, one column per series) so the
"who wins, by what factor, where are the crossovers" shape is readable
in a terminal, plus CSV export for external plotting.
"""

from __future__ import annotations

import csv
import io
from typing import List, Optional

from repro.experiments.runner import ExperimentResult


def format_table(
    result: ExperimentResult,
    metric: Optional[str] = None,
    precision: int = 3,
) -> str:
    """Aligned text table of one experiment's curves."""
    defn = result.definition
    metric = metric or defn.metric
    return format_rows(
        f"{defn.exp_id}: {defn.title}   [metric: {metric}]",
        [defn.x_label] + result.labels,
        result.as_table(metric),
        precision,
    )


def format_rows(
    title: str, header: List[str], rows: List[list], precision: int = 3
) -> str:
    """A title, a rule, then the header and rows right-aligned.

    The first column may be numeric (a swept parameter) or a string
    (e.g. a chaos scenario name); later columns render floats at
    ``precision`` and ints bare.
    """

    def cell(v, first: bool) -> str:
        if isinstance(v, str):
            return v
        if first or isinstance(v, int):
            return f"{v:g}"
        return f"{v:.{precision}f}"

    str_rows = [header] + [
        [cell(v, i == 0) for i, v in enumerate(row)] for row in rows
    ]
    widths = [max(len(r[i]) for r in str_rows) for i in range(len(header))]
    lines = [title, "-" * (sum(widths) + 3 * len(widths))]
    for r in str_rows:
        lines.append("   ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def to_csv(result: ExperimentResult, metric: Optional[str] = None) -> str:
    """CSV rendering (x column + one column per series)."""
    defn = result.definition
    metric = metric or defn.metric
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([defn.x_label] + result.labels)
    for row in result.as_table(metric):
        writer.writerow(row)
    return buf.getvalue()


def summary_lines(result: ExperimentResult) -> List[str]:
    """Per-series one-line summaries (endpoint values, mean)."""
    defn = result.definition
    out = []
    for label in result.labels:
        ys = result.series(label)
        out.append(
            f"{defn.exp_id} {label!r}: "
            f"start={ys[0]:.3f} end={ys[-1]:.3f} "
            f"min={min(ys):.3f} max={max(ys):.3f}"
        )
    return out
