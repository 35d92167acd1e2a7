"""Tabular reporting helpers (plain text, markdown, CSV).

The benchmark harness prints the regenerated "tables" of the reproduction with
these helpers; EXPERIMENTS.md embeds their output.  No third-party formatting
library is used so the output is stable across environments.
"""

from __future__ import annotations

import csv
import io
from typing import Optional, Sequence

__all__ = ["format_table", "format_markdown_table", "rows_to_csv"]


def _normalise(rows: Sequence[dict]) -> tuple:
    rows = list(rows)
    if not rows:
        return [], []
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns, rows


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[dict], title: Optional[str] = None) -> str:
    """Fixed-width plain-text table."""
    columns, rows = _normalise(rows)
    if not rows:
        return "(no rows)"
    widths = {c: max(len(c), max(len(_fmt(r.get(c, ""))) for r in rows)) for c in columns}
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        lines.append(" | ".join(_fmt(row.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def format_markdown_table(rows: Sequence[dict], title: Optional[str] = None) -> str:
    """GitHub-flavoured markdown table (used to fill EXPERIMENTS.md)."""
    columns, rows = _normalise(rows)
    if not rows:
        return "(no rows)"
    lines = []
    if title:
        lines.append(f"**{title}**")
        lines.append("")
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join("---" for _ in columns) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(c, "")) for c in columns) + " |")
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Serialise rows as CSV text."""
    columns, rows = _normalise(rows)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({c: row.get(c, "") for c in columns})
    return buffer.getvalue()
