"""Result formatting: ASCII tables and CSV export for figures and tables."""

from __future__ import annotations

import csv
import io
import math
from typing import Iterable, Mapping, Optional, Sequence

__all__ = ["format_table", "to_csv", "format_value", "write_csv"]


def format_value(value) -> str:
    """Human-friendly rendering of one cell."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) < 0.001:
            return f"{value:.2e}"
        return f"{value:.3g}"
    return str(value)


def format_table(rows: Sequence[Mapping], *, columns: Optional[Sequence[str]] = None,
                 title: str = "") -> str:
    """Render a list of dict rows as a fixed-width ASCII table."""
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[format_value(row.get(col)) for col in cols]
                for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(cols)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(widths[i]) for i, col in enumerate(cols))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in rendered:
        lines.append(" | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def to_csv(rows: Sequence[Mapping], *, columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as CSV text."""
    if not rows:
        return ""
    cols = list(columns) if columns else list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=cols, extrasaction="ignore")
    writer.writeheader()
    for row in rows:
        writer.writerow({col: row.get(col, "") for col in cols})
    return buffer.getvalue()


def write_csv(path, rows: Sequence[Mapping], *,
              columns: Optional[Sequence[str]] = None) -> None:
    """Write rows to a CSV file."""
    text = to_csv(rows, columns=columns)
    with open(path, "w", newline="") as handle:
        handle.write(text)
