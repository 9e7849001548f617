"""Plain-text formatting helpers for reports, tables and the CLI.

The benchmark harness renders paper-style tables (Tables I-IV) as aligned
ASCII; these helpers keep that rendering in one place so every bench
prints consistently.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def format_si(value: float) -> str:
    """Render a count with K/M/G suffixes: ``format_si(2_655_064) == '2.66M'``."""
    for threshold, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(value) >= threshold:
            return f"{value / threshold:.2f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table.

    Numeric cells are right-aligned, text cells left-aligned; the first
    column is always left-aligned (it is the row label).
    """
    str_rows: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    ncols = len(headers)
    for row in str_rows:
        if len(row) != ncols:
            raise ValueError(f"row has {len(row)} cells, expected {ncols}")
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in str_rows)) if str_rows else len(headers[c])
        for c in range(ncols)
    ]
    right = [False] + [
        all(_is_numeric(r[c]) for r in str_rows) if str_rows else False
        for c in range(1, ncols)
    ]

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for c, cell in enumerate(cells):
            parts.append(cell.rjust(widths[c]) if right[c] else cell.ljust(widths[c]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _is_numeric(s: str) -> bool:
    if s in ("-", ""):
        return True  # placeholder for "run not performed", as in paper Table II
    try:
        float(s.rstrip("%xX"))
        return True
    except ValueError:
        return False
