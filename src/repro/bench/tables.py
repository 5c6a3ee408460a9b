"""Experiment output: the result record and plain-text table/series
formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence

__all__ = ["ExperimentResult", "format_table", "format_series"]


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[Any]], title: str = ""
) -> str:
    """Render an ASCII table (right-aligned numbers, left-aligned first col)."""
    srows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render(cells: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            out.append(cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i]))
        return "  ".join(out)

    lines = []
    if title:
        lines.append(title)
    lines.append(render(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(render(row) for row in srows)
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Any], ys: Sequence[Any]) -> str:
    """One figure series as a text line: ``name: (x,y) (x,y) ...``."""
    pts = " ".join(f"({_fmt(x)},{_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pts}"
