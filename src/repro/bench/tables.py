"""Experiment output: the result record and plain-text table/series
formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

__all__ = ["ExperimentResult", "Plan", "arms_table", "format_table",
           "format_series"]


@dataclass
class ExperimentResult:
    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)


#: What an experiment function returns: the run descriptors it needs, and
#: the report that turns their rows (in the same order) into its result.
Plan = Tuple[List[Any], Callable[[Sequence[Any]], ExperimentResult]]


def arms_table(
    exp_id: str,
    title: str,
    caption: str,
    headers: Sequence[str],
    arms: Sequence[Tuple[Any, Any]],
    cells: Callable[[Any, Any], Tuple[List[Any], Dict[str, Any]]],
    same_answer: bool = False,
    data: Optional[Dict[str, Any]] = None,
) -> Plan:
    """The plan of a table with one row per arm.

    ``arms`` is ``[(label, RunDescriptor)]``.  The report asks
    ``cells(label, row)`` for each run's table cells and data record, in
    arm order.  The records are keyed by label (a tuple label by its
    ``str``), or, given top-level ``data``, listed after it as
    ``"series"``.  ``same_answer`` asserts that every arm computed the
    same answer.
    """
    labels = [label for label, _ in arms]
    keys = [str(label) if isinstance(label, tuple) else label
            for label in labels]

    def report(rows: Sequence[Any]) -> ExperimentResult:
        assert not same_answer or len({row.answer for row in rows}) == 1, (
            f"{exp_id}: the answer depends on the arm (bug)")
        table, records = [], []
        for label, row in zip(labels, rows):
            row_cells, record = cells(label, row)
            table.append(row_cells)
            records.append(record)
        out = (dict(zip(keys, records)) if data is None
               else {**data, "series": records})
        text = format_table(headers, table, title=caption)
        return ExperimentResult(exp_id, title, text, out)
    return [desc for _, desc in arms], report


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
