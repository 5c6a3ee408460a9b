"""Projections-style execution timeline: a view of the event log.

:class:`Timeline` pairs the ``exec_begin`` and ``exec_end`` rows of a
structured event log (:mod:`repro.trace.events`) into one interval per
entry-method execution, so a run recorded with
``Kernel(trace_events="exec_begin,exec_end")`` (or any superset) has a
timeline without a second recorder.  Its view is the coarse ASCII Gantt
rendering the Charm projections tool made famous, for terminals; the
time-bucketed utilization of the same rows is the metrics sampler's
``util`` column (:func:`repro.metrics.sampler.sample_metrics`).
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.trace.events import DUR, NAME, PE, T, EventIndex
from repro.util.errors import need_int

__all__ = ["Timeline"]


class Timeline:
    """Execution intervals of one run, read from its event rows.

    ``source`` is an :class:`~repro.trace.events.EventIndex` or anything it
    reads.  Each ``exec_end`` row names its ``exec_begin`` row as
    ``parent``; the interval starts at the begin row's ``t`` and lasts the
    end row's ``dur``, the floats the kernel passed.  A service execution
    (begin name ``service:entry``) renders as ``+``.  Executions whose
    begin row was filtered out or dropped at the log bound are not shown.
    """

    def __init__(self, source: Any) -> None:
        index = EventIndex.of(source)
        #: ``(pe, start, end, is_service)`` per execution, in end order.
        self._spans: List[Tuple[int, float, float, bool]] = []
        for begin_eid, end in index.end_of.items():
            begin = index.by_eid[begin_eid]
            self._spans.append((end[PE], begin[T], begin[T] + end[DUR],
                                ":" in (begin[NAME] or "")))

    def span(self) -> Tuple[float, float]:
        """(first start, last end) over all intervals; (0, 0) if empty."""
        if not self._spans:
            return (0.0, 0.0)
        spans = self._spans
        return (min(s[1] for s in spans), max(s[2] for s in spans))

    def render(self, width: int = 72, pes: Optional[List[int]] = None) -> str:
        """ASCII Gantt: one row per PE, '#' busy / '.' idle per time cell.

        A cell is busy if any execution overlaps it.  System-only cells
        render as '+', mixed cells as '#'.  When every execution is
        instantaneous and coincident (zero span), each PE gets one cell.
        """
        width = need_int("width", width, 1)
        if not self._spans:
            return "(empty timeline)"
        lo, hi = self.span()
        if pes is None:
            pes = range(max(s[0] for s in self._spans) + 1)
        zero = hi <= lo
        cell = (hi - lo) / width
        grid = {pe: ["."] * (1 if zero else width) for pe in pes}
        for pe, start, end, service in self._spans:
            cells = grid.get(pe)
            if cells is None:
                continue
            if zero:
                c0 = c1 = 0
            else:
                c0 = min(width - 1, int((start - lo) / cell))
                c1 = min(width - 1, int((end - lo) / cell))
            for c in range(c0, c1 + 1):
                if not service:
                    cells[c] = "#"
                elif cells[c] == ".":
                    cells[c] = "+"
        if zero:
            lines = [f"timeline {lo * 1e3:.3f} ms (zero span, "
                     f"{len(self._spans)} instantaneous executions)"]
        else:
            lines = [f"timeline {lo * 1e3:.3f}..{hi * 1e3:.3f} ms"]
        for pe in pes:
            lines.append(f"PE{pe:3d} |{''.join(grid[pe])}|")
        return "\n".join(lines)
