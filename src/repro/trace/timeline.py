"""Projections-style execution timeline.

When a kernel is created with ``timeline=True`` it records one interval
per entry-method execution: ``(pe, start, duration, kind, label)``.  The
:class:`Timeline` offers the analyses the Charm projections tool made
famous at table scale:

* per-PE busy/idle interval lists and the largest idle gap,
* a phase profile (time-bucketed utilization),
* a coarse ASCII Gantt rendering for terminals.

Recording costs one tuple per execution, so it is off by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.util.errors import need_int

__all__ = ["Interval", "Timeline"]


@dataclass(frozen=True)
class Interval:
    """One entry-method execution on one PE."""

    pe: int
    start: float
    duration: float
    kind: str       # "app" | "seed" | "boc" | "svc"
    label: str      # entry name or chare class name

    @property
    def end(self) -> float:
        return self.start + self.duration


class Timeline:
    """Recorder + analyses over execution intervals."""

    def __init__(self) -> None:
        self._intervals: List[Interval] = []

    # ------------------------------------------------------------------ record
    def record(self, pe: int, start: float, duration: float, env) -> None:
        """Append one execution (called by the kernel when enabled)."""
        if env.kind == 1 and env.chare_cls is not None:  # Kind.SEED
            label = env.chare_cls.__name__
        else:
            label = env.entry
        self._intervals.append(
            Interval(pe, start, duration, env.kind_name(), label)
        )

    # ---------------------------------------------------------------- accessors
    @property
    def intervals(self) -> List[Interval]:
        return self._intervals

    def for_pe(self, pe: int) -> List[Interval]:
        return [iv for iv in self._intervals if iv.pe == pe]

    def span(self) -> Tuple[float, float]:
        """(first start, last end) over all intervals; (0, 0) if empty."""
        if not self._intervals:
            return (0.0, 0.0)
        return (
            min(iv.start for iv in self._intervals),
            max(iv.end for iv in self._intervals),
        )

    # ----------------------------------------------------------------- analyses
    def idle_gaps(self, pe: int) -> List[Tuple[float, float]]:
        """Idle windows between consecutive executions on ``pe``."""
        ivs = sorted(self.for_pe(pe), key=lambda iv: iv.start)
        gaps = []
        for a, b in zip(ivs, ivs[1:]):
            if b.start > a.end + 1e-15:
                gaps.append((a.end, b.start))
        return gaps

    def largest_idle_gap(self, pe: int) -> float:
        gaps = self.idle_gaps(pe)
        return max((b - a for a, b in gaps), default=0.0)

    def utilization_profile(
        self, buckets: int = 20, kinds: Optional[set] = None
    ) -> List[float]:
        """Fraction of PE-time busy in each of ``buckets`` equal windows."""
        buckets = need_int("buckets", buckets, 1)
        lo, hi = self.span()
        if hi <= lo:
            return [0.0] * buckets
        width = (hi - lo) / buckets
        num_pes = max((iv.pe for iv in self._intervals), default=0) + 1
        busy = [0.0] * buckets
        for iv in self._intervals:
            if kinds is not None and iv.kind not in kinds:
                continue
            # Clamp both endpoints into range: an interval starting (or a
            # zero-duration interval sitting) exactly at ``hi`` computes
            # bucket == buckets and would otherwise be silently dropped.
            b0 = min(int((iv.start - lo) / width), buckets - 1)
            b1 = min(int((iv.end - lo) / width), buckets - 1)
            for b in range(b0, b1 + 1):
                w_lo = lo + b * width
                w_hi = w_lo + width
                busy[b] += max(0.0, min(iv.end, w_hi) - max(iv.start, w_lo))
        return [min(1.0, x / (width * num_pes)) for x in busy]

    def by_label(self) -> Dict[str, float]:
        """Total busy time attributed to each entry/chare label."""
        out: Dict[str, float] = {}
        for iv in self._intervals:
            out[iv.label] = out.get(iv.label, 0.0) + iv.duration
        return out

    def as_records(self) -> List[dict]:
        """Plain-dict export (JSON-ready), one record per execution."""
        return [
            {
                "pe": iv.pe,
                "start": iv.start,
                "duration": iv.duration,
                "kind": iv.kind,
                "label": iv.label,
            }
            for iv in self._intervals
        ]

    def dump_json(self, path: str) -> int:
        """Write the timeline to ``path`` as JSON; returns record count."""
        import json

        records = self.as_records()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)
        return len(records)

    # ---------------------------------------------------------------- rendering
    def render(self, width: int = 72, pes: Optional[List[int]] = None) -> str:
        """ASCII Gantt: one row per PE, '#' busy / '.' idle per time cell.

        A cell is busy if any execution overlaps it.  System-only cells
        render as '+', mixed cells as '#'.
        """
        width = need_int("width", width, 1)
        if not self._intervals:
            return "(empty timeline)"
        lo, hi = self.span()
        num_pes = max(iv.pe for iv in self._intervals) + 1
        rows = pes if pes is not None else list(range(num_pes))
        if hi <= lo:
            # Degenerate span: every recorded execution is instantaneous and
            # coincident (a run of pure zero-cost events).  Render a single
            # column of marks at that instant rather than claiming the
            # timeline is empty.
            marks = {pe: "." for pe in rows}
            for iv in self._intervals:
                if iv.pe not in marks:
                    continue
                mark = "+" if iv.kind == "svc" else "#"
                cur = marks[iv.pe]
                marks[iv.pe] = "#" if (cur == "#" or mark == "#") else "+"
            lines = [f"timeline {lo * 1e3:.3f} ms (zero span, "
                     f"{len(self._intervals)} instantaneous executions)"]
            for pe in rows:
                lines.append(f"PE{pe:3d} |{marks[pe]}|")
            return "\n".join(lines)
        cell = (hi - lo) / width
        grid = {pe: [" "] * width for pe in rows}
        for iv in self._intervals:
            if iv.pe not in grid:
                continue
            c0 = min(width - 1, int((iv.start - lo) / cell))
            c1 = min(width - 1, int((iv.end - lo) / cell))
            mark = "+" if iv.kind == "svc" else "#"
            for c in range(c0, c1 + 1):
                cur = grid[iv.pe][c]
                grid[iv.pe][c] = "#" if (cur == "#" or mark == "#") else "+"
        lines = [f"timeline {lo * 1e3:.3f}..{hi * 1e3:.3f} ms"]
        for pe in rows:
            body = "".join(ch if ch != " " else "." for ch in grid[pe])
            lines.append(f"PE{pe:3d} |{body}|")
        return "\n".join(lines)
