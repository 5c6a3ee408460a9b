"""Time-series metrics sampler.

Post-processes a structured event log (:mod:`repro.trace.events`) into
time-bucketed JSON rows — the dashboard-ready complement to the
end-of-run :class:`~repro.trace.report.TraceReport` aggregates:

* ``util`` — fraction of PE-time spent executing in the bucket,
* ``in_flight_max`` / ``bytes_on_wire_max`` — peak messages (bytes)
  between send and delivery,
* ``pool_max`` / ``pool_max_pe`` — deepest per-PE message pool (messages
  delivered but not yet begun executing) and which PE held it,
* ``msgs_sent`` / ``msgs_executed`` — event counts binned by time.

Pure function of the event log: identical whether the run executed inline,
in a pool worker, or came back from the result cache.  Buckets are
half-open ``[t0, t1)`` except the last, which closes at ``t_end``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.events import DUR, INFO, KIND, PARENT, PE, T, EventIndex
from repro.util.errors import need_int, need_real

__all__ = ["sample_metrics", "metrics_summary"]


def bucket_of(t: float, lo: float, width: float, buckets: int) -> int:
    """The bucket holding time ``t``, clamped into ``[0, buckets)``."""
    b = int((t - lo) / width)
    return buckets - 1 if b >= buckets else (0 if b < 0 else b)


def busy_fractions(spans: Iterable[Tuple[float, float]], lo: float,
                   width: float, buckets: int, num_pes: int) -> List[float]:
    """Fraction of ``num_pes`` PEs' time busy in each of ``buckets``
    windows of ``width`` from ``lo``, over ``(start, end)`` spans; a span
    ending exactly at the last window's end lands in that window."""
    busy = [0.0] * buckets
    for start, end in spans:
        b0 = bucket_of(start, lo, width, buckets)
        b1 = bucket_of(end, lo, width, buckets)
        for b in range(b0, b1 + 1):
            w_lo = lo + b * width
            busy[b] += max(0.0, min(end, w_lo + width) - max(start, w_lo))
    return [min(1.0, x / (width * num_pes)) for x in busy]


def _peaks(
    edges: List[Tuple[float, float]], lo: float, width: float, buckets: int
) -> List[float]:
    """Per-bucket maximum of a step function given (time, delta) edges.

    Edges are applied in (time, delta) order — decrements first at ties,
    so a message delivered and re-sent at the same instant never
    double-counts.  The maximum seen in each bucket includes the value
    carried in from the previous bucket.
    """
    edges.sort()
    out = [0.0] * buckets
    cur = 0.0
    i = 0
    n = len(edges)
    for b in range(buckets):
        hi = lo + (b + 1) * width
        peak = cur
        while i < n and (edges[i][0] < hi or b == buckets - 1):
            cur += edges[i][1]
            if cur > peak:
                peak = cur
            i += 1
        out[b] = peak
    return out


def sample_metrics(
    source: Any,
    buckets: int = 60,
    num_pes: Optional[int] = None,
    t_end: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Bucket a run's event log (anything ``EventIndex.of`` takes) into
    time-series metric rows."""
    buckets = need_int("buckets", buckets, 1)
    if num_pes is not None:
        # util divides by num_pes; 0 would raise ZeroDivisionError deep in
        # the row loop and a negative count would yield negative utilization.
        num_pes = need_int("num_pes", num_pes, 1)
    if t_end is not None:
        # NaN would otherwise surface as a bare ValueError in bucket_of.
        need_real("t_end", t_end, strict=False)
    index = EventIndex.of(source)
    rows = index.rows
    if not rows:
        return []

    if t_end is None:
        # exec_end events are stamped at their end time and idle_gap events
        # at their start, so the run's extent is max(t, t + idle dur).
        t_end = max([0.0] + [
            row[T] + (row[DUR] or 0.0) if row[KIND] == "idle_gap" else row[T]
            for row in rows])
    if num_pes is None:
        num_pes = max([0] + [row[PE] for row in rows]) + 1
    lo = 0.0
    span = t_end - lo
    if span <= 0.0:
        span = 1.0  # degenerate zero-span run: one catch-all bucket
        t_end = lo + span
    width = span / buckets

    busy_spans: List[Tuple[float, float]] = []
    msgs_sent = [0] * buckets
    msgs_executed = [0] * buckets
    flight_edges: List[Tuple[float, float]] = []
    wire_edges: List[Tuple[float, float]] = []
    for row in rows:
        kind = row[KIND]
        t = row[T]
        if kind == "send":
            msgs_sent[bucket_of(t, lo, width, buckets)] += 1
            # Undelivered sends (dropped without retry success) simply
            # never close: for per-bucket peaks that is the same as
            # closing at t_end.
            flight_edges.append((t, 1.0))
            nbytes = (row[INFO] or {}).get("nbytes", 0)
            wire_edges.append((t, float(nbytes)))
        elif kind == "deliver":
            send = index.by_eid.get(row[PARENT])
            if send is not None and send[KIND] == "send":
                flight_edges.append((t, -1.0))
                nbytes = (send[INFO] or {}).get("nbytes", 0)
                wire_edges.append((t, -float(nbytes)))
        elif kind == "exec_end":
            msgs_executed[bucket_of(t, lo, width, buckets)] += 1
            busy_spans.append((t - (row[DUR] or 0.0), t))

    # Pool occupancy per PE: a message's first delivery opens, its first
    # execution closes (or t_end).
    pool_edges: Dict[int, List[Tuple[float, float]]] = {}
    for uid, deliver in index.first_deliver.items():
        begin = index.first_begin.get(uid)
        edges = pool_edges.setdefault(deliver[PE], [])
        edges.append((deliver[T], 1.0))
        edges.append((t_end if begin is None else begin[T], -1.0))

    util = busy_fractions(busy_spans, lo, width, buckets, num_pes)
    in_flight = _peaks(flight_edges, lo, width, buckets)
    on_wire = _peaks(wire_edges, lo, width, buckets)
    pool_peaks = {pe: _peaks(edges, lo, width, buckets)
                  for pe, edges in sorted(pool_edges.items())}

    rows: List[Dict[str, Any]] = []
    for b in range(buckets):
        pool_max, pool_max_pe = 0, None
        for pe, peaks in pool_peaks.items():
            if peaks[b] > pool_max:
                pool_max, pool_max_pe = peaks[b], pe
        rows.append({
            "bucket": b,
            "t0": lo + b * width,
            "t1": lo + (b + 1) * width,
            "util": util[b],
            "msgs_sent": msgs_sent[b],
            "msgs_executed": msgs_executed[b],
            "in_flight_max": int(in_flight[b]),
            "bytes_on_wire_max": int(on_wire[b]),
            "pool_max": int(pool_max),
            "pool_max_pe": pool_max_pe,
        })
    return rows


def metrics_summary(rows: Sequence[Dict[str, Any]]) -> str:
    """Compact peak/mean line for CLI output."""
    if not rows:
        return "metrics: (no samples)"
    peak_flight = max(r["in_flight_max"] for r in rows)
    peak_wire = max(r["bytes_on_wire_max"] for r in rows)
    peak_pool = max(r["pool_max"] for r in rows)
    mean_util = sum(r["util"] for r in rows) / len(rows)
    return (f"metrics: {len(rows)} buckets, mean util {mean_util * 100:.1f}%, "
            f"peak in-flight {peak_flight} msgs / {peak_wire} bytes, "
            f"peak pool depth {peak_pool}")
