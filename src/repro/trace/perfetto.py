"""Chrome trace-event / Perfetto JSON export.

Converts an event log (anything :class:`~repro.trace.events.EventIndex`
reads) into the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
consumed by ``ui.perfetto.dev`` and ``chrome://tracing``:

* one **process per PE** (``pid = pe``), with three threads: ``exec``
  (entry-method slices), ``idle`` (idle-gap slices) and ``events``
  (LB / QD / fault instants);
* every execution is a complete ``"X"`` slice (``ts``/``dur`` in
  microseconds of virtual time);
* every message is a **flow** (``"s"`` at the send, ``"f"`` at the
  consuming execution), keyed by envelope uid, so Perfetto draws the
  cross-PE arrows that make message-driven runs legible;
* optional time-series rows from :mod:`repro.metrics` become ``"C"``
  counter tracks.

The exporter is a pure function of the log; times are virtual seconds
scaled to integral-friendly microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.trace.events import (DUR, EID, INFO, KIND, NAME, PARENT, PE, T,
                                UID, EventIndex)

__all__ = ["to_perfetto", "write_perfetto"]

_US = 1e6  # virtual seconds -> trace microseconds

#: tid layout inside each per-PE process.
TID_EXEC = 0
TID_IDLE = 1
TID_EVENTS = 2

#: Counter tracks: (track name, argument name, sampler column, default).
_COUNTERS = (
    ("messages in flight", "msgs", "in_flight_max", 0),
    ("bytes on wire", "bytes", "bytes_on_wire_max", 0),
    ("utilization", "util", "util", 0.0),
    ("pool depth high-water", "depth", "pool_max", 0),
)


def _args(row: tuple) -> Dict[str, Any]:
    """A slice's or instant's arguments: its eid, uid and info."""
    args: Dict[str, Any] = {"eid": row[EID]}
    if row[UID] is not None:
        args["uid"] = row[UID]
    if row[INFO]:
        args.update(row[INFO])
    return args


def to_perfetto(
    source: Any,
    meta: Optional[Dict[str, Any]] = None,
    metrics: Optional[Iterable[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The trace-event JSON document of one run's event log."""
    index = EventIndex.of(source)
    row_of = index.by_eid.get
    # Flow arrows land on the first consuming execution, not on the
    # (possibly queued) delivery instant.
    first_begin = index.first_begin
    trace: List[Dict[str, Any]] = []
    pids = set()

    for row in index.rows:
        kind = row[KIND]
        pe = row[PE]
        pids.add(pe)
        if kind == "exec_end":
            begin = row_of(row[PARENT])
            if begin is not None and begin[KIND] == "exec_begin":
                name = begin[NAME] or row[NAME] or "?"
                start = begin[T]
            else:  # begin filtered out: reconstruct from the end event
                name = row[NAME] or "?"
                start = row[T] - (row[DUR] or 0.0)
            trace.append({
                "name": name, "cat": "exec", "ph": "X",
                "pid": pe, "tid": TID_EXEC,
                "ts": start * _US, "dur": (row[DUR] or 0.0) * _US,
                "args": _args(row),
            })
        elif kind == "idle_gap":
            trace.append({
                "name": "idle", "cat": "idle", "ph": "X",
                "pid": pe, "tid": TID_IDLE,
                "ts": row[T] * _US, "dur": (row[DUR] or 0.0) * _US,
                "args": {"eid": row[EID]},
            })
        elif kind == "deliver":
            send = row_of(row[PARENT])
            if send is None or send[KIND] != "send":
                continue  # send filtered out: no flow to draw
            uid = row[UID]
            target = first_begin.get(uid, row)
            pids.add(send[PE])
            pids.add(target[PE])
            trace.append({
                "name": send[NAME] or "msg", "cat": "msg", "ph": "s",
                "id": uid, "pid": send[PE], "tid": TID_EXEC,
                "ts": send[T] * _US,
            })
            trace.append({
                "name": send[NAME] or "msg", "cat": "msg", "ph": "f",
                "bp": "e", "id": uid, "pid": target[PE], "tid": TID_EXEC,
                "ts": target[T] * _US,
            })
        elif kind in ("lb", "qd", "fault"):
            trace.append({
                "name": f"{kind}:{row[NAME] or '?'}", "cat": kind,
                "ph": "i", "s": "t", "pid": pe, "tid": TID_EVENTS,
                "ts": row[T] * _US, "args": _args(row),
            })
        # send / exec_begin events carry no standalone track entry: sends
        # are drawn as flow starts, begins as the slice built from the end.

    # Counter tracks from the metrics sampler (attached to PE 0's process).
    if metrics:
        pids.add(0)
        for row in metrics:
            ts = row["t0"] * _US
            for name, arg, column, default in _COUNTERS:
                trace.append({"name": name, "ph": "C", "pid": 0, "ts": ts,
                              "args": {arg: row.get(column, default)}})

    # Process/thread naming metadata, stable order for reproducible files.
    names = []
    for pid in sorted(pids):
        names.append({
            "name": "process_name", "ph": "M", "pid": pid, "ts": 0,
            "args": {"name": f"PE {pid}"},
        })
        names.append({
            "name": "process_sort_index", "ph": "M", "pid": pid, "ts": 0,
            "args": {"sort_index": pid},
        })
        for tid, label in ((TID_EXEC, "exec"), (TID_IDLE, "idle"),
                           (TID_EVENTS, "events")):
            names.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "ts": 0, "args": {"name": label},
            })

    other: Dict[str, Any] = {"format": "repro-perfetto-v1"}
    if meta:
        other.update({str(k): v for k, v in meta.items()})
    return {
        "traceEvents": names + trace,
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_perfetto(
    path: str,
    source: Any,
    meta: Optional[Dict[str, Any]] = None,
    metrics: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write the Perfetto JSON of ``source``'s event log to ``path``.

    Returns the number of trace entries written (incl. metadata).
    """
    doc = to_perfetto(source, meta=meta, metrics=metrics)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
