"""Chrome trace-event / Perfetto JSON export.

Converts an event-log record list into the `Trace Event Format
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

The exporter is a pure function of the records; times are virtual
seconds scaled to integral-friendly microseconds.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.trace.events import event_records

__all__ = ["to_perfetto", "write_perfetto"]

_US = 1e6  # virtual seconds -> trace microseconds

#: tid layout inside each per-PE process.
TID_EXEC = 0
TID_IDLE = 1
TID_EVENTS = 2


def to_perfetto(
    records: Sequence[Any],
    meta: Optional[Dict[str, Any]] = None,
    metrics: Optional[Iterable[Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Build the trace-event JSON document for one run's records."""
    events = event_records(records)
    by_eid = {e["eid"]: e for e in events}
    trace: List[Dict[str, Any]] = []
    pids = set()

    # First consuming execution per uid: flow arrows should land on the
    # execution slice, not on the (possibly queued) delivery instant.
    begin_by_uid: Dict[int, Dict[str, Any]] = {}
    for e in events:
        if e["kind"] == "exec_begin" and e.get("uid") is not None:
            begin_by_uid.setdefault(e["uid"], e)

    for e in events:
        kind = e["kind"]
        pe = e["pe"]
        pids.add(pe)
        if kind == "exec_end":
            begin = by_eid.get(e.get("parent"))
            if begin is not None and begin["kind"] == "exec_begin":
                name = begin.get("name") or e.get("name") or "?"
                start = begin["t"]
            else:  # begin filtered out: reconstruct from the end event
                name = e.get("name") or "?"
                start = e["t"] - (e.get("dur") or 0.0)
            args: Dict[str, Any] = {"eid": e["eid"]}
            if e.get("uid") is not None:
                args["uid"] = e["uid"]
            if e.get("info"):
                args.update(e["info"])
            trace.append({
                "name": name, "cat": "exec", "ph": "X",
                "pid": pe, "tid": TID_EXEC,
                "ts": start * _US, "dur": (e.get("dur") or 0.0) * _US,
                "args": args,
            })
        elif kind == "idle_gap":
            trace.append({
                "name": "idle", "cat": "idle", "ph": "X",
                "pid": pe, "tid": TID_IDLE,
                "ts": e["t"] * _US, "dur": (e.get("dur") or 0.0) * _US,
                "args": {"eid": e["eid"]},
            })
        elif kind == "deliver":
            send = by_eid.get(e.get("parent"))
            if send is None or send["kind"] != "send":
                continue  # send filtered out: no flow to draw
            uid = e.get("uid")
            target = begin_by_uid.get(uid, e)
            pids.add(send["pe"])
            pids.add(target["pe"])
            trace.append({
                "name": send.get("name") or "msg", "cat": "msg", "ph": "s",
                "id": uid, "pid": send["pe"], "tid": TID_EXEC,
                "ts": send["t"] * _US,
            })
            trace.append({
                "name": send.get("name") or "msg", "cat": "msg", "ph": "f",
                "bp": "e", "id": uid, "pid": target["pe"], "tid": TID_EXEC,
                "ts": target["t"] * _US,
            })
        elif kind in ("lb", "qd", "fault"):
            args = {"eid": e["eid"]}
            if e.get("uid") is not None:
                args["uid"] = e["uid"]
            if e.get("info"):
                args.update(e["info"])
            trace.append({
                "name": f"{kind}:{e.get('name') or '?'}", "cat": kind,
                "ph": "i", "s": "t", "pid": pe, "tid": TID_EVENTS,
                "ts": e["t"] * _US, "args": args,
            })
        # send / exec_begin events carry no standalone track entry: sends
        # are drawn as flow starts, begins as the slice built from the end.

    # Counter tracks from the metrics sampler (attached to PE 0's process).
    if metrics:
        pids.add(0)
        for row in metrics:
            ts = row["t0"] * _US
            trace.append({
                "name": "messages in flight", "ph": "C", "pid": 0,
                "ts": ts, "args": {"msgs": row.get("in_flight_max", 0)},
            })
            trace.append({
                "name": "bytes on wire", "ph": "C", "pid": 0,
                "ts": ts, "args": {"bytes": row.get("bytes_on_wire_max", 0)},
            })
            trace.append({
                "name": "utilization", "ph": "C", "pid": 0,
                "ts": ts, "args": {"util": row.get("util", 0.0)},
            })
            trace.append({
                "name": "pool depth high-water", "ph": "C", "pid": 0,
                "ts": ts, "args": {"depth": row.get("pool_max", 0)},
            })

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
    records: Sequence[Any],
    meta: Optional[Dict[str, Any]] = None,
    metrics: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write the Perfetto JSON for ``records`` to ``path``.

    Returns the number of trace entries written (incl. metadata).
    """
    doc = to_perfetto(records, meta=meta, metrics=metrics)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
