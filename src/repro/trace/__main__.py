"""CLI: ``python -m repro.trace <run.json> [--perfetto OUT]``.

Analyzes a structured trace written by the bench harness
(``python -m repro.bench --exp t5 --trace-out DIR``): prints the run
metadata, per-kind event counts, the time-series peaks and the critical
path with per-entry-method attribution.  ``--perfetto OUT`` additionally
re-exports the events as Chrome trace-event JSON for ``ui.perfetto.dev``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from repro.metrics import metrics_summary, sample_metrics
from repro.trace.critical_path import critical_path
from repro.trace.events import EVENT_KINDS, EventIndex
from repro.trace.perfetto import write_perfetto


def load_run(path: str) -> dict:
    """Load a ``*.run.json`` document (or a bare event-record list); a
    ``ValueError`` names the file and its fault when it is not a trace."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSON syntax, or bytes that are not UTF-8
        raise ValueError(f"{path}: not JSON: {exc}") from None
    if isinstance(doc, list):  # bare records
        doc = {"format": "repro-trace-v1", "meta": {}, "events": doc,
               "dropped": 0}
    if not (isinstance(doc, dict) and isinstance(doc.get("events"), list)
            and isinstance(doc.get("meta") or {}, dict)):
        raise ValueError(f"{path}: not a repro trace (an object with a list "
                         "of 'events' and an object of 'meta')")
    for i, record in enumerate(doc["events"]):
        kind = record.get("kind") if isinstance(record, dict) else None
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"{path}: event {i} is not a record of a known kind "
                f"({', '.join(EVENT_KINDS)}): {record!r:.80}")
        for key, types in (("eid", (int,)), ("t", (int, float)),
                           ("pe", (int,))):
            if type(record.get(key)) not in types:
                raise ValueError(f"{path}: event {i} has {key} "
                                 f"{record.get(key)!r}, not a number")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Analyze a structured run trace: summary, time-series "
                    "peaks and critical path.",
    )
    parser.add_argument("run", help="path to a <label>.run.json trace")
    parser.add_argument(
        "--perfetto", default=None, metavar="OUT",
        help="also export Chrome trace-event JSON to OUT "
             "(open at ui.perfetto.dev)",
    )
    parser.add_argument(
        "--buckets", type=int, default=60, metavar="N",
        help="time-series buckets for the metrics sampler (default: 60)",
    )
    parser.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="entry methods to show in the attribution table (default: 8)",
    )
    args = parser.parse_args(argv)
    if args.buckets < 1:
        parser.error(f"--buckets must be >= 1, got {args.buckets}")
    if args.top < 0:
        parser.error(f"--top must be >= 0, got {args.top}")

    try:
        doc = load_run(args.run)
    except ValueError as exc:
        parser.error(str(exc))
    events = doc["events"]
    index = EventIndex(events)
    meta = doc.get("meta") or {}

    if meta:
        bits = [f"{k}={meta[k]}" for k in
                ("app", "machine", "num_pes", "seed", "queueing", "balancer")
                if k in meta]
        print("run:", " ".join(bits) if bits else "(no metadata)")
        if "total_time" in meta:
            print(f"total virtual time: {meta['total_time'] * 1e3:.3f} ms")
    counts = Counter(e["kind"] for e in events)
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"events: {len(events)} ({kinds or 'none'})", end="")
    dropped = doc.get("dropped", 0)
    print(f", {dropped} dropped at the log bound" if dropped else "")

    # Pass the machine's true PE count and span when the trace carries
    # them: inferring num_pes as max_pe + 1 overstates utilization on a
    # sparse machine where only low-ranked PEs happened to be touched.
    metrics = doc.get("metrics") or sample_metrics(
        index, buckets=args.buckets,
        num_pes=meta.get("num_pes"), t_end=meta.get("total_time"))
    print(metrics_summary(metrics))

    path = critical_path(index)
    if path is None:
        print("critical path: (no completed executions in this trace)")
    else:
        print(path.summary(top=args.top))
        total = meta.get("total_time")
        if total is not None and path.length > total + 1e-12:
            print(f"WARNING: path length exceeds total_time ({total})",
                  file=sys.stderr)

    if args.perfetto:
        n = write_perfetto(args.perfetto, index, meta=meta, metrics=metrics)
        print(f"perfetto: wrote {n} trace entries to {args.perfetto}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
