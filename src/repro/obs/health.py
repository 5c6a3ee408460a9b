"""Run-health reporting: is this run making progress, and how fast?

A long sweep cell (or a P=10\N{SUPERSCRIPT FIVE} serving run) is opaque
while it executes — the engine's virtual clock says nothing about whether
the *host* is getting anywhere.  :class:`RunHealth` reads the telemetry
plane's snapshot stream and answers the operator questions directly:

* **events/s (wall)** — host-side engine throughput between the last two
  snapshots;
* **vtime rate** — simulated seconds advanced per wall second (the
  "simulation speed" figure);
* **in-flight** — counted messages sent but not yet processed, the same
  balance quiescence detection watches;
* **quiescence wave status** — waves run / detected-at;
* **stall detection** — a snapshot window in which the engine fired no
  events (or virtual time froze while work remains in flight) marks the
  run stalled; wall-clock watchdogs wrap :meth:`check` around it.

Everything is computed from plain snapshot rows, so health reads
identically for a live kernel, a pool-worker row, or a parsed JSONL file.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

__all__ = ["RunHealth"]


class RunHealth:
    """Health view over a telemetry snapshot stream."""

    def __init__(self, source: Any) -> None:
        # Accept a Telemetry, a payload dict, or a bare snapshot list.
        if isinstance(source, list):
            self.snapshots: List[Dict[str, Any]] = source
        elif isinstance(source, dict):
            self.snapshots = source.get("snapshots", [])
        else:
            self.snapshots = source.snapshots

    # ------------------------------------------------------------------ state
    def report(self) -> Dict[str, Any]:
        """Scalar health digest of the newest snapshot window."""
        snaps = self.snapshots
        if not snaps:
            return {"status": "no-data", "snapshots": 0}
        last = snaps[-1]
        prev = snaps[-2] if len(snaps) > 1 else None
        d_events = d_wall = d_vtime = None
        if prev is not None:
            d_events = last["events"] - prev["events"]
            d_wall = last["wall"] - prev["wall"]
            d_vtime = last["vtime"] - prev["vtime"]
        events_per_s = (
            d_events / d_wall if d_events is not None and d_wall and d_wall > 0
            else None
        )
        vtime_rate = (
            d_vtime / d_wall if d_vtime is not None and d_wall and d_wall > 0
            else None
        )
        in_flight = last.get("in_flight", 0)
        # Stalled: the window advanced neither the event counter nor the
        # virtual clock while messages were still outstanding.  A finished
        # run (final snapshot, nothing in flight) is idle, not stalled.
        stalled = bool(
            prev is not None
            and d_events == 0
            and (d_vtime is not None and d_vtime <= 0.0)
            and in_flight > 0
        )
        if last.get("qd_detected_at") is not None:
            qd_status = f"detected@{last['qd_detected_at']:.6g}"
        elif last.get("qd_waves", 0):
            qd_status = f"waving({last['qd_waves']})"
        else:
            qd_status = "idle"
        status = "stalled" if stalled else (
            "final" if last.get("label") == "final" else "running"
        )
        return {
            "status": status,
            "snapshots": len(snaps),
            "vtime": last["vtime"],
            "wall": last["wall"],
            "events": last["events"],
            "events_per_s": events_per_s,
            "vtime_rate": vtime_rate,
            "in_flight": in_flight,
            "busy_pes": last.get("busy_pes", 0),
            "touched_pes": last.get("touched_pes", 0),
            "qd": qd_status,
            "stalled": stalled,
        }

    # ----------------------------------------------------------------- output
    def format(self) -> str:
        """One status line, the shape the bench CLI prints per run."""
        r = self.report()
        if r["status"] == "no-data":
            return "health: no snapshots recorded"

        def rate(v: Optional[float], unit: str) -> str:
            return "n/a" if v is None else f"{v:,.0f}{unit}"

        return (
            f"health: {r['status']} | vtime {r['vtime']:.6g}s "
            f"| {rate(r['events_per_s'], ' ev/s')} "
            f"| sim rate {('n/a' if r['vtime_rate'] is None else format(r['vtime_rate'], '.3g'))} s/s "
            f"| in-flight {r['in_flight']} "
            f"| busy {r['busy_pes']}/{r['touched_pes']} PEs "
            f"| qd {r['qd']}"
        )
