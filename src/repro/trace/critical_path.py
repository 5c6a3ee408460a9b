"""Critical-path analysis over a structured event log.

The *critical path* of a message-driven run is the longest virtual-time
dependency chain from bootstrap to the exit event: each execution depends
on the delivery that queued its message, each delivery on its send, and
each send on the execution (or runtime decision) that emitted it.  Its
length is the run's inherent sequential span — when the measured
``total_time`` plateaus above ``critical path / P``, the program is
dependency-bound, not resource-bound, which is the number that actually
explains the speedup plateaus in the T-series tables.

The analyzer is a pure function of the event records (live
:class:`~repro.trace.events.EventLog` objects or the dicts loaded back
from a ``*.run.json``), so its output is identical whether the run
executed inline, in a pool worker, or was replayed from the result
cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.trace.events import event_records

__all__ = ["PathStep", "CriticalPath", "critical_path"]


@dataclass(frozen=True)
class PathStep:
    """One event on the critical path (bootstrap-to-exit order).

    ``dt`` is the virtual time from this event to the next step — the
    amount of the path's length this step accounts for.
    """

    eid: int
    kind: str
    t: float
    pe: int
    uid: Optional[int]
    name: Optional[str]
    dt: float


@dataclass
class CriticalPath:
    """The longest dependency chain of one run, with time attribution."""

    steps: List[PathStep]
    length: float                 # end_time - start_time
    start_time: float
    end_time: float
    exec_time: float              # time inside entry-method executions
    transit_time: float           # network time between send and deliver
    wait_time: float              # queueing time between deliver and begin
    other_time: float             # runtime decisions (QD waves, LB, faults)
    #: Per-entry-method share of ``exec_time``, largest first.
    attribution: Dict[str, float] = field(default_factory=dict)
    #: True when a parent link left the log (bounded log / filtered kinds).
    truncated: bool = False

    @property
    def hops(self) -> int:
        """Message legs (deliveries) on the path."""
        return sum(1 for s in self.steps if s.kind == "deliver")

    def summary(self, top: int = 8) -> str:
        """Human-readable block for the CLI and bench reports."""
        ms = 1e3
        lines = [
            f"critical path: {self.length * ms:.3f} ms "
            f"({self.start_time * ms:.3f} -> {self.end_time * ms:.3f} ms, "
            f"{len(self.steps)} events, {self.hops} message hops"
            f"{', TRUNCATED' if self.truncated else ''})",
            f"  executing : {self.exec_time * ms:10.3f} ms",
            f"  in transit: {self.transit_time * ms:10.3f} ms",
            f"  queued    : {self.wait_time * ms:10.3f} ms",
        ]
        if self.other_time > 0:
            lines.append(f"  runtime   : {self.other_time * ms:10.3f} ms")
        ranked = sorted(self.attribution.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        if ranked:
            lines.append("  by entry method:")
            for name, t in ranked[:top]:
                share = (t / self.exec_time * 100) if self.exec_time > 0 else 0.0
                lines.append(f"    {name:<24s} {t * ms:10.3f} ms ({share:5.1f}%)")
            if len(ranked) > top:
                lines.append(f"    ... and {len(ranked) - top} more")
        return "\n".join(lines)


def critical_path(records: Sequence[Any]) -> Optional[CriticalPath]:
    """Walk parent links from the exit event back to bootstrap.

    ``records`` is a sequence of event dicts (or :class:`Event` objects).
    Returns ``None`` when the log holds no completed execution to anchor
    the walk (e.g. a send/deliver-only filtered trace).
    """
    events = event_records(records)
    by_eid: Dict[int, Dict[str, Any]] = {e["eid"]: e for e in events}

    # Terminal: the exec_end flagged as the exit, else the latest one.
    terminal = None
    latest = None
    for e in events:
        if e["kind"] != "exec_end":
            continue
        info = e.get("info")
        if info and info.get("exit"):
            terminal = e
        if latest is None or (e["t"], e["eid"]) > (latest["t"], latest["eid"]):
            latest = e
    if terminal is None:
        terminal = latest
    if terminal is None:
        return None

    chain: List[Dict[str, Any]] = []
    seen = set()
    truncated = False
    cur: Optional[Dict[str, Any]] = terminal
    while cur is not None:
        eid = cur["eid"]
        if eid in seen:  # defensive: parent links are acyclic by design
            truncated = True
            break
        seen.add(eid)
        chain.append(cur)
        parent = cur.get("parent")
        if parent is None:
            break
        nxt = by_eid.get(parent)
        if nxt is None:
            # The parent was dropped (bounded log) or filtered out.
            truncated = True
            break
        cur = nxt
    chain.reverse()

    exec_time = transit = wait = other = 0.0
    attribution: Dict[str, float] = {}
    steps: List[PathStep] = []
    for i, e in enumerate(chain):
        dt = max(0.0, chain[i + 1]["t"] - e["t"]) if i + 1 < len(chain) else 0.0
        kind = e["kind"]
        if kind == "exec_begin":
            exec_time += dt
            name = e.get("name") or "?"
            attribution[name] = attribution.get(name, 0.0) + dt
        elif kind == "send":
            transit += dt
        elif kind == "deliver":
            wait += dt
        else:
            other += dt
        steps.append(PathStep(
            eid=e["eid"], kind=kind, t=e["t"], pe=e["pe"],
            uid=e.get("uid"), name=e.get("name"), dt=dt,
        ))

    start_time = chain[0]["t"]
    end_time = chain[-1]["t"]
    return CriticalPath(
        steps=steps,
        length=max(0.0, end_time - start_time),
        start_time=start_time,
        end_time=end_time,
        exec_time=exec_time,
        transit_time=transit,
        wait_time=wait,
        other_time=other,
        attribution=attribution,
        truncated=truncated,
    )
