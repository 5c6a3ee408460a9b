"""Critical-path analysis over a structured event log.

The *critical path* of a message-driven run is the longest virtual-time
dependency chain from bootstrap to the exit event: each execution depends
on the delivery that queued its message, each delivery on its send, and
each send on the execution (or runtime decision) that emitted it.  Its
length is the run's inherent sequential span — when the measured
``total_time`` plateaus above ``critical path / P``, the program is
dependency-bound, not resource-bound, which is the number that actually
explains the speedup plateaus in the T-series tables.

The analyzer is a pure function of the event log (a live
:class:`~repro.trace.events.EventLog`, the dicts loaded back from a
``*.run.json``, or anything else :class:`~repro.trace.events.EventIndex`
reads), so its output is identical whether the run executed inline, in a
pool worker, or was replayed from the result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Optional

from repro.trace.events import (EID, INFO, KIND, NAME, PARENT, PE, T, UID,
                                EventIndex)

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


def critical_path(source: Any) -> Optional[CriticalPath]:
    """Walk parent links from the exit event back to bootstrap.

    ``source`` is an :class:`~repro.trace.events.EventIndex` or anything
    it reads.  Returns ``None`` when the log holds no completed execution
    to anchor the walk (e.g. a send/deliver-only filtered trace).
    """
    index = EventIndex.of(source)

    # Terminal: the (last) exec_end flagged as the exit, else the latest.
    ends = [row for row in index.rows if row[KIND] == "exec_end"]
    if not ends:
        return None
    exits = [row for row in ends if row[INFO] and row[INFO].get("exit")]
    terminal = exits[-1] if exits else max(ends, key=itemgetter(T, EID))

    chain = list(index.ancestors(terminal))
    # A parent link left the log (bounded log / filtered kinds), or the
    # chain met itself (parent links are acyclic by design).
    truncated = chain[-1][PARENT] is not None
    chain.reverse()

    # Each step's time goes to what follows it: an execution, a transit
    # (send), a wait (deliver) or a runtime decision (anything else).
    spent = dict.fromkeys(("exec_begin", "send", "deliver", None), 0.0)
    attribution: Dict[str, float] = {}
    steps: List[PathStep] = []
    for i, row in enumerate(chain):
        dt = max(0.0, chain[i + 1][T] - row[T]) if i + 1 < len(chain) else 0.0
        kind = row[KIND]
        spent[kind if kind in spent else None] += dt
        if kind == "exec_begin":
            name = row[NAME] or "?"
            attribution[name] = attribution.get(name, 0.0) + dt
        steps.append(PathStep(
            eid=row[EID], kind=kind, t=row[T], pe=row[PE],
            uid=row[UID], name=row[NAME], dt=dt,
        ))

    start_time = chain[0][T]
    end_time = chain[-1][T]
    return CriticalPath(
        steps=steps,
        length=max(0.0, end_time - start_time),
        start_time=start_time,
        end_time=end_time,
        exec_time=spent["exec_begin"],
        transit_time=spent["send"],
        wait_time=spent["deliver"],
        other_time=spent[None],
        attribution=attribution,
        truncated=truncated,
    )
