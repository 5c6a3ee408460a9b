"""Run statistics.

The simulator keeps cheap counters on every PE while it runs (the
"projections-lite" view); :class:`TraceReport` snapshots them at the end of
a run into a plain-data structure the benchmark harness and tests consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple

__all__ = ["PERow", "TraceReport"]


class PERow(NamedTuple):
    """Counters for one PE: a tuple with names.

    A run leaves P of these in every row it returns, so they are what a
    cached or pooled row mostly consists of; as a tuple one pickles as a
    class reference plus its 22 values and loads without a state dict.
    """

    pe: int
    busy_time: float
    utilization: float
    msgs_executed: int
    seeds_executed: int
    system_executed: int
    msgs_sent: int
    bytes_sent: int
    seeds_created: int
    charged_units: float
    max_pool: int
    steal_attempts: int
    steals_satisfied: int
    # Fault-injection counters (zero unless a repro.faults layer was
    # installed): perturbed deliveries toward this PE, retransmissions it
    # originated, and transient stalls it suffered.
    msgs_dropped: int = 0
    msgs_delayed: int = 0
    msgs_duplicated: int = 0
    dups_suppressed: int = 0
    retries: int = 0
    stalls: int = 0
    stall_time: float = 0.0
    # Idle-structure aggregates from the always-on counters: total idle
    # time over the run and the longest idle window between two executions.
    idle_time: float = 0.0
    largest_idle_gap: float = 0.0


@dataclass
class TraceReport:
    """Aggregated statistics of one kernel run."""

    machine: str
    num_pes: int
    queueing: str
    balancer: str
    total_time: float
    pe_rows: List[PERow] = field(default_factory=list)
    counted_sent: int = 0
    counted_processed: int = 0
    total_message_hops: int = 0
    qd_waves: int = 0
    qd_detected_at: float | None = None
    mono_updates_sent: int = 0
    mono_updates_applied: int = 0
    lb_control_msgs: int = 0
    lb_seeds_remote: int = 0
    # Fault-injection aggregates (repro.faults); faults_enabled is False
    # (and every counter zero) when no fault layer was installed.
    faults_enabled: bool = False
    fault_config: str = ""
    msgs_dropped: int = 0
    msgs_delayed: int = 0
    msgs_duplicated: int = 0
    dups_suppressed: int = 0
    retries: int = 0
    acks_sent: int = 0
    acks_lost: int = 0
    stalls: int = 0

    # ----------------------------------------------------------------- builders
    @classmethod
    def from_kernel(cls, kernel) -> "TraceReport":
        t = kernel.now
        rows = []
        plane = kernel.pes
        # One row per rank of the span: every rank (materializing any
        # never-touched stragglers an early exit left yields all-zero
        # counters), or on a sparse machine the *touched* ranks only — a
        # P=10⁶ run with k active PEs emits k rows, and the per-row
        # aggregates below (mean utilization, imbalance, idle) are over
        # the active set, the meaningful denominator at that scale.
        pe_states = [plane[i] for i in kernel.span().ranks]
        for pe in pe_states:
            rows.append(
                PERow(
                    pe=pe.index,
                    busy_time=pe.busy_time,
                    utilization=(pe.busy_time / t) if t > 0 else 0.0,
                    msgs_executed=pe.msgs_executed,
                    seeds_executed=pe.seeds_executed,
                    system_executed=pe.system_executed,
                    msgs_sent=pe.msgs_sent,
                    bytes_sent=pe.bytes_sent,
                    seeds_created=pe.seeds_created,
                    charged_units=pe.charged_units,
                    max_pool=pe.max_queued,
                    steal_attempts=pe.steal_attempts,
                    steals_satisfied=pe.steals_satisfied,
                    msgs_dropped=pe.msgs_dropped,
                    msgs_delayed=pe.msgs_delayed,
                    msgs_duplicated=pe.msgs_duplicated,
                    dups_suppressed=pe.dups_suppressed,
                    retries=pe.retries,
                    stalls=pe.stalls,
                    stall_time=pe.stall_time,
                    idle_time=max(0.0, t - pe.busy_time),
                    largest_idle_gap=pe.largest_idle_gap,
                )
            )
        faults = getattr(kernel, "faults", None)
        fault_kwargs = {}
        if faults is not None:
            fault_kwargs = dict(faults.counters(), faults_enabled=True,
                                fault_config=faults.config.describe())
        return cls(
            machine=kernel.machine.name,
            num_pes=kernel.num_pes,
            queueing=kernel.queueing,
            balancer=getattr(kernel.balancer, "strategy_name", "?"),
            total_time=t,
            pe_rows=rows,
            counted_sent=sum(s.counted_sent for s in pe_states),
            counted_processed=sum(s.counted_processed for s in pe_states),
            total_message_hops=kernel.total_message_hops,
            qd_waves=kernel.qd.waves_run,
            qd_detected_at=kernel.qd.detected_at,
            mono_updates_sent=kernel.sharing.mono_updates_sent,
            mono_updates_applied=kernel.sharing.mono_updates_applied,
            lb_control_msgs=kernel.balancer.control_msgs,
            lb_seeds_remote=kernel.balancer.seeds_placed_remote,
            **fault_kwargs,
        )

    # ---------------------------------------------------------------- accessors
    @property
    def total_msgs_executed(self) -> int:
        return sum(r.msgs_executed + r.seeds_executed for r in self.pe_rows)

    @property
    def total_system_executed(self) -> int:
        return sum(r.system_executed for r in self.pe_rows)

    @property
    def total_bytes_sent(self) -> int:
        return sum(r.bytes_sent for r in self.pe_rows)

    @property
    def total_charged(self) -> float:
        return sum(r.charged_units for r in self.pe_rows)

    @property
    def mean_utilization(self) -> float:
        if not self.pe_rows:
            return 0.0
        return sum(r.utilization for r in self.pe_rows) / len(self.pe_rows)

    @property
    def total_idle_time(self) -> float:
        """Sum of per-PE idle time (P * total_time - total busy time)."""
        return sum(r.idle_time for r in self.pe_rows)

    @property
    def max_idle_gap(self) -> float:
        """Longest contiguous idle window on any PE."""
        return max((r.largest_idle_gap for r in self.pe_rows), default=0.0)

    @property
    def pool_high_water(self) -> int:
        """Deepest message pool any PE reached during the run."""
        return max((r.max_pool for r in self.pe_rows), default=0)

    @property
    def load_imbalance(self) -> float:
        """max(busy) / mean(busy) — 1.0 is perfectly balanced."""
        busys = [r.busy_time for r in self.pe_rows]
        mean = sum(busys) / len(busys) if busys else 0.0
        return (max(busys) / mean) if mean > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine,
            "num_pes": self.num_pes,
            "queueing": self.queueing,
            "balancer": self.balancer,
            "total_time": self.total_time,
            "total_msgs": self.total_msgs_executed,
            "system_msgs": self.total_system_executed,
            "bytes_sent": self.total_bytes_sent,
            "charged": self.total_charged,
            "mean_util": self.mean_utilization,
            "imbalance": self.load_imbalance,
            "idle_time": self.total_idle_time,
            "max_idle_gap": self.max_idle_gap,
            "pool_high_water": self.pool_high_water,
            "qd_waves": self.qd_waves,
            "lb_control": self.lb_control_msgs,
            "lb_remote_seeds": self.lb_seeds_remote,
            "faults": {
                "enabled": self.faults_enabled,
                "config": self.fault_config,
                "dropped": self.msgs_dropped,
                "delayed": self.msgs_delayed,
                "duplicated": self.msgs_duplicated,
                "dups_suppressed": self.dups_suppressed,
                "retries": self.retries,
                "acks_sent": self.acks_sent,
                "acks_lost": self.acks_lost,
                "stalls": self.stalls,
            },
        }

    def summary(self) -> str:
        """One human-readable block (used by examples and bench output)."""
        d = self.as_dict()
        lines = [
            f"machine={d['machine']} P={self.num_pes} "
            f"queueing={d['queueing']} balancer={d['balancer']}",
            f"  virtual time      : {d['total_time'] * 1e3:10.3f} ms",
            f"  app msgs executed : {d['total_msgs']:10d}",
            f"  system msgs       : {d['system_msgs']:10d}",
            f"  bytes sent        : {d['bytes_sent']:10d}",
            f"  mean utilization  : {d['mean_util'] * 100:9.1f} %",
            f"  load imbalance    : {d['imbalance']:10.3f}",
            f"  largest idle gap  : {d['max_idle_gap'] * 1e3:10.3f} ms",
            f"  pool high-water   : {d['pool_high_water']:10d}",
        ]
        if self.faults_enabled:
            lines.append(
                f"  faults [{self.fault_config}]: "
                f"dropped={self.msgs_dropped} retries={self.retries} "
                f"delayed={self.msgs_delayed} dup={self.msgs_duplicated} "
                f"deduped={self.dups_suppressed} stalls={self.stalls}"
            )
        return "\n".join(lines)
