"""Machine cost model.

:class:`MachineParams` captures the handful of constants that determine how
a Chare Kernel program performs on a given machine:

* ``work_unit_time`` — seconds of CPU time per abstract work unit charged by
  an entry method (so one "work unit" is roughly one microsecond on a
  late-80s RISC node when set to 1e-6).
* ``sched_overhead`` — scheduler cost per message pickup (queue pop,
  dispatch through the entry-point table).
* ``recv_overhead`` — cost to take a message off the network / shared pool
  and enqueue it.
* ``alpha`` / ``beta`` — message startup latency (s) and per-byte time
  (s/B) between distinct PEs.
* ``per_hop`` — extra latency per network hop beyond the first
  (store-and-forward flavor; cut-through machines set this near zero).
* ``local_alpha`` — latency of a message a PE sends to itself (enqueue
  cost only; no network).

The model deliberately has no contention term by default: the 1991 paper's
analyses treat links as uncongested, and adding queueing at links changes
none of the claim shapes we reproduce.  A simple optional serial-bus
bandwidth cap is provided for the shared-memory presets because bus
saturation *is* part of why shared-memory speedups flatten.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.machine.topology import Topology
from repro.util.errors import need_real

__all__ = ["MachineParams", "Machine"]


@dataclass(frozen=True)
class MachineParams:
    """Cost constants for a machine class.  All times in seconds."""

    work_unit_time: float = 1e-6
    sched_overhead: float = 5e-6
    recv_overhead: float = 2e-6
    alpha: float = 100e-6
    beta: float = 0.5e-6
    per_hop: float = 10e-6
    local_alpha: float = 2e-6
    # Optional serial shared-bus model: if > 0, every remote message also
    # occupies the single bus for nbytes / bus_bandwidth seconds and messages
    # queue behind one another for it.
    bus_bandwidth: float = 0.0
    # Optional link-contention model: if > 0 and the topology defines
    # routes, a message occupies every directed link on its (deterministic,
    # dimension-ordered) path for nbytes / link_bandwidth seconds, queuing
    # behind earlier traffic on each link (store-and-forward flavor).  This
    # replaces the uncontended beta/per-hop terms for remote messages.
    link_bandwidth: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "work_unit_time",
            "sched_overhead",
            "recv_overhead",
            "alpha",
            "beta",
            "per_hop",
            "local_alpha",
            "bus_bandwidth",
            "link_bandwidth",
        ):
            need_real(name, getattr(self, name), strict=False)

    def scaled(self, **changes) -> "MachineParams":
        """Return a copy with some constants replaced (for ablations)."""
        return replace(self, **changes)


@dataclass
class Machine:
    """A topology plus its cost model.

    The runtime asks two things of a machine: how long an entry method's
    charged work takes (:meth:`compute_time`) and when a message sent at
    time *t* arrives (:meth:`transit_time`, plus bus serialization state).

    ``pe_speeds`` models heterogeneous machines (networks of workstations):
    a per-PE multiplier on ``work_unit_time`` — 2.0 means PE is half as
    fast.  ``None`` (default) means homogeneous.
    """

    name: str
    topology: Topology
    params: MachineParams = field(default_factory=MachineParams)
    pe_speeds: tuple = ()
    #: Sparse-startup preference: when True the kernel skips the O(P) init
    #: broadcast and keeps all per-PE state O(active).  Carried on the
    #: machine so presets/descriptors can pin it and the kernel resolves it
    #: without extra plumbing (an explicit Kernel argument wins).
    sparse: bool = False

    # Mutable per-run state: shared-bus occupancy and per-link occupancy.
    _bus_free_at: float = field(default=0.0, repr=False)
    _link_free_at: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # hops_fn is the hot-path hop counter the kernel binds once per
        # run: the topology's unchecked metric.  Not a dataclass field
        # (bound methods don't belong in repr/eq), but picklable.
        self.hops_fn = self.topology.distance

    @property
    def num_pes(self) -> int:
        return self.topology.num_pes

    def reset(self) -> None:
        """Clear per-run mutable state (bus and link occupancy)."""
        self._bus_free_at = 0.0
        self._link_free_at = {}

    # ------------------------------------------------------------------ compute
    def compute_time(self, work_units: float, pe: int = 0) -> float:
        """Seconds of CPU time for ``work_units`` abstract units on ``pe``."""
        base = work_units * self.params.work_unit_time
        if self.pe_speeds:
            return base * self.pe_speeds[pe]
        return base

    # ------------------------------------------------------------------ network
    def transit_time(self, src: int, dst: int, nbytes: int, depart: float) -> float:
        """Seconds from send to arrival-at-dst-pool for one message.

        ``depart`` is the virtual send time; it matters only when the bus
        bandwidth cap is active (messages serialize on the bus in departure
        order, which is deterministic because the engine is).
        """
        p = self.params
        if src == dst:
            return p.local_alpha
        if p.link_bandwidth > 0.0:
            route = self.topology.route(src, dst)
            if route is not None:
                return self._contended_transit(route, nbytes, depart)
        latency = self.control_transit(src, dst, nbytes)
        if p.bus_bandwidth > 0.0:
            occupy = nbytes / p.bus_bandwidth
            start = max(depart, self._bus_free_at)
            self._bus_free_at = start + occupy
            latency += (start - depart) + occupy
        return latency

    def control_transit(self, src: int, dst: int, nbytes: int) -> float:
        """Latency of a tiny kernel-level control packet (acks, nacks).

        Control echoes ride the network's flow-control channel: they pay
        the full alpha/beta/per-hop latency but never occupy the modeled
        bus or links (hardware-level acks do not queue behind data).  Used
        by the fault layer's retry protocol (:mod:`repro.faults`); it is
        also the uncontended part of every :meth:`transit_time`.
        """
        p = self.params
        if src == dst:
            return p.local_alpha
        return (p.alpha + nbytes * p.beta
                + max(0, self.hops_fn(src, dst) - 1) * p.per_hop)

    def _contended_transit(self, route, nbytes: int, depart: float) -> float:
        """Store-and-forward traversal queuing on each directed link."""
        p = self.params
        occupy = nbytes / p.link_bandwidth
        t = depart + p.alpha
        for link in route:
            start = max(t, self._link_free_at.get(link, 0.0))
            t = start + occupy
            self._link_free_at[link] = t
        return t - depart

    def neighbors(self, pe: int):
        return self.topology.neighbors(pe)
