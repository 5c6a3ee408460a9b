"""Machine presets reproducing the SC'91 evaluation platforms.

The constants are calibrated from published characteristics of the era's
machines (and are recorded here, not measured — see DESIGN.md's
substitution table):

* **Sequent Symmetry** — bus-based shared memory, 16-MHz 80386 nodes.
  Slow CPUs, very cheap "messages" (a shared-memory enqueue under a lock),
  but a single bus that saturates.
* **Encore Multimax** — similar class of bus-based shared-memory machine,
  slightly faster nodes and bus.
* **Intel iPSC/2** — hypercube, ~700 µs message startup as seen by user
  code in its era's send/recv, cut-through routing (tiny per-hop cost),
  ~2.8 MB/s links.  We use the commonly cited ~350 µs one-way latency.
* **NCUBE/2** — hypercube, leaner messaging (~150 µs), slower nodes,
  scales to larger P.
* **cluster** — a modern commodity cluster point for extrapolation
  (microsecond-scale RDMA-ish messaging, fast cores).
* **ideal** — zero-overhead PRAM-flavoured machine for debugging and for
  isolating algorithmic (non-architectural) effects.

``work_unit_time`` is the time for one abstract work unit; apps charge in
units calibrated so that 1 unit ≈ 1 µs on a 1-MIPS-per-µs reference node.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.machine.network import Machine, MachineParams
from repro.machine.topology import (
    BusTopology,
    FullyConnectedTopology,
    HypercubeTopology,
)
from repro.util.errors import ConfigurationError

__all__ = [
    "symmetry",
    "multimax",
    "ipsc2",
    "ncube2",
    "cluster",
    "hetero",
    "ideal",
    "MACHINE_PRESETS",
    "make_machine",
]


def symmetry(num_pes: int) -> Machine:
    """Sequent Symmetry class: bus shared memory, <= 30 PEs typically."""
    params = MachineParams(
        work_unit_time=4e-6,      # ~0.25 MIPS-equivalent per work unit
        sched_overhead=30e-6,
        recv_overhead=10e-6,
        alpha=40e-6,              # lock + shared-queue enqueue
        beta=0.15e-6,             # memcpy through shared memory
        per_hop=0.0,
        local_alpha=10e-6,
        bus_bandwidth=40e6,       # shared bus, ~40 MB/s effective
    )
    return Machine("symmetry", BusTopology(num_pes), params)


def multimax(num_pes: int) -> Machine:
    """Encore Multimax class: bus shared memory, somewhat faster."""
    params = MachineParams(
        work_unit_time=3e-6,
        sched_overhead=25e-6,
        recv_overhead=8e-6,
        alpha=30e-6,
        beta=0.12e-6,
        per_hop=0.0,
        local_alpha=8e-6,
        bus_bandwidth=80e6,
    )
    return Machine("multimax", BusTopology(num_pes), params)


def ipsc2(num_pes: int) -> Machine:
    """Intel iPSC/2 class hypercube (power-of-two PEs)."""
    params = MachineParams(
        work_unit_time=2e-6,
        sched_overhead=20e-6,
        recv_overhead=15e-6,
        alpha=350e-6,             # user-level one-way startup
        beta=0.36e-6,             # ~2.8 MB/s links
        per_hop=10e-6,            # cut-through: small per-hop term
        local_alpha=8e-6,
    )
    return Machine("ipsc2", HypercubeTopology(num_pes), params)


def ncube2(num_pes: int) -> Machine:
    """NCUBE/2 class hypercube: leaner messages, slower nodes, big P."""
    params = MachineParams(
        work_unit_time=3e-6,
        sched_overhead=15e-6,
        recv_overhead=10e-6,
        alpha=150e-6,
        beta=0.45e-6,             # ~2.2 MB/s links
        per_hop=5e-6,
        local_alpha=6e-6,
    )
    return Machine("ncube2", HypercubeTopology(num_pes), params)


def cluster(num_pes: int) -> Machine:
    """Modern commodity cluster (extrapolation point, not a 1991 machine)."""
    params = MachineParams(
        work_unit_time=0.02e-6,
        sched_overhead=0.2e-6,
        recv_overhead=0.1e-6,
        alpha=2e-6,
        beta=0.0001e-6,           # ~10 GB/s
        per_hop=0.1e-6,
        local_alpha=0.05e-6,
    )
    return Machine("cluster", FullyConnectedTopology(num_pes), params)


def hetero(num_pes: int) -> Machine:
    """Heterogeneous workstation network (the Charm portability story).

    Ethernet-class messaging between nodes whose speeds differ by up to
    4x in a fixed repeating pattern — the environment where *dynamic*
    balancing is not an optimization but a requirement (experiment T10).
    """
    params = MachineParams(
        work_unit_time=1e-6,
        sched_overhead=25e-6,
        recv_overhead=15e-6,
        alpha=800e-6,            # TCP/IP-era LAN round half-trip
        beta=1.0e-6,             # ~1 MB/s effective
        per_hop=0.0,
        local_alpha=10e-6,
    )
    topology = FullyConnectedTopology(num_pes)   # validates num_pes
    pattern = (1.0, 2.0, 1.5, 4.0)
    speeds = tuple(pattern[i % len(pattern)] for i in range(topology.num_pes))
    return Machine("hetero", topology, params, pe_speeds=speeds)


def ideal(num_pes: int) -> Machine:
    """Zero-overhead machine: compute time only.  For algorithm studies."""
    params = MachineParams(
        work_unit_time=1e-6,
        sched_overhead=0.0,
        recv_overhead=0.0,
        alpha=0.0,
        beta=0.0,
        per_hop=0.0,
        local_alpha=0.0,
    )
    return Machine("ideal", FullyConnectedTopology(num_pes), params)


MACHINE_PRESETS: Dict[str, Callable[[int], Machine]] = {
    "symmetry": symmetry,
    "multimax": multimax,
    "ipsc2": ipsc2,
    "ncube2": ncube2,
    "cluster": cluster,
    "hetero": hetero,
    "ideal": ideal,
}


def make_machine(name: str, num_pes: int, sparse: bool = False) -> Machine:
    """Build a preset machine by name.

    ``sparse`` pins sparse startup on the machine, where the kernel reads
    it: no init broadcast, and collectives over the touched ranks only —
    the O(active) mode that makes P=10⁵–10⁶ machines practical.
    """
    try:
        factory = MACHINE_PRESETS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown machine preset {name!r}; options: {sorted(MACHINE_PRESETS)}"
        ) from None
    if type(sparse) is not bool:
        raise ConfigurationError(f"sparse must be a bool, got {sparse!r}")
    machine = factory(num_pes)
    if sparse:
        machine.sparse = True
    return machine
