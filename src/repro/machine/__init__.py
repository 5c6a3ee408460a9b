"""Simulated parallel machines.

A :class:`~repro.machine.network.Machine` bundles a topology (who is a
neighbor of whom, hop distances) with a cost model (CPU speed, scheduling
overheads, message latency/bandwidth).  Presets reproduce the machine
classes of the SC'91 evaluation: Sequent Symmetry and Encore Multimax
(shared memory), Intel iPSC/2 and NCUBE/2 (hypercubes), plus a modern
cluster preset for extrapolation experiments.
"""

from repro.machine.topology import (
    Topology,
    BusTopology,
    FullyConnectedTopology,
    Mesh2DTopology,
    HypercubeTopology,
)
from repro.machine.network import Machine, MachineParams
from repro.machine.presets import (
    MACHINE_PRESETS,
    make_machine,
    symmetry,
    multimax,
    ipsc2,
    ncube2,
    cluster,
    hetero,
    ideal,
)

__all__ = [
    "Topology",
    "BusTopology",
    "FullyConnectedTopology",
    "Mesh2DTopology",
    "HypercubeTopology",
    "Machine",
    "MachineParams",
    "MACHINE_PRESETS",
    "make_machine",
    "symmetry",
    "multimax",
    "ipsc2",
    "ncube2",
    "cluster",
    "hetero",
    "ideal",
]
