"""repro — a Python reproduction of the Charm / Chare Kernel system.

This package reproduces the system described in *"Object oriented parallel
programming: experiments and results"* (SC 1991; the original Charm paper):
a machine-independent, message-driven, object-oriented parallel programming
model with chares, branch-office chares, specific information-sharing
abstractions, pluggable queueing and dynamic load balancing, and quiescence
detection — running on a deterministic discrete-event simulation of the
paper's machine classes (shared-memory bus machines and hypercubes).

Quickstart::

    from repro import Chare, Kernel, entry, make_machine

    class Main(Chare):
        def __init__(self, n):
            self.new_accumulator("count", 0, "sum")
            for i in range(n):
                self.create(Worker, self.thishandle, i)
            self.start_quiescence(self.thishandle, "done")

        @entry
        def done(self):
            self.collect_accumulator("count", self.thishandle, "report")

        @entry
        def report(self, tag, total):
            self.exit(total)

    class Worker(Chare):
        def __init__(self, parent, i):
            self.charge(100)
            self.accumulate("count", i)

    result = Kernel(make_machine("ipsc2", 16)).run(Main, 64)
    print(result.result, result.time)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
reproduced tables and figures.
"""

from repro.core import (
    BocHandle,
    BranchOfficeChare,
    Chare,
    ChareHandle,
    Kernel,
    RunResult,
    entry,
)
from repro.faults import FaultConfig, FaultLayer
from repro.machine import Machine, MachineParams, MACHINE_PRESETS, make_machine
from repro.balance import BALANCERS, make_balancer
from repro.queueing import STRATEGIES, make_strategy
from repro.util.priority import BitVectorPriority
from repro.patterns import map_reduce, scatter_gather

__version__ = "1.0.0"

__all__ = [
    "BocHandle",
    "BranchOfficeChare",
    "Chare",
    "ChareHandle",
    "Kernel",
    "RunResult",
    "entry",
    "FaultConfig",
    "FaultLayer",
    "Machine",
    "MachineParams",
    "MACHINE_PRESETS",
    "make_machine",
    "BALANCERS",
    "make_balancer",
    "STRATEGIES",
    "make_strategy",
    "BitVectorPriority",
    "map_reduce",
    "scatter_gather",
    "__version__",
]
