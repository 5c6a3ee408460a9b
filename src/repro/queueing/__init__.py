"""Per-PE message-pool queueing strategies.

Charm lets each program pick the order in which the scheduler consumes the
message pool — FIFO, LIFO, or prioritized — because for speculatively
parallel programs (branch-and-bound, state-space search) that order decides
how much wasted work the parallel execution performs.  Experiment T6
reproduces that study.
"""

from repro.queueing.strategies import (
    QueueStrategy,
    FifoStrategy,
    LifoStrategy,
    IntPriorityStrategy,
    BitvectorPriorityStrategy,
    LifoPriorityStrategy,
    make_strategy,
    STRATEGIES,
)

__all__ = [
    "QueueStrategy",
    "FifoStrategy",
    "LifoStrategy",
    "IntPriorityStrategy",
    "BitvectorPriorityStrategy",
    "LifoPriorityStrategy",
    "make_strategy",
    "STRATEGIES",
]
