"""Queueing strategies: the order in which a PE serves application work.

A PE (:class:`repro.core.pe.PEState`) keeps a system FIFO lane, always
drained first, for runtime traffic — quiescence waves, load-balance tokens,
distributed-table and monotonic-variable messages — so the shared
abstractions stay responsive even when the app floods the pool.  Its
application messages and its seeds each go to a pluggable
:class:`QueueStrategy`, the subject of experiment T6.

Strategies see opaque items plus an optional priority; they never inspect
message contents.  The three prioritized strategies are one stable binary
heap of ``(key, seq, item)``: each push normalizes its priority with
:func:`normalize_priority` (one normalization per push; FIFO and LIFO
pools never pay one), so integer, bitvector and absent priorities coexist
in one total order, with ties broken by arrival (``priolifo``: newest
first).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Dict, Type

from repro.util.errors import ConfigurationError, SchedulingError
from repro.util.priority import PriorityLike, normalize_priority

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


class QueueStrategy(ABC):
    """Ordering policy for the application lane of a message pool.

    Concrete strategies define ``__len__`` *and* ``__bool__`` directly on
    their backing container — the scheduler truth-tests pools on every
    message pickup, and routing that test through an abstract default
    (``len(self) > 0`` dispatching back into the subclass) costs two
    Python-level calls per event.
    """

    name: str = "abstract"
    __slots__ = ()

    @abstractmethod
    def push(self, item: Any, priority: PriorityLike = None) -> None:
        """Insert an item with its (raw, user-facing) priority."""

    @abstractmethod
    def pop(self) -> Any:
        """Remove and return the next item; raises if empty."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of queued items."""

    def __bool__(self) -> bool:  # overridden by every concrete strategy
        return len(self) > 0


class FifoStrategy(QueueStrategy):
    """First-in first-out — Charm's default queueing."""

    name = "fifo"
    __slots__ = ("_q",)

    def __init__(self) -> None:
        self._q: deque = deque()

    def push(self, item: Any, priority: PriorityLike = None) -> None:
        self._q.append(item)

    def pop(self) -> Any:
        if not self._q:
            raise SchedulingError("pop from empty FIFO pool")
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)


class LifoStrategy(QueueStrategy):
    """Last-in first-out — approximates depth-first expansion order."""

    name = "lifo"
    __slots__ = ("_q",)

    def __init__(self) -> None:
        self._q: list = []

    def push(self, item: Any, priority: PriorityLike = None) -> None:
        self._q.append(item)

    def pop(self) -> Any:
        if not self._q:
            raise SchedulingError("pop from empty LIFO pool")
        return self._q.pop()

    def __len__(self) -> int:
        return len(self._q)

    def __bool__(self) -> bool:
        return bool(self._q)


class _PriorityHeap(QueueStrategy):
    """Stable binary heap of ``(key, seq, item)`` — every prioritized pool.

    ``seq`` steps by ``_step`` per push, so equal keys pop in arrival order
    (``+1``) or newest first (``-1``).
    """

    _step = 1
    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0

    def push(self, item: Any, priority: PriorityLike = None) -> None:
        key = normalize_priority(priority)
        seq = self._seq = self._seq + self._step
        heapq.heappush(self._heap, (key, seq, item))

    def pop(self) -> Any:
        if not self._heap:
            raise SchedulingError(f"pop from empty {self.name} pool")
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class IntPriorityStrategy(_PriorityHeap):
    """Smaller integer priority first; unprioritized items run last, FIFO."""

    name = "prio"
    __slots__ = ()


class BitvectorPriorityStrategy(_PriorityHeap):
    """Lexicographic bitvector priorities (Charm's B-prioritized queue).

    Implementation-wise identical to :class:`IntPriorityStrategy` because
    :func:`normalize_priority` already totally orders mixed priorities; the
    class exists so experiment configs can name the intent.
    """

    name = "bitprio"
    __slots__ = ()


class LifoPriorityStrategy(_PriorityHeap):
    """Priorities first, ties broken LIFO (Charm's stack-flavored queue).

    Depth-first within a priority class: useful for searches where equal
    bounds should be pursued depth-first to bound memory, while better
    bounds still preempt.  Unprioritized items pop last, newest first.
    """

    name = "priolifo"
    _step = -1
    __slots__ = ()


STRATEGIES: Dict[str, Type[QueueStrategy]] = {
    "fifo": FifoStrategy,
    "lifo": LifoStrategy,
    "prio": IntPriorityStrategy,
    "bitprio": BitvectorPriorityStrategy,
    "priolifo": LifoPriorityStrategy,
}


def make_strategy(name: str) -> QueueStrategy:
    """Instantiate a fresh strategy by name."""
    cls = STRATEGIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ConfigurationError(
            f"unknown queueing strategy {name!r}; options: {sorted(STRATEGIES)}"
        )
    return cls()
