"""A deterministic discrete-event engine.

Design notes
------------
* Virtual time is a float in **seconds**; events fire in nondecreasing time
  order.  Equal-time events fire in schedule order (a monotone sequence
  number breaks ties), so a run is a pure function of its inputs and seeds.
* Callbacks may schedule further events, including at the current time (but
  never in the past — that raises :class:`SchedulingError`, since a causal
  simulation must not rewrite history).
* A scheduled event always fires: the Chare Kernel never retracts a sent
  message and every entry method runs to completion, so there is no
  cancellation.  A delay is ``schedule_call(now + delay, fn, arg)``.
* The engine neither knows nor cares about PEs or messages; the Chare
  Kernel runtime layers those semantics on top.

Hot path
--------
Heap entries are 4-tuples ``(time, seq, fn, arg)`` — ``heapq`` compares
them element-wise and the unique ``seq`` guarantees the comparison never
reaches ``fn``.  Nothing mutates an entry once it is pushed (there is no
cancellation), so a tuple serves: it is one allocation, where a list is
two (the object and its item array).  The kernel passes a bound method
plus its payload and the loop invokes ``fn(arg)`` directly, so scheduling
allocates that one tuple and nothing else (no event object, no lambda
cell).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional, Tuple

from repro.util.errors import SchedulingError

__all__ = ["Engine"]


class Engine:
    """The simulator's event loop.

    Typical use::

        eng = Engine()
        eng.schedule_call(0.0, start, payload)   # absolute time
        fired, truncated = eng.run()             # until the heap drains
        print(eng.now)
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        #: Current virtual time in seconds (a plain attribute: every
        #: service reads it, and a property costs a call per read).
        self.now = 0.0
        #: Total number of callbacks executed so far (current during a run).
        self.events_fired = 0
        self._running = False
        self._stop = False

    # ------------------------------------------------------------------ clock
    def advance_to(self, time: float) -> None:
        """Move the clock forward without firing events (never backward)."""
        if time > self.now:
            self.now = time

    def clear(self) -> None:
        """Drop every pending event (the clock and counters stay).

        Pending entries hold bound callbacks, and an owner of one may hold
        the engine (the fault layer keeps ``schedule_call``), so a heap
        that still holds them can keep the engine reachable from itself.
        """
        self._heap.clear()

    def request_stop(self) -> None:
        """Make an in-progress :meth:`run` return before the next event."""
        self._stop = True

    # -------------------------------------------------------------- scheduling
    def schedule_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """At absolute virtual time ``time``, invoke ``fn(arg)``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self.now}"
            )
        heapq.heappush(self._heap, (time, self._seq, fn, arg))
        self._seq += 1

    # --------------------------------------------------------------- execution
    def run(self, max_events: Optional[int] = None) -> Tuple[int, bool]:
        """Fire events until drained, stopped, or ``max_events`` fired.

        Returns ``(fired, truncated)``: ``truncated`` means the budget ran
        out.  The budget is checked before the emptiness test, so a drain
        that lands exactly on it still reports truncation, and the clock
        stays at the last fired event.  :meth:`request_stop` (the kernel's
        exit signal) wins over the budget.
        """
        if self._running:
            raise SchedulingError("Engine.run is not reentrant")
        self._running = True
        self._stop = False
        limit = math.inf if max_events is None else max_events
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            while not self._stop:
                if fired >= limit:
                    return fired, True
                if not heap:
                    break
                time, _, fn, arg = pop(heap)
                self.now = time
                self.events_fired += 1
                fired += 1
                fn(arg)
            return fired, False
        finally:
            self._running = False
