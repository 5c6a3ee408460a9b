"""A deterministic discrete-event engine.

Design notes
------------
* Virtual time is a float in **seconds**; events fire in nondecreasing time
  order.  Equal-time events fire in schedule order (a monotone sequence
  number breaks ties), so a run is a pure function of its inputs and seeds.
* Callbacks may schedule further events, including at the current time (but
  never in the past — that raises :class:`SchedulingError`, since a causal
  simulation must not rewrite history).
* The engine neither knows nor cares about PEs or messages; the Chare
  Kernel runtime layers those semantics on top.

Hot path
--------
Heap entries are plain 4-slot lists ``[time, seq, fn, arg]`` — ``heapq``
compares them element-wise and the unique ``seq`` guarantees the comparison
never reaches ``fn``.  :meth:`Engine.schedule_call` is the closure-free
fast path: the kernel passes a bound method plus its payload and the loop
invokes ``fn(arg)`` directly, so per-message scheduling allocates one small
list and nothing else (no Event object, no lambda cell, no dataclass
comparison machinery).  :meth:`Engine.schedule` keeps the zero-arg callback
API and returns a cancellable :class:`Event` handle for the rare callers
that need one.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.util.errors import SchedulingError

__all__ = ["Event", "Engine"]

#: Sentinel distinguishing "call fn()" from "call fn(arg)" heap entries.
_NO_ARG = object()


class Event(list):
    """A cancellable handle over one heap entry ``[time, seq, fn, arg]``.

    Subclassing ``list`` keeps the heap homogeneous: plain fast-path
    entries and cancellable ones compare with the same C-level logic.
    Cancellation nulls the callback slot in place; the engine skips (and
    drops) dead entries when they surface at the heap front.
    """

    __slots__ = ("_engine",)

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        return self[2] is None

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when popped."""
        if self[2] is not None:
            self[2] = None
            self[3] = _NO_ARG
            self._engine._live -= 1


class Engine:
    """The event loop.

    Typical use::

        eng = Engine()
        eng.schedule(0.0, start)        # absolute time
        eng.run()                       # until the heap drains
        print(eng.now)
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._now = 0.0
        self._events_fired = 0
        self._live = 0
        self._running = False

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of not-yet-fired live events (O(1) counter)."""
        return self._live

    def advance_to(self, time: float) -> None:
        """Move the clock forward without firing events (never backward)."""
        if time > self._now:
            self._now = time

    def clear(self) -> None:
        """Drop every pending event (the clock and counters stay).

        Cancellable :class:`Event` entries point back at the engine, so a
        heap that still holds one keeps the engine — and every callback's
        owner — reachable from itself.
        """
        self._heap.clear()
        self._live = 0

    # -------------------------------------------------------------- scheduling
    def schedule(self, time: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute virtual time ``time``.

        Returns a cancellable :class:`Event`.  Prefer
        :meth:`schedule_call` in hot paths that don't need cancellation.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        ev = Event((float(time), self._seq, fn, _NO_ARG))
        ev._engine = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Closure-free fast path: at ``time``, invoke ``fn(arg)``.

        No Event handle is created (the entry cannot be cancelled); the
        kernel uses this for every message arrival and PE completion.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        heapq.heappush(self._heap, [time, self._seq, fn, arg])
        self._seq += 1
        self._live += 1

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` after a nonnegative ``delay`` from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, fn)

    # --------------------------------------------------------------- execution
    def step(self) -> bool:
        """Fire the single next live event.  Returns False if none remain."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            fn = entry[2]
            if fn is None:
                continue
            self._now = entry[0]
            self._events_fired += 1
            self._live -= 1
            arg = entry[3]
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
            return True
        return False

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the heap drains, ``until`` is passed, or budget spent.

        ``until`` is an inclusive time horizon: events at exactly ``until``
        still fire.  ``max_events`` bounds callbacks fired by *this* call.
        """
        if self._running:
            raise SchedulingError("Engine.run is not reentrant")
        self._running = True
        heap = self._heap
        fired = 0
        try:
            if until is None and max_events is None:
                # The common drain-everything case: one tight loop, no
                # per-event horizon/budget checks.
                while heap:
                    entry = heapq.heappop(heap)
                    fn = entry[2]
                    if fn is None:
                        continue
                    self._now = entry[0]
                    self._events_fired += 1
                    self._live -= 1
                    arg = entry[3]
                    if arg is _NO_ARG:
                        fn()
                    else:
                        fn(arg)
                return
            while heap:
                if max_events is not None and fired >= max_events:
                    return
                # Peek for the horizon check without popping live events
                # prematurely — cancelled events at the front are free to drop.
                while heap and heap[0][2] is None:
                    heapq.heappop(heap)
                if not heap:
                    return
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                if self.step():
                    fired += 1
        finally:
            self._running = False
