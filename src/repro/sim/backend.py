"""Event-loop backends for the discrete-event engine.

The kernel's hot loop talks to its engine through a small duck-typed
surface (the informal ``EngineBackend`` protocol below).  The kernel
always runs on :class:`HeapBackend`; :class:`BatchBackend` is kept as a
standalone engine because the performance ledger's frozen
``sim.batch_events_per_s`` probe constructs it through
:func:`make_backend` (it goes when a benchmark change retires the probe).

* :class:`HeapBackend` — the binary-heap path (a subclass of
  :class:`~repro.sim.engine.Engine` that adds the kernel-facing
  ``drive`` loop).
* :class:`BatchBackend` — a calendar (bucket) queue keyed by timestamp.
  All events at the same virtual time form one *cohort* drained in a
  single tight loop, so the common
  schedule/fire pair costs a dict probe plus a list append instead of
  two O(log n) heap operations with Python-level list comparisons.
  Homogeneous bursts (seed fanout, same-entry delivery) land in one
  bucket via its own bulk-delivery entry point.

Protocol (duck-typed; both classes implement all of it)::

    now / events_fired / pending          # clock + counters
    advance_to(time)
    schedule(time, fn) -> event           # cancellable handle
    schedule_after(delay, fn) -> event
    schedule_call(time, fn, arg)          # closure-free per-message path
    step() -> bool                        # fire the single next event
    run(until=None, max_events=None)      # engine-driven drain
    drive(max_events=None) -> (fired, truncated)   # kernel-facing bulk loop
    request_stop()                        # abort drive() after current event

Determinism contract
--------------------
Events fire in nondecreasing time order; equal-time events fire in
schedule order.  The heap orders entries by a ``(time, seq)`` key; the
calendar queue gets the same order structurally (bucket append order *is*
schedule order, buckets drain in time order via a small heap of distinct
timestamps), so the two backends fire any schedule in the same order —
``tests/test_engine.py`` pins this on randomized schedules.

Cohort-batching invariants (the reasons the bucket drain is safe):

* callbacks may only schedule at ``time >= now``, so while cohort ``t``
  drains, an equal-time schedule *appends to the live bucket* (a list
  being index-iterated picks the new entry up in seq order) and a later
  time lands in another bucket — nothing can sneak in before the cursor;
* a bucket's timestamp stays in the time-heap until the bucket is fully
  consumed, and the consumed-prefix cursor is persisted in slot 0 of the
  bucket itself, so ``step()``/``run()``/``drive()`` can suspend (budget,
  horizon, kernel exit) and resume without ever replaying or skipping an
  entry;
* cancellation nulls the callback slot in place (entries are never
  removed), so cursor positions stay valid.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.sim.engine import _NO_ARG, Engine
from repro.util.errors import ConfigurationError, SchedulingError

__all__ = [
    "BACKENDS",
    "HeapBackend",
    "BatchBackend",
    "BatchEvent",
    "make_backend",
]


class HeapBackend(Engine):
    """The classic binary-heap engine plus the kernel-facing bulk surface.

    ``schedule``/``schedule_call``/``step``/``run`` are inherited verbatim
    from :class:`Engine` — the heap hot path is untouched.  ``drive`` is
    the kernel's bulk stepping loop (previously an engine-``step()``-per-
    event loop inside ``Kernel.run``) inlined here so the budget/stop
    checks cost one compare each instead of a Python method call per
    event.
    """

    def __init__(self) -> None:
        super().__init__()
        self._stop = False

    def request_stop(self) -> None:
        """Make an in-progress :meth:`drive` return before the next event."""
        self._stop = True

    def drive(self, max_events: Optional[int] = None) -> Tuple[int, bool]:
        """Fire events until drained, stopped, or ``max_events`` fired.

        Returns ``(fired, truncated)`` where ``truncated`` means the
        budget ran out with work still pending.  :meth:`request_stop`
        (the kernel's exit signal) wins over the budget check, matching
        the historical ``Kernel.run`` loop ordering exactly.
        """
        if self._running:
            raise SchedulingError("Engine.drive is not reentrant")
        self._running = True
        self._stop = False
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        try:
            if max_events is None:
                while heap and not self._stop:
                    entry = pop(heap)
                    fn = entry[2]
                    if fn is None:
                        continue
                    self._now = entry[0]
                    self._events_fired += 1
                    self._live -= 1
                    fired += 1
                    arg = entry[3]
                    if arg is _NO_ARG:
                        fn()
                    else:
                        fn(arg)
                return fired, False
            while True:
                if self._stop:
                    return fired, False
                if fired >= max_events:
                    return fired, True
                entry = None
                while heap:
                    e = pop(heap)
                    if e[2] is not None:
                        entry = e
                        break
                if entry is None:
                    return fired, False
                self._now = entry[0]
                self._events_fired += 1
                self._live -= 1
                fired += 1
                arg = entry[3]
                if arg is _NO_ARG:
                    entry[2]()
                else:
                    entry[2](arg)
        finally:
            self._running = False


class BatchEvent(list):
    """Cancellable handle over one calendar-bucket entry ``[fn, arg]``.

    Unlike the heap :class:`~repro.sim.engine.Event` (whose list body
    doubles as the heap key), bucket entries carry only the callback pair
    — time and sequence number live on the handle.  Cancellation nulls
    the callback slot in place; the drain loops skip dead entries.
    """

    __slots__ = ("_engine", "_time", "_seq")

    @property
    def time(self) -> float:
        return self._time

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def cancelled(self) -> bool:
        return self[0] is None

    def cancel(self) -> None:
        """Mark the event dead; it will be skipped when its cohort drains."""
        if self[0] is not None:
            self[0] = None
            self[1] = _NO_ARG
            self._engine._live -= 1


class BatchBackend:
    """Calendar-queue engine: timestamp-cohort batching.

    State: ``_buckets`` maps a timestamp to ``[cursor, entry, entry, ...]``
    — slot 0 is the index of the next unconsumed entry, entries are
    ``(fn, arg)`` tuples (or :class:`BatchEvent` lists for cancellable
    schedules) in schedule order.  ``_times`` is a min-heap holding each
    live bucket's timestamp exactly once; a timestamp is popped only when
    its bucket is fully consumed, so suspended drains (budget, horizon,
    kernel exit) resume from the persisted cursor with no push-back
    bookkeeping.
    """

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._times: list = []
        self._seq = 0
        self._now = 0.0
        self._events_fired = 0
        self._live = 0
        self._running = False
        self._stop = False

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

    def request_stop(self) -> None:
        """Make an in-progress :meth:`drive` return before the next event."""
        self._stop = True

    # -------------------------------------------------------------- scheduling
    def schedule(self, time: float, fn: Callable[[], None]) -> BatchEvent:
        """Schedule ``fn`` at absolute time ``time``; returns a cancellable
        :class:`BatchEvent`."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        time = float(time)
        ev = BatchEvent((fn, _NO_ARG))
        ev._engine = self
        ev._time = time
        ev._seq = self._seq
        self._seq += 1
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [1, ev]
            heapq.heappush(self._times, time)
        else:
            bucket.append(ev)
        self._live += 1
        return ev

    def schedule_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """Closure-free fast path: at ``time``, invoke ``fn(arg)``.

        One dict probe plus one list append — no heap comparisons, no
        Event allocation.  The entry cannot be cancelled.  (try/except
        over ``get``: the existing-bucket hit is the overwhelmingly common
        case and Python's zero-cost exceptions make the hit path one
        subscript cheaper.)
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        try:
            self._buckets[time].append((fn, arg))
        except KeyError:
            self._buckets[time] = [1, (fn, arg)]
            heapq.heappush(self._times, time)
        self._live += 1

    def schedule_calls(
        self, time: float, fn: Callable[[Any], None], args: Iterable[Any]
    ) -> None:
        """Bulk delivery: schedule ``fn(arg)`` at ``time`` for every arg.

        The cohort fast lane proper — one probe, one ``list.extend``,
        however many messages the burst carries.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            bucket = self._buckets[time] = [1]
            heapq.heappush(self._times, time)
        before = len(bucket)
        bucket.extend([(fn, arg) for arg in args])
        self._live += len(bucket) - before

    def schedule_after(self, delay: float, fn: Callable[[], None]) -> BatchEvent:
        """Schedule ``fn`` after a nonnegative ``delay`` from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay: {delay}")
        return self.schedule(self._now + delay, fn)

    # --------------------------------------------------------------- execution
    def step(self) -> bool:
        """Fire the single next live event.  Returns False if none remain."""
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            bucket = buckets[t]
            idx = bucket[0]
            n = len(bucket)
            while idx < n:
                entry = bucket[idx]
                idx += 1
                fn = entry[0]
                if fn is None:
                    continue
                bucket[0] = idx
                self._now = t
                self._events_fired += 1
                self._live -= 1
                arg = entry[1]
                if arg is _NO_ARG:
                    fn()
                else:
                    fn(arg)
                return True
            bucket[0] = idx
            heapq.heappop(times)
            del buckets[t]
        return False

    def _next_live_time(self) -> Optional[float]:
        """Earliest pending event time; drops dead entries/buckets en route."""
        buckets = self._buckets
        times = self._times
        while times:
            t = times[0]
            bucket = buckets[t]
            idx = bucket[0]
            n = len(bucket)
            while idx < n and bucket[idx][0] is None:
                idx += 1
            bucket[0] = idx
            if idx < n:
                return t
            heapq.heappop(times)
            del buckets[t]
        return None

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until drained, ``until`` is passed, or the budget is spent.

        Same contract as :meth:`Engine.run`: ``until`` is inclusive, and
        when the next event lies beyond it the clock advances to exactly
        ``until``.
        """
        if self._running:
            raise SchedulingError("Engine.run is not reentrant")
        self._running = True
        try:
            if until is None and max_events is None:
                # Drain-everything: one tight cohort loop per timestamp.
                buckets = self._buckets
                times = self._times
                pop = heapq.heappop
                no_arg = _NO_ARG
                while times:
                    t = times[0]
                    bucket = buckets[t]
                    self._now = t
                    idx = bucket[0]
                    fired = 0
                    try:
                        while True:
                            # Cohort length cached per batch; callbacks
                            # appending same-time events grow the bucket, so
                            # re-check once per exhausted batch, not per event.
                            n = len(bucket)
                            if idx >= n:
                                break
                            while idx < n:
                                entry = bucket[idx]
                                idx += 1
                                fn = entry[0]
                                if fn is None:
                                    continue
                                fired += 1
                                arg = entry[1]
                                if arg is no_arg:
                                    fn()
                                else:
                                    fn(arg)
                    finally:
                        # Persist the cursor and flush counters even if a
                        # callback raised, so the queue state stays exact.
                        bucket[0] = idx
                        self._events_fired += fired
                        self._live -= fired
                    pop(times)
                    del buckets[t]
                return
            fired = 0
            while True:
                if max_events is not None and fired >= max_events:
                    return
                t = self._next_live_time()
                if t is None:
                    return
                if until is not None and t > until:
                    self._now = until
                    return
                if self.step():
                    fired += 1
        finally:
            self._running = False

    def drive(self, max_events: Optional[int] = None) -> Tuple[int, bool]:
        """Kernel-facing bulk loop; see :meth:`HeapBackend.drive`."""
        if self._running:
            raise SchedulingError("Engine.drive is not reentrant")
        self._running = True
        self._stop = False
        buckets = self._buckets
        times = self._times
        pop = heapq.heappop
        no_arg = _NO_ARG
        fired = 0
        flushed = 0
        try:
            while times:
                if max_events is not None and fired >= max_events:
                    # Budget exhausted exactly at a cohort boundary: return
                    # *before* advancing the clock to the next cohort.  The
                    # heap path checks its budget before popping, so its
                    # ``now`` stays at the last fired event — advancing here
                    # would make a truncated run's final time depend on the
                    # backend.
                    return fired, True
                t = times[0]
                bucket = buckets[t]
                self._now = t
                idx = bucket[0]
                try:
                    # The stop flag can only flip inside a callback, so it
                    # is checked right after each fire (not on skipped
                    # cancelled entries) — same observable order as
                    # checking it before the next pop, one load cheaper.
                    if max_events is None:
                        while True:
                            n = len(bucket)
                            if idx >= n:
                                break
                            while idx < n:
                                entry = bucket[idx]
                                idx += 1
                                fn = entry[0]
                                if fn is None:
                                    continue
                                fired += 1
                                arg = entry[1]
                                if arg is no_arg:
                                    fn()
                                else:
                                    fn(arg)
                                if self._stop:
                                    return fired, False
                    else:
                        while True:
                            n = len(bucket)
                            if idx >= n:
                                break
                            while idx < n:
                                if fired >= max_events:
                                    return fired, True
                                entry = bucket[idx]
                                idx += 1
                                fn = entry[0]
                                if fn is None:
                                    continue
                                fired += 1
                                arg = entry[1]
                                if arg is no_arg:
                                    fn()
                                else:
                                    fn(arg)
                                if self._stop:
                                    return fired, False
                finally:
                    bucket[0] = idx
                    self._events_fired += fired - flushed
                    self._live -= fired - flushed
                    flushed = fired
                pop(times)
                del buckets[t]
            if max_events is not None and fired >= max_events:
                # The budget check precedes the emptiness discovery on the
                # heap path (and in the historical kernel loop): a drain
                # landing exactly on the budget still reports truncation.
                return fired, True
            return fired, False
        finally:
            self._running = False


#: Registry of engine backends by name.
_BACKENDS = {
    "heap": HeapBackend,
    "batch": BatchBackend,
}

BACKENDS = tuple(sorted(_BACKENDS))


def make_backend(name: str):
    """Construct an engine backend by name (``heap`` or ``batch``)."""
    try:
        cls = _BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; options: {sorted(_BACKENDS)}"
        ) from None
    return cls()
