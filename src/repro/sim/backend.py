"""The calendar-queue engine the performance ledger's frozen probe builds.

The kernel runs on :class:`~repro.sim.engine.Engine`.  :class:`BatchBackend`
stays only because the ledger's ``sim.batch_events_per_s`` probe constructs
it through :func:`make_backend` and calls ``schedule_call``, a drain-all
``run()`` and ``events_fired`` — exactly what it offers.  It goes when a
benchmark change retires the probe.

Both engines fire any schedule in the same order: nondecreasing time, and
schedule order among equal times.  The heap orders entries by a
``(time, seq)`` key; the calendar queue gets the same order structurally —
a bucket's append order *is* schedule order, and buckets drain in time
order through a small heap of distinct timestamps.  ``tests/test_engine.py``
pins the parity on random schedules.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.sim.engine import Engine
from repro.util.errors import ConfigurationError, SchedulingError

__all__ = ["BatchBackend", "make_backend"]


class BatchBackend:
    """Calendar queue: one list of ``(fn, arg)`` per distinct timestamp.

    ``_buckets`` maps a timestamp to its entries in schedule order;
    ``_times`` is a min-heap holding each bucket's timestamp once.
    """

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._times: list = []
        self._now = 0.0
        #: Total number of callbacks executed (updated per drained bucket).
        self.events_fired = 0

    def schedule_call(self, time: float, fn: Callable[[Any], None], arg: Any) -> None:
        """At absolute virtual time ``time``, invoke ``fn(arg)``."""
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at t={time} before now={self._now}"
            )
        try:
            self._buckets[time].append((fn, arg))
        except KeyError:
            self._buckets[time] = [(fn, arg)]
            heapq.heappush(self._times, time)

    def run(self) -> None:
        """Fire every event, one timestamp's bucket at a time.

        A callback may only schedule at ``time >= now``: an equal-time
        schedule appends to the bucket being iterated, which picks it up
        in schedule order, and a later one lands in another bucket.
        """
        buckets = self._buckets
        times = self._times
        while times:
            self._now = t = heapq.heappop(times)
            bucket = buckets[t]
            for fn, arg in bucket:
                fn(arg)
            del buckets[t]
            self.events_fired += len(bucket)


def make_backend(name: str):
    """Construct an engine by name: ``heap`` (:class:`Engine`) or ``batch``."""
    backends = {"heap": Engine, "batch": BatchBackend}
    try:
        cls = backends[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine backend {name!r}; options: {sorted(backends)}"
        ) from None
    return cls()
