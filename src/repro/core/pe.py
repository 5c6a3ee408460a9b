"""Per-processing-element scheduler state.

A PE is either idle or executing exactly one entry method (message-driven,
non-preemptive).  Its work sits in three lanes, drained in this order:

1. the **system lane** (runtime control traffic — always FIFO),
2. the **message lane** (messages to existing chares/BOC branches, ordered
   by the configured queueing strategy),
3. the **seed lane** (new-chare seeds, same strategy class) — kept separate
   so work-stealing balancers can extract seeds without disturbing
   in-progress conversations.

The PE also carries its trace counters; :mod:`repro.trace` aggregates them.

The lanes are held directly (a raw deque plus two strategy objects) rather
than behind a pool facade, and their lengths are maintained incrementally
(``_queued``/``_app_queued``/``_app_len`` updated on every enqueue/pop):
``enqueue``/``next_envelope`` run once per simulated message and ``load``
is piggybacked on every delivery, so each avoided Python-level ``len``/
``__bool__``/facade dispatch is paid millions of times per run.  All lane
mutations must go through this class — balancers use
:meth:`steal_seed`/:meth:`requeue_seed`, never the lanes directly — or the
counters drift.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.core.messages import Envelope, Kind
from repro.queueing.strategies import FifoStrategy, QueueStrategy, make_strategy

__all__ = ["PEState", "PEPlane"]

# Kind tags as module globals (cheaper than a class-attribute chain in the
# per-message enqueue below).
_SEED = Kind.SEED
_SVC = Kind.SVC


class PEState:
    """All mutable state of one simulated processor."""

    __slots__ = (
        "index",
        "strategy_name",
        "busy",
        "busy_until",
        "gated",
        "idle_notified",
        "busy_time",
        "msgs_executed",
        "seeds_executed",
        "system_executed",
        "msgs_sent",
        "bytes_sent",
        "seeds_created",
        "seeds_forwarded_in",
        "charged_units",
        "steal_attempts",
        "steals_satisfied",
        "max_queued",
        "largest_idle_gap",
        "msgs_dropped",
        "msgs_delayed",
        "msgs_duplicated",
        "dups_suppressed",
        "retries",
        "stalls",
        "stall_time",
        "counted_sent",
        "counted_processed",
        "_system",
        "_app",
        "seed_pool",
        "_app_fifo",
        "_seed_fifo",
        "_queued",
        "_app_queued",
        "_app_len",
    )

    def __init__(self, index: int, strategy_name: str = "fifo") -> None:
        self.index = index
        self.strategy_name = strategy_name

        self.busy = False
        self.busy_until = 0.0
        # Startup gate: until the init broadcast arrives (replicating
        # read-only variables and shared-abstraction declarations), a PE
        # services only its system lane.  This reproduces the Chare
        # Kernel's startup phase.
        self.gated = True
        # One balancer idle notification per burst of real work: set when
        # the balancer has been told this PE is idle, cleared when it next
        # executes application work.  Without this, idle-control messages
        # (hints, steal probes) re-trigger on_idle and the control traffic
        # feeds itself.
        self.idle_notified = False

        # Trace counters --------------------------------------------------
        self.busy_time = 0.0
        self.msgs_executed = 0
        self.seeds_executed = 0
        self.system_executed = 0
        self.msgs_sent = 0
        self.bytes_sent = 0
        self.seeds_created = 0
        self.seeds_forwarded_in = 0   # seeds that arrived and were pushed on
        self.charged_units = 0.0
        self.steal_attempts = 0
        self.steals_satisfied = 0
        self.max_queued = 0   # high-water mark over all three lanes
        # Longest idle window between consecutive executions (the kernel
        # updates it from busy_until at each execution start).
        self.largest_idle_gap = 0.0

        # Fault-injection counters (always zero without a fault layer).
        # Loss/delay/dup counters are charged to the *destination* PE (the
        # message toward it was perturbed); retries to the sender; stalls
        # to the stalled PE.  See repro.faults.
        self.msgs_dropped = 0
        self.msgs_delayed = 0
        self.msgs_duplicated = 0
        self.dups_suppressed = 0
        self.retries = 0
        self.stalls = 0
        self.stall_time = 0.0

        # Quiescence accounting (counted messages only).  Lives on the PE
        # (not in O(P) kernel-side lists) so a sparse plane carries exactly
        # as many counters as there are touched PEs.
        self.counted_sent = 0
        self.counted_processed = 0

        self._system: deque = deque()
        self._app: QueueStrategy = make_strategy(strategy_name)
        self.seed_pool: QueueStrategy = make_strategy(strategy_name)
        # FIFO fast lanes: under the default strategy, enqueue/pop touch
        # the strategy's backing deque directly instead of paying a method
        # frame per message.  The strategy object shares the same deque, so
        # strategy-path users (steal_seed, requeue_seed) stay coherent.
        self._app_fifo = (
            self._app._q if type(self._app) is FifoStrategy else None
        )
        self._seed_fifo = (
            self.seed_pool._q if type(self.seed_pool) is FifoStrategy else None
        )
        self._queued = 0        # everything queued (system + app + seeds)
        self._app_queued = 0    # app lane + seeds (the balancer load metric)
        self._app_len = 0       # app lane only (seeds = _app_queued - _app_len)

    # ------------------------------------------------------------------ queues
    def enqueue(self, env: Envelope) -> None:
        """Queue an arrived envelope in the right lane."""
        kind = env.kind
        if kind == _SEED:
            q = self._seed_fifo
            if q is None:
                self.seed_pool.push(env, env.priority)
            else:
                q.append(env)
            self._app_queued += 1
        elif env.system or kind == _SVC:
            self._system.append(env)
        else:
            q = self._app_fifo
            if q is None:
                self._app.push(env, env.priority)
            else:
                q.append(env)
            self._app_len += 1
            self._app_queued += 1
        queued = self._queued = self._queued + 1
        if queued > self.max_queued:
            self.max_queued = queued

    def next_envelope(self) -> Optional[Envelope]:
        """Pop the next envelope per the service order, or None if drained.

        While gated, only system-lane traffic is served.  Lane emptiness is
        decided from the counters, so the common miss costs an int compare,
        not a strategy ``__bool__``.
        """
        system = self._system
        if system:
            self._queued -= 1
            return system.popleft()
        if self.gated:
            return None
        if self._app_len:
            self._app_len -= 1
            self._queued -= 1
            self._app_queued -= 1
            q = self._app_fifo
            return self._app.pop() if q is None else q.popleft()
        if self._app_queued:  # seeds remain
            self._queued -= 1
            self._app_queued -= 1
            q = self._seed_fifo
            return self.seed_pool.pop() if q is None else q.popleft()
        return None

    def steal_seed(self) -> Optional[Envelope]:
        """Remove one seed for a work-stealing balancer (best-first)."""
        if self._app_queued > self._app_len:
            self._queued -= 1
            self._app_queued -= 1
            return self.seed_pool.pop()
        return None

    def requeue_seed(self, env: Envelope) -> None:
        """Put a stolen-but-unmigratable seed back (keeps counters true)."""
        self.seed_pool.push(env, env.priority)
        self._queued += 1
        self._app_queued += 1

    # ------------------------------------------------------------------- load
    @property
    def load(self) -> int:
        """The balancer's load metric: queued app work + busy flag."""
        return self._app_queued + 1 if self.busy else self._app_queued

    @property
    def queued(self) -> int:
        return self._queued

    def has_work(self) -> bool:
        return self._queued > 0


class PEPlane(dict):
    """Lazily-materialized map of PE rank -> :class:`PEState`.

    The kernel's PE plane used to be an eager ``List[PEState]`` of length
    P — untenable at the roadmap's 10⁵–10⁶-PE machines when only a few
    hundred PEs ever receive a message.  This is a ``dict`` subclass whose
    only override is ``__missing__``: a present-key ``plane[i]`` lookup is
    a plain C-speed dict hit (no Python-level ``__getitem__`` wrapper on
    the per-message hot path), and the first touch of a rank materializes
    its state on demand.  The key set *is* the touched set.

    Out-of-range indices raise :class:`IndexError`, matching the list the
    plane replaces.  ``plane.get(i)`` peeks without materializing.
    """

    __slots__ = ("num_pes", "strategy_name", "default_gated")

    def __init__(
        self,
        num_pes: int,
        strategy_name: str = "fifo",
        *,
        gated: bool = True,
    ) -> None:
        super().__init__()
        self.num_pes = num_pes
        self.strategy_name = strategy_name
        # Sparse-startup kernels skip the init broadcast, so their PEs are
        # born with the startup gate already open.
        self.default_gated = gated

    def __missing__(self, index: int) -> PEState:
        if not 0 <= index < self.num_pes:
            raise IndexError(
                f"PE index {index} out of range [0, {self.num_pes})"
            )
        state = PEState(index, strategy_name=self.strategy_name)
        if not self.default_gated:
            state.gated = False
        self[index] = state
        return state

    # Keys are insertion-ordered (first-touch order); the accessors below
    # return index-sorted snapshots for deterministic enumeration.
    def ranks(self) -> List[int]:
        """Touched (materialized) ranks, index-sorted."""
        return sorted(self)

    def states(self) -> List[PEState]:
        """Touched states, index-sorted."""
        return [self[i] for i in sorted(self)]
