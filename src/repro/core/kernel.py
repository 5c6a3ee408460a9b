"""The Chare Kernel runtime.

:class:`Kernel` binds a simulated :class:`~repro.machine.network.Machine`
to the programming model: it owns the event engine, the per-PE schedulers
and the chare tables, and it schedules, places and routes every message.
Beside it sit the runtime services it binds and routes service messages
to: the load balancer, the quiescence detector and the sharing service,
which owns every sharing mode and the branch-office chares (``_select``
asks it to hold a BOC envelope whose branch is not built yet,
``_dispatch`` for the branch to run).  :class:`~repro.core.chare.Chare`
calls the last two services directly.  A program is run with::

    from repro import Kernel, make_machine

    kernel = Kernel(make_machine("ipsc2", 16), queueing="fifo",
                    balancer="acwn", seed=1)
    result = kernel.run(MainChare, arg1, arg2)
    print(result.result, result.time, result.stats.summary())

Execution model (normative — see DESIGN.md §5):

* Each PE is idle or executing exactly one entry method; execution is
  non-preemptive and message-driven.
* An entry execution occupies its PE for
  ``sched_overhead + recv_overhead + charged_units * work_unit_time``.
* Messages sent during an entry depart at the virtual time accumulated at
  the call site and arrive after the machine's transit time.
* New-chare seeds without explicit placement are routed by the load
  balancer, possibly over several forwarding hops.
* Startup gate: application work queued on a PE is not served until the
  init broadcast (read-only variables + shared-abstraction declarations)
  reaches that PE.
"""

from __future__ import annotations

import time as _host_time
from dataclasses import dataclass, field
from types import FunctionType as _FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chare import BranchOfficeChare, Chare, declares_entry, is_entry
from repro.core.handles import ChareHandle, mint_chare_handle
from repro.core.messages import Envelope, Kind, SeedNote
from repro.core.pe import PEPlane, PEState
from repro.core.services import Service
from repro.core.tree import Span, make_tree
from repro.machine.network import Machine
from repro.queueing.strategies import make_strategy
from repro.util.errors import (
    ConfigurationError,
    RoutingError,
    SchedulingError,
    need_int,
    need_real,
)
from repro.util.priority import PriorityLike, check_priority
from repro.util.rng import RngStream

__all__ = ["Kernel", "RunResult", "ExecContext"]

#: Safety valve: a run firing more events than this is aborted as truncated.
DEFAULT_MAX_EVENTS = 30_000_000

# Kind tags as module globals: LOAD_GLOBAL beats a class-attribute chain in
# the per-event dispatch below.
_APP = Kind.APP
_SEED = Kind.SEED
_BOC = Kind.BOC
_SVC = Kind.SVC

# placement.get default: a gid with no entry (never allocated, or dead).
_MISSING = object()
_INF = float("inf")


class ExecContext:
    """State of one in-progress entry-method execution."""

    __slots__ = ("pe", "start", "charged", "outbox", "priority")

    def __init__(self, pe: int, start: float) -> None:
        self.pe = pe
        self.start = start
        self.charged = 0.0
        # Priority of the seed or message being served (Chare.my_priority).
        self.priority: PriorityLike = None
        # (charged_units_at_send, envelope) pairs; offsets resolved at end.
        self.outbox: List[Tuple[float, Envelope]] = []


@dataclass
class RunResult:
    """Outcome of one :meth:`Kernel.run`."""

    result: Any
    time: float                  # virtual seconds at completion
    events: int                  # engine callbacks fired
    truncated: bool              # hit max_events
    host_seconds: float          # wall-clock cost of the simulation itself
    stats: Any = None            # TraceReport (repro.trace)
    kernel: Any = field(default=None, repr=False)


class Kernel:
    """One runnable instance of the Chare Kernel on a simulated machine.

    Each keyword is parsed by the package that owns it: ``balancer`` by
    :func:`~repro.balance.make_balancer` (a name or a built ``Balancer``),
    ``faults`` by :class:`~repro.faults.FaultLayer` (a ``FaultConfig``),
    ``trace_events`` and ``telemetry`` by
    :func:`~repro.trace.events.make_recorder`.  The services bound here
    reach the kernel through its public port alone (docs/architecture.md,
    "Layering"): ``engine.now``, ``trace``, ``post``, ``deliver``,
    ``send_app_from_service``, ``api_charge``, ``pes``, ``span()`` and the
    run's parameters.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        queueing: str = "fifo",
        balancer: str | Any = "random",
        seed: int = 0,
        qd_interval: float = 1e-3,
        lazy_interval: float = 0.5e-3,
        spanning_tree: str = "auto",
        faults: Any = None,
        trace_events: Any = None,
        telemetry: Any = None,
    ) -> None:
        from repro.sim.engine import Engine  # local: keep core light
        from repro.balance import make_balancer
        from repro.faults import FaultLayer
        from repro.sharing.manager import SharingService
        from repro.quiescence.detector import QuiescenceService
        from repro.trace.events import make_recorder

        self.machine = machine
        self.machine.reset()
        self.params = machine.params
        # Hot-path constants: every entry execution pays this fixed cost and
        # every local message this latency, so resolve them once per run
        # instead of via two attribute chains per event.
        self._overhead_base = (
            machine.params.sched_overhead + machine.params.recv_overhead
        )
        self._local_alpha = machine.params.local_alpha
        # Homogeneous machines skip Machine.compute_time per execution; the
        # multiply below is bitwise the same operation compute_time performs.
        self._work_unit_time = (
            None if machine.pe_speeds else machine.params.work_unit_time
        )
        # Pre-bound machine methods used once per remote message.  hops_fn
        # is the topology's unchecked arithmetic metric (no O(P²) memo).
        self._hops = machine.hops_fn
        self._transit_time = machine.transit_time
        self.engine = Engine()
        # Per-kernel envelope uid allocation (reproducible run-to-run and
        # unaffected by other kernels in the same process).
        self._next_uid = 1
        # Pre-bound hot-path callbacks: schedule_call takes fn+payload, and
        # binding these once means no per-event bound-method allocation.
        self._arrive_cb = self._arrive
        self._finish_cb = self._finish
        self._schedule_call = self.engine.schedule_call
        # class -> {entry_name -> validated plain function}; _invoke calls
        # fn(obj, *args) without re-running getattr + @entry checks per
        # message.  Nested (not (class, name)-keyed): the per-message
        # lookup is then two pointer-hash probes with no tuple allocation.
        self._entry_cache: Dict[type, Dict[str, Callable]] = {}
        # int(seed) downstream would truncate 1.5 and parse "7".
        seed = need_int("seed", seed, None)
        self.rng = RngStream(seed, "kernel")
        self.seed = seed
        # Built and dropped: an unknown name fails here, not when the first
        # PE materialises inside run().
        make_strategy(queueing)
        self.queueing = queueing
        # Both become engine delays: NaN ends the run at time nan, a
        # negative one fails inside the engine many events later.
        need_real("qd_interval", qd_interval, strict=False)
        need_real("lazy_interval", lazy_interval, strict=False)
        self.qd_interval = qd_interval
        self.lazy_interval = lazy_interval
        # Runtime collective tree: binomial on hypercubes (every tree edge is
        # one physical hop), binary rank tree elsewhere; override for the A1
        # ablation.
        self.tree = make_tree(spanning_tree, machine.num_pes,
                              machine.topology.name)
        # Sparse startup is a property of the machine.  When on, the init
        # broadcast is skipped (replication is modeled free), PEs are born
        # ungated, and span() hands every collective (quiescence waves,
        # accumulator collects, monotonic floods, BOC and write-once
        # broadcasts, reports) the *touched* ranks instead of all P — the
        # O(active) regime that makes P=10⁵–10⁶ machines practical.
        self.sparse = machine.sparse
        self._all_ranks = Span(range(machine.num_pes), self.tree)
        # The PE plane materializes a PEState on first delivery; untouched
        # ranks cost nothing.
        self.pes: PEPlane = PEPlane(
            machine.num_pes, queueing, gated=not self.sparse
        )

        # Fault injection (repro.faults) parses its own FaultConfig; None
        # keeps the fault-free fast path (one `is None` check per hook).
        self.faults = None if faults is None else FaultLayer(faults)
        # The observer slot every hook site tests (repro.trace.events parses
        # both keywords): the recorder, telemetry, or the pair of them; None
        # keeps the unobserved fast path.  What it hears is resolved once:
        # `trace` is the slot when it takes every message and decision (a
        # full trace); a seed-following summary names the chare classes
        # whose seeds it follows (_follows) and the entries whose sends it
        # takes (_finals).  Uids key only a full trace's chains and the
        # fault layer's ack/retry/dedup tables.
        self.events, self.telemetry, self._events, hears = make_recorder(
            trace_events, telemetry)
        self.trace = self._events if hears == "all" else None
        self._finals = self._events.finals if hears == "seeds" else None
        self._follows = self._events.follows if hears == "seeds" else None
        self._stamp = self.trace is not None or self.faults is not None
        # A summary hears no execution (the kernel stamps the notes of the
        # seeds it follows instead); telemetry beside it hears them all.
        self._every_exec = hears != "seeds" or self.telemetry is not None
        # Network-load accounting: sum over messages of hop count — the
        # link-occupancy metric the topology-aware collectives reduce (A1).
        self.total_message_hops = 0

        # Chare classes already vetted by api_create (skips two issubclass
        # walks per creation).
        self._validated_chare_classes: set = set()
        # class -> True when its instances retire as their constructor
        # returns: a class that declares no @entry method can never be sent
        # a message, so nothing can reach the object again (the 1991
        # programs end such chares with ChareExit).  Filled by api_create
        # and _bootstrap, so every seed's class is here before it runs.
        self._retires: Dict[type, bool] = {}
        # Object tables -----------------------------------------------------
        # Both hold addressable chares only (O(live), not O(ever created)):
        # a gid in placement but not in chares is a seed not yet built (its
        # PE is None until the balancer settles).  A seed of a class that
        # retires is in neither, nor is the chare it builds outside its
        # constructor; so a gid below _next_gid in neither was retired,
        # destroyed, or is of an entry-less class (see _no_chare).
        self.chares: Dict[int, Chare] = {}
        self.placement: Dict[int, Optional[int]] = {}
        self._next_gid = 0
        # gid -> [(envelope, trace_parent)] sends buffered against a seed
        # still being balanced, built (and sized) at the call with no
        # dst_pe yet; trace_parent is the sending execution's event id
        # (None when tracing is off), restored around the flush in _place.
        self._pending_sends: Dict[
            int, List[Tuple[Envelope, Optional[int]]]] = {}
        self._premature: Dict[int, List[Envelope]] = {}

        # Services ------------------------------------------------------------
        self.services: Dict[str, Service] = {}
        self.sharing = SharingService()
        self.qd = QuiescenceService()
        self.balancer = make_balancer(balancer)
        for svc in (self.sharing, self.qd, self.balancer):
            svc.bind(self)
            self.services[svc.name] = svc
        if self.faults is not None:
            self.faults.bind(self, self._arrive_cb)
        if self.telemetry is not None:
            self.telemetry.bind(self)
        # Balancer hooks run once per arrival: bound once, and asked only
        # what the bound balancer says it hears (Balancer.hears: which
        # loads; forwards_seeds: whether arriving seeds).
        self._note_load = self.balancer.note_load
        self._on_seed_arrival = self.balancer.on_seed_arrival
        self._lb_hears = self.balancer.hears
        self._lb_forwards = self.balancer.forwards_seeds

        # Run state ------------------------------------------------------------
        self._current: Optional[ExecContext] = None
        # Entry executions never nest (message-driven, non-preemptive), so
        # one ExecContext is reset and reused per execution instead of
        # allocating a context + outbox list per message.
        self._ctx = ExecContext(0, 0.0)
        #: Virtual time at which the last *counted* (application) message
        #: finished executing — the true end of useful work, used to measure
        #: quiescence-detection latency (experiment T9).
        self.last_counted_exec_time = 0.0
        self._exited = False
        self._exit_requested = False
        self._exit_result: Any = None
        self._final_time: Optional[float] = None
        # True while the main chare's constructor runs: the sharing service
        # accepts read-only values and declarations only then.
        self.in_main_ctor = False
        self.main_handle: Optional[ChareHandle] = None

    # ====================================================================== run
    @property
    def num_pes(self) -> int:
        return self.machine.num_pes

    @property
    def now(self) -> float:
        return self.engine.now

    def span(self) -> Span:
        """The ranks a collective starting now runs over, as a tree.

        Every rank over the machine's own tree — or, under sparse startup,
        a snapshot of the ranks touched so far under a same-shape tree of
        that size.  PE 0 is always touched (bootstrap), so the root holds.
        """
        if self.sparse:
            ranks = self.pes.ranks()
            return Span(ranks, type(self.tree)(len(ranks)))
        return self._all_ranks

    def run(
        self,
        main_cls: type,
        *args: Any,
        max_events: Optional[int] = DEFAULT_MAX_EVENTS,
    ) -> RunResult:
        """Execute a program from its main chare to completion.

        Completion is the first of: the main chare calls :meth:`Chare.exit`,
        the event heap drains, or ``max_events`` engine callbacks have fired
        (the run is then flagged ``truncated``; ``None`` sets no budget).
        """
        if self.main_handle is not None:
            raise SchedulingError("a Kernel instance can run only one program")
        if not issubclass(main_cls, Chare):
            raise ConfigurationError(f"{main_cls.__name__} is not a Chare subclass")
        if max_events is not None:
            # Here, not in the drain loop: "10" would fail there as a
            # TypeError, and 2.5 or 0 would pass as a budget.
            max_events = need_int("max_events", max_events, 1)

        t0 = _host_time.perf_counter()
        self.engine.schedule_call(0.0, self._bootstrap, (main_cls, args))
        _, truncated = self.engine.run(max_events)

        from repro.trace.report import TraceReport

        if self._final_time is not None:
            # Advance the clock to the end of the exiting execution so that
            # reports and utilization use the true completion time.
            self.engine.advance_to(self._final_time)
        if self.telemetry is not None:
            # Final scrape at the settled clock (host-side only; the run's
            # virtual schedule is already complete).
            self.telemetry.on_run_end(truncated=truncated)
        return RunResult(
            result=self._exit_result,
            time=self.now,
            events=self.engine.events_fired,
            truncated=truncated,
            host_seconds=_host_time.perf_counter() - t0,
            stats=TraceReport.from_kernel(self),
            kernel=self,
        )

    def close(self) -> None:
        """Let go of everything this kernel holds; it is unusable afterwards.

        The run's object graph is cyclic (the kernel holds its pre-bound
        callbacks, services, chares and the engine whose heap holds those
        callbacks; each of them holds the kernel), so a finished kernel
        that is merely dropped waits for a generation-2 collection.
        Emptying the kernel — plus the two members that can reach
        themselves without it: the engine, whose pending heap entries hold
        bound callbacks, and the fault layer's own callbacks — leaves
        nothing cyclic, and the whole graph is freed by reference count as
        the last outside reference goes.

        Idempotent.  :meth:`run` never calls it (``RunResult.kernel`` stays
        live for whoever ran the program); a caller that has projected what
        it needs from the run does — see
        :func:`repro.bench.harness.run_descriptor`.
        """
        state = vars(self)
        if not state:
            return
        self.engine.clear()
        if self.faults is not None:
            self.faults.close()
        state.clear()

    def _bootstrap(self, payload: tuple) -> None:
        """Construct the main chare on PE 0 and open the startup gates."""
        main_cls, args = payload
        gid = self._alloc_gid()
        handle = ChareHandle(gid)
        self.main_handle = handle
        retires = self._retires[main_cls] = not declares_entry(main_cls)
        if not retires:
            self.placement[gid] = 0
        env = Envelope.make_seed(0, 0, args, handle, main_cls, fixed=True,
                                 counted=False)
        self.in_main_ctor = True
        pe = self.pes[0]
        pe.busy = True
        self._execute(pe, env)
        self.in_main_ctor = False
        if self.sparse:
            # Sparse startup: no init broadcast (an O(P) message wave is
            # exactly what this mode exists to avoid).  Replication is
            # modeled free — PEs materialize ungated, and read-only vars /
            # declarations are host-shared as always.
            return
        # Distribute init (read-only vars + declarations) down the rank tree.
        # Gates open as it arrives; PE 0's opens via a local message.
        self.sharing.broadcast_init()

    # ============================================================== gid / utils
    def _alloc_gid(self) -> int:
        gid = self._next_gid
        self._next_gid += 1
        return gid

    @property
    def current(self) -> ExecContext:
        if self._current is None:
            raise SchedulingError(
                "chare API used outside an entry-method execution"
            )
        return self._current

    # ================================================================= delivery
    def _deliver(self, env: Envelope, departure: float) -> None:
        """Hand an envelope to the network; schedule its arrival."""
        src_pe = env.src_pe
        src = self.pes[src_pe]
        if self._lb_hears is not None:
            # Stamped for note_load alone.  PEState.load, inlined (the
            # property descriptor costs a Python call per message).
            env.carried_load = (src._app_queued + 1 if src.busy
                                else src._app_queued)
        src.msgs_sent += 1
        nbytes = env.nbytes
        src.bytes_sent += nbytes
        events = self._events
        faults = self.faults
        if events is not None or faults is not None:
            if self._stamp and env.uid is None:
                env.uid = self._next_uid
                self._next_uid += 1
            finals = self._finals
            if finals is not None:
                # A summary: a seed of a class it follows gets its note at
                # its first leg (later legs carry it), a final reports its
                # send; nothing else reaches the recorder.
                if env.kind == _SEED:
                    if (env.note is None
                            and env.chare_cls.__name__ in self._follows):
                        note = env.note = SeedNote()
                        note.origin = events.ctx
                        note.sent = departure
                        note.arrived = note.dur = None
                elif env.entry in finals:
                    events.msg_send(departure, env)
            elif self.trace is not None:
                events.msg_send(departure, env)
        if env.counted and not env.suppress_sent_count:
            src.counted_sent += 1
        dst_pe = env.dst_pe
        if src_pe == dst_pe:
            # Local fast path: zero hops and a fixed enqueue latency — skip
            # the topology/hop accounting and the contention machinery
            # (Machine.transit_time returns local_alpha unconditionally for
            # src == dst, so virtual time is unchanged).
            if faults is None:
                self._schedule_call(
                    departure + self._local_alpha, self._arrive_cb, env
                )
            else:
                faults.transmit(env, departure, departure + self._local_alpha)
            return
        self.total_message_hops += self._hops(src_pe, dst_pe)
        transit = self._transit_time(src_pe, dst_pe, nbytes, departure)
        if faults is None:
            self._schedule_call(departure + transit, self._arrive_cb, env)
        else:
            faults.transmit(env, departure, departure + transit)

    def _arrive(self, env: Envelope) -> None:
        """An envelope reached its destination PE's pool."""
        dst_pe = env.dst_pe
        pe = self.pes[dst_pe]
        src_pe = env.src_pe
        events = self._events
        if events is not None:
            if self.trace is not None:
                events.msg_deliver(self.engine.now, env)
            elif env.note is not None:
                env.note.arrived = self.engine.now
        hears = self._lb_hears
        if hears is not None and (src_pe != dst_pe or hears == "all"):
            self._note_load(dst_pe, src_pe, env.carried_load)
        if self._lb_forwards and env.kind == _SEED and not env.fixed:
            fwd = self._on_seed_arrival(dst_pe, env)
            if fwd is not None and fwd != dst_pe:
                pe.seeds_forwarded_in += 1
                leg = env.forwarded(fwd)
                trace = self.trace
                if trace is None:
                    # The seed keeps its note: a summary follows the seed
                    # from the execution that created it, not the leg.
                    leg.note = env.note
                    self._deliver(leg, self.now + self.params.recv_overhead)
                    return
                # Chain the forwarding leg through an explicit LB decision
                # event parented on this delivery, so multi-hop seeds stay
                # one causal chain (each leg gets a fresh uid).
                decision = trace.record(
                    "lb", self.engine.now, dst_pe, name="forward",
                    uid=env.uid, parent=trace.deliver_parent(env.uid),
                    info={"to": fwd, "hops": env.hops + 1},
                )
                saved = trace.ctx
                trace.ctx = decision
                self._deliver(leg, self.now + self.params.recv_overhead)
                trace.ctx = saved
                return
            # NOTE: placement is recorded at *construction*, not here, so a
            # work-stealing balancer may still extract the queued seed.
        if not pe.busy and not pe.gated and pe._queued == 0:
            # Idle-PE fast path: the envelope would be enqueued and popped
            # right back by _finish; execute it directly.  Only for
            # kinds that are servable on the spot (a seed always is; an APP
            # message only if its target already exists) — everything else
            # takes the full selection loop.  The high-water mark still
            # counts the momentary queue depth of 1.
            kind = env.kind
            if kind == _SEED or (
                kind == _APP and env.handle.gid in self.chares
            ) or kind == _SVC:
                if pe.max_queued == 0:
                    pe.max_queued = 1
                pe.busy = True
                self._execute(pe, env)
                return
        pe.enqueue(env)
        if not pe.busy:
            # An idle PE drains exactly as one whose execution just ended.
            self._finish(pe)

    def _place(self, gid: int, pe: int) -> None:
        """Fix a chare's location; flush sends buffered against its handle."""
        self.placement[gid] = pe
        pending = self._pending_sends.pop(gid, None)
        if pending:
            events = self._events
            for out, parent in pending:
                out.dst_pe = pe
                if events is None:
                    self._deliver(out, self.now)
                else:
                    # The flush runs inside the *constructing* execution;
                    # re-parent each send on the execution that buffered it.
                    saved = events.ctx
                    events.ctx = parent
                    self._deliver(out, self.now)
                    events.ctx = saved

    # ================================================================ scheduler
    def _select(self, pe: PEState) -> Optional[Envelope]:
        """Pick the next servable envelope, or None when the PE drains.

        Holds premature APP messages until their target exists (and has
        the sharing service hold BOC ones until their branch does) and,
        when the PE has truly run dry, tells the balancer.
        """
        while True:
            env = pe.next_envelope()
            if env is None:
                if (
                    not pe.gated
                    and not pe.has_work()
                    and not pe.idle_notified
                ):
                    pe.idle_notified = True
                    self.balancer.on_idle(pe.index)
                return None
            kind = env.kind
            if kind == _APP:
                gid = env.handle.gid
                if gid in self.chares:
                    return env
                if gid not in self.placement:
                    raise self._no_chare(f"message {env.entry!r}", env.handle)
                # Arrived before its target was constructed; hold until then.
                self._premature.setdefault(gid, []).append(env)
                continue
            if kind == _BOC and self.sharing.hold(env):
                continue
            return env

    def _execute(self, pe: PEState, env: Envelope) -> None:
        """Run one entry method; occupy the PE; emit its sends.

        Always ends by scheduling the execution's one :meth:`_finish`
        completion event (or, for the exiting execution, by requesting the
        engine to stop).
        """
        kind = env.kind
        ctx = self._ctx
        start = ctx.start = self.engine.now
        ctx.pe = pe.index
        ctx.charged = 0.0
        ctx.priority = env.priority
        outbox = ctx.outbox
        outbox.clear()
        # busy_until still holds the previous execution's end: the window
        # since then is this PE's idle gap (tracked always — one compare —
        # for the TraceReport largest_idle_gap aggregate).
        prev_end = pe.busy_until
        if start > prev_end and start - prev_end > pe.largest_idle_gap:
            pe.largest_idle_gap = start - prev_end
        events = self._events
        if events is not None:
            note = env.note
            if note is not None:
                # A seed a summary follows: its note is stamped here and
                # is the recorder's cursor while the seed runs.
                note.start = start
                events.ctx = note
            if self._every_exec:
                # Recorded before the body so sends made during it (outbox,
                # buffered flushes, service traffic) parent on this
                # execution.
                begin_eid = events.exec_begin(start, pe.index, env, prev_end)
            elif note is None:
                events = None   # a summary alone: nothing it follows
        self._current = ctx
        try:
            # The two per-message kinds are handled inline; SVC/BOC (and
            # the unknown-kind error) go through the _dispatch router.
            if kind == _APP:
                chare = self.chares.get(env.handle.gid)
                if chare is None:
                    raise RoutingError(f"message to unknown chare {env.handle}")
                fns = self._entry_cache.get(type(chare))
                fn = None if fns is None else fns.get(env.entry)
                if fn is not None:
                    fn(chare, *env.args)
                else:
                    self._invoke(chare, env.entry, env.args)
            elif kind == _SEED:
                handle = env.handle
                gid = handle.gid
                cls = env.chare_cls
                # A seed of a class that retires was given no address, so
                # nothing can have been buffered against it.
                retires = self._retires[cls]
                if not retires:
                    placement = self.placement
                    if placement.get(gid) is None:
                        placement[gid] = pe.index
                        if gid in self._pending_sends:
                            self._place(gid, pe.index)
                obj = cls.__new__(cls)
                obj._kernel = self
                obj._handle = handle
                obj._pe = pe.index
                chares = self.chares
                chares[gid] = obj
                obj.__init__(*env.args)
                if retires:
                    chares.pop(gid, None)   # unless already destroy()ed
                if self._premature:
                    # Anything that raced ahead of construction is now
                    # runnable (transit already paid).
                    for held in self._premature.pop(gid, ()):
                        pe.enqueue(held)
            else:
                self._dispatch(env)
        finally:
            self._current = None
        base = self._overhead_base
        wut = self._work_unit_time
        charged = ctx.charged
        if wut is not None:
            duration = base + charged * wut
        else:
            duration = base + self.machine.compute_time(charged, pe.index)
        faults = self.faults
        if faults is not None:
            duration = faults.perturb_execution(pe.index, start, duration)
        pe.busy_time += duration
        pe.charged_units += charged
        if kind == _APP or kind == _BOC:
            pe.msgs_executed += 1
            pe.idle_notified = False
        elif kind == _SEED:
            pe.seeds_executed += 1
            pe.idle_notified = False
        else:
            pe.system_executed += 1
        if env.counted:
            pe.counted_processed += 1
            self.last_counted_exec_time = start + duration
        if events is not None and note is not None:
            note.dur = duration  # before the flush: a final finds it whole
        if outbox:
            for charged_at_send, out in outbox:
                if wut is not None:
                    offset = base + charged_at_send * wut
                else:
                    offset = base + self.machine.compute_time(
                        charged_at_send, pe.index
                    )
                self._deliver(out, start + min(offset, duration))
            outbox.clear()
        pe.busy_until = busy_until = start + duration
        if events is not None:
            if self._every_exec:
                # After the outbox flush so the sends fall inside this
                # execution's causal window; exit-flagged ends anchor the
                # critical-path walk.
                events.exec_end(busy_until, pe.index, env, duration,
                                begin_eid, self._exit_requested)
            if note is not None:
                events.ctx = None
        if self._exit_requested and not self._exited:
            self._exited = True
            self._final_time = busy_until
            self.engine.request_stop()
            return
        self._schedule_call(busy_until, self._finish_cb, pe)

    def _dispatch(self, env: Envelope) -> None:
        """Route a SVC or BOC envelope to its handler.

        APP and SEED envelopes never reach here: :meth:`_execute` handles
        both inline.
        """
        kind = env.kind
        if kind == _SVC:
            self.services[env.service].handle(env.dst_pe, env.entry, env.args)
        elif kind == _BOC:
            self._invoke(self.sharing.branch(env), env.entry, env.args)
        else:  # pragma: no cover - exhaustive
            raise RoutingError(f"unknown envelope kind {env.kind}")

    def _invoke(self, obj: Chare, entry_name: str, args: tuple) -> None:
        cls = type(obj)
        fns = self._entry_cache.get(cls)
        fn = None if fns is None else fns.get(entry_name)
        if fn is None:
            fn = getattr(cls, entry_name, None)
            if not isinstance(fn, _FunctionType) or not is_entry(fn):
                # Rare/legacy shapes (instance-level attributes, missing or
                # unmarked entries): resolve on the instance for the exact
                # historical error behavior, and don't cache.
                method = getattr(obj, entry_name, None)
                if method is None:
                    raise RoutingError(
                        f"{cls.__name__} has no entry {entry_name!r}"
                    )
                if not is_entry(method):
                    raise RoutingError(
                        f"{cls.__name__}.{entry_name} is not marked @entry"
                    )
                method(*args)
                return
            if fns is None:
                fns = self._entry_cache[cls] = {}
            fns[entry_name] = fn
        fn(obj, *args)

    def _finish(self, pe: PEState) -> None:
        """The PE is idle — its execution completed, or an arrival found it
        idle but not servable on the spot: serve its next message."""
        pe.busy = False
        if self._exited:
            return
        env = self._select(pe)
        if env is None:
            return
        pe.busy = True
        self._execute(pe, env)

    # ================================================================== chare API
    def api_charge(self, units: float) -> None:
        # need_real's rule (finite, >= 0, not a bool) as one chained
        # comparison, since charge is the hottest chare call: NaN and +inf
        # fail it, and need_real then words the error.
        try:
            ok = 0.0 <= units < _INF and type(units) is not bool
        except TypeError:       # not a number
            ok = False
        if not ok:
            need_real("work_units", units, strict=False)
        ctx = self._current
        if ctx is None:
            raise SchedulingError(
                "chare API used outside an entry-method execution"
            )
        ctx.charged += units

    def api_send(
        self,
        target: ChareHandle,
        entry_name: str,
        args: tuple,
        priority: PriorityLike,
    ) -> None:
        # self.current, inlined: send/charge/create are the hot chare APIs
        # and the property descriptor costs a call frame per use.
        ctx = self._current
        if ctx is None:
            raise SchedulingError(
                "chare API used outside an entry-method execution"
            )
        dst = self.placement.get(target.gid, _MISSING)
        if dst is _MISSING:
            raise self._no_chare("send", target)
        env = Envelope.make_app(ctx.pe, dst, entry_name, args, target,
                                check_priority(priority))
        if dst is None:
            # Seed still being balanced: buffer; flushed (and counted) at
            # placement time.  Quiescence stays safe meanwhile because the
            # seed itself is in flight (sent > processed).
            self._buffer(target, env)
            return
        ctx.outbox.append((ctx.charged, env))

    def api_send_at(
        self,
        target: ChareHandle,
        entry_name: str,
        args: tuple,
        when: float,
        priority: PriorityLike,
    ) -> None:
        """Timed send: the message departs at virtual time ``when``.

        The open-loop workloads (:mod:`repro.apps.serving`) use this to
        schedule *future* self-messages — a load generator's next arrival
        tick — without a kernel timer subsystem.  Unlike :meth:`api_send`,
        the envelope bypasses the outbox (whose departure is stamped from
        charged work at execution end) and goes straight to
        :meth:`_deliver` with ``departure = max(when, execution start)``,
        so accounting, tracing, fault injection and quiescence counting all
        see a perfectly ordinary message.  The target must already be
        placed (the pending-seed buffer has no timestamp slot); in practice
        timed sends target ``self`` or the main chare.
        """
        ctx = self._current
        if ctx is None:
            raise SchedulingError(
                "chare API used outside an entry-method execution"
            )
        dst = self.placement.get(target.gid, _MISSING)
        if dst is _MISSING:
            raise self._no_chare("timed send", target)
        if dst is None:
            raise RoutingError(
                f"timed send to {target} before placement; send_at targets "
                "must already be placed (self, main, or a fixed-PE chare)"
            )
        # need_real's rule (finite, >= 0, not a bool): a NaN would depart
        # at the current time, +inf end the run there.  A float is checked
        # in line (every request of a serving run is one timed send); any
        # other type takes need_real's numbers.Real test and its message.
        if not (type(when) is float and 0.0 <= when < _INF):
            need_real("when", when, strict=False)
        env = Envelope.make_app(ctx.pe, dst, entry_name, args, target,
                                check_priority(priority))
        now = self.engine.now
        self._deliver(env, when if when > now else now)

    def api_create(
        self,
        chare_cls: type,
        args: tuple,
        pe: Optional[int],
        priority: PriorityLike,
    ) -> ChareHandle:
        if chare_cls not in self._validated_chare_classes:
            if not issubclass(chare_cls, Chare):
                raise ConfigurationError(
                    f"{chare_cls.__name__} is not a Chare subclass"
                )
            if issubclass(chare_cls, BranchOfficeChare):
                raise ConfigurationError("use create_boc for branch-office chares")
            self._validated_chare_classes.add(chare_cls)
            self._retires[chare_cls] = not declares_entry(chare_cls)
        ctx = self._current
        if ctx is None:
            raise SchedulingError(
                "chare API used outside an entry-method execution"
            )
        gid = self._next_gid        # _alloc_gid, inlined (one per create)
        self._next_gid = gid + 1
        handle = mint_chare_handle(gid)
        src = ctx.pe
        self.pes[src].seeds_created += 1
        priority = check_priority(priority)
        # A class that retires gets no placement record: nothing can
        # address its chare, so a send to this handle fails at the call.
        addressable = not self._retires[chare_cls]
        if pe is not None:
            pe = need_int("pe", pe, None)
            if not 0 <= pe < self.num_pes:
                raise RoutingError(f"create on invalid PE {pe}")
            if addressable:
                self.placement[gid] = pe
            env = Envelope.make_seed(src, pe, args, handle, chare_cls,
                                     fixed=True, priority=priority)
        else:
            if addressable:
                self.placement[gid] = None
            target = self.balancer.on_new_seed(src, chare_cls)
            trace = self.trace
            if trace is not None and target != src:
                trace.record(
                    "lb", self.engine.now, src, name="place",
                    parent=trace.ctx,
                    info={"to": target, "chare": chare_cls.__name__},
                )
            env = Envelope.make_seed(src, target, args, handle, chare_cls,
                                     priority=priority)
        ctx.outbox.append((ctx.charged, env))
        return handle

    def api_destroy(self, handle: ChareHandle) -> None:
        """Destroy a chare (it must live on the calling PE).

        Mirrors C++ ``delete this`` / deleting a co-located object in the
        paper's model: destruction is immediate and local, and the kernel
        keeps nothing of the chare; any later send to it, or message that
        reaches it, is a program error (:meth:`_no_chare`).
        """
        ctx = self.current
        gid = handle.gid
        obj = self.chares.get(gid)
        if obj is None:
            raise RoutingError(f"destroy of unknown or unbuilt chare {handle}")
        if obj._pe != ctx.pe:
            raise RoutingError(
                f"destroy of {handle} must run on its home PE {obj._pe}, "
                f"not PE {ctx.pe}"
            )
        del self.chares[gid]
        # A chare of a class that retires has no placement record.
        self.placement.pop(gid, None)

    def api_exit(self, result: Any) -> None:
        # The run ends when the *exiting execution* completes, so the final
        # virtual time includes the work charged by the exiting entry.
        self._exit_requested = True
        self._exit_result = result

    def _no_chare(self, what: str, handle: ChareHandle) -> RoutingError:
        """The error for ``what`` addressed to a gid with no placement.

        The kernel keeps no record of dead or unaddressable chares: a gid
        it has allocated (``0 <= gid < _next_gid``) but does not place was
        destroyed, retired, or is of a class that declares no entry method
        (its seed was never given an address); any other gid was never
        allocated by this kernel.
        """
        if 0 <= handle.gid < self._next_gid:
            return RoutingError(
                f"{what} to chare {handle}: destroyed, retired, or its class "
                "declares no entry method")
        return RoutingError(f"{what} to unknown handle {handle}")

    # ------------------------------------------------------------------- send
    def post(self, env: Envelope) -> None:
        """Send ``env`` from its source PE: onto the outbox of the execution
        running there (departing at the work it has charged so far), else
        to the network now.  Services send every message through here."""
        ctx = self._current
        if ctx is not None and ctx.pe == env.src_pe:
            ctx.outbox.append((ctx.charged, env))
        else:
            self._deliver(env, self.engine.now)

    #: :meth:`_deliver` under its public name, for a service that sends
    #: past the outbox at a departure of its own (a token balancer migrates
    #: a queued seed now).  An alias, not a wrapper: no extra frame.
    deliver = _deliver

    # ------------------------------------------------------------------ app send
    def send_app_from_service(
        self,
        src_pe: int,
        target: ChareHandle,
        entry_name: str,
        args: tuple,
    ) -> None:
        """Service helper: deliver an application message to a chare handle.

        A table reply, the quiescence callback or a reduction result:
        buffered only while its target is an addressable seed still in
        flight; an unknown, dead or entry-less target raises, naming the
        handle.
        """
        dst = self.placement.get(target.gid, _MISSING)
        if dst is _MISSING:
            raise self._no_chare(f"service reply {entry_name!r}", target)
        env = Envelope.make_app(src_pe, dst, entry_name, args, target)
        if dst is None:
            self._buffer(target, env)
        else:
            self.post(env)

    def _buffer(self, target: ChareHandle, env: Envelope) -> None:
        """Hold ``env`` (built with ``dst_pe=None``) until ``target``'s seed
        is placed; :meth:`_place` fills in ``dst_pe`` and sends it."""
        events = self._events
        self._pending_sends.setdefault(target.gid, []).append(
            (env, None if events is None else events.ctx))
