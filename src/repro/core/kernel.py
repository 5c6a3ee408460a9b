"""The Chare Kernel runtime.

:class:`Kernel` binds a simulated :class:`~repro.machine.network.Machine`
to the programming model: it owns the event engine, the per-PE schedulers
and the chare/BOC tables, and it schedules, places and routes every
message.  Beside it sit the runtime services it binds and routes service
messages to: the load balancer, the quiescence detector and the sharing
service, which owns every sharing mode (read-only, write-once,
accumulators, monotonic variables, tables, BOC reductions and barriers).
:class:`~repro.core.chare.Chare` calls the last two directly.  A program
is run with::

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
from collections.abc import Iterable
from dataclasses import dataclass, field
from types import FunctionType as _FunctionType
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chare import BranchOfficeChare, Chare, declares_entry, is_entry
from repro.core.handles import BocHandle, ChareHandle, mint_chare_handle
from repro.core.messages import Envelope, Kind
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


class ExecContext:
    """State of one in-progress entry-method execution."""

    __slots__ = ("pe", "start", "charged", "outbox", "system", "priority")

    def __init__(self, pe: int, start: float, system: bool) -> None:
        self.pe = pe
        self.start = start
        self.charged = 0.0
        # Priority of the seed or message being served (Chare.my_priority).
        self.priority: PriorityLike = None
        # (charged_units_at_send, envelope) pairs; offsets resolved at end.
        self.outbox: List[Tuple[float, Envelope]] = []
        self.system = system


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
    """One runnable instance of the Chare Kernel on a simulated machine."""

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
        from repro.balance.base import Balancer
        from repro.sharing.manager import SharingService
        from repro.quiescence.detector import QuiescenceService

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
        # is the topology's closed form where one exists (no O(P²) memo).
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
        # Structured event tracing (repro.trace.events): accepts True/"all",
        # a string or iterable of event kinds, or a pre-built recorder (an
        # EventLog, a LatencyFold: anything with the hook surface).
        if trace_events is None or hasattr(trace_events, "msg_send"):
            self.events = trace_events
        elif trace_events is True or isinstance(trace_events, Iterable):
            from repro.trace.events import EventLog

            self.events = EventLog(kinds=trace_events)
        else:
            raise ConfigurationError(
                "trace_events must be a recorder, True, or event kinds, "
                f"not {type(trace_events).__name__}")

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

        # Fault injection (repro.faults): accepts a FaultConfig or an
        # already-built FaultLayer; None keeps the fault-free fast path
        # (the hooks below cost one `is None` check per message each).
        if faults is None:
            self.faults = None
        else:
            from repro.faults import FaultConfig, FaultLayer

            if isinstance(faults, FaultConfig):
                faults = FaultLayer(faults)
            elif not isinstance(faults, FaultLayer):
                raise ConfigurationError(
                    "faults must be a FaultConfig or FaultLayer, "
                    f"not {type(faults).__name__}"
                )
            faults.bind(self)
            self.faults = faults
        self._faults = self.faults
        # Online telemetry (repro.obs): a Telemetry plane.  It aggregates at
        # execution granularity and scrapes the PEState counters, so
        # schedules are unperturbed.
        if telemetry is None:
            self.telemetry = None
        else:
            from repro.obs import Telemetry

            if not isinstance(telemetry, Telemetry):
                raise ConfigurationError(
                    "telemetry must be a Telemetry, "
                    f"not {type(telemetry).__name__}"
                )
            telemetry.bind(self)
            self.telemetry = telemetry
        # The one observer slot every hook site tests: the recorder,
        # telemetry, or the pair of them; None keeps the unobserved fast
        # path (one `is None` check per site, as for the fault layer).
        if self.telemetry is None:
            self._events = self.events
        elif self.events is None:
            self._events = self.telemetry
        else:
            from repro.trace.events import RecorderPair

            self._events = RecorderPair(self.events, self.telemetry)
        # Quiescence accounting lives on the PEStates (counted_sent /
        # counted_processed slots), not here.
        # Network-load accounting: sum over messages of hop count — the
        # link-occupancy metric the topology-aware collectives reduce (A1).
        self.total_message_hops = 0

        # Chare classes already vetted by api_create (skips two issubclass
        # walks per creation).
        self._validated_chare_classes: set = set()
        # class -> True when its instances retire as their constructor
        # returns: a class that declares no @entry method can never be sent
        # a message, so nothing can reach the object again (the 1991
        # programs end such chares with ChareExit).
        self._retires: Dict[type, bool] = {}
        # Object tables -----------------------------------------------------
        # Both hold live chares only (O(live), not O(ever created)): a gid
        # in placement but not in chares is a seed not yet built (its PE is
        # None until the balancer settles); a gid below _next_gid in
        # neither was retired or destroyed (see _no_chare).
        self.chares: Dict[int, Chare] = {}
        self.placement: Dict[int, Optional[int]] = {}
        self._next_gid = 0
        # gid -> [(src_pe, entry, args, priority, trace_parent)] buffered
        # sends; trace_parent is the sending execution's event id (None
        # when tracing is off), restored around the flush in _place.
        self._pending_sends: Dict[
            int, List[Tuple[int, str, tuple, PriorityLike, Optional[int]]],
        ] = {}
        self._premature: Dict[int, List[Envelope]] = {}

        self.bocs: Dict[int, Dict[int, BranchOfficeChare]] = {}
        # boc_id -> the write-once span of ranks its branches live on, taken
        # at the BOC's first collective (its create reaching the tree root);
        # every later broadcast/reduction for that BOC walks it.
        self.boc_spans: Dict[int, Span] = {}
        self._next_boc = 0
        self._boc_premature: Dict[Tuple[int, int], List[Envelope]] = {}

        # Services ------------------------------------------------------------
        self.services: Dict[str, Service] = {}
        self.sharing = SharingService()
        self.qd = QuiescenceService()
        if isinstance(balancer, str):
            self.balancer = make_balancer(balancer)
        else:
            self.balancer = balancer
        for svc in (self.sharing, self.qd, self.balancer):
            svc.bind(self)
            self.services[svc.name] = svc
        # Balancer hooks run once per arrival; bind them once, and detect
        # un-overridden base hooks so _arrive can skip provably-no-op calls:
        # the base note_load ignores self-loads (observer == subject) and the
        # base on_seed_arrival always keeps the seed.  Subclassed hooks are
        # always called.
        self._note_load = self.balancer.note_load
        self._on_seed_arrival = self.balancer.on_seed_arrival
        balancer_cls = type(self.balancer)
        self._note_load_is_base = (
            balancer_cls.note_load is Balancer.note_load
        )
        self._seed_hook_is_base = (
            balancer_cls.on_seed_arrival is Balancer.on_seed_arrival
        )
        # _arrive calls note_load either always (overridden hook) or only
        # for cross-PE messages whose strategy actually reads the ``known``
        # table the base hook maintains; stateless strategies skip the
        # table write entirely (one dict store per remote message).
        self._note_always = not self._note_load_is_base
        self._note_cross = (
            self._note_load_is_base and balancer_cls.uses_known_table
        )
        # Envelope.carried_load has no other reader: stamp it only then.
        self._carry_load = self._note_always or self._note_cross

        # Run state ------------------------------------------------------------
        self._current: Optional[ExecContext] = None
        # Entry executions never nest (message-driven, non-preemptive), so
        # one ExecContext is reset and reused per execution instead of
        # allocating a context + outbox list per message.
        self._ctx = ExecContext(0, 0.0, False)
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

    def boc_span(self, boc_id: int) -> Span:
        """A BOC's write-once span, taken at its first collective."""
        span = self.boc_spans.get(boc_id)
        if span is None:
            span = self.boc_spans[boc_id] = self.span()
        return span

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
        self.placement[gid] = 0
        env = Envelope(
            kind=Kind.SEED,
            src_pe=0,
            dst_pe=0,
            entry="__init__",
            args=args,
            handle=handle,
            chare_cls=main_cls,
            fixed=True,
            counted=False,
        )
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
        if self._carry_load:
            # PEState.load, inlined (the property descriptor costs a Python
            # call per message).
            env.carried_load = (src._app_queued + 1 if src.busy
                                else src._app_queued)
        src.msgs_sent += 1
        nbytes = env._size
        if nbytes is None:      # dataclass-built (cold path): size lazily
            nbytes = env.nbytes
        src.bytes_sent += nbytes
        events = self._events
        faults = self._faults
        if events is not None or faults is not None:
            # uids key the recorders' causal chains and the fault layer's
            # ack/retry/dedup tables; an unobserved, fault-free run has no
            # reader and stamps none.
            if env.uid is None:
                env.uid = self._next_uid
                self._next_uid += 1
            if events is not None:
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
            events.msg_deliver(self.engine._now, env)
        if self._note_always or (self._note_cross and src_pe != dst_pe):
            # Base note_load ignores self-loads (skipped when not
            # overridden) and only feeds the ``known`` table (skipped when
            # the strategy never reads it).
            self._note_load(dst_pe, src_pe, env.carried_load)
        if env.kind == _SEED and not env.fixed and not self._seed_hook_is_base:
            fwd = self._on_seed_arrival(dst_pe, env)
            if fwd is not None and fwd != dst_pe:
                pe.seeds_forwarded_in += 1
                if events is None:
                    self._deliver(env.forwarded(fwd),
                                  self.now + self.params.recv_overhead)
                    return
                # Chain the forwarding leg through an explicit LB decision
                # event parented on this delivery, so multi-hop seeds stay
                # one causal chain (each leg gets a fresh uid).
                decision = events.record(
                    "lb", self.engine._now, dst_pe, name="forward",
                    uid=env.uid, parent=events.deliver_parent(env.uid),
                    info={"to": fwd, "hops": env.hops + 1},
                )
                saved = events.ctx
                events.ctx = decision
                self._deliver(env.forwarded(fwd),
                              self.now + self.params.recv_overhead)
                events.ctx = saved
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
            ) or env.system or kind == _SVC:
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
            for src_pe, entry_name, args, priority, parent in pending:
                out = Envelope(
                    kind=Kind.APP,
                    src_pe=src_pe,
                    dst_pe=pe,
                    entry=entry_name,
                    args=args,
                    handle=ChareHandle(gid),
                    priority=priority,
                )
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

        Holds premature APP/BOC messages until their target exists and,
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
            if kind == _BOC and env.dst_pe not in self.bocs.get(
                env.boc.boc_id, {}
            ):
                self._boc_premature.setdefault(
                    (env.boc.boc_id, env.dst_pe), []
                ).append(env)
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
        start = ctx.start = self.engine._now
        ctx.pe = pe.index
        ctx.charged = 0.0
        ctx.system = env.system or kind == _SVC
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
            # Recorded before the body so sends made during it (outbox,
            # buffered flushes, service traffic) parent on this execution.
            begin_eid = events.exec_begin(start, pe.index, env, prev_end)
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
                placement = self.placement
                if placement.get(gid) is None:
                    placement[gid] = pe.index
                    if gid in self._pending_sends:
                        self._place(gid, pe.index)
                cls = env.chare_cls
                obj = cls.__new__(cls)
                obj._kernel = self
                obj._handle = handle
                obj._pe = pe.index
                chares = self.chares
                chares[gid] = obj
                obj.__init__(*env.args)
                retires = self._retires.get(cls)
                if retires is None:
                    retires = self._retires[cls] = not declares_entry(cls)
                if retires and gid in chares:   # not already destroy()ed
                    del chares[gid]
                    del placement[gid]
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
        faults = self._faults
        if faults is not None:
            duration = faults.perturb_execution(pe.index, start, duration)
        pe.busy_time += duration
        pe.charged_units += charged
        if kind == _APP and not env.system:
            pe.msgs_executed += 1
            pe.idle_notified = False
        elif kind == _SVC or env.system:
            pe.system_executed += 1
        elif kind == _SEED:
            pe.seeds_executed += 1
            pe.idle_notified = False
        else:
            pe.msgs_executed += 1
            pe.idle_notified = False
        if env.counted:
            pe.counted_processed += 1
            self.last_counted_exec_time = start + duration
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
            # After the outbox flush so the sends fall inside this
            # execution's causal window; exit-flagged ends anchor the
            # critical-path walk.
            events.exec_end(busy_until, pe.index, env, duration, begin_eid,
                            self._exit_requested)
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
            branch = self.bocs[env.boc.boc_id].get(env.dst_pe)
            if branch is None:
                raise RoutingError(
                    f"message to missing branch {env.boc} on PE {env.dst_pe}"
                )
            self._invoke(branch, env.entry, env.args)
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
        if units < 0:
            raise ConfigurationError("cannot charge negative work")
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
        priority = check_priority(priority)
        if dst is None:
            # Seed still being balanced: buffer; flushed (and counted) at
            # placement time.  Quiescence stays safe meanwhile because the
            # seed itself is in flight (sent > processed).
            events = self._events
            self._pending_sends.setdefault(target.gid, []).append(
                (ctx.pe, entry_name, args, priority,
                 None if events is None else events.ctx)
            )
            return
        env = Envelope.make_app(ctx.pe, dst, entry_name, args, target,
                                priority)
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
        priority = check_priority(priority)
        env = Envelope.make_app(ctx.pe, dst, entry_name, args, target,
                                priority)
        now = self.engine._now
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
        if pe is not None:
            pe = need_int("pe", pe, None)
            if not 0 <= pe < self.num_pes:
                raise RoutingError(f"create on invalid PE {pe}")
            self.placement[gid] = pe
            env = Envelope.make_seed(src, pe, args, handle, chare_cls,
                                     fixed=True, priority=priority)
        else:
            self.placement[gid] = None
            target = self.balancer.on_new_seed(src, chare_cls)
            events = self._events
            if events is not None and target != src:
                events.record(
                    "lb", self.engine._now, src, name="place",
                    parent=events.ctx,
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
        del self.placement[gid]

    def api_exit(self, result: Any) -> None:
        # The run ends when the *exiting execution* completes, so the final
        # virtual time includes the work charged by the exiting entry.
        self._exit_requested = True
        self._exit_result = result

    # ----------------------------------------------------------------- BOC API
    def api_create_boc(self, boc_cls: type, args: tuple) -> BocHandle:
        if not issubclass(boc_cls, BranchOfficeChare):
            raise ConfigurationError(
                f"{boc_cls.__name__} is not a BranchOfficeChare subclass"
            )
        ctx = self.current
        boc_id = self._next_boc
        self._next_boc += 1
        self.bocs[boc_id] = {}
        # Replicate via the spanning tree: construction cost is real messages.
        self.svc_send(
            "share", ctx.pe, 0, "boc_create", (boc_id, boc_cls, args), counted=True
        )
        return BocHandle(boc_id)

    def construct_branch(
        self, boc_id: int, boc_cls: type, args: tuple, pe: int
    ) -> None:
        """Instantiate one branch (called by the sharing service handler)."""
        obj = boc_cls.__new__(boc_cls)
        obj._kernel = self
        obj._handle = ChareHandle(-1 - boc_id)  # branches are not chare-addressable
        obj._pe = pe
        obj._boc = BocHandle(boc_id)
        self.bocs[boc_id][pe] = obj
        obj.__init__(*args)
        for held in self._boc_premature.pop((boc_id, pe), ()):
            self.pes[pe].enqueue(held)

    def api_send_branch(
        self,
        boc: BocHandle,
        pe: int,
        entry_name: str,
        args: tuple,
        priority: PriorityLike,
    ) -> None:
        ctx = self.current
        pe = need_int("pe", pe, None)
        if not 0 <= pe < self.num_pes:
            raise RoutingError(f"branch send to invalid PE {pe}")
        span = self.boc_spans.get(boc.boc_id)
        if span is not None and pe not in span:
            # Branches materialize on the ranks of the BOC's write-once
            # span (under sparse startup, those touched at creation); a
            # send outside it would wait forever for a branch that will
            # never be constructed, so fail it loudly instead.
            raise RoutingError(
                f"branch send to PE {pe}: {boc} spans "
                f"{len(span)} touched ranks and PE {pe} is not one "
                "(sparse BOCs cover the ranks active at creation)"
            )
        priority = check_priority(priority)
        env = Envelope(
            kind=Kind.BOC,
            src_pe=ctx.pe,
            dst_pe=pe,
            entry=entry_name,
            args=args,
            boc=boc,
            priority=priority,
        )
        ctx.outbox.append((ctx.charged, env))

    def api_boc_broadcast(self, boc: BocHandle, entry_name: str, args: tuple) -> None:
        ctx = self.current
        self.svc_send(
            "share",
            ctx.pe,
            0,
            "boc_bcast",
            (boc.boc_id, entry_name, args),
            counted=True,
        )

    def api_local_branch(self, boc: BocHandle) -> BranchOfficeChare:
        ctx = self.current
        branch = self.bocs.get(boc.boc_id, {}).get(ctx.pe)
        if branch is None:
            raise RoutingError(
                f"no local branch of {boc} on PE {ctx.pe} (not yet constructed?)"
            )
        return branch

    def deliver_local_boc(
        self, boc_id: int, pe: int, entry_name: str, args: tuple
    ) -> None:
        """Queue a local BOC invocation (used by broadcast fan-out)."""
        env = Envelope(
            kind=Kind.BOC,
            src_pe=pe,
            dst_pe=pe,
            entry=entry_name,
            args=args,
            boc=BocHandle(boc_id),
        )
        ctx = self.current
        ctx.outbox.append((ctx.charged, env))

    def _no_chare(self, what: str, handle: ChareHandle) -> RoutingError:
        """The error for ``what`` addressed to a gid with no placement.

        The kernel keeps no record of dead chares: a gid it has allocated
        (``0 <= gid < _next_gid``) but no longer places was retired or
        destroyed; any other gid was never allocated by this kernel.
        """
        if 0 <= handle.gid < self._next_gid:
            return RoutingError(f"{what} to destroyed chare {handle}")
        return RoutingError(f"{what} to unknown handle {handle}")

    # ------------------------------------------------------------- service send
    def svc_send(
        self,
        service: str,
        src_pe: int,
        dst_pe: int,
        op: str,
        args: tuple,
        counted: bool = False,
    ) -> None:
        """Send a runtime-service message (system lane on arrival)."""
        env = Envelope.make_svc(src_pe, dst_pe, op, args, service, counted)
        ctx = self._current
        if ctx is not None and ctx.pe == src_pe:
            ctx.outbox.append((ctx.charged, env))
        else:
            self._deliver(env, self.now)

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
        buffered only while its target is a seed still in flight; an
        unknown or dead target raises, naming the handle.
        """
        dst = self.placement.get(target.gid, _MISSING)
        if dst is _MISSING:
            raise self._no_chare(f"service reply {entry_name!r}", target)
        if dst is None:
            events = self._events
            self._pending_sends.setdefault(target.gid, []).append(
                (src_pe, entry_name, args, None,
                 None if events is None else events.ctx)
            )
            return
        env = Envelope(
            kind=Kind.APP,
            src_pe=src_pe,
            dst_pe=dst,
            entry=entry_name,
            args=args,
            handle=target,
        )
        ctx = self._current
        if ctx is not None and ctx.pe == src_pe:
            ctx.outbox.append((ctx.charged, env))
        else:
            self._deliver(env, self.now)
