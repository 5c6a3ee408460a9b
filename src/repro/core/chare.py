"""Chare base classes and the ``@entry`` marker.

Programs are written as subclasses of :class:`Chare` (dynamically created,
medium-grain concurrent objects) and :class:`BranchOfficeChare` (one branch
per PE; the paper's mechanism for distributed services).  The Python
``__init__`` plays the role of the chare's constructor entry point: it runs
on the PE where the load balancer places the seed, inside a normal
execution context, so it may charge work and send messages.

Entry methods are marked with :func:`entry`::

    class Worker(Chare):
        def __init__(self, parent, node):
            self.parent = parent
            ...

        @entry
        def expand(self, depth):
            self.charge(120)
            self.send(self.parent, "result", depth)

All chare API calls (``send``, ``create``, ``charge`` …) are only legal
while the runtime is executing one of the chare's entries — they delegate
to the kernel's current execution context, or, for the sharing modes and
quiescence detection, straight to the kernel's sharing service
(:mod:`repro.sharing.manager`) and quiescence detector.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.core.handles import BocHandle, ChareHandle
from repro.util.errors import RoutingError
from repro.util.priority import PriorityLike

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel

__all__ = ["entry", "Chare", "BranchOfficeChare"]


def entry(fn: Callable) -> Callable:
    """Mark a method as a remotely invocable entry point."""
    fn._charm_entry = True  # type: ignore[attr-defined]
    return fn


def is_entry(fn: Callable) -> bool:
    return bool(getattr(fn, "_charm_entry", False))


def declares_entry(cls: type) -> bool:
    """Whether ``cls`` (or a base) has any attribute marked :func:`entry`."""
    for name in dir(cls):
        if getattr(getattr(cls, name, None), "_charm_entry", False):
            return True
    return False


class Chare:
    """Base class for concurrent objects.

    Instances are never constructed directly by user code — use
    :meth:`create` from inside another chare (or pass the class to
    :meth:`repro.core.kernel.Kernel.run` as the main chare).
    """

    # Bound by the kernel before __init__ runs.
    _kernel: "Kernel"
    _handle: ChareHandle
    _pe: int

    # -------------------------------------------------------------- identity
    @property
    def thishandle(self) -> ChareHandle:
        """This chare's own handle (embed it in messages so peers can reply)."""
        return self._handle

    @property
    def my_pe(self) -> int:
        """The PE this chare lives on."""
        return self._pe

    @property
    def num_pes(self) -> int:
        return self._kernel.num_pes

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self._kernel.now

    @property
    def my_priority(self) -> PriorityLike:
        """Priority of the seed or message this execution is serving.

        The ``priority=`` its sender passed to :meth:`create` or
        :meth:`send`, as it was at that call (``None`` when unprioritised;
        a tuple or list of bits comes back as the equal
        :class:`~repro.util.priority.BitVectorPriority` the send stored),
        so a branch-and-bound child reads the bound its parent already
        computed instead of evaluating it again.
        """
        kernel = self._kernel
        # kernel.current, inlined (one frame per read); it raises when unset.
        ctx = kernel._current or kernel.current
        return ctx.priority

    @property
    def mainhandle(self) -> ChareHandle:
        """Handle of the main chare."""
        return self._kernel.main_handle

    @property
    def local_load(self) -> int:
        """Instantaneous queued-app-work metric of this chare's PE.

        The same load figure the balancers piggyback on messages (queued
        application work plus one while executing); admission controllers
        use it to shed requests when the local queue is already deep.
        """
        return self._kernel.pes[self._pe].load

    # -------------------------------------------------------------- compute
    def charge(self, work_units: float) -> None:
        """Account ``work_units`` of CPU work to the current entry execution."""
        self._kernel.api_charge(work_units)

    # ------------------------------------------------------------ messaging
    def send(
        self,
        target: ChareHandle,
        entry_name: str,
        *args: Any,
        priority: PriorityLike = None,
    ) -> None:
        """Asynchronously invoke ``entry_name(*args)`` on the chare ``target``."""
        self._kernel.api_send(target, entry_name, args, priority)

    def send_at(
        self,
        when: float,
        target: ChareHandle,
        entry_name: str,
        *args: Any,
        priority: PriorityLike = None,
    ) -> None:
        """Send a message that departs at virtual time ``when``.

        The timed analogue of :meth:`send`, for open-loop sources that must
        schedule their *next* event in the future (e.g. the serving
        workload's arrival ticks).  ``when`` earlier than the current
        execution's start is clamped; delivery then follows the normal
        transit model.  The target must already be placed — in practice use
        ``self.thishandle`` or ``self.mainhandle``.
        """
        self._kernel.api_send_at(target, entry_name, args, when, priority)

    def create(
        self,
        chare_cls: type,
        *args: Any,
        pe: Optional[int] = None,
        priority: PriorityLike = None,
    ) -> ChareHandle:
        """Create a new chare (a *seed*).

        With ``pe=None`` the seed is routed by the load-balancing strategy;
        with an explicit ``pe`` placement is fixed (static decomposition).
        Returns the new chare's handle immediately; messages sent to it
        before placement are buffered by the runtime.
        """
        return self._kernel.api_create(chare_cls, args, pe=pe, priority=priority)

    def create_boc(self, boc_cls: type, *args: Any) -> BocHandle:
        """Create a branch-office chare with one branch on every PE."""
        return self._kernel.api_create_boc(boc_cls, args)

    def send_branch(
        self,
        boc: BocHandle,
        pe: int,
        entry_name: str,
        *args: Any,
        priority: PriorityLike = None,
    ) -> None:
        """Invoke an entry on the branch of ``boc`` living on ``pe``."""
        self._kernel.api_send_branch(boc, pe, entry_name, args, priority)

    def broadcast_branches(
        self, boc: BocHandle, entry_name: str, *args: Any
    ) -> None:
        """Invoke an entry on **every** branch of ``boc`` (spanning tree)."""
        self._kernel.api_boc_broadcast(boc, entry_name, args)

    def local_branch(self, boc: BocHandle) -> "BranchOfficeChare":
        """Direct (same-PE) reference to the local branch of ``boc``.

        This is Charm's ``BranchCall``: zero-message access to the branch
        co-located with the caller.
        """
        return self._kernel.api_local_branch(boc)

    def destroy(self, target: Optional[ChareHandle] = None) -> None:
        """Destroy a chare — by default, this one (``delete this``).

        Destruction is immediate and local (the target must live on the
        calling PE), and the kernel forgets the chare; a later send to it
        raises at the send call, and a message already in flight raises
        when it reaches the dead chare's PE
        (:class:`~repro.util.errors.RoutingError`), matching the paper's
        destructor semantics.
        """
        self._kernel.api_destroy(target if target is not None else self._handle)

    # ----------------------------------------------------------- termination
    def exit(self, result: Any = None) -> None:
        """End the whole computation; ``result`` becomes the run's result."""
        self._kernel.api_exit(result)

    def start_quiescence(self, target: ChareHandle, entry_name: str) -> None:
        """Ask for ``entry_name()`` on ``target`` once the system quiesces."""
        kernel = self._kernel
        kernel.qd.start(target, entry_name, kernel.current.pe)

    # ------------------------------------------------- information sharing
    def new_accumulator(
        self, name: str, initial: Any = 0, op: str | Callable[[Any, Any], Any] = "sum"
    ) -> None:
        """Declare an accumulator (main-chare constructor only).

        ``op`` must be commutative and associative (``"sum"``, ``"max"``,
        ``"min"``, ``"prod"``, or a callable); partials accumulate locally
        on each PE with **zero messages** until collected.
        """
        self._kernel.sharing.declare_accumulator(name, initial, op)

    def new_monotonic(
        self,
        name: str,
        initial: Any,
        better: str | Callable[[Any, Any], bool] = "min",
        propagation: str = "eager",
    ) -> None:
        """Declare a monotonic variable (main-chare constructor only).

        ``better(new, old) -> bool`` (or ``"min"``/``"max"``) defines the
        improvement order.  ``propagation`` ∈ {``"eager"``, ``"lazy"``,
        ``"off"``} controls how updates spread between PEs (experiment T7).
        """
        self._kernel.sharing.declare_monotonic(name, initial, better,
                                               propagation)

    def new_table(self, name: str) -> None:
        """Declare a distributed table (main-chare constructor only)."""
        self._kernel.sharing.declare_table(name)

    def set_readonly(self, name: str, value: Any) -> None:
        """Define a read-only variable (main-chare constructor only)."""
        self._kernel.sharing.set_readonly(name, value)

    def readonly(self, name: str) -> Any:
        """Read a read-only variable (available on every PE)."""
        return self._kernel.sharing.readonly(name, self._pe)

    def write_once(self, name: str, value: Any) -> None:
        """Create a write-once variable; it replicates to every PE."""
        kernel = self._kernel
        kernel.sharing.write_once(name, value, kernel.current.pe)

    def get_writeonce(self, name: str) -> Any:
        """Read a write-once variable (raises if not yet replicated here)."""
        return self._kernel.sharing.get_writeonce(name, self._pe)

    def accumulate(self, name: str, value: Any) -> None:
        """Fold ``value`` into accumulator ``name`` (purely local; no messages)."""
        self._kernel.sharing.accumulate(name, value, self._pe)

    def collect_accumulator(
        self, name: str, target: ChareHandle, entry_name: str
    ) -> None:
        """Combine all PEs' partials of ``name``; deliver total to ``target``."""
        kernel = self._kernel
        kernel.sharing.collect_accumulator(name, target, entry_name,
                                           kernel.current.pe)

    def update_monotonic(self, name: str, value: Any) -> None:
        """Offer a new value to monotonic variable ``name``."""
        self._kernel.sharing.update_monotonic(name, value, self._pe)

    def read_monotonic(self, name: str) -> Any:
        """This PE's current view of monotonic variable ``name``."""
        return self._kernel.sharing.read_monotonic(name, self._pe)

    def table_insert(
        self,
        table: str,
        key: Any,
        value: Any,
        reply_to: Optional[ChareHandle] = None,
        reply_entry: str = "",
    ) -> None:
        """Insert into a distributed table (hash-partitioned across PEs)."""
        kernel = self._kernel
        kernel.sharing.table_insert(table, key, value, reply_to, reply_entry,
                                    kernel.current.pe)

    def table_find(
        self, table: str, key: Any, reply_to: ChareHandle, reply_entry: str
    ) -> None:
        """Look up ``key``; the reply entry receives ``(key, value_or_None)``."""
        kernel = self._kernel
        kernel.sharing.table_find(table, key, reply_to, reply_entry,
                                  kernel.current.pe)

    def table_delete(self, table: str, key: Any) -> None:
        """Delete ``key`` from a distributed table (no-op if absent)."""
        kernel = self._kernel
        kernel.sharing.table_delete(table, key, kernel.current.pe)

    def __repr__(self) -> str:
        h = getattr(self, "_handle", None)
        return f"<{type(self).__name__} {h} on PE {getattr(self, '_pe', '?')}>"


class BranchOfficeChare(Chare):
    """A chare with one branch per PE (the paper's BOC).

    The constructor runs once *per branch*, on that branch's PE.  Branches
    of the same BOC coordinate with :meth:`broadcast`, :meth:`send_branch`
    (inherited, passing ``self.bochandle``), and tree :meth:`contribute`
    reductions.
    """

    _boc: BocHandle

    @property
    def bochandle(self) -> BocHandle:
        return self._boc

    def broadcast(self, entry_name: str, *args: Any) -> None:
        """Invoke ``entry_name`` on every branch of this BOC."""
        self._kernel.api_boc_broadcast(self._boc, entry_name, args)

    def send_peer(
        self, pe: int, entry_name: str, *args: Any, priority: PriorityLike = None
    ) -> None:
        """Invoke an entry on this BOC's branch on another PE."""
        self._kernel.api_send_branch(self._boc, pe, entry_name, args, priority)

    def contribute(
        self,
        tag: str,
        value: Any,
        op: str | Callable[[Any, Any], Any] = "sum",
        target: Optional[ChareHandle] = None,
        entry_name: str = "",
    ) -> None:
        """Join a tree reduction over all branches.

        Every branch must contribute exactly once per ``tag`` (a second
        contribution raises :class:`~repro.util.errors.SharingError`); the
        combined result is delivered as ``entry_name(tag, result)`` to
        ``target`` (which every contributor must name identically).
        """
        if target is None:
            raise RoutingError("contribute() requires a target handle")
        kernel = self._kernel
        kernel.sharing.contribute(self._boc, tag, value, op, target,
                                  entry_name, kernel.current.pe)

    def barrier(self, tag: str, entry_name: str) -> None:
        """Synchronize all branches: once every branch has called
        ``barrier(tag, entry)``, each branch's ``entry_name(tag, count)``
        runs (the ``fft->barrier()`` pattern from the paper)."""
        kernel = self._kernel
        kernel.sharing.contribute(self._boc, tag, 1, "sum", None, entry_name,
                                  kernel.current.pe, "barrier")
