"""The object table: which chares exist, and where each one is.

A chare's handle exists from its seed's creation, before the balancer has
chosen the PE that builds it, so the runtime keeps a gid → PE table and
holds sends to a seed until it is placed.  :class:`ObjectTable` is that
table and both its buffers; the :class:`~repro.core.kernel.Kernel` builds
one per run, asks it where every send's target is, and still constructs
each chare and dispatches to it itself.

Invariant: only addressable chares and their seeds still in flight have
records (a class that declares no ``@entry`` method can never be sent a
message, so neither its seeds nor its chares get one), and both buffers
are empty at quiescence.  So a gid below ``next_gid`` with no record was
destroyed, retired, or never addressable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chare import BranchOfficeChare, Chare, declares_entry
from repro.core.handles import BocHandle, ChareHandle, mint_chare_handle
from repro.core.messages import Envelope
from repro.util.errors import ConfigurationError, RoutingError

__all__ = ["ObjectTable"]

# placement.get default: a gid with no record (never allocated, or dead).
_MISSING = object()


class ObjectTable:
    """One run's chares, where they are, and the sends held for them.

    ``chares``: gid → chare; ``placement``: gid → PE, None while the seed
    is balanced; ``retires``: vetted class → whether its chares retire at
    constructor return.  The kernel reads what it binds; only the table
    writes.
    """

    def __init__(self, engine: Any, deliver: Callable[[Envelope, float], None],
                 events: Any) -> None:
        self.chares: Dict[int, Chare] = {}
        self.placement: Dict[int, Optional[int]] = {}
        self.retires: Dict[type, bool] = {}
        self.next_gid = 0
        # gid -> [(envelope, trace_parent)]: sends to a seed still being
        # balanced, built and sized at the call; trace_parent (the sending
        # execution's event id) is restored around the flush.
        self.pending: Dict[int, List[Tuple[Envelope, Any]]] = {}
        # gid -> APP envelopes that reached the target's PE before it was
        # built; released to that PE's pool by built().
        self.premature: Dict[int, List[Envelope]] = {}
        self._engine = engine
        self._deliver = deliver
        self._events = events

    # ------------------------------------------------------------ creation
    def vet(self, cls: Any, what: str) -> bool:
        """Admit ``cls`` (``what`` names it in the error); return whether
        its chares retire: with no ``@entry`` method nothing can reach one
        again (the 1991 programs end such chares with ChareExit)."""
        if not (isinstance(cls, type) and issubclass(cls, Chare)):
            name = cls.__name__ if isinstance(cls, type) else repr(cls)
            raise ConfigurationError(
                f"{what} must be a Chare subclass, not {name}")
        if issubclass(cls, BranchOfficeChare):
            raise ConfigurationError(
                f"{what} {cls.__name__} is a branch-office chare: use "
                "create_boc for branch-office chares")
        self.retires[cls] = retires = not declares_entry(cls)
        return retires

    def mint(self, cls: Any, pe: Optional[int]) -> ChareHandle:
        """The handle of a new chare of ``cls`` whose seed goes to ``pe``
        (None: the balancer routes it); recorded only if addressable."""
        try:
            retires = self.retires[cls]
        except (KeyError, TypeError):
            retires = self.vet(cls, "chare_cls")
        gid = self.next_gid
        self.next_gid = gid + 1
        if not retires:
            self.placement[gid] = pe
        return mint_chare_handle(gid)

    def enter(self, obj: Chare, gid: int, pe: int) -> bool:
        """Record ``obj`` as chare ``gid``, about to be built on ``pe``;
        place its seed and send what was held for it.  Returns whether
        the chare retires when its constructor returns."""
        self.chares[gid] = obj
        if self.retires[type(obj)]:
            return True
        placement = self.placement
        if placement.get(gid) is None:
            placement[gid] = pe
            if gid in self.pending:
                self._flush(gid, pe)
        return False

    def built(self, gid: int, retires: bool) -> List[Envelope] | tuple:
        """Chare ``gid``'s constructor returned: drop it if it retires,
        else hand back the messages that arrived before it existed."""
        if retires:
            self.chares.pop(gid, None)      # unless already destroy()ed
            return ()
        premature = self.premature
        return premature.pop(gid, ()) if premature else ()

    def destroy(self, handle: Any, pe: int) -> None:
        """Forget chare ``handle``, which must live on ``pe``."""
        try:
            gid = handle.gid
        except AttributeError:
            raise self._no_chare("destroy", handle) from None
        obj = self.chares.get(gid)
        if obj is None:
            raise RoutingError(f"destroy of unknown or unbuilt chare {handle}")
        if obj._pe != pe:
            raise RoutingError(
                f"destroy of {handle} must run on its home PE {obj._pe}, "
                f"not PE {pe}")
        del self.chares[gid]
        # A chare of a class that retires has no placement record.
        self.placement.pop(gid, None)

    # -------------------------------------------------------------- routing
    def resolve(self, target: Any, what: str) -> Optional[int]:
        """``target``'s PE, or None while its seed is balanced (the caller
        holds the send); raises, naming ``what``, if no chare has it."""
        try:
            dst = self.placement.get(target.gid, _MISSING)
        except AttributeError:      # not a handle: no isinstance per send
            dst = _MISSING
        if dst is _MISSING:
            raise self._no_chare(what, target)
        return dst

    def hold(self, env: Envelope) -> None:
        """Hold ``env`` (``dst_pe=None``) until :meth:`enter` places its
        target; quiescence is safe meanwhile, the seed being in flight."""
        events = self._events
        self.pending.setdefault(env.handle.gid, []).append(
            (env, None if events is None else events.ctx))

    def park(self, env: Envelope) -> None:
        """Hold an APP envelope that reached its target's PE before the
        target was built (transit already paid)."""
        gid = env.handle.gid
        if gid not in self.placement:
            raise self._no_chare(f"message {env.entry!r}", env.handle)
        self.premature.setdefault(gid, []).append(env)

    def _flush(self, gid: int, pe: int) -> None:
        """Send what was held for ``gid``, now placed on ``pe``."""
        now = self._engine.now
        events = self._events
        for out, parent in self.pending.pop(gid):
            out.dst_pe = pe
            if events is None:
                self._deliver(out, now)
            else:
                # The flush runs inside the *constructing* execution;
                # re-parent each send on the execution that held it.
                saved = events.ctx
                events.ctx = parent
                self._deliver(out, now)
                events.ctx = saved

    def _no_chare(self, what: str, target: Any) -> RoutingError:
        """The error for ``what`` addressed to ``target``, which has no
        record: dead or entry-less below ``next_gid``, never handed out
        above it, or not a chare handle at all."""
        if isinstance(target, BocHandle):
            return RoutingError(
                f"{what}: {target} is a branch-office chare handle; use "
                "send_branch or broadcast_branches")
        if not isinstance(target, ChareHandle):
            return RoutingError(f"{what}: {target!r} is not a ChareHandle")
        if 0 <= target.gid < self.next_gid:
            return RoutingError(
                f"{what} to chare {target}: destroyed, retired, or its class "
                "declares no entry method")
        return RoutingError(f"{what} to unknown handle {target}")
