"""Message envelopes.

Every interaction in the Chare Kernel is a message.  The runtime uses one
envelope type with a ``kind`` discriminator:

* ``APP``  — message to an existing chare's entry method,
* ``SEED`` — a new-chare creation request, routed by the load balancer,
* ``BOC``  — message to one branch of a branch-office chare,
* ``SVC``  — internal runtime service traffic (quiescence waves, load
  balance control, sharing-abstraction ops).

``counted`` says whether the quiescence detector includes the message in
its sent/processed accounting: application-visible traffic is counted,
runtime control traffic (QD waves, load-balancer control) is not, matching
the paper's system design where quiescence means "no user computation and
no user messages in flight".

Envelopes are the most-allocated object in the simulator, so the dataclass
is ``slots=True``, the factories size the payload when the envelope is
built (a payload is marshalled when it is sent; mutating it afterwards
does not change what the network is charged), and ``uid`` is *not* drawn
from a module-global counter at construction — the owning kernel assigns
uids at first delivery from its own sequence (and only when a recorder,
telemetry or a fault layer will read them), so uid values are
reproducible run-to-run and unaffected by other kernels in the same
process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.handles import BocHandle, ChareHandle
from repro.util.priority import PriorityLike
from repro.util.sizing import payload_nbytes

__all__ = ["Kind", "Envelope", "HEADER_BYTES"]

HEADER_BYTES = 32


class Kind:
    """Envelope kind tags (class-as-namespace; values are small ints)."""

    APP = 0
    SEED = 1
    BOC = 2
    SVC = 3

    NAMES = {APP: "app", SEED: "seed", BOC: "boc", SVC: "svc"}


@dataclass(slots=True)
class Envelope:
    """One message in flight (or queued in a PE's pool)."""

    kind: int
    src_pe: int
    dst_pe: int
    entry: str
    args: Tuple[Any, ...] = ()
    # APP: destination chare; SEED: the handle the new chare will own.
    handle: Optional[ChareHandle] = None
    # SEED: class of the chare to construct, and hops taken so far.
    chare_cls: Optional[type] = None
    hops: int = 0
    # BOC: which branch-office chare.
    boc: Optional[BocHandle] = None
    # SVC: which runtime service ("qd", "share", "lb").
    service: Optional[str] = None
    # The priority as captured at the send (``check_priority``: a tuple or
    # list of bits is already a BitVectorPriority); a prioritized pool
    # normalizes it when it is pushed (FIFO/LIFO pools never look at it).
    priority: PriorityLike = None
    system: bool = False
    counted: bool = True
    # SEED with fixed placement (explicit pe=) — balancer hooks are skipped.
    fixed: bool = False
    # Set on forwarded seed legs so the quiescence counter counts the seed's
    # send exactly once (at creation), however many hops it takes.
    suppress_sent_count: bool = False
    # Piggybacked sender load (application-lane queue length at send time);
    # receivers feed this to the load balancer's neighbor-load table.  Set
    # only when the balancer reads it (0 otherwise).
    carried_load: int = 0
    # Assigned by the owning kernel at first delivery when an observer or a
    # fault layer is attached (the only readers); None otherwise.
    uid: Optional[int] = None
    _size: Optional[int] = field(default=None, repr=False)

    # Envelopes are the most-allocated object in the simulator, and the
    # generated dataclass __init__ (18 parameters, kwargs at every call
    # site) costs ~3x a bare allocation plus direct slot stores.  The
    # kind-specialized factories below and ``forwarded`` (balancers that
    # override ``on_seed_arrival`` forward a fifth of a serving run's
    # messages) are the kernel's hot send paths; cold paths (BOC plumbing)
    # keep the dataclass constructor and the lazy ``nbytes`` property.
    # Every slot is assigned — slots=True means a missed field is an
    # AttributeError, not a silent default — and ``_size`` is filled here,
    # so the flush sites read the slot without a property frame.
    @classmethod
    def make_app(cls, src_pe, dst_pe, entry, args, handle,
                 priority=None) -> "Envelope":
        env = cls.__new__(cls)
        env.kind = Kind.APP
        env.src_pe = src_pe
        env.dst_pe = dst_pe
        env.entry = entry
        env.args = args
        env.handle = handle
        env.chare_cls = None
        env.hops = 0
        env.boc = None
        env.service = None
        env.priority = priority
        env.system = False
        env.counted = True
        env.fixed = False
        env.suppress_sent_count = False
        env.carried_load = 0
        env.uid = None
        env._size = HEADER_BYTES + payload_nbytes(args)
        return env

    @classmethod
    def make_seed(cls, src_pe, dst_pe, args, handle, chare_cls,
                  fixed=False, priority=None) -> "Envelope":
        env = cls.__new__(cls)
        env.kind = Kind.SEED
        env.src_pe = src_pe
        env.dst_pe = dst_pe
        env.entry = "__init__"
        env.args = args
        env.handle = handle
        env.chare_cls = chare_cls
        env.hops = 0
        env.boc = None
        env.service = None
        env.priority = priority
        env.system = False
        env.counted = True
        env.fixed = fixed
        env.suppress_sent_count = False
        env.carried_load = 0
        env.uid = None
        env._size = (HEADER_BYTES + payload_nbytes(args)
                     + len(chare_cls.__name__))
        return env

    @classmethod
    def make_svc(cls, src_pe, dst_pe, op, args, service,
                 counted=False) -> "Envelope":
        env = cls.__new__(cls)
        env.kind = Kind.SVC
        env.src_pe = src_pe
        env.dst_pe = dst_pe
        env.entry = op
        env.args = args
        env.handle = None
        env.chare_cls = None
        env.hops = 0
        env.boc = None
        env.service = service
        env.priority = None
        env.system = True
        env.counted = counted
        env.fixed = False
        env.suppress_sent_count = False
        env.carried_load = 0
        env.uid = None
        env._size = HEADER_BYTES + payload_nbytes(args)
        return env

    @property
    def nbytes(self) -> int:
        """Wire size: header + payload (+ class name for seeds)."""
        if self._size is None:
            size = HEADER_BYTES + payload_nbytes(self.args)
            if self.kind == Kind.SEED and self.chare_cls is not None:
                size += len(self.chare_cls.__name__)
            self._size = size
        return self._size

    def forwarded(self, new_dst: int) -> "Envelope":
        """A copy of a seed envelope re-routed to ``new_dst`` (one more hop).

        The copy's ``uid`` resets to None: the kernel stamps each delivery
        leg with a fresh uid from its own sequence.
        """
        env = Envelope.__new__(Envelope)
        env.kind = self.kind
        env.src_pe = self.dst_pe
        env.dst_pe = new_dst
        env.entry = self.entry
        env.args = self.args
        env.handle = self.handle
        env.chare_cls = self.chare_cls
        env.hops = self.hops + 1
        env.boc = self.boc
        env.service = self.service
        env.priority = self.priority
        env.system = self.system
        env.counted = self.counted
        env.fixed = self.fixed
        env.suppress_sent_count = True
        env.carried_load = self.carried_load
        env.uid = None
        env._size = self._size
        return env

    def kind_name(self) -> str:
        return Kind.NAMES.get(self.kind, "?")

    def __repr__(self) -> str:
        target = (
            self.handle
            if self.kind in (Kind.APP, Kind.SEED)
            else (self.boc if self.kind == Kind.BOC else self.service)
        )
        return (
            f"Envelope({self.kind_name()}, {self.src_pe}->{self.dst_pe}, "
            f"{target}, entry={self.entry!r})"
        )
