"""Runtime service plumbing.

Load balancing, quiescence detection, and the information-sharing
abstractions are *distributed* algorithms: they have per-PE state and they
communicate with real (simulated, cost-bearing) messages.  A
:class:`Service` is the runtime-internal analogue of a branch-office chare:
it registers a name, and envelopes of kind ``SVC`` addressed to that name
are dispatched to :meth:`Service.handle` on the destination PE, inside a
normal execution context (so service handlers can charge work and send
further messages).

A :class:`TreeService` also owns the spanning-tree collective layer its
protocols share: one fan-out, one fold and one keyed span table.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.core.messages import Envelope
from repro.core.tree import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel

__all__ = ["Service", "TreeService"]


class Service(ABC):
    """A named, per-PE-stateful runtime subsystem driven by SVC messages."""

    #: Unique service name used to route SVC envelopes.
    name: str = "abstract"

    def __init__(self) -> None:
        self.kernel: "Kernel" = None  # type: ignore[assignment]

    def bind(self, kernel: "Kernel") -> None:
        """Attach to a kernel; allocate per-PE state here."""
        self.kernel = kernel

    @abstractmethod
    def handle(self, pe: int, op: str, args: Tuple[Any, ...]) -> None:
        """Process one SVC message delivered to this service on ``pe``."""

    # Convenience: send an op to this same service on another PE.
    def send(
        self,
        src_pe: int,
        dst_pe: int,
        op: str,
        args: Tuple[Any, ...] = (),
        counted: bool = False,
    ) -> None:
        # System lane on arrival.
        self.kernel.post(Envelope.make_svc(src_pe, dst_pe, op, args,
                                           self.name, counted))


class TreeService(Service):
    """A service whose protocols are collectives over a :class:`Span`.

    Quiescence waves, the init, write-once and BOC broadcasts, accumulator
    collects and BOC reductions and barriers all run on this one layer:

    * :meth:`fan_out` passes a message on from a rank to its children;
    * :meth:`fold` folds contributions up the span, one partial per
      ``(*key, pe)`` in :attr:`partials`, and returns the total at the root;
    * :attr:`spans` maps each collective's key to its span.
      :meth:`span_of` takes it at the key's first use and keeps it, so when
      a span is taken (as a wave starts, as a request reaches the root) is
      each protocol's own rule, and so is when its key is dropped.
    """

    def bind(self, kernel: "Kernel") -> None:
        super().bind(kernel)
        self.spans: Dict[Any, Span] = {}
        self.partials: Dict[tuple, list] = {}

    def span_of(self, key: Any) -> Span:
        """The span of collective ``key``: ``kernel.span()`` at first use."""
        span = self.spans.get(key)
        if span is None:
            span = self.spans[key] = self.kernel.span()
        return span

    def fan_out(self, pe: int, span: Any, op: str, args: Tuple[Any, ...],
                counted: bool = False) -> None:
        """Send ``op(args)`` from ``pe`` to each of its children in ``span``
        (a :class:`Span`, or the machine's tree for the init broadcast)."""
        post, name = self.kernel.post, self.name
        for child in span.children(pe):
            post(Envelope.make_svc(pe, child, op, args, name, counted))

    def fold(self, key: tuple, pe: int, value: tuple, span: Span,
             merge: Callable[[tuple, tuple], tuple], up: str,
             counted: bool = False) -> Optional[tuple]:
        """Fold one contribution into ``pe``'s partial of collective ``key``.

        A partial wants ``pe``'s own contribution and one per span child,
        combined as ``merge(partial, value)`` in arrival order.  Once
        complete it goes to the span parent as ``up(*key, *total)``, or, at
        the root, is returned: None means the root has not completed.
        """
        partials = self.partials
        k = key + (pe,)
        st = partials.get(k)
        if st is None:
            st = partials[k] = [value, 1 + len(span.children(pe))]
        else:
            st[0] = merge(st[0], value)
        st[1] -= 1
        if st[1]:
            return None
        del partials[k]
        parent = span.parent(pe)
        if parent is None:
            return st[0]
        self.send(pe, parent, up, key + st[0], counted)
        return None
