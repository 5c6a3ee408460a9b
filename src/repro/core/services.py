"""Runtime service plumbing.

Load balancing, quiescence detection, and the information-sharing
abstractions are *distributed* algorithms: they have per-PE state and they
communicate with real (simulated, cost-bearing) messages.  A
:class:`Service` is the runtime-internal analogue of a branch-office chare:
it registers a name, and envelopes of kind ``SVC`` addressed to that name
are dispatched to :meth:`Service.handle` on the destination PE, inside a
normal execution context (so service handlers can charge work and send
further messages).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Tuple, TYPE_CHECKING

from repro.core.messages import Envelope

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.kernel import Kernel

__all__ = ["Service"]


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
