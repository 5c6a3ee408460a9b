"""Balancer interface.

A balancer is a runtime :class:`~repro.core.services.Service` with three
hook points called synchronously by the kernel:

* :meth:`on_new_seed` — a seed was just created on ``src_pe``; return the
  PE to send it to (may be ``src_pe`` itself).
* :meth:`on_seed_arrival` — a seed arrived at ``pe``; return a PE to
  forward it to, or ``None`` to keep it (hop counts are on the envelope).
* :meth:`on_idle` — ``pe`` ran out of work; the balancer may send control
  messages (e.g. steal requests).

Load knowledge must come only from :meth:`note_load` (piggybacked sender
load on every delivered message) and from the balancer's own control
traffic — strategies never read other PEs' queues directly, so the
information structure matches a real distributed implementation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.core.messages import Envelope
from repro.core.services import Service

__all__ = ["Balancer"]


class Balancer(Service):
    """Base class: keep-local behavior, piggybacked load table, no control."""

    name = "lb"
    strategy_name = "local"
    # Whether the strategy ever *reads* the piggybacked neighbor-load table
    # (``known`` / ``known_load``).  The base ``note_load`` writes the table
    # on every cross-PE arrival; strategies that never consult it (purely
    # stateless placement) set this False so the kernel can skip the write
    # entirely on the per-message hot path.  Strategies that override
    # ``note_load`` are called regardless of this flag.
    uses_known_table = True

    def bind(self, kernel) -> None:
        super().bind(kernel)
        self.rng = kernel.rng.child("lb")
        # known[observer][subject] = last load value piggybacked to observer.
        # Default-on-touch: observers materialize a row on first use, so a
        # P=10⁶ machine carries only as many rows as there are active PEs.
        self.known: Dict[int, Dict[int, int]] = defaultdict(dict)
        self.seeds_placed_remote = 0
        self.control_msgs = 0

    # ------------------------------------------------------------------- hooks
    def on_new_seed(self, src_pe: int, chare_cls: type) -> int:
        """Choose the first destination for a fresh seed."""
        return src_pe

    def on_seed_arrival(self, pe: int, env: Envelope) -> Optional[int]:
        """Forward an arriving seed (return target PE) or keep it (None)."""
        return None

    def on_idle(self, pe: int) -> None:
        """React to a PE running dry."""

    def note_load(self, observer: int, subject: int, load: int) -> None:
        if observer != subject:
            self.known[observer][subject] = load

    # --------------------------------------------------------------- messaging
    def handle(self, pe: int, op: str, args: tuple) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} received unexpected control op {op!r}"
        )

    # ----------------------------------------------------------------- helpers
    @property
    def traced(self) -> bool:
        """Whether the kernel keeps a full trace: build a decision's
        ``info`` for :meth:`trace_decision` only then."""
        return self.kernel._trace is not None

    def trace_decision(self, pe: int, name: str, info=None) -> None:
        """Record an ``lb`` event on the kernel's full trace (no-op without
        one).

        Strategies call this at their decision points (steal requests,
        donations, probes); placement and seed-forwarding decisions are
        recorded by the kernel itself at its delivery hooks.
        """
        kernel = self.kernel
        trace = kernel._trace
        if trace is not None:
            trace.record("lb", kernel.engine._now, pe, name=name,
                         parent=trace.ctx, info=info)

    def local_load(self, pe: int) -> int:
        """A PE may always inspect its *own* queues."""
        return self.kernel.pes[pe].load

    def known_load(self, observer: int, subject: int, default: int = 0) -> int:
        row = self.known.get(observer)
        return default if row is None else row.get(subject, default)
