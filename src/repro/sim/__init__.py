"""Discrete-event simulation engine.

The engine is deliberately tiny and generic: a binary heap of timestamped
callbacks with deterministic tie-breaking and one drain loop.  Everything
Charm-specific lives above it in :mod:`repro.core`.

:mod:`repro.sim.backend` holds the calendar-queue ``BatchBackend``, which
only the performance ledger's frozen probe builds (via :func:`make_backend`).
"""

from repro.sim.backend import make_backend
from repro.sim.engine import Engine

__all__ = ["Engine", "make_backend"]
