"""Discrete-event simulation engine.

The engine is deliberately tiny and generic: a binary heap of timestamped
callbacks with deterministic tie-breaking.  Everything Charm-specific lives
above it in :mod:`repro.core`.

:mod:`repro.sim.backend` provides :class:`HeapBackend`, the engine the
kernel runs on, and the standalone timestamp-cohort :class:`BatchBackend`.
"""

from repro.sim.backend import (
    BACKENDS,
    BatchBackend,
    BatchEvent,
    HeapBackend,
    make_backend,
)
from repro.sim.engine import Engine, Event

__all__ = [
    "Engine",
    "Event",
    "BACKENDS",
    "BatchBackend",
    "BatchEvent",
    "HeapBackend",
    "make_backend",
]
