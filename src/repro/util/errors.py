"""Exception hierarchy for the Chare Kernel reproduction.

All library errors derive from :class:`CharmError` so callers can catch one
type.  Subclasses mark which subsystem raised.  :func:`need_real`,
:func:`need_interval` and :func:`need_int` are the checks public
constructors share; each raises :class:`ConfigurationError` naming the
field.  ``need_real`` and ``need_int`` both refuse ``bool`` by name: it is
an ``int`` to Python, but ``True`` is never one PE, seed 1 or a
one-second interval.  (``type(value) is bool``, not ``isinstance``:
``bool`` cannot be subclassed, and the test adds no function call to the
paths the performance ledger counts.)
"""

from __future__ import annotations

import math
import operator
from numbers import Real
from typing import Optional


class CharmError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(CharmError):
    """Invalid user-supplied configuration (machine, strategy, app params)."""


class SchedulingError(CharmError):
    """Raised by the DES engine / per-PE scheduler on inconsistent state."""


class TopologyError(CharmError):
    """Invalid topology construction or out-of-range PE index."""


class RoutingError(CharmError):
    """A message could not be routed (bad handle, dead chare, bad PE)."""


class QuiescenceError(CharmError):
    """Quiescence-detection protocol violation (counts went negative, etc.)."""


class SharingError(CharmError):
    """Misuse of an information-sharing abstraction (e.g. double write-once)."""


class FaultError(CharmError):
    """Fault-injection misconfiguration, or the retry safety valve tripped."""


def need_real(what: str, value, low: float = 0.0, *, strict: bool = True) -> None:
    """``value`` must be a finite real above ``low`` (or at it, non-strict).

    Written as what must hold, not as what must not: NaN fails every
    comparison, so ``if value <= 0: raise`` lets it through — and a NaN
    rate, mean or interval reaches the run as a NaN virtual time.
    """
    if type(value) is bool or not (
            isinstance(value, Real) and math.isfinite(value)
            and (value > low if strict else value >= low)):
        raise ConfigurationError(
            f"{what} must be a finite real number "
            f"{'>' if strict else '>='} {low:g}, got {value!r}"
        )


def need_interval(what: str, value) -> float:
    """``value`` as a virtual-time interval: a finite real >= 0, as a float."""
    need_real(what, value, strict=False)
    return float(value)


def need_int(what: str, value, low: Optional[int] = 0) -> int:
    """``value`` as an integer >= ``low`` (``None``: any integer).

    ``operator.index``, not ``int()``: 2.5 must not truncate and "4" must
    not parse.
    """
    if type(value) is bool:
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}"
        ) from None
    if low is not None and value < low:
        raise ConfigurationError(f"{what} must be >= {low}, got {value}")
    return value
