"""Chare and branch-office-chare handles.

A :class:`ChareHandle` is the remote reference apps embed in messages so a
child can reply to its parent, a neighbor can address a neighbor, etc.  It
names a chare by a globally unique id; the runtime maintains the id → PE
mapping once the chare is placed (seeds are placed by the load balancer, so
placement may happen after the handle is minted — the kernel buffers sends
to not-yet-placed handles).

Handles are small immutable values; their wire size is fixed so the network
cost model charges them like the packed ids a compiler would emit.  They
are ``slots=True``: one object per handle, no per-instance ``__dict__``
(every queued seed carries its own handle).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChareHandle", "BocHandle", "mint_chare_handle"]

_HANDLE_WIRE_BYTES = 12


@dataclass(frozen=True, slots=True)
class ChareHandle:
    """Reference to a single chare instance (globally unique ``gid``)."""

    gid: int

    # Constant wire size as a plain class attribute: the payload sizer
    # reads it without allocating a bound method (handles ride in nearly
    # every seed payload).  ``__wire_size__`` stays for any sizer or
    # subclass that still calls it.
    __wire_bytes__ = _HANDLE_WIRE_BYTES

    def __wire_size__(self) -> int:
        return _HANDLE_WIRE_BYTES

    def __repr__(self) -> str:
        return f"ChareHandle({self.gid})"


_NEW = object.__new__
_SET = object.__setattr__


def mint_chare_handle(gid: int) -> ChareHandle:
    """Build a :class:`ChareHandle` without the frozen-dataclass ``__init__``.

    A frozen dataclass assigns fields through ``object.__setattr__`` inside
    a generated ``__init__``; minting one handle per created chare makes
    that frame measurable, so the kernel's create path uses this direct
    factory (identical object state, ~40% cheaper).
    """
    handle = _NEW(ChareHandle)
    _SET(handle, "gid", gid)
    return handle


@dataclass(frozen=True, slots=True)
class BocHandle:
    """Reference to a branch-office chare (one branch on every PE)."""

    boc_id: int

    __wire_bytes__ = _HANDLE_WIRE_BYTES

    def __wire_size__(self) -> int:
        return _HANDLE_WIRE_BYTES

    def __repr__(self) -> str:
        return f"BocHandle({self.boc_id})"
