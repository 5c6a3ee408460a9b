"""Payload size model for network-cost accounting.

The simulator charges ``alpha + nbytes * beta`` per message, so it needs a
deterministic estimate of how many bytes a message payload would occupy on
the wire.  This module implements a recursive, wire-format-flavoured size
model (what a compiler-generated marshaller would produce), *not* Python's
in-memory ``sys.getsizeof`` (which is dominated by interpreter overhead and
would distort grain/communication ratios).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["payload_nbytes"]

# Wire sizes, in bytes, for scalar leaves.
_BOOL_BYTES = 1
_INT_BYTES = 8
_FLOAT_BYTES = 8
_NONE_BYTES = 1
# Per-container framing (a length field).
_FRAME_BYTES = 4


def payload_nbytes(obj: Any) -> int:
    """Estimate the marshalled size of ``obj`` in bytes.

    Supports the payload vocabulary the runtime allows in messages:
    ``None``, bool, int, float, str, bytes, numpy scalars/arrays, and
    (nested) tuples/lists/dicts/sets of those.  Unknown objects fall back to
    a flat 64-byte estimate (e.g. chare handles, small records), which keeps
    the model total and deterministic.

    Every envelope is sized exactly once, when it is built, so this sits
    on the kernel's per-message hot path: exact builtin types dispatch on
    ``type(obj)`` (no subclass ambiguity — ``type(True) is int`` is False)
    and only subclasses, numpy values and containers of them pay the full
    isinstance chain in :func:`_general_nbytes`, which returns identical
    values for the fast-pathed types.
    """
    t = type(obj)
    if t is int:
        w = (obj.bit_length() + 7) // 8
        return w if w > _INT_BYTES else _INT_BYTES
    if t is float:
        return _FLOAT_BYTES
    if t is tuple or t is list:
        # Message args are overwhelmingly flat tuples of ints/floats;
        # handling those elements inline saves a recursive frame each
        # (and the conditional beats a ``max()`` call per element).
        total = _FRAME_BYTES
        for x in obj:
            tx = type(x)
            if tx is int:
                w = (x.bit_length() + 7) // 8
                total += w if w > _INT_BYTES else _INT_BYTES
            elif tx is float:
                total += _FLOAT_BYTES
            elif tx is str:
                # Entry names, tags and op names: ASCII is its own UTF-8.
                total += _FRAME_BYTES + (
                    len(x) if x.isascii() else len(x.encode("utf-8")))
            elif x is None:
                total += _NONE_BYTES
            elif tx is bool:
                total += _BOOL_BYTES
            else:
                # Fixed-wire-size elements (handles) skip the recursion.
                w = getattr(x, "__wire_bytes__", None)
                total += w if w is not None else payload_nbytes(x)
        return total
    if t is str:
        return _FRAME_BYTES + (
            len(obj) if obj.isascii() else len(obj.encode("utf-8")))
    if t is bool:
        return _BOOL_BYTES
    if obj is None:
        return _NONE_BYTES
    # Objects with an explicit wire size (chare/BOC handles ride in almost
    # every seed payload) skip the isinstance chain; builtin subclasses
    # never define __wire_size__/__wire_bytes__, so this cannot shadow the
    # chain's answer.  The class-constant form is checked first — reading
    # it allocates no bound method.
    size = getattr(obj, "__wire_bytes__", None)
    if size is not None:
        return size
    sizer = getattr(obj, "__wire_size__", None)
    if sizer is not None:
        return int(sizer())
    return _general_nbytes(obj)


def _general_nbytes(obj: Any) -> int:
    """The full (subclass-tolerant) size model; order mirrors the original."""
    if obj is None:
        return _NONE_BYTES
    if isinstance(obj, bool):
        return _BOOL_BYTES
    if isinstance(obj, int):
        # Big ints cost their true width; common ints cost a word.
        return max(_INT_BYTES, (obj.bit_length() + 7) // 8)
    if isinstance(obj, float):
        return _FLOAT_BYTES
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return _FRAME_BYTES + len(obj)
    if isinstance(obj, str):
        return _FRAME_BYTES + len(obj.encode("utf-8"))
    if isinstance(obj, np.ndarray):
        return _FRAME_BYTES + int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (tuple, list, set, frozenset)):
        return _FRAME_BYTES + sum(payload_nbytes(x) for x in obj)
    if isinstance(obj, dict):
        return _FRAME_BYTES + sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items()
        )
    # Handles, dataclass records, user objects: flat conservative estimate.
    size = getattr(obj, "__wire_bytes__", None)
    if size is not None:
        return size
    sizer = getattr(obj, "__wire_size__", None)
    if sizer is not None:
        return int(sizer())
    return 64
