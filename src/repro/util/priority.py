"""Message priorities, including Charm-style bitvector priorities.

The Chare Kernel supports prioritized execution: each message can carry a
priority, and a prioritized queueing strategy delivers smaller priorities
first.  Two kinds are supported, exactly as in Charm:

* **integer priorities** — plain ints; smaller runs first, so a
  branch-and-bound program can use a node's lower bound directly.
* **bitvector priorities** — arbitrary-length bit strings compared
  lexicographically, with the convention that a *prefix* is *higher*
  priority than any of its extensions (``10 < 101``).  These let a tree
  search assign each node a priority encoding its path from the root, which
  makes the global execution order approximate the sequential (depth-first,
  left-to-right) order — the property Charm exploits to tame speculative
  search.

:func:`normalize_priority` maps any user-supplied priority (``None``, int,
``BitVectorPriority``, tuple of bits) onto a key that sorts correctly with
Python tuple comparison, so queue implementations never special-case.  A
bitvector's key is its class tag followed by its bits, so plain tuple
comparison is the prefix-first lexicographic order.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Sequence, Union

from repro.util.errors import ConfigurationError, need_int

__all__ = ["BitVectorPriority", "check_priority", "normalize_priority",
           "PriorityLike"]


def _bit(b) -> int:
    """``b`` as 0 or 1; it must *equal* one of them (0.5 is not 0)."""
    if b == 0:
        return 0
    if b == 1:
        return 1
    raise ConfigurationError(f"bitvector priority bits must be 0 or 1, got {b!r}")


@total_ordering
class BitVectorPriority:
    """An immutable bit-string priority with lexicographic order.

    ``BitVectorPriority((1, 0)) < BitVectorPriority((1, 0, 1))`` — a prefix
    beats its extensions, and ``0`` beats ``1`` at the first differing
    position.  The all-empty priority is the highest possible.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._bits = tuple(_bit(b) for b in bits)

    @property
    def bits(self) -> tuple:
        return self._bits

    def extend(self, *bits: int) -> "BitVectorPriority":
        """Return a child priority: this priority with ``bits`` appended."""
        return BitVectorPriority(self._bits + bits)

    def child(self, index: int, fanout: int) -> "BitVectorPriority":
        """Priority for the ``index``-th of ``fanout`` children.

        Encodes ``index`` in ``ceil(log2(fanout))`` bits (at least one), so
        earlier siblings sort ahead of later ones and every child sorts
        after its parent.
        """
        fanout = need_int("fanout", fanout, 1)
        index = need_int("index", index)
        if index >= fanout:
            raise ConfigurationError(
                f"child index {index} out of range for fanout {fanout}")
        width = max(1, (fanout - 1).bit_length())
        return BitVectorPriority(self._bits + tuple(
            (index >> (width - 1 - i)) & 1 for i in range(width)))

    def __len__(self) -> int:
        return len(self._bits)

    def __eq__(self, other: object) -> bool:
        # A tuple or list of the same bits is equal: a send stores a tuple
        # or list priority as a BitVectorPriority, and ``my_priority`` still
        # equals what the sender passed.
        if isinstance(other, (tuple, list)):
            return self._bits == tuple(other)
        if not isinstance(other, BitVectorPriority):
            return NotImplemented
        return self._bits == other._bits

    def __lt__(self, other: "BitVectorPriority") -> bool:
        if not isinstance(other, BitVectorPriority):
            return NotImplemented
        return self._bits < other._bits

    def __hash__(self) -> int:
        return hash(self._bits)

    def __repr__(self) -> str:
        return "BitVectorPriority(%s)" % ("".join(map(str, self._bits)) or "''")


PriorityLike = Union[None, int, float, Sequence[int], BitVectorPriority]

# Sort class tags: every normalized key is (class_tag, ...) so heterogeneous
# priorities never compare int-to-tuple.  Class 0 = explicit numeric, class 1
# = bitvector, class 2 = unprioritized (runs after all prioritized work, as
# in Charm where prioritized messages bypass the default queue).
_NUMERIC, _BITVEC, _DEFAULT = 0, 1, 2

#: The (single) key of every unprioritized message.
_DEFAULT_KEY = (_DEFAULT, 0)


def normalize_priority(priority: PriorityLike) -> tuple:
    """Map a user-facing priority to a totally ordered sort key.

    Smaller keys are served first.  ``None`` maps to the lowest class so
    unprioritized messages never starve prioritized ones under a
    priority-queue strategy.  A bitvector's key is ``(1, *bits)``.  NaN is
    rejected: it compares false with everything, so one NaN key would break
    a pool's heap order for every other message.
    """
    if priority is None:
        return _DEFAULT_KEY
    if isinstance(priority, (int, float)):
        if priority != priority:
            raise ConfigurationError(f"priority must not be NaN, got {priority!r}")
        return (_NUMERIC, priority)
    if isinstance(priority, BitVectorPriority):
        return (_BITVEC,) + priority._bits
    if isinstance(priority, (tuple, list)):
        return normalize_priority(BitVectorPriority(priority))
    raise ConfigurationError(f"unsupported priority type: {type(priority).__name__}")


def check_priority(priority: PriorityLike) -> PriorityLike:
    """The priority a send or create stores in its envelope.

    Raises at the call what a prioritized pool would raise when it pushes
    the message, many events later (NaN, non-binary bits, unsupported
    types).  A tuple or list of bits becomes one
    :class:`BitVectorPriority` here, so the message carries its bits as
    they were at the send (mutating the caller's list afterwards changes
    nothing) and no pool rebuilds them.  ``None`` and a plain ``int``
    pass through unchecked."""
    if priority is None or type(priority) is int:
        return priority
    if isinstance(priority, (tuple, list)):
        return BitVectorPriority(priority)
    normalize_priority(priority)
    return priority
