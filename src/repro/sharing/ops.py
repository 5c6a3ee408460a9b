"""Combining operators for accumulators, reductions and monotonic variables.

The paper restricts shared abstractions to operations with algebraic
structure: accumulators need a **commutative, associative** combiner (so
partial results can fold in any order on any PE) and monotonic variables
need an **improvement order** (so stale updates are simply ignored).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Union

from repro.util.errors import SharingError

__all__ = ["combine", "combiner", "check_better", "improves", "OpLike",
           "BetterLike"]

OpLike = Union[str, Callable[[Any, Any], Any]]
BetterLike = Union[str, Callable[[Any, Any], bool]]

_NAMED_OPS = {
    "sum": operator.add,
    "prod": operator.mul,
    "max": max,
    "min": min,
}
_NAMED_ORDERS = ("min", "max")


def combiner(op: OpLike) -> Callable[[Any, Any], Any]:
    """The two-argument function behind a named or user-supplied ``op``.

    Declarations resolve their combiner through here once, so a bad name
    fails where it is written and every fold is a single call.
    """
    if callable(op):
        return op
    fn = _NAMED_OPS.get(op) if isinstance(op, str) else None
    if fn is None:
        raise SharingError(
            f"unknown combiner op={op!r}; options: {sorted(_NAMED_OPS)} "
            "or a callable"
        )
    return fn


def combine(op: OpLike, a: Any, b: Any) -> Any:
    """Fold two partials with a named or user-supplied combiner."""
    return combiner(op)(a, b)


def _bad_order(better: Any) -> SharingError:
    return SharingError(
        f"unknown improvement order better={better!r}; options: "
        f"{sorted(_NAMED_ORDERS)} or a callable"
    )


def check_better(better: BetterLike) -> None:
    """Reject an improvement order :func:`improves` would not understand."""
    if not callable(better) and better not in _NAMED_ORDERS:
        raise _bad_order(better)


def improves(better: BetterLike, new: Any, old: Any) -> bool:
    """True if ``new`` improves on ``old`` under the given order."""
    if callable(better):
        return bool(better(new, old))
    if better == "min":
        return new < old
    if better == "max":
        return new > old
    raise _bad_order(better)
