"""The telemetry plane's one metric primitive: a log-bucketed histogram.

The telemetry plane (:mod:`repro.obs.telemetry`) needs summary statistics
that stay cheap at any scale: a P=10\N{SUPERSCRIPT FIVE} serving run pushes
millions of request latencies through the runtime, and PR 5's EventLog —
which records every event — cannot watch it.  :class:`Histogram` is the
opposite trade: constant space per series, O(1) per observation, and no
per-event allocation.

It is HDR-style: the positive reals are split into octaves (powers of two)
and each octave into ``subbuckets`` equal linear sub-buckets, so every
bucket's relative width is at most ``1/subbuckets`` of its value.  One
:func:`math.frexp` call and two dict operations per observation; buckets
materialize sparsely (only octaves that receive samples occupy memory).
Quantiles use the same *nearest-rank* convention as
:func:`repro.metrics.latency.percentile` — the bucket containing the
``ceil(q/100 * n)``-th smallest sample — and return that bucket's
midpoint, so a histogram quantile is always within one bucket of the
exact trace-walked value (the S6 head-to-head contract).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.util.errors import ConfigurationError, need_int

__all__ = ["Histogram", "SUBBUCKETS"]

#: Sub-buckets per octave: relative bucket width at most 1/32 (~3%).
SUBBUCKETS = 32


class Histogram:
    """Log-bucketed distribution with nearest-rank quantiles.

    Bucket index for ``v > 0``: with ``m, e = math.frexp(v)`` (``m`` in
    ``[0.5, 1)``), the octave is ``e`` and the linear sub-bucket is
    ``int((m - 0.5) * 2 * subbuckets)``, giving
    ``index = e * subbuckets + sub``.  Bucket ``(e, sub)`` spans
    ``[2^(e-1) * (1 + sub/S), 2^(e-1) * (1 + (sub+1)/S))`` — relative width
    ≤ ``1/S``.  Zero (and any non-positive value) lands in a dedicated
    zero bucket below every indexed one.
    """

    __slots__ = ("subbuckets", "buckets", "zero", "count", "total",
                 "_vmin", "_vmax")

    def __init__(self, subbuckets: int = SUBBUCKETS) -> None:
        # A float would index buckets by float keys and skew every quantile.
        self.subbuckets = need_int("subbuckets", subbuckets, 1)
        self.buckets: Dict[int, int] = {}
        self.zero = 0
        self.count = 0
        self.total = 0.0
        # Infinity sentinels keep observe() down to one compare per bound
        # (this sits on the kernel's per-execution hook); the vmin/vmax
        # properties present them as None-until-observed.
        self._vmin = math.inf
        self._vmax = -math.inf

    @property
    def vmin(self) -> Optional[float]:
        return self._vmin if self.count else None

    @property
    def vmax(self) -> Optional[float]:
        return self._vmax if self.count else None

    # ------------------------------------------------------------ observation
    def observe(self, v: float) -> None:
        idx = self.bucket_index(v)
        if idx is None:
            self.zero += 1
        else:
            b = self.buckets
            b[idx] = b.get(idx, 0) + 1
        self.count += 1
        self.total += v
        if v < self._vmin:
            self._vmin = v
        if v > self._vmax:
            self._vmax = v

    def bucket_index(self, v: float) -> Optional[int]:
        """Index of the bucket ``v`` would land in (None = zero bucket)."""
        if v <= 0.0:
            return None
        m, e = math.frexp(v)
        s = self.subbuckets
        try:
            return e * s + int((m - 0.5) * 2.0 * s)
        except (ValueError, OverflowError):  # NaN, +inf
            raise ConfigurationError(
                f"histogram observations must be finite, got {v!r}"
            ) from None

    def bucket_bounds(self, idx: int) -> Tuple[float, float]:
        """``[lower, upper)`` value range of bucket ``idx``."""
        e, sub = divmod(idx, self.subbuckets)
        base = 2.0 ** (e - 1)
        s = self.subbuckets
        return base * (1.0 + sub / s), base * (1.0 + (sub + 1) / s)

    # -------------------------------------------------------------- quantiles
    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile: midpoint of the bucket holding the
        ``ceil(q/100 * n)``-th smallest sample; None on an empty histogram
        (an undefined quantile must never silently become a number)."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError(f"quantile q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self.zero:
            return 0.0
        cum = self.zero
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= rank:
                lo, hi = self.bucket_bounds(idx)
                return (lo + hi) / 2.0
        # Unreachable unless counters were mutated externally.
        lo, hi = self.bucket_bounds(max(self.buckets))
        return (lo + hi) / 2.0

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def as_record(self) -> Dict[str, Any]:
        """Plain-data projection (JSON-safe; bucket keys become strings)."""
        return {
            "subbuckets": self.subbuckets,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "zero": self.zero,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Histogram":
        h = cls(subbuckets=record["subbuckets"])
        h.count = record["count"]
        h.total = record["sum"]
        if record["min"] is not None:
            h._vmin = record["min"]
        if record["max"] is not None:
            h._vmax = record["max"]
        h.zero = record["zero"]
        h.buckets = {int(k): v for k, v in record["buckets"].items()}
        return h
