"""Exporters for the telemetry plane: JSONL stream and Prometheus text.

Two formats, two audiences:

* :func:`to_jsonl` — the archival/streaming form: line 1 is the
  ``repro-metrics-v1`` header (meta), then one line per snapshot, then one
  ``series`` line carrying every metric's final state.  One JSON object
  per line, so a consumer can tail it mid-run and parse any prefix.
* :func:`to_prometheus` — the scrape form (text exposition format 0.0.4):
  counters and gauges as labeled samples, histograms as cumulative
  ``_bucket{le=...}`` series plus ``_sum``/``_count``, each family with a
  ``# TYPE`` header.  Metric names get a ``repro_`` prefix and label
  values are escaped per the spec.

Both operate on plain data (a :class:`~repro.obs.telemetry.Telemetry` or
its ``payload()`` dict), so rows that crossed a pool worker or the result
cache export identically to live ones.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Union

from repro.obs.registry import Histogram
from repro.util.errors import ConfigurationError

__all__ = ["to_jsonl", "to_prometheus"]


def _as_payload(source: Any) -> Dict[str, Any]:
    if isinstance(source, dict):
        if source.get("format") != "repro-metrics-v1":
            raise ConfigurationError(
                "not a repro-metrics-v1 payload: "
                f"format={source.get('format')!r}"
            )
        return source
    return source.payload()


# ===================================================================== JSONL
def to_jsonl(source: Any) -> str:
    """Serialize a telemetry plane (or its payload) to JSONL text."""
    payload = _as_payload(source)
    lines = [json.dumps({"format": payload["format"],
                         "meta": payload["meta"]}, sort_keys=True)]
    for snap in payload["snapshots"]:
        lines.append(json.dumps({"kind": "snapshot", **snap}, sort_keys=True))
    lines.append(json.dumps({"kind": "series",
                             "series": payload["series"]}, sort_keys=True))
    return "\n".join(lines) + "\n"


# ================================================================ Prometheus
def _prom_name(name: str) -> str:
    out = [c if c.isalnum() or c == "_" else "_" for c in name]
    return "repro_" + "".join(out)


def _prom_labels(labels: Dict[str, Any], extra: str = "") -> str:
    parts = [
        '%s="%s"' % (
            k,
            str(v).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n"),
        )
        for k, v in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(v: Union[int, float]) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "+Inf" if v > 0 else "-Inf"
        return repr(v)
    return str(v)


def to_prometheus(source: Any) -> str:
    """Render the final metric series in Prometheus text format."""
    payload = _as_payload(source)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    types: Dict[str, str] = {}
    for rec in payload["series"]:
        by_name.setdefault(rec["name"], []).append(rec)
        types[rec["name"]] = rec["type"]
    lines: List[str] = []
    for name in sorted(by_name):
        pname = _prom_name(name)
        mtype = types[name]
        lines.append(f"# TYPE {pname} {mtype}")
        for rec in by_name[name]:
            labels = rec["labels"]
            if mtype in ("counter", "gauge"):
                value = rec["value"]
                if value is None:
                    continue
                lines.append(f"{pname}{_prom_labels(labels)} {_fmt(value)}")
                continue
            # Histogram: cumulative buckets in ascending upper-bound order.
            h = Histogram.from_record(rec["value"])
            cum = h.zero
            if h.zero:
                le = _prom_labels(labels, 'le="0.0"')
                lines.append(f"{pname}_bucket{le} {h.zero}")
            for idx in sorted(h.buckets):
                cum += h.buckets[idx]
                _, upper = h.bucket_bounds(idx)
                le = _prom_labels(labels, "le=%s" % json.dumps(_fmt(upper)))
                lines.append(f"{pname}_bucket{le} {cum}")
            le = _prom_labels(labels, 'le="+Inf"')
            lines.append(f"{pname}_bucket{le} {h.count}")
            lines.append(f"{pname}_sum{_prom_labels(labels)} {_fmt(h.total)}")
            lines.append(f"{pname}_count{_prom_labels(labels)} {h.count}")
    return "\n".join(lines) + "\n"
