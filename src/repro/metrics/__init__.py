"""Metrics over structured event logs: time series (sampler) and
per-request latency (latency: the walk over a log, the fold that is the
recorder)."""

from repro.metrics.latency import LatencyFold, latency_summary, request_latencies
from repro.metrics.sampler import sample_metrics, metrics_summary

__all__ = [
    "sample_metrics",
    "metrics_summary",
    "request_latencies",
    "latency_summary",
    "LatencyFold",
]
