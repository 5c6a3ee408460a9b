"""repro.obs — the online telemetry plane.

Low-overhead runtime observability for runs the event log cannot afford to
watch: streaming counters/gauges/log-bucketed histograms aggregated on
the kernel's observer slot, periodic virtual-time snapshots, JSONL and
Prometheus exporters, and a run-health reporter.  Enable per run with::

    from repro.obs import Telemetry, TelemetryConfig

    tel = Telemetry(TelemetryConfig(interval=1e-3))
    kernel = Kernel(machine, telemetry=tel)
    kernel.run(Main)
    print(RunHealth(tel).format())
    open("metrics.jsonl", "w").write(to_jsonl(tel))

``telemetry=None`` (the default) keeps the kernel's untraced fast path
bit-identical; see docs/architecture.md "Telemetry plane".
"""

from repro.obs.exporters import parse_jsonl, to_jsonl, to_prometheus
from repro.obs.health import RunHealth
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    quantile_from_record,
)
from repro.obs.telemetry import Telemetry, TelemetryConfig

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "quantile_from_record",
    "Telemetry",
    "TelemetryConfig",
    "RunHealth",
    "to_jsonl",
    "to_prometheus",
    "parse_jsonl",
]
