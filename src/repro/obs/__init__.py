"""repro.obs — the online telemetry plane.

Low-overhead runtime observability for runs the event log cannot afford to
watch: per-entry execution counts and log-bucketed histograms (execution
duration, serving latency) aggregated on the kernel's observer slot,
periodic virtual-time snapshots, JSONL and Prometheus exporters, and a
run-health reporter.  The exported gauges (in-flight, touched PEs, virtual
time, fault events, per-PE busy time / executions / queue depth) are
rendered once, from the final snapshot and PE states, when the payload is
built.  Enable per run with::

    from repro.obs import Telemetry

    tel = Telemetry(interval=1e-3)
    kernel = Kernel(machine, telemetry=tel)
    kernel.run(Main)
    print(RunHealth(tel).format())
    open("metrics.jsonl", "w").write(to_jsonl(tel))

``telemetry=None`` (the default) keeps the kernel's untraced fast path
bit-identical; see docs/architecture.md "Telemetry plane".
"""

from repro.obs.exporters import parse_jsonl, to_jsonl, to_prometheus
from repro.obs.health import RunHealth
from repro.obs.registry import Histogram
from repro.obs.telemetry import Telemetry

__all__ = [
    "Histogram",
    "Telemetry",
    "RunHealth",
    "to_jsonl",
    "to_prometheus",
    "parse_jsonl",
]
