"""Performance tracing: per-PE counters, structured event logs, analyses."""

from repro.trace.critical_path import CriticalPath, PathStep, critical_path
from repro.trace.events import EVENT_KINDS, Event, EventLog, normalize_kinds
from repro.trace.perfetto import to_perfetto, write_perfetto
from repro.trace.report import PERow, TraceReport
from repro.trace.timeline import Timeline

__all__ = [
    "PERow",
    "TraceReport",
    "Timeline",
    "Event",
    "EventLog",
    "EVENT_KINDS",
    "normalize_kinds",
    "critical_path",
    "CriticalPath",
    "PathStep",
    "to_perfetto",
    "write_perfetto",
]
