"""CLI: ``python -m repro.bench --exp t2[,t6,...] [--scale quick] [--jobs N]``.

Regenerates the paper's tables/figures through the parallel sweep
executor: the ``--exp`` plans go out as one batch, each distinct run once,
sharded across ``--jobs`` warm worker processes and backed by a
content-addressed on-disk result cache keyed by (run descriptor, source
fingerprint), so a re-run after an unrelated edit replays cached rows.
``--jobs 1`` is the historical serial path; ``--no-cache`` bypasses the
cache entirely.  Results are bit-identical at any job count.

The ``--trace-*`` and ``--metrics-*`` flags are this CLI's alone: it
stamps what the sweep records onto the planned descriptors, and after
the batch writes each observed row's exports.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
import time

from repro.bench.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.bench.experiments import EXPERIMENTS, plan_experiments
from repro.bench.harness import observation, observed
from repro.bench.parallel import SweepExecutor, default_jobs
from repro.metrics import sample_metrics
from repro.obs import RunHealth, to_jsonl, to_prometheus
from repro.trace.events import EventIndex
from repro.trace.perfetto import write_perfetto
from repro.util.errors import ConfigurationError


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables (T1-T9) and figures (F1-F3).",
    )
    parser.add_argument(
        "--exp",
        default="all",
        help="experiment id, comma-separated ids (run in the order given) or "
        f"'all'; options: {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--scale",
        default="paper",
        choices=["paper", "quick"],
        help="'paper' = full sizes, 'quick' = reduced CI sizes",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="also write one <id>.txt and <id>.json per experiment to DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the sweep executor "
        "(default: os.cpu_count(); 1 = serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-progress",
        action="store_true",
        help="suppress the per-experiment progress/ETA lines on stderr",
    )
    parser.add_argument(
        "--stats-json",
        default=None,
        metavar="PATH",
        help="write executor/cache statistics as JSON to PATH (CI artifact)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="DIR",
        help="record structured event traces and write one <run>.run.json "
        "+ <run>.perfetto.json per run to DIR (tracing is off without "
        "this flag)",
    )
    parser.add_argument(
        "--trace-events",
        default=None,
        metavar="KINDS",
        help="comma-separated event kinds to record (default: all); "
        "implies tracing even without --trace-out",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="DIR",
        help="attach the telemetry plane to every run and write one "
        "<run>.metrics.jsonl + <run>.prom per run to DIR, with a run-health "
        "line on stderr (telemetry is off without --metrics-*)",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=None,
        metavar="VSECONDS",
        help="telemetry snapshot period in virtual seconds (default: final "
        "snapshot only); implies telemetry even without --metrics-out",
    )
    args = parser.parse_args(argv)
    if args.exp == "all":
        ids = sorted(EXPERIMENTS)
    else:
        ids = list(dict.fromkeys(part.strip().lower()
                                 for part in args.exp.split(",")))
        for exp_id in ids:
            if exp_id not in EXPERIMENTS:
                parser.error(f"unknown experiment {exp_id!r}; options: "
                             f"{', '.join(sorted(EXPERIMENTS))}")
    trace = args.trace_events
    if trace is None and args.trace_out is not None:
        trace = "all"
    metrics = args.metrics_interval
    if metrics is None and args.metrics_out is not None:
        metrics = 0.0
    # What every planned descriptor records with, unless it states its own.
    observe = {}
    for flag, key, value in (("--trace-events", "trace", trace),
                             ("--metrics-interval", "metrics", metrics)):
        try:
            observe.update(observation(**{key: value}))
        except ConfigurationError as exc:
            parser.error(f"{flag}: {exc}")
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.output is not None:
        # Here, not in _write: an unwritable directory should cost a usage
        # error, not a finished sweep and then a traceback.
        try:
            os.makedirs(args.output, exist_ok=True)
            with tempfile.TemporaryFile(dir=args.output):
                pass
        except OSError as exc:
            parser.error(f"--output {args.output!r} is not a writable "
                         f"directory: {exc}")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None if args.no_progress else _progress_printer()
    started = time.perf_counter()
    descs, finish = plan_experiments(ids, args.scale)
    if observe:
        descs = [observed(desc, observe) for desc in descs]
    with SweepExecutor(jobs=jobs, cache=cache, progress=progress) as executor:
        rows = executor.run_many(descs, label=",".join(ids))
    written = _export(descs, rows, args.trace_out, args.metrics_out)
    for result in finish(rows):
        print(f"\n== {result.exp_id}: {result.title} ==")
        print(result.text)
        if args.output:
            _write(args.output, result, args.scale)
    wall = time.perf_counter() - started
    _summarize(executor, written, wall, args.stats_json)
    return 0


def _export(descs, rows, trace_out, metrics_out):
    """Write every observed row of the sweep under one file stem; return
    the counts written, for ``--stats-json``.

    A row with a trace payload gets ``<stem>.run.json`` (its events and
    the metrics sampled from them) and a ``.perfetto.json`` twin under
    ``trace_out``; one with a telemetry payload gets the archival
    ``.metrics.jsonl`` stream, a ``.prom`` scrape and one health line on
    stderr under ``metrics_out``.  Cached replays export too: the
    payloads are plain data on the row.
    """
    written = {}
    for key, out in (("traces_written", trace_out),
                     ("metrics_written", metrics_out)):
        if out is not None:
            os.makedirs(out, exist_ok=True)
            written[key] = 0
    for desc, row in zip(descs, rows):
        trace = row.trace if trace_out is not None else None
        payload = row.telemetry if metrics_out is not None else None
        if trace is None and payload is None:
            continue
        stem = re.sub(r"[^A-Za-z0-9._-]+", "-", desc.label()).strip("-")
        stem = f"{stem}-{desc.key()[:8]}"
        if trace is not None:
            index, meta = EventIndex(trace["events"]), trace["meta"]
            doc = dict(trace, metrics=sample_metrics(
                index, num_pes=meta.get("num_pes"),
                t_end=meta.get("total_time")))
            base = os.path.join(trace_out, stem)
            with open(base + ".run.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
                fh.write("\n")
            write_perfetto(base + ".perfetto.json", index, meta=meta,
                           metrics=doc["metrics"])
            written["traces_written"] += 1
        if payload is not None:
            base = os.path.join(metrics_out, stem)
            with open(base + ".metrics.jsonl", "w", encoding="utf-8") as fh:
                fh.write(to_jsonl(payload))
            with open(base + ".prom", "w", encoding="utf-8") as fh:
                fh.write(to_prometheus(payload))
            print(f"[{desc.label()}] {RunHealth(payload).format()}",
                  file=sys.stderr)
            written["metrics_written"] += 1
    return written


def _progress_printer():
    """Progress lines on stderr; live \\r updates only on a tty."""
    tty = sys.stderr.isatty()

    def show(event) -> None:
        done, total = event["done"], event["total"]
        msg = (f"[{event['label'] or 'sweep'}] {done}/{total} runs"
               f" ({event['cached']} cached)")
        if event["eta_s"] is not None and not event["final"]:
            msg += f" ETA {event['eta_s']:.1f}s"
        if tty:
            end = "\n" if event["final"] else "\r"
            print(f"\x1b[2K{msg}", end=end, file=sys.stderr, flush=True)
        elif event["final"]:
            print(msg, file=sys.stderr, flush=True)

    return show


def _summarize(executor, written, wall: float, stats_json) -> None:
    stats = executor.summary()
    stats.update(written)
    stats["total_wall_s"] = round(wall, 3)
    cache = stats.get("cache")
    line = (f"sweep: {stats['runs_executed']} runs executed, "
            f"{stats['runs_cached']} cached, jobs={stats['jobs']}, "
            f"wall {wall:.1f}s")
    if cache is not None:
        line += f", cache hit-rate {cache['hit_rate']:.0%}"
    if "traces_written" in stats:
        line += f", {stats['traces_written']} traces written"
    if "metrics_written" in stats:
        line += f", {stats['metrics_written']} metric streams written"
    print(line, file=sys.stderr)
    if stats_json:
        directory = os.path.dirname(stats_json)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(stats_json, "w", encoding="utf-8") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")


def _write(directory: str, result, scale: str) -> None:
    base = os.path.join(directory, result.exp_id.lower())
    with open(base + ".txt", "w", encoding="utf-8") as fh:
        fh.write(f"== {result.exp_id}: {result.title} (scale={scale}) ==\n")
        fh.write(result.text + "\n")
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {"id": result.exp_id, "title": result.title, "scale": scale,
             "data": _jsonable(result.data)},
            fh, indent=2,
        )


def _jsonable(obj):
    """Coerce experiment data to JSON-encodable structures."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, (int, float, str, bool)) or obj is None:
        return obj
    return str(obj)


if __name__ == "__main__":
    sys.exit(main())
