"""The performance ledger's one command.

As the benchmark driver calls it (``BENCHMARK.json``)::

    python3 ledger/run.py --workload W --seed N --seconds S --trace 0|1

one workload is measured for about S seconds (whole passes, at least one)
and the last line of standard output is the result object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--seconds`` it is the whole ledger::

    python3 ledger/run.py [--seed N] [--repeats R] [--workload W ...] [--out FILE]

every workload ``R`` times, interleaved round-robin, then one traced pass
per workload and the probes; every metric is printed by name with its unit.

Every timed pass runs in a fresh child process (``ledger.passes``), so no
pass inherits another's warm caches, heap or imported modules.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    # Run as a file: make ``ledger`` importable as the package it is.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from ledger import ROOT
from ledger.layers import LAYERS
from ledger.stats import summarize
from ledger.workloads import (REFERENCE_PATH, SPAN_METRICS, WORKLOADS,
                              fingerprint_digest, load_reference, seed_shift)

#: A child that has not answered by then is killed (the driver allows 180 s
#: for a whole run).
CHILD_TIMEOUT_S = 170.0
#: Set-up samples a driver run reports the median of, at least.
MIN_SETUPS = 5
PAPER_PASS = ("search", "tables", "serving")


class ChildError(RuntimeError):
    """A child process failed or hung; the run has no result."""


def load_contract() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------- child processes
def spawn(kind: str, workload: str = "", seed: int = 0, *flags: str) -> Dict[str, Any]:
    """Run one child of ``kind`` to completion and return what it reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind,
           *(["--workload", workload] if workload else []), "--seed", str(seed),
           *flags, "--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True,
                            start_new_session=True)
    what = f"{kind} child" + (f" for {workload}" if workload else "")
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        # Timeout or interrupt: take the child's pool workers down with it.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise ChildError(f"{what} did not finish in {CHILD_TIMEOUT_S:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise ChildError(f"{what} exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def child_main(args) -> int:
    cpus = None
    if hasattr(os, "sched_setaffinity"):
        # Every child runs on one fixed CPU (a pass with a worker pool only
        # through its set-up).  Left to the scheduler, short children land on
        # a cold core about half the time and set-up reads 0.24 s or 0.31 s by
        # the minute; pinned it reads 0.24 s.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(cpus)})
    if args.child == "probes":
        from ledger.probes import run_probes

        result = run_probes()
    else:
        from ledger.passes import run_child

        result = run_child(args.workload[0], args.seed, args.spawned_at,
                           profile=args.profile, setup_only=args.child == "setup",
                           verify=not args.no_verify, keep_spans=args.spans,
                           cpus=cpus)
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ collecting
def collect(names: List[str], seed: int, *, repeats: int = 1,
            seconds: Optional[float] = None, trace: bool = True,
            verify: bool = True, spans: bool = False) -> Dict[str, Any]:
    """Measure workloads ``names`` and return the ledger report.

    Untraced passes come first: ``repeats`` rounds over all the workloads,
    or with ``seconds`` as many whole passes of each as fit (at least one)
    and set-up-only children up to ``MIN_SETUPS`` samples.  With ``trace``,
    one profiled pass per workload and the probes follow.
    """
    flags = [] if verify else ["--no-verify"]
    span_flag = ["--spans"] if spans else []
    passes: Dict[str, List[dict]] = {name: [] for name in names}
    if seconds is None:
        for rep in range(repeats):
            for name in names:  # round-robin, so drift hits every workload alike
                last = span_flag if rep == repeats - 1 else []
                passes[name].append(spawn("pass", name, seed, *flags, *last))
    else:
        for name in names:
            began = time.perf_counter()
            while True:
                started = time.perf_counter()
                passes[name].append(spawn("pass", name, seed, *flags, *span_flag))
                now = time.perf_counter()
                if now - began + (now - started) > seconds:
                    break

    contract = load_contract()
    reference = load_reference() if verify else {}
    report: Dict[str, Any] = {"format": "ledger-v1", "seed": seed,
                              "seed_shift": seed_shift(seed),
                              "host": host_context(), "workloads": {}}
    for name in names:
        setups = [run["setup_s"] for run in passes[name]]
        if seconds is not None:
            for _ in range(len(setups), MIN_SETUPS):
                setups.append(spawn("setup", name, seed, *flags)["setup_s"])
        entry = summarize_passes(name, passes[name], setups, contract,
                                 reference.get("attempted", {}).get(name),
                                 reference.get("ops", {}).get(name))
        if trace:
            add_traced_pass(entry, spawn("pass", name, seed, "--profile", *flags))
        report["workloads"][name] = entry
    if trace:
        report["probes"] = spawn("probes")
    if all(name in report["workloads"] for name in PAPER_PASS):
        report["paper_pass_wall_s"] = sum(
            report["workloads"][n]["wall_s"]["median"] for n in PAPER_PASS)
    return report


def ref_work_rss_mb(run: Dict[str, Any], ref_ops: Optional[int]) -> float:
    """Peak RSS of a pass, scaled to the seed-0 amount of work.

    What a pass adds to the memory of set-up grows with the executions it
    simulates (an experiment keeps the results of its runs until its table is
    built), and on ``search`` those differ threefold between seeds.  The
    growth is scaled to ``ref_ops``, the work of the seed-0 pass, so that the
    number compares across seeds; at seed 0, and wherever the work does not
    depend on the seed, it is the peak RSS itself.
    """
    if not ref_ops:
        return run["peak_rss_mb"]
    base = run["base_rss_mb"]
    return base + (run["peak_rss_mb"] - base) * ref_ops / run["ops"]


def summarize_passes(name: str, runs: List[dict], setups: List[float],
                     contract: Dict[str, Any], expected_runs: Optional[int],
                     ref_ops: Optional[int]) -> Dict[str, Any]:
    """One workload's entry of the report, from its untraced passes."""
    samples = {"ops_per_s": [r["ops"] / r["wall_s"] for r in runs],
               "peak_rss_ref_mb": [ref_work_rss_mb(r, ref_ops) for r in runs],
               "setup_s": setups,
               "ok_frac": [1.0 - r["failed"] / max(1, r["attempted"]) for r in runs]}
    end_to_end = {}
    for spec in contract["end_to_end"]:
        metric = dict(spec, samples=samples[spec["name"]],
                      **summarize(samples[spec["name"]]))
        metric["unresolved"] = metric["spread"] > spec["bound"]
        end_to_end[spec["name"]] = metric
    first = runs[0]
    entry = {
        "why": WORKLOADS[name].why,
        "end_to_end": end_to_end,
        # Informational: comparable only at equal seed, where the work is equal.
        "wall_s": summarize([r["wall_s"] for r in runs]),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in runs]),
        "ops_per_pass": first["ops"],
        "runs_per_pass": first["attempted"],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]][:20],
        # Exact quantities: identical in every pass of one commit and seed.
        "repeatable": all(exact_part(r) == exact_part(first) for r in runs)
        and expected_runs in (None, first["attempted"]),
        "fingerprint_digest": first["fingerprint_digest"],
        "fingerprints": first["fingerprints"],
        "counters": first["counters"],
        "span_metrics": {m: summarize([r["span_metrics"][m] for r in runs])["median"]
                         for m in SPAN_METRICS},
    }
    if "spans" in runs[-1]:
        entry["spans"] = runs[-1]["spans"]
    return entry


def exact_part(run: Dict[str, Any]):
    return run["counters"], run["fingerprint_digest"], run["attempted"]


def add_traced_pass(entry: Dict[str, Any], traced: Dict[str, Any]) -> None:
    """Fold the profiled pass of a workload into its report entry."""
    entry["layers"] = traced["layers"]["layers"]
    entry["profile_total_s"] = traced["layers"]["total_s"]
    entry["traced_wall_s"] = traced["wall_s"]
    entry["trace_overhead_x"] = traced["wall_s"] / entry["wall_s"]["median"]
    entry["repeatable"] = entry["repeatable"] and (
        traced["counters"], traced["fingerprint_digest"]) == (
        entry["counters"], entry["fingerprint_digest"])
    entry["failed"] += traced["failed"]
    entry["attempted"] += traced["attempted"]
    entry["failures"] = (entry["failures"] + traced["failures"])[:20]


def host_context() -> Dict[str, Any]:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {"nproc": os.cpu_count(), "load_1min": os.getloadavg()[0],
            "python": platform.python_version(), "commit": commit}


def per_layer_metrics(entry: Dict[str, Any], probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, by name, for one workload."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = entry["layers"][layer]["self_s"]
        out[f"{layer}.calls"] = entry["layers"][layer]["calls"]
    out["ledger.trace_overhead_x"] = entry["trace_overhead_x"]
    out.update(entry["span_metrics"])
    out.update(entry["counters"])
    out.update(probes)
    return out


# -------------------------------------------------------------------- printing
def print_report(report: Dict[str, Any]) -> None:
    host = report["host"]
    units = {m["name"]: m["unit"] for m in load_contract()["per_layer"]}
    print(f"ledger: seed {report['seed']} (adds {report['seed_shift']} to every run's "
          f"seed), commit {host['commit']}, {host['nproc']} cpus, "
          f"load {host['load_1min']:.2f}, python {host['python']}")
    for name, entry in report["workloads"].items():
        print(f"\n== {name}: {entry['why']}")
        for metric, e in entry["end_to_end"].items():
            note = "  UNRESOLVED: spread exceeds bound" if e["unresolved"] else ""
            print(f"{metric:34s} {e['median']:14.6g} {e['unit']:9s} "
                  f"[q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']}, "
                  f"spread {e['spread']:.2%}, bound {e['bound']:.2%}]{note}")
        for metric, unit in (("wall_s", "s"), ("peak_rss_mb", "MB")):
            e = entry[metric]
            print(f"{metric:34s} {e['median']:14.6g} {unit:9s} "
                  f"[q1 {e['q1']:.6g}, q3 {e['q3']:.6g}, n={e['n']}; "
                  "comparable at equal seed only]")
        print(f"{'failed_frac':34s} {entry['failed'] / max(1, entry['attempted']):14.6g} "
              f"{'fraction':9s} [{entry['failed']} of {entry['attempted']} runs]")
        print(f"{'fingerprint_digest':34s} {entry['fingerprint_digest']:>14s} "
              f"{'':9s} [exact quantities repeat: {entry['repeatable']}]")
        for label, reason in entry["failures"]:
            print(f"  FAILED {label}: {reason}")
        if "layers" in entry:
            for metric, value in per_layer_metrics(entry, {}).items():
                shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
                print(f"{metric:34s} {shown} {units[metric]}")
            share = sum(v["self_s"] for v in entry["layers"].values())
            print(f"{'profile_total_s':34s} {entry['profile_total_s']:14.6g} s"
                  f"         [layers sum to {share:.6g}]")
    if "probes" in report:
        print("\n== probes")
        for metric, value in report["probes"].items():
            print(f"{metric:34s} {value:14.6g} {units[metric]}")
    if "paper_pass_wall_s" in report:
        print(f"\n{'paper_pass_wall_s':34s} {report['paper_pass_wall_s']:14.6g} s"
              "         [search + tables + serving = --exp all --scale paper]")


# ------------------------------------------------------------------ the modes
def driver_run(args) -> int:
    """One run as the benchmark driver asks for it."""
    name = args.workload[0]
    # A traced run needs one untraced pass beside the profiled one, no more.
    report = collect([name], args.seed, seconds=None if args.trace else args.seconds,
                     trace=bool(args.trace), spans=args.out is not None)
    entry = report["workloads"][name]
    print_report(report)
    if args.out:
        write_json(args.out, report)
    contract = load_contract()
    if args.trace:
        values = per_layer_metrics(entry, report["probes"])
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["end_to_end"][m["name"]]["median"],
                               "unit": m["unit"]} for m in contract["end_to_end"]}
    print(json.dumps({"correct": entry["failed"] == 0 and entry["repeatable"],
                      "attempted": entry["attempted"], "failed": entry["failed"],
                      "metrics": metrics}))
    return 0


def ledger_run(args) -> int:
    """The whole ledger: every workload, traced passes, probes."""
    names = args.workload or list(WORKLOADS)
    report = collect(names, args.seed, repeats=args.repeats, spans=True,
                     verify=not args.update_reference)
    if args.update_reference:
        update_reference(report)
    print_report(report)
    if args.out:
        write_json(args.out, report)
    bad = [n for n, e in report["workloads"].items() if e["failed"] or not e["repeatable"]]
    if bad:
        print(f"\nFAILED: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


def update_reference(report: Dict[str, Any]) -> None:
    """Rewrite reference.json from this report (seed 0, every workload) and
    print what changed."""
    try:
        old = load_reference()
    except FileNotFoundError:
        old = {"runs": {}}
    new: Dict[str, Any] = {"seed": 0, "attempted": {}, "ops": {}, "runs": {}}
    for name, entry in report["workloads"].items():
        new["attempted"][name] = entry["runs_per_pass"]
        new["ops"][name] = entry["ops_per_pass"]
        new["runs"].update(entry["fingerprints"])
    for key in sorted(set(old["runs"]) | set(new["runs"])):
        before, after = old["runs"].get(key), new["runs"].get(key)
        if before != after:
            print(f"reference {key}: {before} -> {after}")
    # One run per line, sorted by key, so that a change reads as a diff.
    runs = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                      for key, value in sorted(new["runs"].items()))
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": 0,\n "attempted": {json.dumps(new["attempted"])},\n'
                 f' "ops": {json.dumps(new["ops"])},\n'
                 f' "runs": {{\n{runs}\n }}}}\n')
    print(f"reference.json: {len(new['runs'])} runs, "
          f"digest {fingerprint_digest(new['runs'])}")


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 ledger/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to measure (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to the seed of every run the workloads submit")
    parser.add_argument("--seconds", type=float, default=None,
                        help="driver mode: measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--repeats", type=int, default=5,
                        help="ledger mode: untraced passes per workload (>= 3)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the report (samples, spans, layers) as JSON")
    parser.add_argument("--update-reference", action="store_true",
                        help="ledger mode, seed 0: rewrite ledger/reference.json")
    # Internal: how this file starts its child processes.
    parser.add_argument("--child", choices=("pass", "setup", "probes"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    for flag in ("--profile", "--spans", "--no-verify"):
        parser.add_argument(flag, action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.seconds is not None and (
            not args.workload or len(args.workload) != 1 or args.seconds <= 0):
        parser.error("--seconds needs exactly one --workload and a positive time")
    if args.seconds is None and args.repeats < 3:
        parser.error("--repeats must be at least 3")
    if args.update_reference and (args.seed != 0 or args.workload):
        parser.error("--update-reference records seed 0 of every workload")
    try:
        return driver_run(args) if args.seconds is not None else ledger_run(args)
    except ChildError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
