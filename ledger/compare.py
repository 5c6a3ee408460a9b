"""Compare two ledger reports (``run.py --out``): ``python3 ledger/compare.py A.json B.json``.

A is the base (the parent commit), B the change.  Every workload gets its
own row per end-to-end metric: both medians with quartiles and sample
counts, the ratio B/A with its base, the share of pairs B won (the i-th
pass of A against the i-th of B, ties counting for neither) and a verdict:

* ``REGRESSION`` - B's median is worse than A's by more than the metric's
  bound in BENCHMARK.json;
* ``unresolved`` - a side's inter-quartile spread is wider than the bound,
  so "no change" cannot be told from a change (unless every pass of B beat
  every pass of A);
* ``better`` / ``worse`` - one side won at least nine tenths of the pairs
  and the medians differ by more than A's own spread: a change that is
  resolved, though within the bound;
* ``no change`` otherwise.

The exit code is 1 on any ``REGRESSION`` or ``worse`` (a workload that got
slower needs a decision, whatever its size), on any failed run, and on any
difference in an exact quantity (run fingerprints, counters, per-layer call
counts), which at equal seed means the simulated results changed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from ledger.stats import summarize

WIN_SHARE = 0.9


def judge(spec: Dict[str, Any], a: List[float], b: List[float]) -> Tuple[str, str]:
    """``(verdict, row text)`` for one metric; ``spec`` carries its unit,
    direction and bound."""
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (sb["median"] - sa["median"]) / sa["median"]
    pairs = list(zip(a, b))
    b_wins = sum(sign * (y - x) < 0 for x, y in pairs)
    a_wins = sum(sign * (y - x) > 0 for x, y in pairs)
    clear = abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]
    b_dominates = max(sign * y for y in b) < min(sign * x for x in a)
    if worse_by > spec["bound"]:
        verdict = "REGRESSION"
    elif max(sa["spread"], sb["spread"]) > spec["bound"] and not b_dominates:
        verdict = "unresolved"
    elif pairs and b_wins >= WIN_SHARE * len(pairs) and clear:
        verdict = "better"
    elif pairs and a_wins >= WIN_SHARE * len(pairs) and clear:
        verdict = "worse"
    else:
        verdict = "no change"
    text = (f"{spec['name']:12s} A {sa['median']:.6g} [{sa['q1']:.6g}, {sa['q3']:.6g}] n={sa['n']}"
            f" | B {sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}"
            f" | B/A {sb['median'] / sa['median']:.4f} of {sa['median']:.6g} {spec['unit']}"
            f" | B won {b_wins}/{len(pairs)} | bound {spec['bound']:.1%} | {verdict}")
    return verdict, text


def exact_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """What differs between two workload entries that must repeat exactly."""
    out = []
    if a["fingerprint_digest"] != b["fingerprint_digest"]:
        fa, fb = a["fingerprints"], b["fingerprints"]
        for key in sorted(set(fa) | set(fb)):
            if fa.get(key) != fb.get(key):
                label = (fa.get(key) or fb.get(key))[0]
                out.append(f"fingerprint of {label}: {fa.get(key)} -> {fb.get(key)}")
    for name in sorted(set(a["counters"]) | set(b["counters"])):
        if a["counters"].get(name) != b["counters"].get(name):
            out.append(f"counter {name}: {a['counters'].get(name)} -> "
                       f"{b['counters'].get(name)}")
    if "layers" in a and "layers" in b:
        for layer, row in a["layers"].items():
            # ``other`` holds the pool's wait loop, whose length is a matter of timing.
            if layer != "other" and row["calls"] != b["layers"][layer]["calls"]:
                out.append(f"{layer}.calls: {row['calls']} -> "
                           f"{b['layers'][layer]['calls']}")
    return out


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """``(report lines, problems)``; any problem makes the exit code 1."""
    lines, problems = [], []
    same_seed = a["seed"] == b["seed"]
    lines.append(f"A: commit {a['host']['commit']} seed {a['seed']}   "
                 f"B: commit {b['host']['commit']} seed {b['seed']}")
    if not same_seed:
        lines.append("seeds differ: exact quantities are not compared")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        lines.append(f"\n== {name}")
        for metric, ea in wa["end_to_end"].items():
            verdict, text = judge(ea, ea["samples"], wb["end_to_end"][metric]["samples"])
            lines.append(text)
            if verdict == "REGRESSION":
                problems.append(f"{name} {metric} regressed beyond its bound")
            elif verdict == "worse":
                problems.append(f"{name} {metric} got worse, within its bound")
        for side, entry in (("A", wa), ("B", wb)):
            if entry["failed"]:
                problems.append(f"{name}: {entry['failed']} of {entry['attempted']} "
                                f"runs failed in {side}")
        if same_seed:
            for difference in exact_differences(wa, wb):
                lines.append("EXACT " + difference)
                problems.append(f"{name}: {difference}")
    return lines, problems


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    lines, problems = compare(*reports)
    print("\n".join(lines))
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
