"""Bucket a cProfile run by layer: the packages under ``src/repro``.

A function defined in ``src/repro/<layer>/`` belongs to that layer.  Self
time of everything else (builtins, the standard library, numpy) is handed
to the layers that called it, through the profiler's caller edges, so that
``heapq`` work counts for ``sim`` and ``sorted`` inside the TSP bound for
``apps``.  What no layer called (the ledger's own code, import machinery)
stays in ``other``.  The shares always add up to the profile's total.
"""

from __future__ import annotations

import os
import pstats
from typing import Any, Dict, Tuple

LAYERS = ("sim", "core", "machine", "queueing", "balance", "sharing",
          "quiescence", "faults", "apps", "workloads", "trace", "metrics",
          "obs", "util", "bench", "other")

_MARKER = os.sep + os.path.join("src", "repro") + os.sep
_LEDGER = os.path.dirname(os.path.abspath(__file__)) + os.sep

FuncKey = Tuple[str, int, str]

#: Passes over the call graph; call chains outside the layers are far shorter.
_ROUNDS = 64


def layer_of(filename: str):
    """The layer that owns ``filename``; ``None`` for code that is neither
    the simulator's nor the ledger's (its time goes to its callers)."""
    if filename.startswith(_LEDGER):
        return "other"
    _, marker, tail = filename.rpartition(_MARKER)
    if not marker:
        return None
    package = tail.split(os.sep, 1)[0]
    # Top-level modules (repro/patterns.py, repro/__init__.py) are no layer.
    return package if package in LAYERS and os.sep in tail else "other"


def bucket(stats: Dict[FuncKey, tuple]) -> Dict[str, Any]:
    """Layer shares of a ``pstats.Stats.stats`` mapping.

    Each entry is ``(primitive calls, calls, self time, cumulative time,
    callers)`` and each caller edge carries the self time spent under that
    caller, which makes the attribution exact one level up.  Deeper levels
    (a builtin called by a library function called by a layer) are split in
    proportion to the caller's own split, by iterating until the shares
    settle; what is still circulating among non-layer functions then, or
    has no caller at all, is ``other``.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    outside = [func for func, layer in owner.items() if layer is None]
    weights: Dict[FuncKey, Dict[FuncKey, float]] = {}
    for func in outside:
        edges = {caller: edge[2] for caller, edge in stats[func][4].items()
                 if caller != func and caller in stats}
        total = sum(edges.values())
        if total <= 0.0:  # callers, but none with measurable time: split evenly
            edges, total = dict.fromkeys(edges, 1.0), float(len(edges))
        weights[func] = {caller: w / total for caller, w in edges.items()}

    shares: Dict[FuncKey, Dict[str, float]] = {func: {} for func in outside}
    for _ in range(_ROUNDS):
        settled = True
        for func in outside:
            acc: Dict[str, float] = {}
            for caller, weight in weights[func].items():
                layer = owner[caller]
                if layer is not None:
                    acc[layer] = acc.get(layer, 0.0) + weight
                else:
                    for name, part in shares[caller].items():
                        acc[name] = acc.get(name, 0.0) + weight * part
            if settled and any(abs(acc[name] - shares[func].get(name, 0.0)) > 1e-12
                               for name in acc):
                settled = False
            shares[func] = acc
        if settled:
            break

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_s = 0.0
    for func, (_, ncalls, tottime, _, _) in stats.items():
        total_s += tottime
        layer = owner[func]
        calls[layer or "other"] += ncalls
        if layer is not None:
            self_s[layer] += tottime
            continue
        for name, part in shares[func].items():
            self_s[name] += tottime * part
        self_s["other"] += tottime * (1.0 - sum(shares[func].values()))
    return {"total_s": total_s,
            "layers": {name: {"self_s": self_s[name], "calls": calls[name]}
                       for name in LAYERS}}


def layer_profile(profiler) -> Dict[str, Any]:
    """Layer shares of a finished ``cProfile.Profile``."""
    return bucket(pstats.Stats(profiler).stats)
