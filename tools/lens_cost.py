"""What the serving latency lens costs the ``serving`` pass.

    PYTHONPATH=src python3 tools/lens_cost.py

It runs the S-series experiments (``s1``–``s6``) at paper scale once,
through an in-process executor that keeps every descriptor they submit.
Then, for ``ROUNDS`` rounds, it runs each descriptor the sweep would fold
(one whose params do not set ``trace_events``) three ways, back to back
and in a rotating order:

* ``fold``: as the sweep runs it, recording into a fresh
  :class:`~repro.metrics.latency.LatencyFold`;
* ``noop``: with a bare :class:`~repro.trace.events.Recorder` in the
  observer slot, which hears every execution and does nothing with it;
* ``none``: with no recorder.

A run is timed from ``run_descriptor`` call to return, so the digest
after the simulation counts.  Each round prints the host seconds per way,
summed over the descriptors, and the two ratios ``fold/none`` (what the
lens costs) and ``noop/none`` (what the hook sites cost a recorder that
keeps nothing).  The last line takes, per descriptor and way, the fastest
of the rounds, and gives the ratios of their sums: load from elsewhere
on the host only ever adds time, so the minimum is the reading least
moved by it.

Interleaving per descriptor is what makes the ratios readable on a
shared host: two separate ledger passes swing by a quarter, while the
three ways of one descriptor run within a second of each other.  Every
number is host time; take it on an otherwise idle machine.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.bench.experiments import run_experiment
from repro.bench.harness import run_descriptor
from repro.bench.parallel import use_executor
from repro.trace.events import Recorder

#: The ``serving`` workload's experiments (``ledger/workloads.py``).
SERVING = ("s1", "s2", "s3", "s4", "s5", "s6")

ROUNDS = 5

WAYS = ("fold", "noop", "none")


class Keep:
    """An executor that runs every batch inline and keeps its descriptors."""

    cache = None

    def __init__(self) -> None:
        self.descs = []

    def run_many(self, descs, label: str = ""):
        self.descs.extend(descs)
        return [run_descriptor(desc) for desc in descs]


def collect():
    """The S-series paper descriptors a sweep's serving runs fold."""
    keep = Keep()
    with use_executor(keep):
        for exp in SERVING:
            run_experiment(exp, "paper")
    return [desc for desc in keep.descs
            if "trace_events" not in dict(desc.params)]


def way(desc, name: str):
    """``desc`` run the named way (``fold`` is the descriptor as it is)."""
    if name == "fold":
        return desc
    recorder = Recorder() if name == "noop" else None
    return replace(desc, params=desc.params + (("trace_events", recorder),))


def one_round(descs, turn: int, fastest):
    spent = dict.fromkeys(WAYS, 0.0)
    for i, desc in enumerate(descs):
        k = (i + turn) % len(WAYS)
        for name in WAYS[k:] + WAYS[:k]:
            run = way(desc, name)
            t0 = time.perf_counter()
            run_descriptor(run)
            took = time.perf_counter() - t0
            spent[name] += took
            key = (i, name)
            fastest[key] = min(fastest.get(key, took), took)
    return spent


def main() -> None:
    descs = collect()
    print(f"{len(descs)} folded descriptors of {', '.join(SERVING)}")
    fastest = {}
    for turn in range(ROUNDS):
        spent = one_round(descs, turn, fastest)
        print(f"round {turn + 1}: "
              + "  ".join(f"{name} {spent[name]:.3f} s" for name in WAYS)
              + f"  fold/none x{spent['fold'] / spent['none']:.3f}"
              f"  noop/none x{spent['noop'] / spent['none']:.3f}")
    best = {name: sum(t for (_, w), t in fastest.items() if w == name)
            for name in WAYS}
    print(f"fastest of {ROUNDS}: "
          + "  ".join(f"{name} {best[name]:.3f} s" for name in WAYS)
          + f"  fold/none x{best['fold'] / best['none']:.3f}"
          f"  noop/none x{best['noop'] / best['none']:.3f}")


if __name__ == "__main__":
    main()
