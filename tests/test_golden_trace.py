"""Golden-trace determinism tests for the simulator hot path.

The hot-path optimization work (closure-free event loop, slotted
envelopes, memoized network costs) must preserve *bit-identical* virtual
time results.  These tests pin a matrix of {app x machine preset x
balancer x queueing} runs against fixtures captured from the
pre-optimization kernel: result value, ``RunResult.time``, events fired,
quiescence counters, message-hop totals and per-PE counters all have to
match exactly — floats are compared via ``float.hex`` so there is no
tolerance to hide behind.

Regenerate fixtures (only when *intentionally* changing simulation
semantics) with::

    PYTHONPATH=src python tests/test_golden_trace.py --regen
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pytest

from repro.apps.fib import run_fib
from repro.apps.histogram import run_histogram
from repro.apps.nqueens import run_nqueens
from repro.apps.tree import TreeParams, run_tree
from repro.apps.tsp import TspInstance, run_tsp
from repro.machine.presets import make_machine

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE_PATH = os.path.join(FIXTURE_DIR, "golden_traces.json")
# The P=1 case lives in its own file so golden_traces.json (captured from
# the pre-optimization kernel) stays byte-identical.
P1_FIXTURE_PATH = os.path.join(FIXTURE_DIR, "golden_traces_p1.json")

# One entry per {app x machine preset x balancer x queueing} combination.
# Small problem sizes keep the whole matrix under a few seconds while still
# exercising seeds, balancer forwarding, priorities, QD and table traffic.
CASES = [
    # (case_id, runner_name, kwargs)
    ("queens-ipsc2-random-fifo",
     "queens", dict(machine="ipsc2", pes=8, balancer="random",
                    queueing="fifo", n=6, seed=3)),
    ("queens-ipsc2-acwn-fifo",
     "queens", dict(machine="ipsc2", pes=8, balancer="acwn",
                    queueing="fifo", n=6, seed=3)),
    ("queens-ipsc2-token-fifo",
     "queens", dict(machine="ipsc2", pes=8, balancer="token",
                    queueing="fifo", n=6, seed=3)),
    ("queens-ipsc2-central-fifo",
     "queens", dict(machine="ipsc2", pes=8, balancer="central",
                    queueing="fifo", n=6, seed=3)),
    ("queens-symmetry-random-lifo",
     "queens", dict(machine="symmetry", pes=8, balancer="random",
                    queueing="lifo", n=6, seed=1)),
    ("queens-ncube2-acwn-prio",
     "queens", dict(machine="ncube2", pes=16, balancer="acwn",
                    queueing="prio", n=6, seed=2)),
    ("tree-ncube2-acwn-fifo",
     "tree", dict(machine="ncube2", pes=16, balancer="acwn",
                  queueing="fifo", seed=1)),
    ("tree-ipsc2-random-lifo",
     "tree", dict(machine="ipsc2", pes=8, balancer="random",
                  queueing="lifo", seed=1)),
    ("tree-multimax-token-fifo",
     "tree", dict(machine="multimax", pes=8, balancer="token",
                  queueing="fifo", seed=4)),
    ("fib-ideal-random-fifo",
     "fib", dict(machine="ideal", pes=8, balancer="random",
                 queueing="fifo", n=14, seed=0)),
    ("fib-cluster-acwn-lifo",
     "fib", dict(machine="cluster", pes=16, balancer="acwn",
                 queueing="lifo", n=14, seed=5)),
    ("tsp-symmetry-random-prio",
     "tsp", dict(machine="symmetry", pes=8, balancer="random",
                 queueing="prio", n=7, seed=4)),
    ("tsp-ipsc2-acwn-bitprio",
     "tsp", dict(machine="ipsc2", pes=8, balancer="acwn",
                 queueing="bitprio", n=7, seed=4)),
    ("histogram-multimax-random-fifo",
     "histogram", dict(machine="multimax", pes=8, balancer="random",
                       queueing="fifo", seed=0)),
    ("histogram-ideal-central-fifo",
     "histogram", dict(machine="ideal", pes=8, balancer="central",
                       queueing="fifo", seed=2)),
]

# Single-PE zero-cost machine: every send is a self-send and most busy
# windows are zero-length — the one shape the (since deleted) turn lane
# special-cased with inline arrivals and hand-off; captured with that lane
# armed (202 of 795 events inlined), so scalar execution must reproduce it.
P1_CASES = [
    ("histogram-ideal-p1-random-fifo",
     "histogram", dict(machine="ideal", pes=1, balancer="random",
                       queueing="fifo", seed=0)),
]

ALL_CASES = CASES + P1_CASES
FIXTURE_FILES = ((FIXTURE_PATH, CASES), (P1_FIXTURE_PATH, P1_CASES))


def _run_case(runner: str, spec: dict, **extra):
    machine = make_machine(spec["machine"], spec["pes"])
    common = dict(balancer=spec["balancer"], queueing=spec["queueing"],
                  seed=spec["seed"], **extra)
    if runner == "queens":
        return run_nqueens(machine, n=spec["n"], grainsize=2, **common)
    if runner == "tree":
        return run_tree(machine, TreeParams(seed=7, max_depth=7), **common)
    if runner == "fib":
        return run_fib(machine, n=spec["n"], threshold=6, **common)
    if runner == "tsp":
        inst = TspInstance.random(spec["n"], seed=11)
        return run_tsp(machine, inst, grain=4, **common)
    if runner == "histogram":
        return run_histogram(machine, items=96, workers=6, **common)
    raise ValueError(f"unknown runner {runner!r}")


def _fingerprint(answer, result) -> dict:
    """Everything that must be bit-identical across the optimization."""
    k = result.kernel
    return {
        "result": repr(answer),
        "time": float(result.time).hex(),
        "events": result.events,
        "counted_sent": result.stats.counted_sent,
        "counted_processed": result.stats.counted_processed,
        "total_message_hops": k.total_message_hops,
        "pes": [
            {
                "busy_time": float(pe.busy_time).hex(),
                "msgs_executed": pe.msgs_executed,
                "seeds_executed": pe.seeds_executed,
                "system_executed": pe.system_executed,
                "msgs_sent": pe.msgs_sent,
                "bytes_sent": pe.bytes_sent,
                "seeds_created": pe.seeds_created,
                "max_queued": pe.max_queued,
            }
            # Dense iteration: materializing an untouched rank yields the
            # same all-zero counters the old eager list carried.
            for pe in (k.pes[i] for i in range(k.num_pes))
        ],
    }


def _load_fixtures() -> dict:
    fixtures = {}
    for path, _cases in FIXTURE_FILES:
        with open(path, encoding="utf-8") as fh:
            fixtures.update(json.load(fh))
    return fixtures


@pytest.mark.parametrize("case_id,runner,spec", ALL_CASES,
                         ids=[c[0] for c in ALL_CASES])
def test_golden_trace(case_id, runner, spec):
    fixtures = _load_fixtures()
    assert case_id in fixtures, (
        f"no golden fixture for {case_id}; regenerate with "
        f"PYTHONPATH=src python tests/test_golden_trace.py --regen"
    )
    answer, result = _run_case(runner, spec)
    assert _fingerprint(answer, result) == fixtures[case_id]


def _observers(names: str) -> dict:
    """Kernel keywords attaching the named observers to a fresh run."""
    from repro.obs import Telemetry
    from repro.trace import EventLog

    kwargs = {}
    if "log" in names:
        kwargs["trace_events"] = EventLog()
    if "telemetry" in names:
        kwargs["telemetry"] = Telemetry(interval=1e-4)
    return kwargs


@pytest.mark.parametrize("case_id,runner,spec", ALL_CASES,
                         ids=[c[0] for c in ALL_CASES])
def test_observers_keep_the_golden_fingerprint(case_id, runner, spec):
    """Every observer the kernel's one slot holds — an event log,
    telemetry, or both through the pair — leaves the run unobserved-
    identical, and telemetry leaves the log's rows untouched."""
    expected = _load_fixtures()[case_id]
    rows = {}
    for names in ("log", "telemetry", "log+telemetry"):
        kwargs = _observers(names)
        answer, result = _run_case(runner, spec, **kwargs)
        assert _fingerprint(answer, result) == expected, names
        if "log" in names:
            assert result.kernel.events is kwargs["trace_events"]
            rows[names] = kwargs["trace_events"].rows
    assert rows["log"] == rows["log+telemetry"]


# sha256 of the sorted-key JSON fingerprint, taken from the commit before the
# burst outbox flush was deleted (untraced runs took it there).  Its
# consecutive-only grouping guaranteed the per-envelope (time, seq) order;
# these values hold that order now that the path itself is gone.
_FANOUT_PINS = {
    ("histogram", "ideal"):
        "73b9cf3f6471cebdd3b911943351ae6f66979b1c5e48aeabebc96ad95b6b99c8",
    ("tree", "ncube2"):
        "ab7327f19772b6ed0b6faba848217e1a74120ae0723fbc78a078ccc87bcbb7bb",
}


def test_burst_flush_matches_scalar_flush():
    """Two shapes whose outboxes hold >= 4 envelopes with equal arrival
    times (what the burst flush used to group): a traced and an untraced
    run fingerprint identically, and equal the parent commit's fingerprint.
    """
    for (runner, machine), pinned in _FANOUT_PINS.items():
        spec = dict(machine=machine, pes=16, balancer="random",
                    queueing="fifo", seed=2)
        untraced = _fingerprint(*_run_case(runner, spec))
        traced = _fingerprint(*_run_case(runner, spec, trace_events="all"))
        assert untraced == traced
        digest = hashlib.sha256(
            json.dumps(untraced, sort_keys=True).encode()).hexdigest()
        assert digest == pinned, f"{runner}/{machine} moved"


def regenerate() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    for path, cases in FIXTURE_FILES:
        fixtures = {}
        for case_id, runner, spec in cases:
            answer, result = _run_case(runner, spec)
            fixtures[case_id] = _fingerprint(answer, result)
            print(f"  {case_id}: time={result.time:.6f}s "
                  f"events={result.events}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fixtures, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(fixtures)} fixtures to {path}")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
