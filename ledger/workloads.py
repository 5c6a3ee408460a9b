"""The five workloads and the names of what a pass of one records.

Importable without the simulator: the parent process of a benchmark run
only reads these definitions, the child (``ledger.passes``) runs them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ledger import ROOT

REFERENCE_PATH = ROOT / "ledger" / "reference.json"

SEARCH = ("a2", "t6", "t7")
TABLES = ("a1", "a3", "a4", "a5", "f1", "f2", "f3", "r1", "r2", "t1", "t10",
          "t11", "t2", "t3", "t4", "t5", "t8", "t9")
SERVING = ("s1", "s2", "s3", "s4", "s5", "s6")
#: ``--exp all`` order of ``python -m repro.bench`` (sorted experiment ids).
ALL = tuple(sorted(SEARCH + TABLES + SERVING))


#: What ``--seed`` is turned into: an amount added to the seed of every run a
#: pass submits.  Every listed shift was checked to complete all five
#: workloads without a failed run; the gaps are shifts at which one run of the
#: simulator raises (see README.md, "Seeds").  Seed 0 is shift 0, the paper's.
SEED_SHIFTS = tuple(n for n in range(48) if n not in (10, 20))


def seed_shift(seed: int) -> int:
    return SEED_SHIFTS[seed % len(SEED_SHIFTS)]


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: Tuple[str, ...]
    scale: str
    jobs: int
    #: The pass uses a cold ``ResultCache`` in a temporary directory.
    cache: bool
    #: Above 0, set-up fills the cache with one cold sweep and the timed
    #: pass is this many warm replays of it.
    replays: int
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("search", SEARCH, "paper", 1, False, 0,
             "speculative branch-and-bound (a2 t6 t7): app entry bodies, "
             "monotonic floods and priority pools dominate; observability off"),
    Workload("tables", TABLES, "paper", 1, False, 0,
             "247 short runs of the speed-up tables on all real presets: "
             "kernel dispatch, engine, sizing, balancers, faults, sparse P=1e6"),
    Workload("serving", SERVING, "paper", 1, False, 0,
             "open-loop request serving (s1-s6): the only workload with event "
             "tracing, the latency walk and telemetry switched on"),
    Workload("sweep_jobs2", TABLES, "paper", 2, True, 0,
             "the tables runs again through a 2-worker pool and a cold result "
             "cache: row pickling, cache writes, pool start-up"),
    Workload("replay", ALL, "quick", 1, True, 300,
             "300 warm cache replays of the quick sweep: the simulator does "
             "nothing, so this bypasses every simulator optimisation"),
)}

#: Counters summed (``queueing.max_pool``: maximised) over every row a pass
#: receives; they repeat exactly on a commit, at equal seed.
COUNTERS = (
    "core.execs", "core.msgs_sent", "core.bytes_sent", "core.seeds_created",
    "sim.events", "machine.msg_hops", "queueing.max_pool",
    "balance.control_msgs", "balance.seeds_remote",
    "sharing.mono_updates_sent", "sharing.mono_updates_applied",
    "quiescence.waves", "faults.retries", "faults.msgs_dropped",
    "bench.runs_executed", "bench.runs_cached", "bench.cache_stores",
)
SPAN_METRICS = ("bench.harness_self_s", "bench.run_host_p50_ms",
                "bench.run_host_p95_ms", "core.us_per_exec")


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def fingerprint_digest(fingerprints: Dict[str, list]) -> str:
    blob = json.dumps(sorted(fingerprints.items()), separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()
