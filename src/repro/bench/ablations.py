"""Ablation experiments (A-series): the runtime's own design choices.

Where T1–T9/F1–F3 reproduce the paper's evaluation, the A-series probes
the design decisions DESIGN.md calls out, holding the application fixed
and toggling one runtime mechanism:

* **A1** — collective spanning tree: topology-oblivious rank tree vs
  hypercube binomial tree (network load and completion time).
* **A2** — monotonic ``lazy`` batching interval: pruning quality vs
  propagation traffic as the batch window grows.
* **A3** — quiescence wave interval: detection latency vs probe traffic.
* **A4** — ACWN parameters: forwarding threshold and hop budget.
* **A5** — link contention: all-to-all vs nearest-neighbor traffic.

Like the T/F/R series, each experiment is a plan (declarative run
descriptors) and a report over their rows, so ablations parallelise and
cache exactly like the paper tables.  Kernel-level knobs (``spanning_tree``,
``lazy_interval``, ``qd_interval``), parameterised balancers
(``balancer={"name": ..., ...}``) and machine cost-model overrides
(``machine_scaled={...}``) all travel inside the descriptor.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.apps.tree import TreeParams
from repro.apps.tsp import TspInstance, tsp_seq
from repro.bench.harness import describe
from repro.bench.tables import ExperimentResult, Plan, format_table

__all__ = ["exp_a1", "exp_a2", "exp_a3", "exp_a4", "exp_a5"]


def _tree_params(scale: str) -> TreeParams:
    """The unbalanced tree A1 and A4 run."""
    if scale == "quick":
        return TreeParams(seed=11, max_depth=10, max_fanout=5, branch_bias=0.96)
    return TreeParams(seed=7, max_depth=12, max_fanout=6, branch_bias=0.98)


def exp_a1(scale: str = "paper") -> Plan:
    """Spanning-tree shape ablation on a hypercube."""
    pes = 16 if scale == "quick" else 64
    params = _tree_params(scale)
    tree_names = ("rank", "binomial")
    descs = [
        describe("tree", "ncube2", pes, balancer="acwn",
                 spanning_tree=tree_name, params=params)
        for tree_name in tree_names
    ]

    def report(measured) -> ExperimentResult:
        headers = ["tree", "time (ms)", "msg hops", "bytes sent"]
        rows = []
        data: Dict[str, Any] = {}
        for tree_name, row in zip(tree_names, measured):
            rows.append([tree_name, row.vtime * 1e3,
                         row.stats.total_message_hops,
                         row.stats.total_bytes_sent])
            data[tree_name] = {
                "time": row.vtime,
                "hops": row.stats.total_message_hops,
                "bytes": row.stats.total_bytes_sent,
            }
        assert len({row.answer for row in measured}) == 1
        return ExperimentResult(
            "A1",
            "collective spanning tree: rank vs binomial",
            format_table(headers, rows,
                         title=f"Unbalanced tree on ncube2 hypercube, P={pes}"),
            data,
        )
    return descs, report


def exp_a2(scale: str = "paper") -> Plan:
    """Monotonic lazy-batching interval ablation (TSP bound sharing)."""
    pes = 8 if scale == "quick" else 16
    n = 8 if scale == "quick" else 10
    intervals = [0.05e-3, 0.2e-3, 1e-3, 5e-3]
    descs = [
        describe("tsp", "ipsc2", pes, queueing="fifo", propagation="lazy",
                 n=n, instance_seed=0, grain=2, bound_slack=1.6,
                 lazy_interval=interval)
        for interval in intervals
    ]

    def report(measured) -> ExperimentResult:
        # Same instance the descriptors rebuild (n + instance_seed=0).
        best_ref, _ = tsp_seq(TspInstance.random(n, 0))
        headers = ["lazy interval (ms)", "nodes", "time (ms)", "bound msgs"]
        rows = []
        data: Dict[str, Any] = {}
        for interval, row in zip(intervals, measured):
            best, nodes, _ = row.answer
            assert best == best_ref
            rows.append([interval * 1e3, nodes, row.vtime * 1e3,
                         row.stats.mono_updates_sent])
            data[interval] = {
                "nodes": nodes,
                "time": row.vtime,
                "msgs": row.stats.mono_updates_sent,
            }
        return ExperimentResult(
            "A2",
            "monotonic lazy-propagation batching interval",
            format_table(headers, rows,
                         title=f"TSP({n}) B&B, fifo queueing, loose incumbent, P={pes}"),
            data,
        )
    return descs, report


def exp_a3(scale: str = "paper") -> Plan:
    """Quiescence wave-interval ablation: latency vs probe traffic."""
    pes = 8 if scale == "quick" else 16
    n = 7 if scale == "quick" else 8
    intervals = [0.1e-3, 0.5e-3, 2e-3, 10e-3]
    descs = [
        describe("queens", "ipsc2", pes, n=n, grainsize=3,
                 qd_interval=interval)
        for interval in intervals
    ]

    def report(measured) -> ExperimentResult:
        headers = ["qd interval (ms)", "waves", "system msgs",
                   "detect latency (ms)", "total time (ms)"]
        rows = []
        data: Dict[str, Any] = {}
        for interval, row in zip(intervals, measured):
            detected = row.stats.qd_detected_at or row.vtime
            latency = detected - (row.qd_work_end or 0.0)
            rows.append([interval * 1e3, row.stats.qd_waves,
                         row.stats.total_system_executed, latency * 1e3,
                         row.vtime * 1e3])
            data[interval] = {
                "waves": row.stats.qd_waves,
                "latency": latency,
                "system": row.stats.total_system_executed,
            }
        return ExperimentResult(
            "A3",
            "quiescence wave interval: latency vs probe traffic",
            format_table(headers, rows, title=f"N-queens({n}) on ipsc2, P={pes}"),
            data,
        )
    return descs, report


def exp_a5(scale: str = "paper") -> Plan:
    """Link-contention ablation: uncontended links vs per-link queuing.

    All-to-all traffic (sample sort) suffers from link serialization far
    more than nearest-neighbor traffic (jacobi) — the reason contention
    modelling matters when comparing communication patterns.
    """
    pes = 8 if scale == "quick" else 16
    n_sort = 2048 if scale == "quick" else 8192
    n_grid = 16 if scale == "quick" else 32
    contended = {"link_bandwidth": 2.8e6}
    descs = [
        describe("samplesort", "ipsc2", pes, n=n_sort, workers=pes),
        describe("samplesort", "ipsc2", pes, n=n_sort, workers=pes,
                 machine_scaled=contended),
        describe("jacobi", "ipsc2", pes, n=n_grid, blocks=4, iterations=8),
        describe("jacobi", "ipsc2", pes, n=n_grid, blocks=4, iterations=8,
                 machine_scaled=contended),
    ]

    def report(results) -> ExperimentResult:
        headers = ["app", "links", "time (ms)", "slowdown"]
        rows = []
        data: Dict[str, Any] = {}
        for app, (plain, slow) in zip(("samplesort", "jacobi"),
                                      (results[0:2], results[2:4])):
            rows.append([app, "ideal", plain.vtime * 1e3, 1.0])
            rows.append([app, "2.8MB/s", slow.vtime * 1e3,
                         round(slow.vtime / plain.vtime, 2)])
            data[app] = {"plain": plain.vtime, "contended": slow.vtime}
        return ExperimentResult(
            "A5",
            "link contention: all-to-all vs nearest-neighbor",
            format_table(headers, rows,
                         title=f"ipsc2 hypercube P={pes}, per-link queuing"),
            data,
        )
    return descs, report


def exp_a4(scale: str = "paper") -> Plan:
    """ACWN parameter ablation: threshold and hop budget."""
    pes = 8 if scale == "quick" else 16
    params = _tree_params(scale)
    combos = [(threshold, max_hops) for threshold in (1, 2, 4, 8)
              for max_hops in (1, 4)]
    descs = [
        describe("tree", "ipsc2", pes, params=params,
                 balancer={"name": "acwn", "threshold": threshold,
                           "max_hops": max_hops})
        for threshold, max_hops in combos
    ]

    def report(measured) -> ExperimentResult:
        headers = ["threshold", "max hops", "time (ms)", "util %",
                   "remote seeds"]
        rows = []
        data: Dict[str, Any] = {}
        for (threshold, max_hops), row in zip(combos, measured):
            rows.append([threshold, max_hops, row.vtime * 1e3,
                         round(row.stats.mean_utilization * 100, 1),
                         row.stats.lb_seeds_remote])
            data[(threshold, max_hops)] = {
                "time": row.vtime,
                "util": row.stats.mean_utilization,
                "remote": row.stats.lb_seeds_remote,
            }
        assert len({row.answer for row in measured}) == 1
        return ExperimentResult(
            "A4",
            "ACWN threshold / hop-budget sweep",
            format_table(headers, rows,
                         title=f"Unbalanced tree on ipsc2, P={pes}"),
            {str(k): v for k, v in data.items()},
        )
    return descs, report
