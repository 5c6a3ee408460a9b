"""The experiment registry: one function per reproduced table/figure.

Experiment ids follow DESIGN.md §4 (T1–T9, F1–F3).  Every function returns
an :class:`ExperimentResult` whose ``text`` is the printable table(s)/series
and whose ``data`` holds the raw numbers for tests and EXPERIMENTS.md.

Sizes here are the "paper scale" defaults; ``scale='quick'`` runs reduced
sizes, which ``tests/test_experiments.py`` uses to assert every
experiment's claim shape in the tier-1 suite.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from repro.apps import TreeParams
from repro.bench.ablations import exp_a1, exp_a2, exp_a3, exp_a4, exp_a5
from repro.bench.harness import (
    APPS,
    describe,
    measure_many,
    sweep_from_rows,
)
from repro.bench.serving import (exp_s1, exp_s2, exp_s3, exp_s4, exp_s5,
                                 exp_s6)
from repro.bench.tables import ExperimentResult, format_series, format_table
from repro.faults import FaultConfig
from repro.util.errors import ConfigurationError

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment"]


# --------------------------------------------------------------------- scales
def _suite(scale: str) -> List[str]:
    if scale == "quick":
        return ["queens", "fib", "primes", "jacobi"]
    return ["queens", "fib", "primes", "tsp", "jacobi", "tree",
            "puzzle", "samplesort", "md"]


def _sizes(scale: str) -> Dict[str, Dict[str, Any]]:
    """Per-app parameter overrides by scale."""
    if scale == "quick":
        return {
            "queens": {"n": 7, "grainsize": 3},
            "fib": {"n": 15, "threshold": 8},
            "primes": {"limit": 4000, "chunks": 32},
            "tsp": {"n": 8, "grain": 4},
            "knapsack": {"n": 18, "grain": 9},
            "jacobi": {"n": 16, "blocks": 4, "iterations": 4},
            "matmul": {"n": 32, "g": 4},
            "tree": {
                "params": TreeParams(seed=11, max_depth=10, max_fanout=5,
                                     branch_bias=0.96, node_work=150.0)
            },
            "histogram": {"items": 96, "workers": 8},
            "puzzle": {"scramble": 16, "instance_seed": 1, "split": 3},
            "sor": {"n": 16, "blocks": 4, "tol": 1e-2, "max_iters": 100},
            "samplesort": {"n": 1024, "workers": 8},
            "lu": {"n": 32, "blocks": 8},
        }
    return {name: {} for name in APPS}


def _speedup_table(
    machine: str,
    pes: Sequence[int],
    scale: str,
    apps: Sequence[str] | None = None,
    sizes: Dict[str, Dict[str, Any]] | None = None,
    label: str = "",
) -> ExperimentResult:
    sizes = _sizes(scale) if sizes is None else sizes
    apps = list(apps) if apps is not None else _suite(scale)
    # One batch across every (app, P) cell: all runs are independent, so a
    # parallel executor overlaps the whole table.
    descs = [
        describe(app, machine, p, **sizes.get(app, {}))
        for app in apps
        for p in pes
    ]
    all_rows = measure_many(descs, label=label or f"speedups@{machine}")
    headers = ["program", "T1 (ms)"] + [f"S(P={p})" for p in pes[1:]]
    rows = []
    data: Dict[str, Any] = {"machine": machine, "pes": list(pes), "apps": {}}
    for idx, app in enumerate(apps):
        chunk = all_rows[idx * len(pes):(idx + 1) * len(pes)]
        sweep = sweep_from_rows(app, machine, pes, chunk)
        assert sweep.consistent(), f"{app} answers diverged across P on {machine}"
        rows.append([app, sweep.t1 * 1e3] + [round(s, 2) for s in sweep.speedups[1:]])
        data["apps"][app] = {
            "times": sweep.times,
            "speedups": sweep.speedups,
            "answer": sweep.answers[0],
        }
    text = format_table(
        headers, rows, title=f"Speedup on {machine} (virtual time, T1 = 1-PE run)"
    )
    return ExperimentResult("", f"speedups on {machine}", text, data)


# ------------------------------------------------------------------------ T1
def exp_t1(scale: str = "paper") -> ExperimentResult:
    """Benchmark-suite characteristics (1 PE, ideal machine)."""
    sizes = _sizes(scale)
    apps = _suite(scale) + (
        ["knapsack", "matmul", "histogram", "sor", "lu"]
        if scale != "quick" else []
    )
    headers = ["program", "work (units)", "app msgs", "grain (units/msg)",
               "bytes sent", "T1 ideal (ms)"]
    rows = []
    data = {}
    descs = [describe(app, "ideal", 1, **sizes.get(app, {})) for app in apps]
    for app, row in zip(apps, measure_many(descs, label="t1")):
        stats = row.stats
        msgs = max(1, stats.total_msgs_executed)
        rows.append(
            [
                app,
                round(stats.total_charged),
                stats.total_msgs_executed,
                round(stats.total_charged / msgs, 1),
                stats.total_bytes_sent,
                row.vtime_ms,
            ]
        )
        data[app] = {
            "work": stats.total_charged,
            "msgs": stats.total_msgs_executed,
            "bytes": stats.total_bytes_sent,
            "t1": row.vtime,
        }
    return ExperimentResult(
        "T1",
        "benchmark suite characteristics",
        format_table(headers, rows, title="Suite characteristics (P=1, ideal machine)"),
        data,
    )


# --------------------------------------------------------------------- T2-T4
def exp_t2(scale: str = "paper") -> ExperimentResult:
    """Speedups on the shared-memory (Sequent Symmetry class) machine."""
    pes = [1, 2, 4, 8] if scale == "quick" else [1, 2, 4, 8, 16]
    res = _speedup_table("symmetry", pes, scale)
    res.exp_id, res.title = "T2", "speedups, shared-memory bus machine"
    return res


def exp_t3(scale: str = "paper") -> ExperimentResult:
    """Speedups on the Intel iPSC/2-class hypercube."""
    pes = [1, 4, 16] if scale == "quick" else [1, 4, 16, 64]
    res = _speedup_table("ipsc2", pes, scale)
    res.exp_id, res.title = "T3", "speedups, iPSC/2-class hypercube"
    return res


def exp_t4(scale: str = "paper") -> ExperimentResult:
    """Large-P speedups on the NCUBE-class hypercube (scalable programs)."""
    if scale == "quick":
        pes, apps = [1, 8, 32], ["queens", "tree"]
    else:
        pes, apps = [1, 16, 64, 256], ["queens", "tree"]
    sizes = _sizes(scale)
    if scale != "quick":
        # Larger instances so 256 PEs have work to share.
        sizes = dict(sizes)
        sizes["queens"] = {"n": 9, "grainsize": 4}
        sizes["tree"] = {
            "params": TreeParams(seed=42, max_depth=14, max_fanout=5,
                                 branch_bias=0.99, node_work=200.0)
        }
    res = _speedup_table("ncube2", pes, scale, apps=apps, sizes=sizes,
                         label="t4")
    data = {"machine": "ncube2", "pes": pes,
            "apps": {app: {"times": d["times"], "speedups": d["speedups"]}
                     for app, d in res.data["apps"].items()}}
    headers = ["program", "T1 (ms)"] + [f"S(P={p})" for p in pes[1:]]
    rows = [
        [app, d["times"][0] * 1e3] + [round(s, 2) for s in d["speedups"][1:]]
        for app, d in data["apps"].items()
    ]
    return ExperimentResult(
        "T4",
        "large-P speedups, NCUBE-class hypercube",
        format_table(headers, rows, title="Speedup on ncube2"),
        data,
    )


# ------------------------------------------------------------------------ T5
def exp_t5(scale: str = "paper") -> ExperimentResult:
    """Load-balancing strategy comparison on the unbalanced tree."""
    strategies = ["local", "random", "roundrobin", "central", "token",
                  "acwn", "gradient"]
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    headers = ["strategy", "time (ms)", "mean util %", "imbalance",
               "max gap (ms)", "pool hw", "remote seeds", "control msgs"]
    rows = []
    data: Dict[str, Any] = {}
    answers = set()
    descs = [
        describe("tree", "ipsc2", pes, balancer=strat, **sizes.get("tree", {}))
        for strat in strategies
    ]
    for strat, row in zip(strategies, measure_many(descs, label="t5")):
        st = row.stats
        answers.add(row.answer)
        rows.append(
            [
                strat,
                row.vtime_ms,
                round(st.mean_utilization * 100, 1),
                round(st.load_imbalance, 2),
                round(st.max_idle_gap * 1e3, 3),
                st.pool_high_water,
                st.lb_seeds_remote,
                st.lb_control_msgs,
            ]
        )
        data[strat] = {
            "time": row.vtime,
            "util": st.mean_utilization,
            "imbalance": st.load_imbalance,
            "idle_time": st.total_idle_time,
            "max_idle_gap": st.max_idle_gap,
            "pool_high_water": st.pool_high_water,
            "remote_seeds": st.lb_seeds_remote,
            "control": st.lb_control_msgs,
        }
    assert len(answers) == 1, "tree answer depends on balancer (bug)"
    return ExperimentResult(
        "T5",
        "dynamic load-balancing strategies",
        format_table(
            headers, rows,
            title=f"Unbalanced tree on ipsc2, P={pes} (same tree for all)",
        ),
        data,
    )


# ------------------------------------------------------------------------ T6
def exp_t6(scale: str = "paper") -> ExperimentResult:
    """Queueing strategies on speculative search (B&B anomalies)."""
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    headers = ["program", "queueing", "nodes expanded", "time (ms)", "best"]
    rows = []
    data: Dict[str, Any] = {}
    combos = [(app, strat) for app in ("tsp", "knapsack")
              for strat in ("fifo", "lifo", "prio")]
    descs = [
        describe(app, "ipsc2", pes, queueing=strat, **sizes.get(app, {}))
        for app, strat in combos
    ]
    for (app, strat), row in zip(combos, measure_many(descs, label="t6")):
        best, nodes = row.answer[0], row.answer[1]
        rows.append([app, strat, nodes, row.vtime_ms, best])
        data[(app, strat)] = {"nodes": nodes, "time": row.vtime, "best": best}
    return ExperimentResult(
        "T6",
        "queueing strategies and search anomalies",
        format_table(
            headers, rows,
            title=f"Branch & bound on ipsc2, P={pes} "
            "(node counts depend on pool order)",
        ),
        {str(k): v for k, v in data.items()},
    )


# ------------------------------------------------------------------------ T7
def exp_t7(scale: str = "paper") -> ExperimentResult:
    """Monotonic-variable propagation ablation (pruning bound sharing).

    Run in the regime where sharing matters most: FIFO (breadth-ish)
    expansion, a fine grain, and a deliberately loose initial incumbent —
    so containment of speculative work comes *only* from discovered tours
    travelling through the monotonic variable.
    """
    pes = 8 if scale == "quick" else 16
    if scale == "quick":
        tsp_params: Dict[str, Any] = {"n": 8, "grain": 2, "bound_slack": 1.5,
                                      "queueing": "fifo"}
    else:
        tsp_params = {"n": 10, "grain": 2, "bound_slack": 1.6,
                      "queueing": "fifo"}
    headers = ["propagation", "nodes expanded", "time (ms)",
               "bound msgs", "updates applied"]
    rows = []
    data: Dict[str, Any] = {}
    props = ("eager", "lazy", "off")
    descs = [
        describe("tsp", "ipsc2", pes, propagation=prop, **tsp_params)
        for prop in props
    ]
    for prop, row in zip(props, measure_many(descs, label="t7")):
        best, nodes, _ = row.answer
        st = row.stats
        rows.append([prop, nodes, row.vtime_ms, st.mono_updates_sent,
                     st.mono_updates_applied])
        data[prop] = {
            "nodes": nodes,
            "time": row.vtime,
            "msgs": st.mono_updates_sent,
            "best": best,
        }
    return ExperimentResult(
        "T7",
        "monotonic bound propagation ablation",
        format_table(
            headers, rows,
            title=f"TSP B&B on ipsc2, P={pes} (answer identical in all arms)",
        ),
        data,
    )


# ------------------------------------------------------------------------ T8
def exp_t8(scale: str = "paper") -> ExperimentResult:
    """Distributed-table throughput."""
    pes_list = [1, 2, 4, 8] if scale == "quick" else [1, 2, 4, 8, 16, 32]
    sizes = _sizes(scale)
    headers = ["P", "ops", "time (ms)", "ops/ms"]
    rows = []
    data: Dict[str, Any] = {}
    descs = [
        describe("histogram", "ipsc2", p, **sizes.get("histogram", {}))
        for p in pes_list
    ]
    for p, row in zip(pes_list, measure_many(descs, label="t8")):
        inserted, found, bad = row.answer
        assert bad == 0, "table round-trip mismatches"
        ops = inserted + found
        rows.append([p, ops, row.vtime_ms, round(ops / row.vtime_ms, 1)])
        data[p] = {"ops": ops, "time": row.vtime}
    return ExperimentResult(
        "T8",
        "distributed table throughput",
        format_table(headers, rows, title="Histogram workload on ipsc2"),
        data,
    )


# ------------------------------------------------------------------------ T9
def exp_t9(scale: str = "paper") -> ExperimentResult:
    """Quiescence-detection overhead and latency."""
    pes_list = [2, 8] if scale == "quick" else [2, 8, 32]
    sizes = _sizes(scale)
    headers = ["P", "QD waves", "system msgs", "app msgs",
               "work end (ms)", "detected (ms)", "latency (ms)"]
    rows = []
    data: Dict[str, Any] = {}
    descs = [
        describe("queens", "ipsc2", p, **sizes.get("queens", {}))
        for p in pes_list
    ]
    for p, row in zip(pes_list, measure_many(descs, label="t9")):
        st = row.stats
        work_end = row.qd_work_end or row.last_counted_exec_time
        detected = st.qd_detected_at or row.vtime
        rows.append(
            [
                p,
                st.qd_waves,
                st.total_system_executed,
                st.total_msgs_executed,
                work_end * 1e3,
                detected * 1e3,
                (detected - work_end) * 1e3,
            ]
        )
        data[p] = {
            "waves": st.qd_waves,
            "latency": detected - work_end,
            "system": st.total_system_executed,
        }
    return ExperimentResult(
        "T9",
        "quiescence detection overhead",
        format_table(headers, rows, title="N-queens on ipsc2"),
        data,
    )


# ----------------------------------------------------------------------- T10
def exp_t10(scale: str = "paper") -> ExperimentResult:
    """Heterogeneous workstation network: static vs dynamic placement.

    On a machine whose nodes differ 4x in speed, statically partitioned
    work runs at the pace of the slowest node; dynamic seed balancing
    lets fast nodes absorb more of the tree.  This is the portability
    scenario (networks of workstations) the Chare Kernel was built for.
    """
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    headers = ["placement", "time (ms)", "mean util %", "imbalance (busy)"]
    rows = []
    data: Dict[str, Any] = {}
    answers = set()
    configs = [
        ("roundrobin (static-ish)", "roundrobin"),
        ("random", "random"),
        ("token (stealing)", "token"),
        ("acwn (adaptive)", "acwn"),
    ]
    descs = [
        describe("tree", "hetero", pes, balancer=balancer,
                 **sizes.get("tree", {}))
        for _, balancer in configs
    ]
    for (label, balancer), row in zip(configs, measure_many(descs, label="t10")):
        st = row.stats
        answers.add(row.answer)
        rows.append([label, row.vtime_ms,
                     round(st.mean_utilization * 100, 1),
                     round(st.load_imbalance, 2)])
        data[balancer] = {"time": row.vtime, "util": st.mean_utilization}
    assert len(answers) == 1
    return ExperimentResult(
        "T10",
        "heterogeneous workstation network",
        format_table(
            headers, rows,
            title=f"Unbalanced tree on hetero (1x/1.5x/2x/4x node speeds), P={pes}",
        ),
        data,
    )


# ------------------------------------------------------------------------ F1
def exp_t11(scale: str = "paper") -> ExperimentResult:
    """Sparse-PE scale curve: the same problem on 10³–10⁶-PE machines.

    The sparse-kernel claim quantified: with O(active) per-PE state, the
    machine's rank count is free — a fixed fib/tree problem touches the
    same handful of ranks whether the machine has 10³ or 10⁶ PEs, and
    host cost tracks the touched set, not P.  ``tree`` additionally
    drives quiescence waves and an accumulator collect over the touched
    snapshot; ``fib`` terminates structurally.  Uses the cluster preset
    (fully connected, O(1) construction) with sparse startup.
    """
    pes_list = ([1_000, 10_000] if scale == "quick"
                else [1_000, 10_000, 100_000, 1_000_000])
    apps = ["fib", "tree"]
    sizes = _sizes("quick")  # fixed problem: the sweep scales P, not work
    descs = [
        describe(app, "cluster", p, sparse=True, **sizes.get(app, {}))
        for app in apps
        for p in pes_list
    ]
    all_rows = measure_many(descs, label="t11")
    headers = ["program", "P", "time (ms)", "executions", "touched PEs",
               "host (s)"]
    rows = []
    data: Dict[str, Any] = {"machine": "cluster", "pes": pes_list,
                            "apps": {}}
    for idx, app in enumerate(apps):
        chunk = all_rows[idx * len(pes_list):(idx + 1) * len(pes_list)]
        answers = {repr(r.answer) for r in chunk}
        assert len(answers) == 1, f"{app} answer depends on machine size"
        series = []
        for p, row in zip(pes_list, chunk):
            st = row.stats
            touched = len(st.pe_rows)
            if p >= 100_000:
                assert touched < p // 100, (
                    f"{app}@P={p} touched {touched} ranks — not O(active)")
            rows.append([app, p, row.vtime_ms,
                         st.total_msgs_executed + st.total_system_executed,
                         touched, round(row.host_seconds, 3)])
            series.append({
                "pes": p,
                "time": row.vtime,
                "executions": (st.total_msgs_executed
                               + st.total_system_executed),
                "touched": touched,
                "host_seconds": row.host_seconds,
            })
        data["apps"][app] = series
    return ExperimentResult(
        "T11",
        "sparse-PE machines: fixed work, P to 10\N{SUPERSCRIPT SIX}",
        format_table(
            headers, rows,
            title="Fixed problem on sparse cluster machines "
                  "(touched = materialized PE ranks)",
        ),
        data,
    )


def exp_f1(scale: str = "paper") -> ExperimentResult:
    """Speedup curves across machine classes (figure: one series per pair)."""
    if scale == "quick":
        pes, apps = [1, 2, 4, 8], ["queens", "jacobi"]
    else:
        pes, apps = [1, 2, 4, 8, 16, 32], ["queens", "jacobi", "tree"]
    sizes = _sizes(scale)
    lines = ["Speedup vs P (series per app x machine):"]
    data: Dict[str, Any] = {}
    pairs = [(machine, app) for machine in ("symmetry", "ipsc2", "ncube2")
             for app in apps]
    descs = [
        describe(app, machine, p, **sizes.get(app, {}))
        for machine, app in pairs
        for p in pes
    ]
    all_rows = measure_many(descs, label="f1")
    for idx, (machine, app) in enumerate(pairs):
        chunk = all_rows[idx * len(pes):(idx + 1) * len(pes)]
        sweep = sweep_from_rows(app, machine, pes, chunk)
        lines.append(format_series(f"{app}@{machine}", pes, sweep.speedups))
        data[f"{app}@{machine}"] = sweep.speedups
    from repro.bench.figures import render_chart

    chart = render_chart(
        {name: list(zip(pes, s)) for name, s in data.items()},
        title="speedup vs P", x_label="P", y_label="speedup",
    )
    lines.append("")
    lines.append(chart)
    return ExperimentResult("F1", "speedup curves across machines",
                            "\n".join(lines), data)


# ------------------------------------------------------------------------ F2
def exp_f2(scale: str = "paper") -> ExperimentResult:
    """Grain size vs efficiency (queens grainsize, fib threshold)."""
    p = 8 if scale == "quick" else 16
    n = 7 if scale == "quick" else 8
    lines = []
    data: Dict[str, Any] = {"queens": {}, "fib": {}}
    grains = [1, 2, 3, 4, 5]
    thresholds = [4, 6, 8, 10] if scale == "quick" else [5, 7, 9, 11, 13]
    fn = 15 if scale == "quick" else 18
    # Every (grain, P) pair is independent; submit the whole figure at once.
    descs = []
    for g in grains:
        descs.append(describe("queens", "ipsc2", 1, n=n, grainsize=g))
        descs.append(describe("queens", "ipsc2", p, n=n, grainsize=g))
    for th in thresholds:
        descs.append(describe("fib", "ipsc2", 1, n=fn, threshold=th))
        descs.append(describe("fib", "ipsc2", p, n=fn, threshold=th))
    rows = iter(measure_many(descs, label="f2"))
    xs, ys = [], []
    for g in grains:
        t1, tp = next(rows).vtime, next(rows).vtime
        eff = t1 / tp / p
        xs.append(g)
        ys.append(round(eff, 3))
        data["queens"][g] = eff
    lines.append(format_series(f"queens(n={n}) efficiency vs grainsize", xs, ys))
    xs, ys = [], []
    for th in thresholds:
        t1, tp = next(rows).vtime, next(rows).vtime
        eff = t1 / tp / p
        xs.append(th)
        ys.append(round(eff, 3))
        data["fib"][th] = eff
    lines.append(format_series(f"fib(n={fn}) efficiency vs threshold", xs, ys))
    return ExperimentResult(
        "F2", f"grain size vs efficiency (P={p}, ipsc2)", "\n".join(lines), data
    )


# ------------------------------------------------------------------------ F3
def exp_f3(scale: str = "paper") -> ExperimentResult:
    """Per-PE utilization profile under each balancer (load-imbalance figure)."""
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    lines = [f"Per-PE utilization %, tree on ipsc2 P={pes}:"]
    data: Dict[str, Any] = {}
    strategies = ("local", "random", "central", "token", "acwn", "gradient")
    descs = [
        describe("tree", "ipsc2", pes, balancer=strat, **sizes.get("tree", {}))
        for strat in strategies
    ]
    for strat, row in zip(strategies, measure_many(descs, label="f3")):
        utils = [round(r.utilization * 100, 1) for r in row.stats.pe_rows]
        lines.append(format_series(strat, list(range(pes)), utils))
        data[strat] = utils
    return ExperimentResult("F3", "per-PE utilization by balancer",
                            "\n".join(lines), data)


# ------------------------------------------------------------------------ R1
def exp_r1(scale: str = "paper") -> ExperimentResult:
    """Resilience: completion time vs message-drop rate (repro.faults).

    The message-driven model's robustness claim: because no chare blocks
    waiting for a specific message, an unreliable network costs latency,
    not correctness.  Counted messages ride the kernel's ack/timeout/retry
    protocol with idempotent receive, so every run must produce the exact
    fault-free answer and quiescence detection must still terminate —
    completion time should degrade gracefully as the drop rate climbs.
    """
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    drop_rates = [0.0, 0.02, 0.05, 0.10, 0.15]
    headers = ["program", "drop %", "time (ms)", "slowdown", "retries",
               "dropped", "deduped", "QD waves"]
    rows = []
    data: Dict[str, Any] = {"machine": "ncube2", "pes": pes,
                            "drop_rates": drop_rates, "apps": {}}
    combos = [(app, rate) for app in ("fib", "queens") for rate in drop_rates]
    descs = []
    for app, rate in combos:
        kwargs = dict(sizes.get(app, {}))
        if rate > 0.0:
            kwargs["faults"] = FaultConfig(drop_prob=rate)
        descs.append(describe(app, "ncube2", pes, **kwargs))
    all_rows = dict(zip(combos, measure_many(descs, label="r1")))
    for app in ("fib", "queens"):
        base_time = None
        base_answer = None
        series = []
        for rate in drop_rates:
            row = all_rows[(app, rate)]
            st = row.stats
            assert not row.truncated, (
                f"{app} hung at drop rate {rate} (run truncated)")
            if base_time is None:
                base_time, base_answer = row.vtime, row.answer
            assert row.answer == base_answer, (
                f"{app} answer corrupted at drop rate {rate}: "
                f"{row.answer!r} != {base_answer!r}")
            if st.qd_waves:
                assert st.qd_detected_at is not None, (
                    f"{app} QD failed to terminate at drop rate {rate}")
            slowdown = row.vtime / base_time if base_time > 0 else 0.0
            rows.append([app, round(rate * 100, 1), row.vtime_ms,
                         round(slowdown, 2), st.retries, st.msgs_dropped,
                         st.dups_suppressed, st.qd_waves])
            series.append({
                "drop": rate,
                "time": row.vtime,
                "slowdown": slowdown,
                "retries": st.retries,
                "dropped": st.msgs_dropped,
                "deduped": st.dups_suppressed,
                "qd_waves": st.qd_waves,
                "answer_ok": True,
            })
        data["apps"][app] = series
    return ExperimentResult(
        "R1",
        "resilience under message drops",
        format_table(
            headers, rows,
            title=f"Completion time vs drop rate on ncube2, P={pes} "
            "(answers identical to fault-free in every run)",
        ),
        data,
    )


# ------------------------------------------------------------------------ R2
def exp_r2(scale: str = "paper") -> ExperimentResult:
    """Resilience: latency faults — delay spikes, jitter, dups, stalls.

    The non-loss fault family: nothing is retransmitted, so the only
    effect is perturbed timing (plus dedup work for duplicates).  Answers
    must match the fault-free run at every severity.
    """
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    levels = [
        ("none", None),
        ("light", FaultConfig(delay_prob=0.02, jitter=10e-6, dup_prob=0.01)),
        ("moderate", FaultConfig(delay_prob=0.08, jitter=30e-6, dup_prob=0.04,
                                 stall_prob=0.005)),
        ("heavy", FaultConfig(delay_prob=0.20, jitter=80e-6, dup_prob=0.10,
                              stall_prob=0.02, slow_pes=(1,),
                              slow_factor=2.0)),
    ]
    headers = ["program", "severity", "time (ms)", "slowdown", "delayed",
               "dup'd", "deduped", "stalls"]
    rows = []
    data: Dict[str, Any] = {"machine": "ncube2", "pes": pes, "apps": {}}
    combos = [(app, label) for app in ("fib", "queens") for label, _ in levels]
    cfg_by_label = dict(levels)
    descs = []
    for app, label in combos:
        kwargs = dict(sizes.get(app, {}))
        if cfg_by_label[label] is not None:
            kwargs["faults"] = cfg_by_label[label]
        descs.append(describe(app, "ncube2", pes, **kwargs))
    all_rows = dict(zip(combos, measure_many(descs, label="r2")))
    for app in ("fib", "queens"):
        base_time = None
        base_answer = None
        series = []
        for label, cfg in levels:
            row = all_rows[(app, label)]
            st = row.stats
            assert not row.truncated, f"{app} hung at severity {label}"
            if base_time is None:
                base_time, base_answer = row.vtime, row.answer
            assert row.answer == base_answer, (
                f"{app} answer corrupted at severity {label}")
            slowdown = row.vtime / base_time if base_time > 0 else 0.0
            rows.append([app, label, row.vtime_ms, round(slowdown, 2),
                         st.msgs_delayed, st.msgs_duplicated,
                         st.dups_suppressed, st.stalls])
            series.append({
                "severity": label,
                "time": row.vtime,
                "slowdown": slowdown,
                "delayed": st.msgs_delayed,
                "duplicated": st.msgs_duplicated,
                "deduped": st.dups_suppressed,
                "stalls": st.stalls,
            })
        data["apps"][app] = series
    return ExperimentResult(
        "R2",
        "resilience under latency faults",
        format_table(
            headers, rows,
            title=f"Delay/jitter/dup/stall severities on ncube2, P={pes}",
        ),
        data,
    )


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "a1": exp_a1,
    "a2": exp_a2,
    "a3": exp_a3,
    "a4": exp_a4,
    "a5": exp_a5,
    "t1": exp_t1,
    "t2": exp_t2,
    "t3": exp_t3,
    "t4": exp_t4,
    "t5": exp_t5,
    "t6": exp_t6,
    "t7": exp_t7,
    "t8": exp_t8,
    "t9": exp_t9,
    "t10": exp_t10,
    "t11": exp_t11,
    "f1": exp_f1,
    "f2": exp_f2,
    "f3": exp_f3,
    "r1": exp_r1,
    "r2": exp_r2,
    "s1": exp_s1,
    "s2": exp_s2,
    "s3": exp_s3,
    "s4": exp_s4,
    "s5": exp_s5,
    "s6": exp_s6,
}


def run_experiment(exp_id: str, scale: str = "paper") -> ExperimentResult:
    """Run one experiment by id (``t1`` … ``f3``)."""
    try:
        fn = EXPERIMENTS[exp_id.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; options: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(scale=scale)
