"""The experiment registry: one function per reproduced table/figure.

Experiment ids follow DESIGN.md §4 (T1–T9, F1–F3).  Every function returns
a :data:`~repro.bench.tables.Plan`: the run descriptors the experiment
needs, and a report that turns their rows into an :class:`ExperimentResult`
whose ``text`` is the printable table(s)/series and whose ``data`` holds
the raw numbers for tests and EXPERIMENTS.md.  :func:`plan_experiments`
joins any set of plans into one batch, each distinct descriptor once, and
:func:`run_experiments` runs that batch through an executor.

Sizes here are the "paper scale" defaults; ``scale='quick'`` runs reduced
sizes, which ``tests/test_experiments.py`` uses to assert every
experiment's claim shape in the tier-1 suite.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.apps import TreeParams
from repro.bench.ablations import exp_a1, exp_a2, exp_a3, exp_a4, exp_a5
from repro.bench.harness import APPS, describe, sweep_from_rows
from repro.bench.parallel import SweepExecutor, current_executor
from repro.bench.serving import (exp_s1, exp_s2, exp_s3, exp_s4, exp_s5,
                                 exp_s6)
from repro.bench.tables import (ExperimentResult, Plan, arms_table,
                                format_series, format_table)
from repro.faults import FaultConfig
from repro.util.errors import ConfigurationError

__all__ = ["ExperimentResult", "EXPERIMENTS", "plan_experiments",
           "run_experiment", "run_experiments"]


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
            "tree": {
                "params": TreeParams(seed=11, max_depth=10, max_fanout=5,
                                     branch_bias=0.96, node_work=150.0)
            },
            "histogram": {"items": 96, "workers": 8},
        }
    return {name: {} for name in APPS}


def _speedup_table(
    exp_id: str,
    title: str,
    machine: str,
    pes: Sequence[int],
    scale: str,
    apps: Sequence[str] | None = None,
    sizes: Dict[str, Dict[str, Any]] | None = None,
    caption: str | None = None,
    answers: bool = True,
) -> Plan:
    sizes = _sizes(scale) if sizes is None else sizes
    apps = list(apps) if apps is not None else _suite(scale)
    descs = [
        describe(app, machine, p, **sizes.get(app, {}))
        for app in apps
        for p in pes
    ]

    def report(all_rows) -> ExperimentResult:
        headers = ["program", "T1 (ms)"] + [f"S(P={p})" for p in pes[1:]]
        rows = []
        data: Dict[str, Any] = {"machine": machine, "pes": list(pes),
                                "apps": {}}
        for idx, app in enumerate(apps):
            chunk = all_rows[idx * len(pes):(idx + 1) * len(pes)]
            sweep = sweep_from_rows(app, machine, pes, chunk)
            assert sweep.consistent(), (
                f"{app} answers diverged across P on {machine}")
            rows.append([app, sweep.t1 * 1e3]
                        + [round(s, 2) for s in sweep.speedups[1:]])
            data["apps"][app] = {"times": sweep.times,
                                 "speedups": sweep.speedups}
            if answers:
                data["apps"][app]["answer"] = sweep.answers[0]
        text = format_table(
            headers, rows, title=caption or
            f"Speedup on {machine} (virtual time, T1 = 1-PE run)"
        )
        return ExperimentResult(exp_id, title, text, data)
    return descs, report


def _per_program(exp_id: str, title: str, caption: str,
                 headers: Sequence[str], arms, cell,
                 data: Dict[str, Any]) -> Plan:
    """:func:`arms_table` for programs each run at several levels.

    ``arms`` is ``[((program, level), RunDescriptor)]``, each program's
    arms contiguous and equal in number, its reference level first.  The
    report checks that no run hung and that every answer equals the
    program's reference answer, asks ``cell(level, row, slowdown)`` (the
    time against the reference run's) for each run's table cells after
    the program name and its record, and lists the records per program
    under ``data["apps"]``.
    """
    apps = list(dict.fromkeys(app for (app, _), _ in arms))
    n = len(arms) // len(apps)
    base: Dict[str, Any] = {}  # program -> its reference (time, answer)

    def cells(arm, row):
        app, level = arm
        assert not row.truncated, f"{app} hung at {level!r} (run truncated)"
        base_time, base_answer = base.setdefault(app, (row.vtime, row.answer))
        assert row.answer == base_answer, (
            f"{app} answer at {level!r} differs from its reference: "
            f"{row.answer!r} != {base_answer!r}")
        slowdown = row.vtime / base_time if base_time > 0 else 0.0
        row_cells, record = cell(level, row, slowdown)
        return [app] + row_cells, record
    descs, report = arms_table(exp_id, title, caption, headers, arms, cells,
                               data=data)

    def by_program(rows) -> ExperimentResult:
        base.clear()  # each program's first row sets its reference again
        result = report(rows)
        series = result.data.pop("series")
        result.data["apps"] = {app: series[i * n:(i + 1) * n]
                               for i, app in enumerate(apps)}
        return result
    return descs, by_program


# ------------------------------------------------------------------------ T1
def exp_t1(scale: str = "paper") -> Plan:
    """Benchmark-suite characteristics (1 PE, ideal machine)."""
    sizes = _sizes(scale)
    apps = _suite(scale) + (
        ["knapsack", "matmul", "histogram", "sor", "lu"]
        if scale != "quick" else []
    )

    def cells(app, row):
        stats = row.stats
        msgs = max(1, stats.total_msgs_executed)
        return ([app, round(stats.total_charged), stats.total_msgs_executed,
                 round(stats.total_charged / msgs, 1), stats.total_bytes_sent,
                 row.vtime_ms],
                {"work": stats.total_charged,
                 "msgs": stats.total_msgs_executed,
                 "bytes": stats.total_bytes_sent, "t1": row.vtime})
    return arms_table(
        "T1", "benchmark suite characteristics",
        "Suite characteristics (P=1, ideal machine)",
        ["program", "work (units)", "app msgs", "grain (units/msg)",
         "bytes sent", "T1 ideal (ms)"],
        [(app, describe(app, "ideal", 1, **sizes.get(app, {})))
         for app in apps],
        cells,
    )


# --------------------------------------------------------------------- T2-T4
def exp_t2(scale: str = "paper") -> Plan:
    """Speedups on the shared-memory (Sequent Symmetry class) machine."""
    pes = [1, 2, 4, 8] if scale == "quick" else [1, 2, 4, 8, 16]
    return _speedup_table("T2", "speedups, shared-memory bus machine",
                          "symmetry", pes, scale)


def exp_t3(scale: str = "paper") -> Plan:
    """Speedups on the Intel iPSC/2-class hypercube."""
    pes = [1, 4, 16] if scale == "quick" else [1, 4, 16, 64]
    return _speedup_table("T3", "speedups, iPSC/2-class hypercube", "ipsc2",
                          pes, scale)


def exp_t4(scale: str = "paper") -> Plan:
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
    return _speedup_table("T4", "large-P speedups, NCUBE-class hypercube",
                          "ncube2", pes, scale, apps=apps, sizes=sizes,
                          caption="Speedup on ncube2", answers=False)


# ------------------------------------------------------------------------ T5
def exp_t5(scale: str = "paper") -> Plan:
    """Load-balancing strategy comparison on the unbalanced tree."""
    strategies = ["local", "random", "roundrobin", "central", "token",
                  "acwn", "gradient"]
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)

    def cells(strat, row):
        st = row.stats
        return ([strat, row.vtime_ms, round(st.mean_utilization * 100, 1),
                 round(st.load_imbalance, 2), round(st.max_idle_gap * 1e3, 3),
                 st.pool_high_water, st.lb_seeds_remote, st.lb_control_msgs],
                {"time": row.vtime, "util": st.mean_utilization,
                 "imbalance": st.load_imbalance,
                 "idle_time": st.total_idle_time,
                 "max_idle_gap": st.max_idle_gap,
                 "pool_high_water": st.pool_high_water,
                 "remote_seeds": st.lb_seeds_remote,
                 "control": st.lb_control_msgs})
    return arms_table(
        "T5", "dynamic load-balancing strategies",
        f"Unbalanced tree on ipsc2, P={pes} (same tree for all)",
        ["strategy", "time (ms)", "mean util %", "imbalance", "max gap (ms)",
         "pool hw", "remote seeds", "control msgs"],
        [(strat, describe("tree", "ipsc2", pes, balancer=strat,
                          **sizes.get("tree", {})))
         for strat in strategies],
        cells, same_answer=True,
    )


# ------------------------------------------------------------------------ T6
def exp_t6(scale: str = "paper") -> Plan:
    """Queueing strategies on speculative search (B&B anomalies)."""
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)

    def cells(combo, row):
        best, nodes = row.answer[0], row.answer[1]
        return ([*combo, nodes, row.vtime_ms, best],
                {"nodes": nodes, "time": row.vtime, "best": best})
    return arms_table(
        "T6", "queueing strategies and search anomalies",
        f"Branch & bound on ipsc2, P={pes} (node counts depend on pool order)",
        ["program", "queueing", "nodes expanded", "time (ms)", "best"],
        [((app, strat), describe(app, "ipsc2", pes, queueing=strat,
                                 **sizes.get(app, {})))
         for app in ("tsp", "knapsack") for strat in ("fifo", "lifo", "prio")],
        cells,
    )


# ------------------------------------------------------------------------ T7
def exp_t7(scale: str = "paper") -> Plan:
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

    def cells(prop, row):
        best, nodes, _ = row.answer
        st = row.stats
        return ([prop, nodes, row.vtime_ms, st.mono_updates_sent,
                 st.mono_updates_applied],
                {"nodes": nodes, "time": row.vtime,
                 "msgs": st.mono_updates_sent, "best": best})
    return arms_table(
        "T7", "monotonic bound propagation ablation",
        f"TSP B&B on ipsc2, P={pes} (answer identical in all arms)",
        ["propagation", "nodes expanded", "time (ms)", "bound msgs",
         "updates applied"],
        [(prop, describe("tsp", "ipsc2", pes, propagation=prop, **tsp_params))
         for prop in ("eager", "lazy", "off")],
        cells,
    )


# ------------------------------------------------------------------------ T8
def exp_t8(scale: str = "paper") -> Plan:
    """Distributed-table throughput."""
    pes_list = [1, 2, 4, 8] if scale == "quick" else [1, 2, 4, 8, 16, 32]
    sizes = _sizes(scale)

    def cells(p, row):
        inserted, found, bad = row.answer
        assert bad == 0, "table round-trip mismatches"
        ops = inserted + found
        return ([p, ops, row.vtime_ms, round(ops / row.vtime_ms, 1)],
                {"ops": ops, "time": row.vtime})
    return arms_table(
        "T8", "distributed table throughput", "Histogram workload on ipsc2",
        ["P", "ops", "time (ms)", "ops/ms"],
        [(p, describe("histogram", "ipsc2", p, **sizes.get("histogram", {})))
         for p in pes_list],
        cells,
    )


# ------------------------------------------------------------------------ T9
def exp_t9(scale: str = "paper") -> Plan:
    """Quiescence-detection overhead and latency."""
    pes_list = [2, 8] if scale == "quick" else [2, 8, 32]
    sizes = _sizes(scale)

    def cells(p, row):
        st = row.stats
        work_end = row.qd_work_end or row.last_counted_exec_time
        detected = st.qd_detected_at or row.vtime
        return ([p, st.qd_waves, st.total_system_executed,
                 st.total_msgs_executed, work_end * 1e3, detected * 1e3,
                 (detected - work_end) * 1e3],
                {"waves": st.qd_waves, "latency": detected - work_end,
                 "system": st.total_system_executed})
    return arms_table(
        "T9", "quiescence detection overhead", "N-queens on ipsc2",
        ["P", "QD waves", "system msgs", "app msgs", "work end (ms)",
         "detected (ms)", "latency (ms)"],
        [(p, describe("queens", "ipsc2", p, **sizes.get("queens", {})))
         for p in pes_list],
        cells,
    )


# ----------------------------------------------------------------------- T10
def exp_t10(scale: str = "paper") -> Plan:
    """Heterogeneous workstation network: static vs dynamic placement.

    On a machine whose nodes differ 4x in speed, statically partitioned
    work runs at the pace of the slowest node; dynamic seed balancing
    lets fast nodes absorb more of the tree.  This is the portability
    scenario (networks of workstations) the Chare Kernel was built for.
    """
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    placements = {
        "roundrobin": "roundrobin (static-ish)",
        "random": "random",
        "token": "token (stealing)",
        "acwn": "acwn (adaptive)",
    }

    def cells(balancer, row):
        st = row.stats
        return ([placements[balancer], row.vtime_ms,
                 round(st.mean_utilization * 100, 1),
                 round(st.load_imbalance, 2)],
                {"time": row.vtime, "util": st.mean_utilization})
    return arms_table(
        "T10", "heterogeneous workstation network",
        f"Unbalanced tree on hetero (1x/1.5x/2x/4x node speeds), P={pes}",
        ["placement", "time (ms)", "mean util %", "imbalance (busy)"],
        [(balancer, describe("tree", "hetero", pes, balancer=balancer,
                             **sizes.get("tree", {})))
         for balancer in placements],
        cells, same_answer=True,
    )


# ----------------------------------------------------------------------- T11
def exp_t11(scale: str = "paper") -> Plan:
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

    def cell(p, row, _slowdown):
        st = row.stats
        touched = len(st.pe_rows)
        if p >= 100_000:
            assert touched < p // 100, (
                f"{row.app}@P={p} touched {touched} ranks — not O(active)")
        executions = st.total_msgs_executed + st.total_system_executed
        return ([p, row.vtime_ms, executions, touched,
                 round(row.host_seconds, 3)],
                {"pes": p, "time": row.vtime, "executions": executions,
                 "touched": touched, "host_seconds": row.host_seconds})
    return _per_program(
        "T11", "sparse-PE machines: fixed work, P to 10\N{SUPERSCRIPT SIX}",
        "Fixed problem on sparse cluster machines "
        "(touched = materialized PE ranks)",
        ["program", "P", "time (ms)", "executions", "touched PEs",
         "host (s)"],
        [((app, p), describe(app, "cluster", p, sparse=True,
                             **sizes.get(app, {})))
         for app in apps for p in pes_list],
        cell, {"machine": "cluster", "pes": pes_list},
    )


# ------------------------------------------------------------------------ F1
def exp_f1(scale: str = "paper") -> Plan:
    """Speedup curves across machine classes (figure: one series per pair)."""
    if scale == "quick":
        pes, apps = [1, 2, 4, 8], ["queens", "jacobi"]
    else:
        pes, apps = [1, 2, 4, 8, 16, 32], ["queens", "jacobi", "tree"]
    sizes = _sizes(scale)
    pairs = [(machine, app) for machine in ("symmetry", "ipsc2", "ncube2")
             for app in apps]
    descs = [
        describe(app, machine, p, **sizes.get(app, {}))
        for machine, app in pairs
        for p in pes
    ]

    def report(all_rows) -> ExperimentResult:
        from repro.bench.figures import render_chart

        lines = ["Speedup vs P (series per app x machine):"]
        data: Dict[str, Any] = {}
        for idx, (machine, app) in enumerate(pairs):
            chunk = all_rows[idx * len(pes):(idx + 1) * len(pes)]
            sweep = sweep_from_rows(app, machine, pes, chunk)
            lines.append(format_series(f"{app}@{machine}", pes,
                                       sweep.speedups))
            data[f"{app}@{machine}"] = sweep.speedups
        chart = render_chart(
            {name: list(zip(pes, s)) for name, s in data.items()},
            title="speedup vs P", x_label="P", y_label="speedup",
        )
        lines.append("")
        lines.append(chart)
        return ExperimentResult("F1", "speedup curves across machines",
                                "\n".join(lines), data)
    return descs, report


# ------------------------------------------------------------------------ F2
def exp_f2(scale: str = "paper") -> Plan:
    """Grain size vs efficiency (queens grainsize, fib threshold)."""
    p = 8 if scale == "quick" else 16
    n = 7 if scale == "quick" else 8
    grains = [1, 2, 3, 4, 5]
    thresholds = [4, 6, 8, 10] if scale == "quick" else [5, 7, 9, 11, 13]
    fn = 15 if scale == "quick" else 18
    # (program, its fixed size, the grain knob, the knob's values, series name)
    knobs = [("queens", {"n": n}, "grainsize", grains,
              f"queens(n={n}) efficiency vs grainsize"),
             ("fib", {"n": fn}, "threshold", thresholds,
              f"fib(n={fn}) efficiency vs threshold")]
    descs = [describe(app, "ipsc2", pes, **size, **{knob: x})
             for app, size, knob, xs, _ in knobs for x in xs for pes in (1, p)]

    def report(measured) -> ExperimentResult:
        lines = []
        data: Dict[str, Any] = {}
        rows = iter(measured)
        for app, _, _, xs, name in knobs:
            # Each x's rows are (P = 1, P = p): its efficiency is T1 / Tp / p.
            data[app] = {x: next(rows).vtime / next(rows).vtime / p
                         for x in xs}
            lines.append(format_series(
                name, xs, [round(eff, 3) for eff in data[app].values()]))
        return ExperimentResult(
            "F2", f"grain size vs efficiency (P={p}, ipsc2)", "\n".join(lines),
            data,
        )
    return descs, report


# ------------------------------------------------------------------------ F3
def exp_f3(scale: str = "paper") -> Plan:
    """Per-PE utilization profile under each balancer (load-imbalance figure)."""
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    strategies = ("local", "random", "central", "token", "acwn", "gradient")
    descs = [
        describe("tree", "ipsc2", pes, balancer=strat, **sizes.get("tree", {}))
        for strat in strategies
    ]

    def report(measured) -> ExperimentResult:
        lines = [f"Per-PE utilization %, tree on ipsc2 P={pes}:"]
        data: Dict[str, Any] = {}
        for strat, row in zip(strategies, measured):
            utils = [round(r.utilization * 100, 1) for r in row.stats.pe_rows]
            lines.append(format_series(strat, list(range(pes)), utils))
            data[strat] = utils
        return ExperimentResult("F3", "per-PE utilization by balancer",
                                "\n".join(lines), data)
    return descs, report


# --------------------------------------------------------------------- R1-R2
def _fault_sweep(exp_id: str, title: str, caption: str, scale: str,
                 levels, headers: List[str], cell,
                 data: Dict[str, Any]) -> Plan:
    """The R-series plan: fib and queens on ncube2 once per fault level
    (``[(level, FaultConfig or None)]``, fault-free first), through
    :func:`_per_program`."""
    pes = 8 if scale == "quick" else 16
    sizes = _sizes(scale)
    return _per_program(
        exp_id, title, caption.format(pes=pes), headers,
        [((app, level), describe(app, "ncube2", pes, **sizes.get(app, {}),
                                 **({} if cfg is None else {"faults": cfg})))
         for app in ("fib", "queens") for level, cfg in levels],
        cell, {"machine": "ncube2", "pes": pes, **data})


def exp_r1(scale: str = "paper") -> Plan:
    """Resilience: completion time vs message-drop rate (repro.faults).

    The message-driven model's robustness claim: because no chare blocks
    waiting for a specific message, an unreliable network costs latency,
    not correctness.  Counted messages ride the kernel's ack/timeout/retry
    protocol with idempotent receive, so every run must produce the exact
    fault-free answer and quiescence detection must still terminate —
    completion time should degrade gracefully as the drop rate climbs.
    """
    drop_rates = [0.0, 0.02, 0.05, 0.10, 0.15]

    def cell(rate, row, slowdown):
        st = row.stats
        if st.qd_waves:
            assert st.qd_detected_at is not None, (
                f"{row.app} QD failed to terminate at drop rate {rate}")
        return ([round(rate * 100, 1), row.vtime_ms, round(slowdown, 2),
                 st.retries, st.msgs_dropped, st.dups_suppressed, st.qd_waves],
                {"drop": rate, "time": row.vtime, "slowdown": slowdown,
                 "retries": st.retries, "dropped": st.msgs_dropped,
                 "deduped": st.dups_suppressed, "qd_waves": st.qd_waves,
                 "answer_ok": True})
    return _fault_sweep(
        "R1", "resilience under message drops",
        "Completion time vs drop rate on ncube2, P={pes} "
        "(answers identical to fault-free in every run)", scale,
        [(rate, FaultConfig(drop_prob=rate) if rate > 0.0 else None)
         for rate in drop_rates],
        ["program", "drop %", "time (ms)", "slowdown", "retries", "dropped",
         "deduped", "QD waves"], cell, {"drop_rates": drop_rates})


def exp_r2(scale: str = "paper") -> Plan:
    """Resilience: latency faults — delay spikes, jitter, dups, stalls.

    The non-loss fault family: nothing is retransmitted, so the only
    effect is perturbed timing (plus dedup work for duplicates).  Answers
    must match the fault-free run at every severity.
    """
    levels = [
        ("none", None),
        ("light", FaultConfig(delay_prob=0.02, jitter=10e-6, dup_prob=0.01)),
        ("moderate", FaultConfig(delay_prob=0.08, jitter=30e-6, dup_prob=0.04,
                                 stall_prob=0.005)),
        ("heavy", FaultConfig(delay_prob=0.20, jitter=80e-6, dup_prob=0.10,
                              stall_prob=0.02, slow_pes=(1,),
                              slow_factor=2.0)),
    ]

    def cell(label, row, slowdown):
        st = row.stats
        return ([label, row.vtime_ms, round(slowdown, 2), st.msgs_delayed,
                 st.msgs_duplicated, st.dups_suppressed, st.stalls],
                {"severity": label, "time": row.vtime, "slowdown": slowdown,
                 "delayed": st.msgs_delayed, "duplicated": st.msgs_duplicated,
                 "deduped": st.dups_suppressed, "stalls": st.stalls})
    return _fault_sweep(
        "R2", "resilience under latency faults",
        "Delay/jitter/dup/stall severities on ncube2, P={pes}", scale, levels,
        ["program", "severity", "time (ms)", "slowdown", "delayed", "dup'd",
         "deduped", "stalls"], cell, {})


#: Experiment id -> plan; the id is the function's name after ``exp_``.
EXPERIMENTS: Dict[str, Callable[[str], Plan]] = {
    fn.__name__[len("exp_"):]: fn for fn in (
        exp_a1, exp_a2, exp_a3, exp_a4, exp_a5,
        exp_t1, exp_t2, exp_t3, exp_t4, exp_t5, exp_t6, exp_t7, exp_t8,
        exp_t9, exp_t10, exp_t11, exp_f1, exp_f2, exp_f3, exp_r1, exp_r2,
        exp_s1, exp_s2, exp_s3, exp_s4, exp_s5, exp_s6,
    )
}


def plan_experiments(exp_ids: Sequence[str], scale: str) -> Tuple[
        List[Any], Callable[[Sequence[Any]], List[ExperimentResult]]]:
    """Plan experiments as one sweep: ``(batch, finish)``.

    ``batch`` holds every plan's descriptors, each distinct run once
    (keyed by ``RunDescriptor.canonical()``, in first-occurrence order)
    however many plans ask for it.  ``finish(rows)`` takes the batch's
    rows in batch order, gives each report its own rows in its own order
    and returns the results in ``exp_ids`` order.
    """
    for exp_id in exp_ids:
        if exp_id.lower() not in EXPERIMENTS:
            raise ConfigurationError(f"unknown experiment {exp_id!r}; "
                                     f"options: {sorted(EXPERIMENTS)}")
    plans = [EXPERIMENTS[exp_id.lower()](scale) for exp_id in exp_ids]
    keys = [[desc.canonical() for desc in descs] for descs, _ in plans]
    batch: Dict[Any, Any] = {}
    for (descs, _), plan_keys in zip(plans, keys):
        for key, desc in zip(plan_keys, descs):
            batch.setdefault(key, desc)

    def finish(batch_rows: Sequence[Any]) -> List[ExperimentResult]:
        rows = dict(zip(batch, batch_rows))
        return [report([rows[key] for key in plan_keys])
                for (_, report), plan_keys in zip(plans, keys)]
    return list(batch.values()), finish


def run_experiments(exp_ids: Sequence[str], scale: str,
                    executor: SweepExecutor) -> List[ExperimentResult]:
    """Run experiments as one sweep through ``executor``, results in
    ``exp_ids`` order (:func:`plan_experiments`)."""
    batch, finish = plan_experiments(exp_ids, scale)
    return finish(executor.run_many(batch, label=",".join(exp_ids)))


def run_experiment(exp_id: str, scale: str = "paper") -> ExperimentResult:
    """Run one experiment by id (``t1`` … ``s6``) through the ambient
    executor (:func:`~repro.bench.parallel.current_executor`)."""
    return run_experiments([exp_id], scale, current_executor())[0]
