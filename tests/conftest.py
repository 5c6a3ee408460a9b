"""Shared fixtures: small machines and a tiny reference program."""

from __future__ import annotations

import json

import pytest

from repro import Chare, Kernel, entry
from repro.machine.presets import make_machine


#: Tier-1's budget for one run that sets none: about eleven times the
#: largest run tier-1 makes (87,693 events, the 22 k-node fib of
#: ``test_lifetimes.py``).  A run whose protocol never settles (a QD wave
#: repeated forever) then fails in seconds instead of running to the
#: kernel's own 30 M-event safety valve, which takes minutes per run.
TIER1_MAX_EVENTS = 1_000_000

_UNSET = object()


class EventBudgetSpent(BaseException):
    """A run spent :data:`TIER1_MAX_EVENTS`.  Not an ``Exception``, so
    Hypothesis does not catch it and shrink: every shrink candidate would
    run to the budget again, for minutes."""


@pytest.fixture(autouse=True, scope="session")
def _tier1_event_budget():
    """Every ``Kernel.run`` that states no ``max_events`` gets
    :data:`TIER1_MAX_EVENTS`, and raises if it spends it."""
    run = Kernel.run

    def budgeted(self, main_cls, *args, max_events=_UNSET):
        if max_events is not _UNSET:
            return run(self, main_cls, *args, max_events=max_events)
        result = run(self, main_cls, *args, max_events=TIER1_MAX_EVENTS)
        if result.truncated:
            raise EventBudgetSpent(
                f"{main_cls.__name__} on {self.num_pes} PEs fired "
                f"{TIER1_MAX_EVENTS:,} events, tier-1's per-run budget, "
                f"by virtual time {result.time:.6g} s without finishing")
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Kernel, "run", budgeted)
        yield


@pytest.fixture
def ideal4():
    """Zero-overhead 4-PE machine (pure algorithm checks)."""
    return make_machine("ideal", 4)


@pytest.fixture
def ipsc8():
    """8-PE iPSC/2-class hypercube (realistic costs)."""
    return make_machine("ipsc2", 8)


@pytest.fixture
def symmetry4():
    """4-PE bus shared-memory machine."""
    return make_machine("symmetry", 4)


class EchoWorker(Chare):
    """Replies to its parent with (index, my_pe)."""

    def __init__(self, parent, index):
        self.charge(10)
        self.send(parent, "reply", index, self.my_pe)


class EchoMain(Chare):
    """Creates n workers; exits with sorted replies once all arrive."""

    def __init__(self, n, pin):
        self.n = n
        self.replies = []
        for i in range(n):
            pe = (i % self.num_pes) if pin else None
            self.create(EchoWorker, self.thishandle, i, pe=pe)

    @entry
    def reply(self, index, pe):
        self.replies.append((index, pe))
        if len(self.replies) == self.n:
            self.exit(sorted(self.replies))


@pytest.fixture
def echo_program():
    """(Main chare class) for quick end-to-end runs."""
    return EchoMain


def run_echo(machine, n=8, pin=False, **kernel_kwargs):
    """Convenience: run the echo program and return its RunResult."""
    kernel = Kernel(machine, **kernel_kwargs)
    return kernel.run(EchoMain, n, pin)


@pytest.fixture
def echo_runner():
    return run_echo


def read_metrics_jsonl(text):
    """A ``to_jsonl`` stream back as the payload dict it was written from:
    the header line, then ``snapshot`` lines, then one ``series`` line."""
    header, *rows = (json.loads(line) for line in text.splitlines())
    return {
        "format": header["format"],
        "meta": header["meta"],
        "snapshots": [{k: v for k, v in row.items() if k != "kind"}
                      for row in rows if row["kind"] == "snapshot"],
        "series": next(row["series"] for row in rows if row["kind"] == "series"),
    }


def latency_summary_of(latencies):
    """``latency_summary`` of a hand-built serving log: one single-stage
    request per entry of ``latencies``, injected one time unit apart and
    completed that long after injection."""
    from repro.metrics.latency import latency_summary

    def ev(kind, t, parent, name=None, dur=None):
        events.append({"eid": len(events), "kind": kind, "t": t, "pe": 0,
                       "uid": None, "parent": parent, "name": name,
                       "dur": dur, "info": None})
        return len(events) - 1

    events = []
    main = ev("exec_begin", 0.0, None, name="Main")
    for i, latency in enumerate(latencies):
        t0 = float(i + 1)
        sent = ev("send", t0, main, name="__init__")
        begin = ev("exec_begin", t0, ev("deliver", t0, sent), name="Request")
        ev("exec_end", t0 + latency, begin, name="Request", dur=latency)
        ev("send", t0 + latency, begin, name="done")
    return latency_summary(events)


def pick(rng, seq):
    """One element of ``seq`` drawn from an :class:`RngStream`."""
    return seq[rng.randint(0, len(seq))]


def uniform(rng, low, high):
    """A float in ``[low, high)`` drawn from an :class:`RngStream`."""
    return float(rng.generator.uniform(low, high))
