"""Fault-injection subsystem: determinism, protocol correctness, zero-cost.

Three claims are pinned here:

1. **Inert means invisible** — a kernel with no fault layer, and a kernel
   with an all-zero :class:`FaultConfig`, both reproduce the golden-trace
   fixtures bit-for-bit (the hooks are a single ``is None`` check).
2. **Faults cost latency, not correctness** — under drops (with the
   ack/timeout/retry protocol), duplicates (with idempotent receive),
   delay spikes, jitter, stalls and slow PEs, every program still produces
   its fault-free answer and quiescence detection still terminates with
   ``counted_sent == counted_processed``.
3. **Determinism survives** — the same root seed and fault config yield a
   bit-identical run, every time.
"""

import json
from collections import Counter

import pytest

from repro import FaultConfig, FaultLayer, Kernel, make_machine
from repro.apps.fib import run_fib
from repro.apps.nqueens import run_nqueens
from repro.util.errors import ConfigurationError, FaultError
from tests.conftest import run_echo
from tests.test_golden_trace import _fingerprint, _load_fixtures


# ------------------------------------------------------------- configuration
def test_config_validation():
    with pytest.raises(FaultError):
        FaultConfig(jitter=-1e-6)
    with pytest.raises(FaultError):
        FaultConfig(drop_prob=1.0)          # certain loss can never converge
    with pytest.raises(FaultError):
        FaultConfig(dup_prob=-0.1)
    with pytest.raises(FaultError):
        FaultConfig(drop_prob=0.1, ack_timeout=0.0)
    with pytest.raises(FaultError):
        FaultConfig(drop_prob=0.1, retry_backoff=0.5)
    with pytest.raises(FaultError):
        FaultConfig(drop_prob=0.1, max_retries=0)
    with pytest.raises(FaultError):
        FaultConfig(slow_pes=(0,), slow_factor=0.5)
    with pytest.raises(FaultError):
        FaultConfig(stall_prob=0.1, stall_time=-1.0)
    with pytest.raises(FaultError):
        FaultConfig(drop_prob=0.1, max_backoff=0.0)


@pytest.mark.parametrize("name", [
    "jitter", "delay_prob", "delay_spike", "drop_prob", "ack_timeout",
    "retry_backoff", "max_backoff", "dup_prob", "dup_lag", "slow_factor",
    "stall_prob", "stall_time",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_floats(name, value):
    """NaN is neither < 0 nor >= 1: it used to pass every range check."""
    with pytest.raises(FaultError, match=name):
        FaultConfig(**{name: value})


@pytest.mark.parametrize("name,value", [
    ("slow_pes", (1.5,)),
    ("slow_pes", (True,)),
    ("slow_pes", [1]),
    ("seed", 1.5),
    ("seed", "7"),
    ("max_retries", 2.5),
    ("max_retries", True),
    ("jitter", "x"),
    ("jitter", True),
])
def test_config_rejects_what_it_used_to_take_silently(name, value):
    """A fractional or boolean rank slowed no PE, a seed of 1.5 or "7"
    passed where Kernel(seed=) refuses it, and jitter="x" was a bare
    TypeError: each is now a FaultError naming the field."""
    with pytest.raises(FaultError, match=name):
        FaultConfig(**{name: value})


def test_config_describe():
    assert FaultConfig().describe() == "inert"
    desc = FaultConfig(drop_prob=0.1, jitter=1e-6).describe()
    assert "drop_prob=0.1" in desc and "jitter=1e-06" in desc


def test_kernel_rejects_bad_faults_argument(ideal4):
    with pytest.raises(ConfigurationError):
        Kernel(ideal4, faults=42)


def test_kernel_rejects_prebuilt_layer(ideal4):
    # The kernel builds its own layer: one shared between kernels summed
    # their counters (a second run read twice the first run's drops).
    layer = FaultLayer(FaultConfig(drop_prob=0.05))
    with pytest.raises(ConfigurationError, match="faults"):
        Kernel(ideal4, faults=layer)
    result = run_echo(ideal4, n=8, faults=FaultConfig(drop_prob=0.05))
    assert result.result is not None
    assert isinstance(result.kernel.faults, FaultLayer)
    assert result.kernel.faults.config == FaultConfig(drop_prob=0.05)


def test_slow_pes_out_of_range_rejected(ideal4):
    with pytest.raises(FaultError):
        Kernel(ideal4, faults=FaultConfig(slow_pes=(7,)))


# ------------------------------------------------------- inert layer, golden
INERT_CASES = [
    ("fib-ideal-random-fifo",
     lambda cfg: run_fib(make_machine("ideal", 8), n=14, threshold=6,
                         balancer="random", queueing="fifo", seed=0,
                         faults=cfg)),
    ("queens-ipsc2-acwn-fifo",
     lambda cfg: run_nqueens(make_machine("ipsc2", 8), n=6, grainsize=2,
                             balancer="acwn", queueing="fifo", seed=3,
                             faults=cfg)),
]


@pytest.mark.parametrize("case_id,runner", INERT_CASES,
                         ids=[c[0] for c in INERT_CASES])
def test_inert_layer_is_golden(case_id, runner):
    """An all-zero fault config reproduces the golden fixtures exactly."""
    answer, result = runner(FaultConfig())
    assert _fingerprint(answer, result) == _load_fixtures()[case_id]


def test_inert_layer_reports_enabled(ideal4):
    result = run_echo(ideal4, n=8, faults=FaultConfig())
    st = result.stats
    assert st.faults_enabled and st.fault_config == "inert"
    d = st.as_dict()["faults"]
    assert d["enabled"] and all(
        d[k] == 0 for k in ("dropped", "delayed", "duplicated",
                            "dups_suppressed", "retries", "stalls"))


def test_no_layer_reports_disabled(ideal4):
    st = run_echo(ideal4, n=8).stats
    assert not st.faults_enabled
    assert "faults" not in st.summary()


# -------------------------------------------------------------- determinism
DROPPY = dict(drop_prob=0.10, dup_prob=0.05, delay_prob=0.05,
              jitter=20e-6, stall_prob=0.01)


def _queens(seed, **cfg_kw):
    cfg = FaultConfig(**cfg_kw) if cfg_kw else None
    return run_nqueens(make_machine("ncube2", 16), n=6, grainsize=2,
                       seed=seed, faults=cfg)


def test_same_seed_same_config_bit_identical():
    a1, r1 = _queens(3, **DROPPY)
    a2, r2 = _queens(3, **DROPPY)
    assert _fingerprint(a1, r1) == _fingerprint(a2, r2)


def test_fault_seed_decoupled_from_kernel_seed():
    """An explicit fault seed pins the fault schedule independently."""
    _, r1 = run_nqueens(make_machine("ncube2", 16), n=6, grainsize=2, seed=3,
                        faults=FaultConfig(drop_prob=0.10, seed=99))
    _, r2 = run_nqueens(make_machine("ncube2", 16), n=6, grainsize=2, seed=3,
                        faults=FaultConfig(drop_prob=0.10, seed=98))
    assert float(r1.time).hex() != float(r2.time).hex()


# -------------------------------------------------- drop + retry protocol
def test_drop_retry_converges_and_answer_survives():
    base_answer, base = _queens(3)
    answer, result = _queens(3, drop_prob=0.10)
    k = result.kernel
    assert answer == base_answer
    assert not result.truncated
    assert result.time > base.time           # loss costs latency...
    assert k.qd.detected_at is not None      # ...but QD still terminates
    assert result.stats.counted_sent == result.stats.counted_processed
    assert result.stats.msgs_dropped > 0 and result.stats.retries > 0
    assert k.faults.acks_sent > 0
    assert k.qd.partials == {}               # no stale wave state leaked


def test_duplicates_are_suppressed():
    base_answer, _ = _queens(3)
    answer, result = _queens(3, dup_prob=0.25)
    f = result.stats
    assert answer == base_answer
    assert f.msgs_duplicated > 0
    # Every duplicate that arrived before exit was deduplicated; none
    # executed twice (the answer and counted totals would diverge).
    assert f.dups_suppressed <= f.msgs_duplicated
    assert result.stats.counted_sent == result.stats.counted_processed


def test_drop_plus_dup_combined():
    base_answer, _ = _queens(3)
    answer, result = _queens(3, drop_prob=0.12, dup_prob=0.10)
    assert answer == base_answer
    assert not result.truncated
    assert result.kernel.qd.detected_at is not None


def test_retry_safety_valve_trips():
    with pytest.raises(FaultError):
        _queens(3, drop_prob=0.9, max_retries=1)


def test_backoff_cap_dormant_at_default_loss_rates():
    """The ceiling pins historical results: R-series-style configs never
    reach it, so a run with the default cap is bit-identical to one with
    an effectively infinite cap (pre-ceiling behaviour)."""
    a_cap, r_cap = _queens(3, **DROPPY)
    a_inf, r_inf = _queens(3, **DROPPY, max_backoff=1e9)
    assert _fingerprint(a_cap, r_cap) == _fingerprint(a_inf, r_inf)


def test_backoff_cap_engages_and_bounds_retry_delay():
    """Under heavy loss with an aggressive timeout, uncapped doubling used
    to push retransmissions seconds into virtual time; the ceiling keeps
    the retry cadence bounded without changing the answer."""
    heavy = dict(drop_prob=0.55, ack_timeout=1e-4, max_retries=24)
    a_tight, r_tight = _queens(3, max_backoff=2e-4, **heavy)
    a_loose, r_loose = _queens(3, max_backoff=1e9, **heavy)
    base_answer, _ = _queens(3)
    assert a_tight == a_loose == base_answer
    assert r_tight.stats.retries > 0
    # Same loss schedule, same retries needed — but the capped run pays a
    # bounded delay per attempt and finishes strictly sooner.
    assert r_tight.time < r_loose.time


def test_per_pe_counters_sum_to_aggregates():
    _, result = _queens(3, **DROPPY)
    f = result.stats
    rows = f.pe_rows
    assert f.msgs_dropped and f.retries and f.dups_suppressed and f.stalls
    assert sum(r.msgs_dropped for r in rows) == f.msgs_dropped
    assert sum(r.retries for r in rows) == f.retries
    assert sum(r.dups_suppressed for r in rows) == f.dups_suppressed
    assert sum(r.stalls for r in rows) == f.stalls


# ------------------------------------------------------------ latency models
def test_delay_and_jitter_perturb_timing():
    _, base = _queens(3)
    _, result = _queens(3, delay_prob=0.2, jitter=50e-6)
    f = result.stats
    assert f.msgs_delayed > 0 and f.msgs_dropped == 0
    assert float(result.time).hex() != float(base.time).hex()


def test_slow_pe_stretches_execution():
    a0, base = _queens(3)
    a1, result = _queens(3, slow_pes=tuple(range(16)), slow_factor=3.0)
    assert a1 == a0
    assert result.time > base.time
    busy0 = sum(r.busy_time for r in base.stats.pe_rows)
    busy1 = sum(r.busy_time for r in result.stats.pe_rows)
    assert busy1 == pytest.approx(3.0 * busy0)


def test_stalls_counted_and_charged():
    a0, _ = _queens(3)
    a1, result = _queens(3, stall_prob=0.3, stall_time=2e-3)
    f = result.stats
    assert a1 == a0
    assert f.stalls > 0
    assert sum(r.stall_time for r in result.stats.pe_rows) == pytest.approx(
        f.stalls * 2e-3)


# -------------------------------------------------------------- reporting
def test_report_roundtrips_through_json():
    _, result = _queens(3, **DROPPY)
    d = result.stats.as_dict()
    blob = json.loads(json.dumps(d))
    assert blob["faults"]["enabled"] is True
    assert blob["faults"]["retries"] == result.stats.retries > 0
    assert "faults [" in result.stats.summary()


def test_counters_accessor_and_repr():
    _, result = _queens(3, drop_prob=0.05)
    c = result.kernel.faults.counters()
    assert c["msgs_dropped"] == result.stats.msgs_dropped > 0
    assert c["retries"] == result.stats.retries


# ------------------------------------------------------- local immunity
def test_local_messages_unperturbed(ideal4):
    """Self-sends never traverse the network: no fault model touches them."""
    # On 1 PE every message is local — a brutal config must change nothing.
    machine = make_machine("ideal", 1)
    a0, r0 = run_fib(machine, n=10, threshold=4, seed=0)
    cfg = FaultConfig(drop_prob=0.5, dup_prob=0.5, delay_prob=0.5,
                      jitter=1e-3)
    a1, r1 = run_fib(machine, n=10, threshold=4, seed=0, faults=cfg)
    assert (a0, float(r0.time).hex()) == (a1, float(r1.time).hex())
    f = r1.stats
    assert f.msgs_dropped == f.msgs_duplicated == f.msgs_delayed == 0


def test_only_remote_messages_reach_the_layer(monkeypatch):
    """The kernel's local path schedules a self-send itself: the layer
    perturbs the network and nothing else."""
    seen = []
    transmit = FaultLayer.transmit

    def spy(self, env, t, arrival, attempt=0):
        seen.append(env.src_pe != env.dst_pe)
        transmit(self, env, t, arrival, attempt)

    monkeypatch.setattr(FaultLayer, "transmit", spy)
    run_fib(make_machine("ncube2", 4), n=12, threshold=4, seed=0,
            faults=FaultConfig(drop_prob=0.05, dup_prob=0.05))
    assert seen and all(seen)


# ------------------------------------------------------- one set of books
def test_every_counted_fault_has_its_event():
    """Each perturbation leaves one ``fault`` event, retransmissions
    included: per name, the trace and the report's totals agree."""
    cfg = FaultConfig(drop_prob=0.15, delay_prob=0.2, dup_prob=0.1,
                      stall_prob=0.05)
    _, result = run_fib(make_machine("ncube2", 16), n=14, threshold=4,
                        seed=0, faults=cfg, trace_events=True)
    names = Counter(e["name"] for e in result.kernel.events.as_records()
                    if e["kind"] == "fault")
    st = result.stats
    assert dict(names) == {
        "drop": st.msgs_dropped, "delay": st.msgs_delayed,
        "dup": st.msgs_duplicated, "dup_suppressed": st.dups_suppressed,
        "retry": st.retries, "stall": st.stalls,
    }
    assert all(names.values())
