"""Trace/report invariants: the counters must tell a consistent story."""

import pickle

import pytest

from repro import Kernel, make_machine
from repro.bench.harness import describe, run_descriptor
from repro.trace.report import PERow, TraceReport
from tests.conftest import run_echo
from tests.test_golden_trace import CASES, _run_case


def test_report_shape(ipsc8):
    result = run_echo(ipsc8, n=16, seed=1)
    report = result.stats
    assert isinstance(report, TraceReport)
    assert report.num_pes == 8
    assert len(report.pe_rows) == 8
    assert report.machine == "ipsc2"
    assert report.queueing == "fifo"
    assert report.balancer == "random"


def test_utilization_bounded(ipsc8):
    report = run_echo(ipsc8, n=32, seed=1).stats
    for row in report.pe_rows:
        assert 0.0 <= row.utilization <= 1.0 + 1e-9
    assert 0.0 <= report.mean_utilization <= 1.0 + 1e-9


def test_busy_time_not_exceeding_wall(ipsc8):
    result = run_echo(ipsc8, n=32, seed=1)
    for row in result.stats.pe_rows:
        assert row.busy_time <= result.time + 1e-12


def test_counts_consistent(ipsc8):
    result = run_echo(ipsc8, n=20, seed=1)
    report = result.stats
    # 20 worker seeds + 20 replies, executed exactly once each.
    seeds = sum(r.seeds_executed for r in report.pe_rows)
    msgs = sum(r.msgs_executed for r in report.pe_rows)
    assert seeds == 20 + 1  # + main-chare construction
    assert msgs == 20
    # Nothing counted was lost in flight.
    assert report.counted_sent == report.counted_processed


def test_bytes_sent_positive_and_accounted(ipsc8):
    report = run_echo(ipsc8, n=8, seed=1).stats
    assert report.total_bytes_sent > 0
    assert report.total_bytes_sent == sum(r.bytes_sent for r in report.pe_rows)


def test_load_imbalance_of_idle_run_is_finite(ideal4):
    report = run_echo(ideal4, n=4).stats
    assert report.load_imbalance >= 1.0 or report.load_imbalance == 0.0


def test_as_dict_and_summary(ipsc8):
    report = run_echo(ipsc8, n=8, seed=1).stats
    d = report.as_dict()
    for key in ("machine", "num_pes", "total_time", "mean_util", "imbalance"):
        assert key in d
    text = report.summary()
    assert "ipsc2" in text
    assert "utilization" in text


def test_charged_units_match_apps(ideal4):
    result = run_echo(ideal4, n=10)
    # EchoWorker charges 10 units each; runtime services add a little more.
    assert result.stats.total_charged >= 100
    app_units = sum(10 for _ in range(10))
    assert result.stats.total_charged < app_units + 500  # services stay modest


# ------------------------------------------------------ PERow: a named tuple
PE_ROW_FIELDS = (
    "pe", "busy_time", "utilization", "msgs_executed", "seeds_executed",
    "system_executed", "msgs_sent", "bytes_sent", "seeds_created",
    "charged_units", "max_pool", "steal_attempts", "steals_satisfied",
    # fault counters, then the idle aggregates: the nine defaulted fields
    "msgs_dropped", "msgs_delayed", "msgs_duplicated", "dups_suppressed",
    "retries", "stalls", "stall_time", "idle_time", "largest_idle_gap",
)


def test_pe_row_contract():
    from repro.trace import PERow as exported

    assert exported is PERow
    assert PERow._fields == PE_ROW_FIELDS and len(PE_ROW_FIELDS) == 22
    required = tuple(range(13))
    row = PERow(*required)
    assert row[13:] == (0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0)
    assert [type(v) for v in row[13:]] == [int] * 6 + [float] * 3
    assert PERow(**dict(zip(PE_ROW_FIELDS, required))) == row
    full = PERow(*range(22))
    assert PERow(**dict(zip(PE_ROW_FIELDS, range(22)))) == full
    assert full.largest_idle_gap == 21 and full.msgs_dropped == 13
    with pytest.raises(AttributeError):
        row.busy_time = 1.0
    with pytest.raises(TypeError):
        PERow(0)                          # the first 13 have no default
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        back = pickle.loads(pickle.dumps(full, protocol))
        assert back == full and type(back) is PERow


def test_measure_row_of_a_64_pe_run_pickles_small():
    """P per-PE rows are most of a row's bytes (92 % at P = 64): as
    dataclasses they pickled with a 22-entry state dict each and this row
    took 10,000 B; as tuples it takes about 6,800."""
    row = run_descriptor(describe("queens", "ncube2", 64, n=6, grainsize=2))
    assert len(row.stats.pe_rows) == 64
    blob = pickle.dumps(row, pickle.HIGHEST_PROTOCOL)
    assert len(blob) < 7500
    assert pickle.loads(blob).stats == row.stats


# First and last PE of the golden case "queens-ncube2-acwn-prio" (P = 16)
# as TraceReport.from_kernel built them at the parent commit, when it
# filled a frozen dataclass by keyword; floats as float.hex().
GOLDEN_PE_ROWS = {
    0: dict(pe=0, busy_time="0x1.1276fb09203a4p-9",
            utilization="0x1.c031ffceaf883p-3", msgs_executed=3,
            seeds_executed=11, system_executed=40, msgs_sent=83,
            bytes_sent=6218, seeds_created=25,
            charged_units="0x1.f000000000000p+7", max_pool=7,
            steal_attempts=0, steals_satisfied=0, msgs_dropped=0,
            msgs_delayed=0, msgs_duplicated=0, dups_suppressed=0, retries=0,
            stalls=0, stall_time="0x0.0p+0",
            idle_time="0x1.e9d79f8ea620ep-8",
            largest_idle_gap="0x1.fd9ba1b1960f8p-11"),
    15: dict(pe=15, busy_time="0x1.b75a74c09c3cfp-11",
             utilization="0x1.66ba3bfeac475p-4", msgs_executed=0,
             seeds_executed=4, system_executed=18, msgs_sent=21,
             bytes_sent=1633, seeds_created=5,
             charged_units="0x1.8000000000000p+6", max_pool=4,
             steal_attempts=0, steals_satisfied=0, msgs_dropped=0,
             msgs_delayed=0, msgs_duplicated=0, dups_suppressed=0, retries=0,
             stalls=0, stall_time="0x0.0p+0",
             idle_time="0x1.1e13e73d915b3p-7",
             largest_idle_gap="0x1.591cd1c7de50dp-9"),
}


def test_from_kernel_rows_of_a_golden_run_equal_the_parents():
    (_, runner, spec), = [c for c in CASES
                          if c[0] == "queens-ncube2-acwn-prio"]
    _, result = _run_case(runner, spec)
    rows = result.stats.pe_rows
    assert len(rows) == 16
    for index, expected in GOLDEN_PE_ROWS.items():
        row = rows[index]
        assert len(expected) == 22
        for name, value in expected.items():
            got = getattr(row, name)
            assert (got.hex() if isinstance(got, float) else got) == value, name
