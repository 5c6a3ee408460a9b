"""Unit tests for the bench harness, table formatting, and CLIs."""

import pytest

from repro.bench.harness import APPS, MeasureRow, describe, sweep_from_rows
from repro.bench.parallel import SweepExecutor
from repro.bench.tables import format_series, format_table
from repro.util.errors import ConfigurationError

#: Runs a batch inline, in submission order (never starts a pool).
SERIAL = SweepExecutor(jobs=1)


# --------------------------------------------------------------------- tables
def test_format_table_alignment():
    text = format_table(
        ["name", "value"], [["alpha", 1.5], ["b", 12345.678]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 5


def test_format_table_number_formats():
    text = format_table(["x"], [[0.123456], [12.3456], [12345.6], [0]])
    assert "0.123" in text
    assert "12.35" in text
    assert "12,346" in text
    assert "\n0" in text


def test_format_series():
    line = format_series("s", [1, 2], [1.0, 1.5])
    assert line == "s: (1,1.000) (2,1.500)"


# -------------------------------------------------------------------- harness
def test_all_app_specs_have_runners():
    for name, spec in APPS.items():
        assert callable(spec.runner)
        assert spec.name == name
        assert isinstance(spec.defaults, dict)


def test_measure_returns_row():
    row = SERIAL.run_many([describe("fib", "ideal", 2, n=12, threshold=6)])[0]
    assert isinstance(row, MeasureRow)
    assert row.answer == 144
    assert row.vtime_ms > 0
    assert row.machine == "ideal"


def test_measure_override_wins_over_default():
    row = SERIAL.run_many([describe("queens", "ideal", 1, n=5, grainsize=2)])[0]
    assert row.answer[0] == 10  # 5-queens, not the default 8-queens (92)


def test_measure_queueing_kwarg():
    row = SERIAL.run_many([describe("fib", "ideal", 2, queueing="lifo", n=10,
                                    threshold=5)])[0]
    assert row.queueing == "lifo"


def test_speedup_sweep_shapes():
    pes = [1, 2, 4]
    rows = SERIAL.run_many([describe("fib", "ipsc2", p, n=14, threshold=7)
                            for p in pes])
    sweep = sweep_from_rows("fib", "ipsc2", pes, rows)
    assert sweep.pes == [1, 2, 4]
    assert len(sweep.times) == 3
    assert sweep.speedups[0] == pytest.approx(1.0)
    assert sweep.consistent()
    assert all(s > 0 for s in sweep.speedups)


def test_measure_unknown_app_rejected():
    with pytest.raises(ConfigurationError):
        describe("quicksort3000", "ideal", 1)


# ------------------------------------------------------------------------ CLI
def test_bench_cli_single_experiment(capsys):
    from repro.bench.__main__ import main

    assert main(["--exp", "t9", "--scale", "quick", "--jobs", "1",
                 "--no-cache", "--no-progress"]) == 0
    out = capsys.readouterr().out
    assert "T9" in out
    assert "QD waves" in out


def test_bench_cli_rejects_unknown(capsys):
    from repro.bench.__main__ import main

    for exp in ("t99", "t9,nope"):
        with pytest.raises(SystemExit) as exit_info:
            main(["--exp", exp])
        assert exit_info.value.code == 2  # argparse usage error, no traceback
        err = capsys.readouterr().err
        assert "unknown experiment" in err and "options:" in err and "t9" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_cli_rejects_jobs_below_one(capsys, jobs):
    """--jobs 0 used to run serially without saying so."""
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit) as exit_info:
        main(["--exp", "t9", "--scale", "quick", "--jobs", jobs])
    assert exit_info.value.code == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_bench_cli_checks_output_before_the_sweep(capsys, tmp_path, monkeypatch):
    import repro.bench.__main__ as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep started before --output was checked")

    monkeypatch.setattr(cli, "plan_experiments", no_sweep)
    occupied = tmp_path / "a-file"
    occupied.write_text("")
    for bad in ("/proc/nope/x", str(occupied), str(occupied / "below")):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--exp", "t9", "--scale", "quick", "--output", bad])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--output" in err and bad in err and "Traceback" not in err
    monkeypatch.undo()
    out_dir = tmp_path / "made" / "for-you"
    assert cli.main(["--exp", "t9", "--scale", "quick", "--jobs", "1",
                     "--no-cache", "--no-progress",
                     "--output", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["t9.json", "t9.txt"]


def test_bench_cli_comma_separated_list(capsys):
    from repro.bench.__main__ import main

    assert main(["--exp", "t9,A5,t9", "--scale", "quick", "--jobs", "1",
                 "--no-cache", "--no-progress"]) == 0
    out = capsys.readouterr().out
    # Order given, case-insensitive, duplicates run once.
    assert out.count("== T9:") == 1 and out.count("== A5:") == 1
    assert out.index("== T9:") < out.index("== A5:")


def test_apps_cli_runs_app(capsys):
    from repro.apps.__main__ import main

    rc = main(["fib", "--machine", "ideal", "-P", "2",
               "--set", "n=12", "threshold=6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "answer    : 144" in out


def test_apps_cli_timeline(capsys):
    from repro.apps.__main__ import main

    rc = main(["fib", "--machine", "ideal", "-P", "2", "--timeline",
               "--set", "n=10", "threshold=5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "timeline" in out
    assert "PE  0" in out


def test_apps_cli_bad_set_pair():
    from repro.apps.__main__ import main

    with pytest.raises(SystemExit):
        main(["fib", "--set", "n:12"])


def test_apps_cli_value_parsing():
    from repro.apps.__main__ import _parse_value

    assert _parse_value("3") == 3
    assert _parse_value("2.5") == 2.5
    assert _parse_value("true") is True
    assert _parse_value("false") is False
    assert _parse_value("eager") == "eager"
