"""Edge cases for table/series formatting and ASCII figure rendering.

Pins the corners the experiment suite can actually hit: thousands
separators widening a column, empty sweeps, single-P sweeps, and
degenerate (flat/single-point) chart ranges.
"""

from repro.bench.figures import render_chart
from repro.bench.harness import describe, sweep_from_rows
from repro.bench.parallel import SweepExecutor
from repro.bench.tables import format_series, format_table


# ------------------------------------------------------------ format_table
def test_separator_alignment_with_thousands_grouping():
    """1,000-style grouping adds characters; widths must track the
    *rendered* cell, so the dashed rule still spans every column."""
    text = format_table(["app", "events"], [["fib", 1234567.0], ["q", 5.0]])
    header, rule, wide_row, narrow_row = text.splitlines()
    assert "1,234,567" in wide_row
    assert len(header) == len(rule) == len(wide_row) == len(narrow_row)
    # Rule segments mirror the final column widths exactly.
    assert rule == "-" * 3 + "  " + "-" * len("1,234,567")
    # Numeric column is right-aligned: narrow value ends flush.
    assert narrow_row.endswith("5.000")
    assert len(narrow_row.split()[-1]) == 5


def test_format_table_empty_rows():
    text = format_table(["P", "time"], [], title="empty sweep")
    lines = text.splitlines()
    assert lines == ["empty sweep", "P  time", "-  ----"]


def test_format_table_no_title_no_blank_line():
    text = format_table(["a"], [["x"]])
    assert text.splitlines()[0] == "a"


def test_format_table_negative_and_zero():
    text = format_table(["v"], [[-1500.0], [0.0], [-0.25]])
    assert "-1,500" in text
    assert "\n0" in text
    assert "-0.250" in text


def test_format_series_empty():
    assert format_series("s", [], []) == "s: "


def test_format_series_mismatched_lengths_zip_truncates():
    assert format_series("s", [1, 2, 3], [1.0]) == "s: (1,1.000)"


# ----------------------------------------------------------- single-P sweep
def test_single_p_sweep_is_well_defined():
    descs = [describe("fib", "ideal", 1, n=10, threshold=5)]
    rows = SweepExecutor(jobs=1).run_many(descs)
    sweep = sweep_from_rows("fib", "ideal", [1], rows)
    assert sweep.pes == [1]
    assert sweep.speedups == [1.0]
    assert sweep.consistent()
    table = format_table(
        ["P", "speedup"], [[p, s] for p, s in zip(sweep.pes, sweep.speedups)]
    )
    assert table.splitlines()[-1].split() == ["1", "1.000"]


# ------------------------------------------------------------- render_chart
def test_render_chart_empty_series_dict():
    assert render_chart({}) == "(empty chart)"


def test_render_chart_series_with_no_points():
    assert render_chart({"s": []}) == "(empty chart)"


def test_render_chart_single_point_degenerate_ranges():
    """One point: x and y ranges are zero-width; scaling must not divide
    by zero, and the point lands at the origin corner of the grid."""
    text = render_chart({"only": [(4.0, 2.0)]}, width=20, height=6)
    lines = text.splitlines()
    assert lines[0].startswith(f"{3.0:>10.2f}")   # y_hi = y_lo + 1
    assert lines[5].startswith(f"{2.0:>10.2f}")   # y_lo row carries the mark
    assert "o" in lines[5]
    assert "o" not in lines[0]
    assert "    o only" in text


def test_render_chart_flat_series():
    """All-equal y values (perfect efficiency line) must still render."""
    text = render_chart({"eff": [(1, 1.0), (2, 1.0), (4, 1.0)]},
                        width=24, height=5)
    bottom_row = text.splitlines()[4]
    assert bottom_row.count("o") == 3


def test_render_chart_mark_cycling_and_legend_order():
    series = {f"s{i}": [(i, i)] for i in range(10)}
    text = render_chart(series)
    legend = [l.strip() for l in text.splitlines()[-10:]]
    assert legend[0] == "o s0"
    assert legend[8] == "o s8"  # marks cycle after 8 series
    assert legend[9] == "x s9"
