"""The bench CLI's --output recording and small leftovers."""

import json

import pytest

from repro.bench.__main__ import main, _jsonable


def test_output_writes_txt_and_json(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["--exp", "t9", "--scale", "quick", "--output", str(out),
                 "--jobs", "1", "--cache-dir", str(tmp_path / "cache"),
                 "--no-progress"]) == 0
    txt = (out / "t9.txt").read_text()
    assert "T9" in txt and "QD waves" in txt
    payload = json.loads((out / "t9.json").read_text())
    assert payload["id"] == "T9"
    assert payload["scale"] == "quick"
    assert payload["data"]


def test_jsonable_coerces_everything():
    class Odd:
        def __repr__(self):
            return "<odd>"

    data = {(1, 2): [Odd(), 3, (4.5, None)], "k": {"n": True}}
    out = _jsonable(data)
    assert out == {"(1, 2)": ["<odd>", 3, [4.5, None]], "k": {"n": True}}
    json.dumps(out)  # must round-trip


def test_engine_advance_to_never_goes_backward():
    from repro.sim.engine import Engine

    eng = Engine()
    eng.schedule_call(1.0, lambda _: None, None)
    eng.run()
    eng.advance_to(0.5)
    assert eng.now == 1.0
    eng.advance_to(2.5)
    assert eng.now == 2.5


def test_envelope_kind_name_unknown():
    from repro.core.handles import ChareHandle
    from repro.core.messages import Envelope

    env = Envelope.make_app(0, 0, "x", (), ChareHandle(0))
    env.kind = 99
    assert env.kind_name() == "?"


def test_load_imbalance_zero_when_idle():
    from repro.trace.report import PERow, TraceReport

    report = TraceReport(machine="m", num_pes=1, queueing="fifo",
                         balancer="local", total_time=0.0,
                         pe_rows=[PERow(0, 0.0, 0.0, 0, 0, 0, 0, 0, 0,
                                        0.0, 0, 0, 0)])
    assert report.load_imbalance == 0.0
    assert report.mean_utilization == 0.0


def test_entry_error_propagates_not_swallowed(ideal4):
    from repro import Chare, Kernel, entry

    class Boom(Chare):
        def __init__(self, main):
            self.send(main, "ok")

        @entry
        def explode(self):
            raise ValueError("app bug")

    class Main(Chare):
        def __init__(self):
            self.child = self.create(Boom, self.thishandle, pe=1)

        @entry
        def ok(self):
            self.send(self.child, "explode")

    with pytest.raises(ValueError, match="app bug"):
        Kernel(ideal4).run(Main)
