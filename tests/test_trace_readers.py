"""Every reader of the event log gives its pinned output, from any source.

The five offline readers — the metrics sampler, the Perfetto exporter, the
critical path, the timeline and the latency walk — read a log through one
:class:`~repro.trace.events.EventIndex`.  Their output on the five traced
runs of ``tests/test_event_rows.py`` is pinned here by sha256, captured at
the commit before the index existed (when three of the five read dicts and
two read tuples).  Each reader must give that output from the exported
records, the live :class:`~repro.trace.events.EventLog`, an ``EventIndex``,
a JSON round trip of the records and :class:`~repro.trace.events.Event`
views of the rows.

``PYTHONPATH=src:. python tests/test_trace_readers.py`` prints the digests
of the checkout it runs in, read from the exported records.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.harness import execute_descriptor
from repro.metrics import request_latencies, sample_metrics
from repro.trace import Event, Timeline, critical_path, to_perfetto
from tests.test_event_rows import _parent_cases

#: sha256 of ``repr`` of each reader's output, per case.
PINNED = {
    "queens-ipsc2": {
        "sample_metrics":
            "e173fd985080d87c089de73e9c2317f6bdac608238dd476266e629783b1e1516",
        "to_perfetto":
            "87379b523e113ee3c084102827b6501a2c3e2a0c9d4e80c4d4082d7b2a4b88c8",
        "critical_path":
            "a9bf3e965e3c302b9882aa0bc8aca81bc1d60d94eb1b52cccbb82fd86a85daca",
        "timeline":
            "01fa8e2b1a1dbef3e183b995c2abf6a397e32523915914333da99f0f0dd32a8c",
        "request_latencies":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "queens-acwn-drop": {
        "sample_metrics":
            "80d1e871cb02d26bcda10f4fbd105a66ae80a1f51f6f92c65500819f5ba97750",
        "to_perfetto":
            "70d4b4c9cf2b86ae850cccf2d21ee96ca9b0b92f2960ffe7fa07d3334fe32674",
        "critical_path":
            "f5d1757ea0efc562704959ec908b5d5f6604d855368c1a2ebf5447ef1b8d445b",
        "timeline":
            "f9840a49f2b937fcbf0ad75be492c2c05c9f58a5e1604d50c9798b596b1910ae",
        "request_latencies":
            "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "serving-acwn": {
        "sample_metrics":
            "e837544fc9db4282ac0eca4276911d60b4a91ca1b248e4b6e3905d0f33c0d28b",
        "to_perfetto":
            "e01e3867076f6949bebf23454660f1cbf41c941eae803186d4632f81c3e48612",
        "critical_path":
            "e908f958c78d76075a788dce229f6191a8a09f0b06dcbcb0e33477ab65376dfe",
        "timeline":
            "ed6bff35cd9e9deade5bc32ca6f5a2b3cef89decb10ba2a9fcf2c3d924f3bc25",
        "request_latencies":
            "dd473fcae04d9a2e674131278799151ecb3c812220db296b0218508706166967",
    },
    "serving-central-drop": {
        "sample_metrics":
            "75bf67bfef1e64d9a53486d310b38dbcfd2905cb21d9940d5bdca38d8f8f49db",
        "to_perfetto":
            "2a3337d4ac3b1f8100bc0f3739ba3822ad28c9c80b55eedba13596aeb83ca638",
        "critical_path":
            "85530773bcef46c5bfc012b07493837a580deef40a94930f347b7aea133593e5",
        "timeline":
            "d7ccc4376430af9dcb5086f1aad00ed1d7fd6081d0190977beb489192554649e",
        "request_latencies":
            "36710da3100e07f0695f163576f8b7caf3c8c4655ee8ab3ba4093499c649affa",
    },
    "serving-token-hops-shed": {
        "sample_metrics":
            "43b400b4a26dca617a77765c8d0a37a5aca50f9ff7a6ea672b0d77194c124c49",
        "to_perfetto":
            "9bd3cd6f43b4ccb7a45e96162de341158ecf0a6edcee6a271fdf0fe2dd7d3cae",
        "critical_path":
            "4393a36d152174a399dea44c9fd3408d0f753b5d1a36a35c5c568d58cb834011",
        "timeline":
            "884153289b6d5e6e47ee1f182ddcf92be9263e344eaafa55896455311929d0b8",
        "request_latencies":
            "739ccf91e67492cf26544bfcb1845079c84ed7ccfc0dcc49f30c68f3073a2b14",
    },
}

#: The source shapes every reader takes, each built from one traced run.
SOURCES = {
    "records": lambda log, records: records,
    "log": lambda log, records: log,
    "index": lambda log, records: _index(records),
    "json": lambda log, records: json.loads(json.dumps(records)),
    "events": lambda log, records: list(map(Event._make, log.rows)),
}


def _index(records):
    # Imported here, so that the module also runs (and prints its digests)
    # in a checkout from before the index.
    from repro.trace.events import EventIndex

    return EventIndex(records)


def _runs():
    """Per case: the live log, its exported records and the run's meta."""
    out = {}
    for name, desc in _parent_cases().items():
        row = execute_descriptor(desc)
        out[name] = (row.result.kernel.events, row.trace["events"],
                     row.trace["meta"])
    return out


@pytest.fixture(scope="module")
def runs():
    return _runs()


def _digests(source, meta):
    metrics = sample_metrics(source, num_pes=meta.get("num_pes"),
                             t_end=meta.get("total_time"))
    path = critical_path(source)
    outputs = {
        "sample_metrics": metrics,
        "to_perfetto": to_perfetto(source, meta=meta, metrics=metrics),
        "critical_path": None if path is None else (path.steps,
                                                    path.summary()),
        "timeline": Timeline(source).render(),
        "request_latencies": request_latencies(source),
    }
    return {reader: hashlib.sha256(repr(out).encode()).hexdigest()
            for reader, out in outputs.items()}


@pytest.mark.parametrize("source", list(SOURCES))
@pytest.mark.parametrize("name", list(_parent_cases()))
def test_readers_give_the_pinned_output(runs, name, source):
    log, records, meta = runs[name]
    assert _digests(SOURCES[source](log, records), meta) == PINNED[name]


if __name__ == "__main__":
    print(json.dumps({name: _digests(records, meta)
                      for name, (_, records, meta) in _runs().items()},
                     indent=4))
