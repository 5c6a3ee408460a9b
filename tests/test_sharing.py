"""Information-sharing abstractions: read-only, write-once, accumulator,
monotonic, distributed table."""

import pytest

from repro import Chare, Kernel, entry, make_machine
from repro.sharing.ops import combine, improves
from repro.util.errors import SharingError


# ------------------------------------------------------------------- operators
def test_combine_named_ops():
    assert combine("sum", 2, 3) == 5
    assert combine("prod", 2, 3) == 6
    assert combine("min", 2, 3) == 2
    assert combine("max", 2, 3) == 3
    assert combine(lambda a, b: a - b, 5, 2) == 3
    with pytest.raises(SharingError):
        combine("avg", 1, 2)


def test_improves_orders():
    assert improves("min", 1, 2)
    assert not improves("min", 2, 2)
    assert improves("max", 3, 2)
    assert improves(lambda n, o: len(n) > len(o), "ab", "a")
    with pytest.raises(SharingError):
        improves("median", 1, 2)


# -------------------------------------------------------------------- readonly
def test_readonly_visible_everywhere():
    class Reader(Chare):
        def __init__(self, main):
            self.send(main, "got", self.readonly("config"), self.my_pe)

    class Main(Chare):
        def __init__(self, n):
            self.set_readonly("config", {"alpha": 7})
            self.n, self.seen = n, []
            for i in range(n):
                self.create(Reader, self.thishandle, pe=i % self.num_pes)

        @entry
        def got(self, cfg, pe):
            assert cfg == {"alpha": 7}
            self.seen.append(pe)
            if len(self.seen) == self.n:
                self.exit(sorted(set(self.seen)))

    result = Kernel(make_machine("ipsc2", 4)).run(Main, 8)
    assert result.result == [0, 1, 2, 3]


def test_readonly_outside_ctor_rejected(ideal4):
    class Main(Chare):
        def __init__(self):
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            self.set_readonly("x", 1)

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_readonly_double_set_rejected(ideal4):
    class Main(Chare):
        def __init__(self):
            self.set_readonly("x", 1)
            self.set_readonly("x", 2)

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_readonly_unknown_name_raises(ideal4):
    class Main(Chare):
        def __init__(self):
            self.readonly("missing")

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


# ------------------------------------------------------------------ write-once
def test_write_once_replicates(ipsc8):
    class Reader(Chare):
        def __init__(self, main):
            self.main = main

        @entry
        def read(self):
            self.send(self.main, "value", self.get_writeonce("w"))

    class Main(Chare):
        def __init__(self):
            self.reader = self.create(Reader, self.thishandle, pe=7)
            self.send(self.thishandle, "write")

        @entry
        def write(self):
            self.write_once("w", ("payload", 42))
            # Give the broadcast time to replicate before reading remotely.
            self.start_quiescence(self.thishandle, "settled")

        @entry
        def settled(self):
            self.send(self.reader, "read")

        @entry
        def value(self, v):
            self.exit(v)

    assert Kernel(ipsc8).run(Main).result == ("payload", 42)


def test_write_once_twice_rejected(ideal4):
    class Main(Chare):
        def __init__(self):
            self.send(self.thishandle, "go")

        @entry
        def go(self):
            self.write_once("w", 1)
            self.write_once("w", 2)

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_get_writeonce_before_replication_raises(ipsc8):
    class Reader(Chare):
        def __init__(self, main):
            # Runs before any write: must raise locally.
            self.get_writeonce("w")

    class Main(Chare):
        def __init__(self):
            self.create(Reader, self.thishandle, pe=3)

    with pytest.raises(SharingError):
        Kernel(ipsc8).run(Main)


# ----------------------------------------------------------------- accumulator
def test_accumulator_is_fold(ideal4):
    class Worker(Chare):
        def __init__(self, v):
            self.accumulate("acc", v)

    class Main(Chare):
        def __init__(self, values):
            self.new_accumulator("acc", 100, "sum")
            for v in values:
                self.create(Worker, v)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.collect_accumulator("acc", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.exit(total)

    values = [1, 2, 3, 4, 5]
    result = Kernel(ideal4).run(Main, values)
    # The declared initial participates exactly once, whatever P is.
    assert result.result == 100 + sum(values)


def test_accumulator_max_semantics(ipsc8):
    class Worker(Chare):
        def __init__(self, v):
            self.accumulate("best", v)

    class Main(Chare):
        def __init__(self):
            self.new_accumulator("best", 0, "max")
            for v in (3, 17, 5, 11):
                self.create(Worker, v)
            self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.collect_accumulator("best", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.exit(total)

    assert Kernel(ipsc8).run(Main).result == 17


def test_accumulator_declared_outside_ctor_rejected(ideal4):
    class Main(Chare):
        def __init__(self):
            self.send(self.thishandle, "later")

        @entry
        def later(self):
            self.new_accumulator("late", 0)

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_unknown_accumulator_raises(ideal4):
    class Main(Chare):
        def __init__(self):
            self.accumulate("ghost", 1)

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_bad_accumulator_op_fails_at_declaration(ideal4):
    """A bad combiner is a declaration error naming ``op`` — not a
    SharingError from whichever later fold first has two operands."""

    class Main(Chare):
        def __init__(self, op):
            self.new_accumulator("n", 0, op)
            self.exit("declared")

    for bad in ("avg", None, 3, ["sum"]):
        with pytest.raises(SharingError, match=r"op=.*options.*'sum'"):
            Kernel(ideal4).run(Main, bad)
    for good in ("sum", "prod", "max", "min", lambda a, b: a | b):
        assert Kernel(ideal4).run(Main, good).result == "declared"


def test_bad_monotonic_order_fails_at_declaration(ideal4):
    class Main(Chare):
        def __init__(self, better):
            self.new_monotonic("m", 0, better)
            self.exit("declared")

    for bad in ("smallest", None, 1):
        with pytest.raises(SharingError, match=r"better=.*options.*'max', 'min'"):
            Kernel(ideal4).run(Main, bad)
    for good in ("min", "max", lambda new, old: new > old):
        assert Kernel(ideal4).run(Main, good).result == "declared"


def test_double_collect_allowed(ideal4):
    """Collection is non-destructive and repeatable."""

    class Main(Chare):
        def __init__(self):
            self.new_accumulator("acc", 0, "sum")
            self.accumulate("acc", 5)
            self.results = []
            self.collect_accumulator("acc", self.thishandle, "got")

        @entry
        def got(self, tag, total):
            self.results.append(total)
            if len(self.results) == 2:
                self.exit(self.results)
            else:
                self.collect_accumulator("acc", self.thishandle, "got")

    assert Kernel(ideal4).run(Main).result == [5, 5]


# ------------------------------------------------------------------- monotonic
def _mono_main(propagation):
    class Worker(Chare):
        def __init__(self, main, v):
            self.update_monotonic("bound", v)
            self.send(main, "done")

    class Main(Chare):
        def __init__(self, values):
            self.new_monotonic("bound", 10**9, "min", propagation)
            self.pending = len(values)
            for v in values:
                self.create(Worker, self.thishandle, v)

        @entry
        def done(self):
            self.pending -= 1
            if self.pending == 0:
                self.start_quiescence(self.thishandle, "quiet")

        @entry
        def quiet(self):
            self.exit(self.read_monotonic("bound"))

    return Main


@pytest.mark.parametrize("propagation", ["eager", "lazy"])
def test_monotonic_converges_to_best(ipsc8, propagation):
    result = Kernel(ipsc8).run(_mono_main(propagation), [44, 12, 90, 33])
    assert result.result == 12


def test_monotonic_off_keeps_local_only(ipsc8):
    # With propagation off, PE0 sees only updates made on PE0; the main
    # chare's read may be stale (but never *better* than the true best).
    result = Kernel(ipsc8).run(_mono_main("off"), [44, 12, 90, 33])
    assert result.result >= 12


def test_monotonic_rejects_worse_updates(ideal4):
    class Main(Chare):
        def __init__(self):
            self.new_monotonic("m", 50, "min")
            self.update_monotonic("m", 60)   # worse: ignored
            self.update_monotonic("m", 40)   # better: applied
            self.update_monotonic("m", 45)   # worse again
            self.exit(self.read_monotonic("m"))

    assert Kernel(ideal4).run(Main).result == 40


def test_monotonic_invalid_propagation(ideal4):
    class Main(Chare):
        def __init__(self):
            self.new_monotonic("m", 0, "max", propagation="psychic")

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


# ----------------------------------------------------------------------- table
def test_table_insert_find_delete(ipsc8):
    class Main(Chare):
        def __init__(self):
            self.new_table("t")
            self.phase = 0
            self.table_insert("t", "k1", 111, reply_to=self.thishandle,
                              reply_entry="acked")

        @entry
        def acked(self, key):
            self.table_find("t", "k1", self.thishandle, "found")

        @entry
        def found(self, key, value):
            if self.phase == 0:
                assert value == 111
                self.phase = 1
                self.table_delete("t", "k1")
                self.start_quiescence(self.thishandle, "quiet")
            else:
                self.exit(value)

        @entry
        def quiet(self):
            self.table_find("t", "k1", self.thishandle, "found")

    assert Kernel(ipsc8).run(Main).result is None


def test_table_find_missing_returns_none(ideal4):
    class Main(Chare):
        def __init__(self):
            self.new_table("t")
            self.table_find("t", ("no", "such"), self.thishandle, "found")

        @entry
        def found(self, key, value):
            self.exit((key, value))

    assert Kernel(ideal4).run(Main).result == (("no", "such"), None)


def test_table_unknown_name_raises(ideal4):
    class Main(Chare):
        def __init__(self):
            self.table_insert("ghost", 1, 2, None, "")

    with pytest.raises(SharingError):
        Kernel(ideal4).run(Main)


def test_table_keys_spread_across_shards(ipsc8):
    class Main(Chare):
        def __init__(self, n):
            self.new_table("t")
            self.n = n
            self.acks = 0
            for i in range(n):
                self.table_insert("t", f"key{i}", i, reply_to=self.thishandle,
                                  reply_entry="acked")

        @entry
        def acked(self, key):
            self.acks += 1
            if self.acks == self.n:
                self.exit(True)

    kernel = Kernel(ipsc8)
    assert kernel.run(Main, 64).result is True
    sizes = [len(kernel.sharing.shard("t", pe)) for pe in range(8)]
    assert sum(sizes) == 64
    assert max(sizes) < 64  # more than one shard used
